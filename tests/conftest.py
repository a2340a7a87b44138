"""Shared fixtures for the test suite."""

from __future__ import annotations

import weakref

import pytest

import repro.campaign.executor as executor_module
from repro.sim.config import (
    CacheConfig,
    CheckpointConfig,
    InterconnectConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SystemConfig,
    WorkloadConfig,
)
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.system import build_system


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def stats() -> StatsRegistry:
    return StatsRegistry()


@pytest.fixture
def small_config() -> SystemConfig:
    """A 4-node directory system small enough for per-test runs."""
    return SystemConfig.small(num_processors=4, references=300, seed=11)


@pytest.fixture
def snooping_config() -> SystemConfig:
    cfg = SystemConfig.small(num_processors=4, references=300, seed=11)
    return cfg.with_updates(protocol=ProtocolKind.SNOOPING)


@pytest.fixture
def tiny_interconnect_config() -> InterconnectConfig:
    return InterconnectConfig(mesh_width=4, mesh_height=4,
                              link_latency_cycles=4,
                              switch_buffer_capacity=8)


@pytest.fixture
def built_machines(monkeypatch) -> list:
    """Weak references to every machine the campaign executors build from
    here on, for tests that check when a finished machine is freed."""
    built = []
    original = executor_module.build_system

    def spy(*args, **kwargs):
        system = original(*args, **kwargs)
        built.append(weakref.ref(system))
        return system

    monkeypatch.setattr(executor_module, "build_system", spy)
    return built


@pytest.fixture(scope="session")
def completed_directory_run():
    """One completed 4-node directory run shared by read-only assertions."""
    config = SystemConfig.small(num_processors=4, references=400, seed=5)
    system = build_system(config)
    result = system.run()
    return system, result


@pytest.fixture(scope="session")
def completed_snooping_run():
    """One completed 4-node snooping run shared by read-only assertions."""
    config = SystemConfig.small(num_processors=4, references=400, seed=5).with_updates(
        protocol=ProtocolKind.SNOOPING)
    system = build_system(config)
    result = system.run()
    return system, result


@pytest.fixture(scope="session")
def completed_adaptive_run():
    """A 16-node speculative run with adaptive routing (read-only)."""
    config = SystemConfig.small(num_processors=16, references=250, seed=9)
    config = config.with_updates(interconnect=InterconnectConfig(
        mesh_width=4, mesh_height=4, routing=RoutingPolicy.ADAPTIVE,
        link_latency_cycles=4, switch_buffer_capacity=16,
        link_bandwidth_bytes_per_sec=800e6))
    system = build_system(config)
    result = system.run(max_cycles=4_000_000)
    return system, result
