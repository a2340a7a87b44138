"""Pluggable interconnect topologies.

The paper's target system connects its 16 nodes with a two-dimensional torus
(Section 3.1), but the speculation-for-simplicity argument — how reachable
deadlock is, how often adaptive routing reorders messages, what a recovery
costs — depends directly on the interconnect geometry and the system scale.
This module therefore defines a :class:`Topology` interface plus three
implementations behind a small registry:

* :class:`TorusTopology` — the paper's 2D bidirectional torus (wrap-around
  links in both dimensions).
* :class:`MeshTopology` — the same grid without wrap-around; edge switches
  simply lack the corresponding ports.
* :class:`RingTopology` — a one-dimensional cycle (EAST/WEST ports only),
  the smallest geometry on which the no-virtual-channel design can deadlock
  through the wrap-around channel cycle.

Every topology is pure geometry: it knows node/port enumeration, neighbour
maps, minimal directions and shortest-path distances, but nothing about
buffering or timing.  Routing questions are answered from precomputed
``[src][dst]`` tables built lazily on first use (the table-lookup fast path
of DESIGN.md §5): the geometry maths runs once per topology, not once per
message-hop.

Ports are named by the :class:`Direction` enum.  A topology uses a subset of
the four cardinal ports (plus LOCAL injection/ejection); :meth:`Topology.ports`
enumerates the subset so switches only allocate buffers for ports that can
ever carry traffic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple, Type


class Direction(str, Enum):
    """Output port directions at a switch."""

    EAST = "east"
    WEST = "west"
    NORTH = "north"
    SOUTH = "south"
    LOCAL = "local"

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.LOCAL: Direction.LOCAL,
}

#: The four cardinal (non-local) ports, in the canonical scan order.
CARDINAL_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.EAST, Direction.WEST, Direction.NORTH, Direction.SOUTH)


@dataclass(frozen=True)
class Coordinate:
    """(x, y) position of a switch on a 2D grid (y is 0 for 1D topologies)."""

    x: int
    y: int


class Topology(ABC):
    """Interface every interconnect geometry implements.

    Contract (relied on by :class:`~repro.interconnect.switch.Switch`, the
    routing algorithms and the wait-for-graph deadlock detectors):

    * switches are numbered ``0 .. num_switches - 1``;
    * :meth:`neighbor` returns the switch one hop away in a direction, or
      the switch itself when the topology has no such link (edge of a mesh,
      missing dimension) — callers treat "neighbour == self" as "no port";
    * :meth:`minimal_directions` returns every direction lying on *some*
      minimal path (``[LOCAL]`` for src == dst); following any listed
      direction from any switch strictly decreases :meth:`distance`;
    * :meth:`dimension_order_direction` returns the unique deterministic
      (X-then-Y) next hop, so a static route between a pair of nodes is
      always the same path;
    * the ``*_table`` accessors expose the full precomputed ``[src][dst]``
      answers; rows are shared and must be treated as read-only.
    """

    #: Registry key; subclasses override (e.g. ``"torus"``).
    kind = "abstract"

    def __init__(self, num_switches: int) -> None:
        if num_switches < 1:
            raise ValueError("topology must have at least one switch")
        self._num_switches = num_switches
        # Routing tables, built lazily on first use: geometry is static, so
        # every (src, dst) question the switches ask per message reduces to
        # one table lookup on the hot path (DESIGN.md §5).
        self._dim_order_table: List[List[Direction]] = []
        self._minimal_table: List[List[List[Direction]]] = []

    # ------------------------------------------------------------ identifiers
    @property
    def num_switches(self) -> int:
        return self._num_switches

    @property
    def dims(self) -> Tuple[int, ...]:
        """The dimension vector this topology was built from."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable form, e.g. ``"4x4 torus"``."""
        return f"{'x'.join(str(d) for d in self.dims)} {self.kind}"

    def _check(self, switch_id: int) -> None:
        if not 0 <= switch_id < self._num_switches:
            raise ValueError(f"switch id {switch_id} out of range")

    # -------------------------------------------------------------- geometry
    @abstractmethod
    def coordinate(self, switch_id: int) -> Coordinate:
        """Map a switch id to its grid coordinate."""

    @abstractmethod
    def neighbor(self, switch_id: int, direction: Direction) -> int:
        """The switch one hop away in ``direction`` (self when no link)."""

    @abstractmethod
    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two switches."""

    @abstractmethod
    def _static_direction_uncached(self, src: int, dst: int) -> Direction:
        """The deterministic (dimension-order) next hop; LOCAL for src==dst."""

    @abstractmethod
    def _minimal_directions_uncached(self, src: int, dst: int) -> List[Direction]:
        """Every direction on some minimal path; ``[LOCAL]`` for src==dst."""

    def ports(self) -> Tuple[Direction, ...]:
        """Cardinal ports this geometry can ever use (LOCAL excluded)."""
        return CARDINAL_DIRECTIONS

    def neighbors(self, switch_id: int) -> Dict[Direction, int]:
        """All distinct non-local neighbours of a switch."""
        self._check(switch_id)
        result: Dict[Direction, int] = {}
        for direction in self.ports():
            other = self.neighbor(switch_id, direction)
            if other != switch_id:
                result[direction] = other
        return result

    # ----------------------------------------------------------- route tables
    def _build_tables(self) -> None:
        """Precompute per-(src, dst) next-hop answers from the geometry."""
        n = self._num_switches
        self._minimal_table = [
            [self._minimal_directions_uncached(src, dst) for dst in range(n)]
            for src in range(n)]
        self._dim_order_table = [
            [self._static_direction_uncached(src, dst) for dst in range(n)]
            for src in range(n)]

    def minimal_directions(self, src: int, dst: int) -> List[Direction]:
        """Directions that lie on *some* minimal path from src to dst.

        Adaptive routing chooses among these; dimension-order routing always
        takes :meth:`dimension_order_direction`.  The returned list is a
        shared precomputed table row — treat it as read-only.
        """
        table = self._minimal_table
        if not table:
            self._check(src)
            self._check(dst)
            self._build_tables()
            table = self._minimal_table
        elif not (0 <= src < len(table) and 0 <= dst < len(table)):
            self._check(src)
            self._check(dst)
        return table[src][dst]

    def dimension_order_direction(self, src: int, dst: int) -> Direction:
        """The unique deterministic (dimension order) next hop direction."""
        table = self._dim_order_table
        if not table:
            self._check(src)
            self._check(dst)
            self._build_tables()
            table = self._dim_order_table
        elif not (0 <= src < len(table) and 0 <= dst < len(table)):
            self._check(src)
            self._check(dst)
        return table[src][dst]

    def dimension_order_table(self) -> List[List[Direction]]:
        """The full ``[src][dst] -> Direction`` next-hop table (read-only)."""
        if not self._dim_order_table:
            self._build_tables()
        return self._dim_order_table

    def minimal_directions_table(self) -> List[List[List[Direction]]]:
        """The full ``[src][dst] -> minimal directions`` table (read-only)."""
        if not self._minimal_table:
            self._build_tables()
        return self._minimal_table

    def all_pairs_mean_distance(self) -> float:
        """Mean minimal distance over all ordered pairs (used in reports)."""
        n = self._num_switches
        if n <= 1:
            return 0.0
        total = sum(self.distance(a, b)
                    for a in range(n) for b in range(n) if a != b)
        return total / (n * (n - 1))

    # ---------------------------------------------------------- construction
    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "Topology":
        """Build an instance from a dimension vector (registry entry point)."""
        raise NotImplementedError


def _wrap_offset(delta: int, size: int) -> int:
    """Signed minimal offset along a wrap-around axis (ties go positive)."""
    delta %= size
    if delta > size // 2:
        delta -= size
    return delta


class _Grid2D(Topology):
    """Shared (x, y) coordinate arithmetic for the 2D topologies."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"{self.kind} dimensions must be >= 1")
        self.width = width
        self.height = height
        super().__init__(width * height)

    @property
    def dims(self) -> Tuple[int, ...]:
        return (self.width, self.height)

    def coordinate(self, switch_id: int) -> Coordinate:
        """Map a switch id to its (x, y) coordinate."""
        self._check(switch_id)
        return Coordinate(switch_id % self.width, switch_id // self.width)

    def switch_id(self, x: int, y: int) -> int:
        """Map an (x, y) coordinate (taken modulo the grid) to a switch id."""
        return (y % self.height) * self.width + (x % self.width)

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "Topology":
        if len(dims) != 2:
            raise ValueError(f"{cls.kind} topology takes dims (width, height), "
                             f"got {tuple(dims)}")
        return cls(dims[0], dims[1])


class TorusTopology(_Grid2D):
    """Geometry of a ``width`` x ``height`` bidirectional torus."""

    kind = "torus"

    # -------------------------------------------------------------- neighbours
    def neighbor(self, switch_id: int, direction: Direction) -> int:
        """The switch one hop away in ``direction`` (with wrap-around)."""
        self._check(switch_id)
        coord = self.coordinate(switch_id)
        if direction == Direction.EAST:
            return self.switch_id(coord.x + 1, coord.y)
        if direction == Direction.WEST:
            return self.switch_id(coord.x - 1, coord.y)
        if direction == Direction.NORTH:
            return self.switch_id(coord.x, coord.y - 1)
        if direction == Direction.SOUTH:
            return self.switch_id(coord.x, coord.y + 1)
        return switch_id

    # ---------------------------------------------------------------- distances
    def _axis_offsets(self, src: int, dst: int) -> Tuple[int, int]:
        """Signed minimal offsets (dx, dy) from src to dst along the torus."""
        a, b = self.coordinate(src), self.coordinate(dst)
        return (_wrap_offset(b.x - a.x, self.width),
                _wrap_offset(b.y - a.y, self.height))

    def distance(self, src: int, dst: int) -> int:
        dx, dy = self._axis_offsets(src, dst)
        return abs(dx) + abs(dy)

    def _minimal_directions_uncached(self, src: int, dst: int) -> List[Direction]:
        if src == dst:
            return [Direction.LOCAL]
        dx, dy = self._axis_offsets(src, dst)
        options: List[Direction] = []
        if dx > 0:
            options.append(Direction.EAST)
        elif dx < 0:
            options.append(Direction.WEST)
        if dy > 0:
            options.append(Direction.SOUTH)
        elif dy < 0:
            options.append(Direction.NORTH)
        return options

    def _static_direction_uncached(self, src: int, dst: int) -> Direction:
        if src == dst:
            return Direction.LOCAL
        dx, dy = self._axis_offsets(src, dst)
        if dx > 0:
            return Direction.EAST
        if dx < 0:
            return Direction.WEST
        if dy > 0:
            return Direction.SOUTH
        return Direction.NORTH


class MeshTopology(_Grid2D):
    """A ``width`` x ``height`` 2D mesh — the torus without wrap-around.

    Edge switches have no port toward the missing neighbour, so the geometry
    has lower bisection bandwidth and a longer mean path than the equal-size
    torus; X-then-Y routing on a mesh is deadlock-free even without virtual
    channels (there is no cyclic channel dependency to close).
    """

    kind = "mesh"

    def neighbor(self, switch_id: int, direction: Direction) -> int:
        """The switch one hop away in ``direction`` (self at a grid edge)."""
        self._check(switch_id)
        coord = self.coordinate(switch_id)
        if direction == Direction.EAST and coord.x + 1 < self.width:
            return self.switch_id(coord.x + 1, coord.y)
        if direction == Direction.WEST and coord.x - 1 >= 0:
            return self.switch_id(coord.x - 1, coord.y)
        if direction == Direction.NORTH and coord.y - 1 >= 0:
            return self.switch_id(coord.x, coord.y - 1)
        if direction == Direction.SOUTH and coord.y + 1 < self.height:
            return self.switch_id(coord.x, coord.y + 1)
        return switch_id

    def _offsets(self, src: int, dst: int) -> Tuple[int, int]:
        a, b = self.coordinate(src), self.coordinate(dst)
        return b.x - a.x, b.y - a.y

    def distance(self, src: int, dst: int) -> int:
        dx, dy = self._offsets(src, dst)
        return abs(dx) + abs(dy)

    def _minimal_directions_uncached(self, src: int, dst: int) -> List[Direction]:
        if src == dst:
            return [Direction.LOCAL]
        dx, dy = self._offsets(src, dst)
        options: List[Direction] = []
        if dx > 0:
            options.append(Direction.EAST)
        elif dx < 0:
            options.append(Direction.WEST)
        if dy > 0:
            options.append(Direction.SOUTH)
        elif dy < 0:
            options.append(Direction.NORTH)
        return options

    def _static_direction_uncached(self, src: int, dst: int) -> Direction:
        if src == dst:
            return Direction.LOCAL
        dx, dy = self._offsets(src, dst)
        if dx > 0:
            return Direction.EAST
        if dx < 0:
            return Direction.WEST
        if dy > 0:
            return Direction.SOUTH
        return Direction.NORTH


class RingTopology(Topology):
    """A one-dimensional bidirectional ring of ``num_nodes`` switches.

    Only the EAST/WEST ports exist.  The wrap-around link closes a channel
    cycle, so — unlike the mesh — a ring without virtual channels can reach
    switch deadlock with ordinary minimal routing, which makes it the
    smallest interesting geometry for the Section 4 recovery argument.  When
    ``num_nodes`` is even the diametrically opposite node is equally far in
    both directions; both count as minimal, giving adaptive routing its only
    path diversity on this topology.
    """

    kind = "ring"

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("ring size must be >= 1")
        super().__init__(num_nodes)

    @property
    def dims(self) -> Tuple[int, ...]:
        return (self._num_switches,)

    def ports(self) -> Tuple[Direction, ...]:
        return (Direction.EAST, Direction.WEST)

    def coordinate(self, switch_id: int) -> Coordinate:
        self._check(switch_id)
        return Coordinate(switch_id, 0)

    def neighbor(self, switch_id: int, direction: Direction) -> int:
        self._check(switch_id)
        n = self._num_switches
        if direction == Direction.EAST:
            return (switch_id + 1) % n
        if direction == Direction.WEST:
            return (switch_id - 1) % n
        return switch_id

    def _offset(self, src: int, dst: int) -> int:
        return _wrap_offset(dst - src, self._num_switches)

    def distance(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return abs(self._offset(src, dst))

    def _minimal_directions_uncached(self, src: int, dst: int) -> List[Direction]:
        if src == dst:
            return [Direction.LOCAL]
        n = self._num_switches
        dx = self._offset(src, dst)
        if 2 * abs(dx) == n:  # diametric: both ways are equally minimal
            return [Direction.EAST, Direction.WEST]
        return [Direction.EAST] if dx > 0 else [Direction.WEST]

    def _static_direction_uncached(self, src: int, dst: int) -> Direction:
        if src == dst:
            return Direction.LOCAL
        return Direction.EAST if self._offset(src, dst) > 0 else Direction.WEST

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "Topology":
        if len(dims) != 1:
            raise ValueError(f"ring topology takes dims (num_nodes,), "
                             f"got {tuple(dims)}")
        return cls(dims[0])


# ----------------------------------------------------------------- registry
_TOPOLOGY_REGISTRY: Dict[str, Type[Topology]] = {}


def register_topology(cls: Type[Topology]) -> Type[Topology]:
    """Register a topology class under its ``kind`` (class decorator)."""
    kind = cls.kind
    if not kind or kind == "abstract":
        raise ValueError("topology class must define a concrete 'kind'")
    if kind in _TOPOLOGY_REGISTRY:
        raise ValueError(f"topology kind {kind!r} registered twice")
    _TOPOLOGY_REGISTRY[kind] = cls
    return cls


register_topology(TorusTopology)
register_topology(MeshTopology)
register_topology(RingTopology)


def topology_kinds() -> List[str]:
    """Registered topology kinds, in registration order."""
    return list(_TOPOLOGY_REGISTRY)


def make_topology(kind: str, dims: Sequence[int]) -> Topology:
    """Build a registered topology from its kind and dimension vector.

    Every registered topology satisfies ``num_switches == product(dims)``
    (the convention :class:`repro.sim.config.InterconnectConfig` uses to
    validate node counts without importing geometry code).
    """
    try:
        cls = _TOPOLOGY_REGISTRY[kind]
    except KeyError:
        known = ", ".join(_TOPOLOGY_REGISTRY) or "<none>"
        raise ValueError(f"unknown topology kind {kind!r}; known: {known}") from None
    return cls.from_dims(dims)


# ------------------------------------------------------------- shared memo
#: Process-local hit/miss tallies for :func:`shared_topology`
#: (observational only; never serialized into results).
TOPOLOGY_MEMO_STATS: Dict[str, int] = {"topology_hits": 0, "topology_misses": 0}

_TOPOLOGY_MEMO: Dict[Tuple[str, Tuple[int, ...]], Topology] = {}


def shared_topology(kind: str, dims: Sequence[int]) -> Topology:
    """The memoized topology instance for ``(kind, dims)``.

    A topology is pure geometry — its routing tables are a function of the
    key alone and its rows are read-only by contract — so every network of
    the same geometry can share one instance instead of rebuilding the
    O(n^2) ``[src][dst]`` tables per run.  Both tables are forced on the
    miss path, which makes the returned artifact fully precomputed: a warm
    hit does no geometry maths at all.  Mutable routing *state* (the
    adaptive disable window and decision counters) lives on per-network
    routing objects, never on the shared topology.
    """
    key = (kind, tuple(int(d) for d in dims))
    topology = _TOPOLOGY_MEMO.get(key)
    if topology is not None:
        TOPOLOGY_MEMO_STATS["topology_hits"] += 1
        return topology
    TOPOLOGY_MEMO_STATS["topology_misses"] += 1
    topology = make_topology(kind, key[1])
    topology.dimension_order_table()
    topology.minimal_directions_table()
    _TOPOLOGY_MEMO[key] = topology
    return topology


def clear_topology_memo() -> None:
    """Drop every shared topology and zero the tallies (tests / benchmarks)."""
    _TOPOLOGY_MEMO.clear()
    TOPOLOGY_MEMO_STATS["topology_hits"] = 0
    TOPOLOGY_MEMO_STATS["topology_misses"] = 0

