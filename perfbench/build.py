"""Build the compiled kernel tier from the checkout under test.

The compiled workloads must measure the C extension built from the same
commit as the Python sources.  :func:`ensure_extension` runs the
repository's own build (``setup.py build_ext --inplace``) once per checkout
and reuses the result while the C source, ``setup.py`` and the interpreter
stay the same.  Build time is provenance, never part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

#: Files whose contents, with the interpreter version, decide whether an
#: earlier build is still valid.
_BUILD_INPUTS = ("setup.py", "src/repro/_ckernelmodule.c")


class SetupError(RuntimeError):
    """The checkout lacks the program the benchmark measures."""


def program_env(root: Path) -> Dict[str, str]:
    """Environment for child interpreters: this checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_KERNEL", None)
    return env


def check_checkout(root: Path) -> None:
    missing = [name for name in _BUILD_INPUTS + ("src/repro/__init__.py",)
               if not (root / name).is_file()]
    if missing:
        raise SetupError(f"not a checkout of the simulator: missing "
                         f"{', '.join(missing)} under {root}")


def _inputs_digest(root: Path) -> str:
    digest = hashlib.sha256(sys.version.encode())
    for name in _BUILD_INPUTS:
        digest.update(name.encode())
        digest.update((root / name).read_bytes())
    return digest.hexdigest()


def _built_artifacts(root: Path) -> List[Path]:
    return sorted((root / "src" / "repro").glob("_ckernel*.so"))


def ensure_extension(root: Path, state_dir: Path) -> Dict[str, Any]:
    """Build ``repro._ckernel`` in place unless an up-to-date build exists.

    Returns provenance: ``ok``, ``reused``, ``build_s`` (of the build that
    produced the artifact) and the compiler output's tail on failure.  A
    failed build is not an error here: the compiled workloads then run on
    the pure tier, which their tier check counts as every point failed.
    """
    check_checkout(root)
    state_dir.mkdir(parents=True, exist_ok=True)
    meta_path = state_dir / "ckernel.json"
    inputs = _inputs_digest(root)
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        meta = {}
    artifact = meta.get("artifact")
    if (meta.get("inputs") == inputs and meta.get("ok") and artifact
            and (root / artifact).is_file()):
        return dict(meta, reused=True)

    for stale in _built_artifacts(root):
        stale.unlink()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(state_dir / "build-temp"),
         "--build-lib", str(state_dir / "build-lib")],
        cwd=root, env=program_env(root), capture_output=True, text=True,
        timeout=600)
    seconds = time.perf_counter() - start
    built = _built_artifacts(root)
    meta = {
        "ok": proc.returncode == 0 and bool(built),
        "inputs": inputs,
        "build_s": seconds,
        "artifact": str(built[0].relative_to(root)) if built else None,
    }
    if not meta["ok"]:
        meta["log_tail"] = (proc.stdout + proc.stderr)[-2000:]
    tmp = meta_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta, indent=1))
    os.replace(tmp, meta_path)
    return dict(meta, reused=False)


def import_seconds(root: Path, modules: List[str], samples: int) -> List[float]:
    """Seconds to import the program in ``samples`` fresh interpreters.

    Each child times ``import repro`` plus the modules a campaign needs and
    the load of the compiled extension, so the figure includes what a user
    pays before the first design point is built.
    """
    code = ("import time; t = time.perf_counter(); import repro, "
            "repro.campaign, repro.kernel; "
            + "".join(f"import {name}; " for name in modules)
            + "repro.kernel.compiled_module(); "
            "print(time.perf_counter() - t)")
    seconds = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=program_env(root), capture_output=True,
                              text=True, timeout=120, check=True)
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
    return seconds
