"""Every ``repro`` subpackage and ``repro.ops`` module imports on its own.

Each import runs first thing in a fresh interpreter, so an import cycle that
only resolves when some other package happens to be imported first (the
test process itself imports ``repro.graph`` from ``conftest.py``) fails
here.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg or info.name.startswith("repro.ops."):
            names.append(info.name)
    return names


def _run(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that finds ``repro`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _import_error(module: str) -> str | None:
    proc = _run(f"import {module}")
    if proc.returncode == 0:
        return None
    return f"{module}: {proc.stderr.strip().splitlines()[-1]}"


def test_every_package_and_ops_module_imports_first():
    modules = _modules()
    assert "repro.ops.hashtable" in modules and "repro.train.plans" in modules
    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = [e for e in pool.map(_import_error, modules) if e]
    assert not errors, "\n".join(errors)


def test_no_module_imports_networkx():
    """Nothing in the package needs networkx: importing every package
    leaves it unloaded."""
    code = "\n".join(f"import {m}" for m in _modules())
    proc = _run(code + "\nimport sys\nprint('networkx' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
