"""The package has no runtime dependencies: importing all of it pulls in
none of the scientific or test libraries the suite itself may use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import profilerank

FORBIDDEN = ("numpy", "scipy", "hypothesis")

_PROBE = """
import importlib, json, pkgutil, sys
import profilerank
for info in pkgutil.walk_packages(profilerank.__path__, "profilerank."):
    importlib.import_module(info.name)
print(json.dumps(sorted(sys.modules)))
"""


def test_importing_every_module_loads_no_optional_library():
    src = str(Path(profilerank.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "profilerank.cli" in loaded and "profilerank._simplex" in loaded
    assert [m for m in loaded if m.split(".")[0] in FORBIDDEN] == []


# the library imports the benchmark makes (perfbench/run.py IMPORT_PROBE)
_BENCH_PROBE = """
import json, sys
from profilerank import channel, codes, core, encoder, feasibility, oracle, synthesis
print(json.dumps(sorted(sys.modules)))
"""


def _bench_imports() -> list[str]:
    src = str(Path(profilerank.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", _BENCH_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_importing_the_library_loads_no_process_pool():
    # the library runs in one process: nothing it imports starts a pool
    loaded = _bench_imports()
    assert "profilerank.oracle" in loaded
    assert "multiprocessing" not in loaded


def test_importing_the_library_loads_no_hashlib():
    # only Repository.save and load hash, and they import hashlib when called
    loaded = _bench_imports()
    assert "profilerank.encoder" in loaded
    assert "hashlib" not in loaded


def test_no_module_imports_a_process_pool():
    # every import statement of the package, at any depth, function bodies too
    pools = ("multiprocessing", "concurrent")
    package = Path(profilerank.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] in pools]
    assert found == []
