"""Package-wide properties: the public name list, what a cold import
loads, the absence of ``assert`` statements, which ``python -O`` strips,
and the package names that the benchmark under ``perfbench/`` binds."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import triplepack
from triplepack.multigraph import Multigraph

SRC = Path(triplepack.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(triplepack.__all__)) == len(triplepack.__all__)
    for name in triplepack.__all__:
        obj = getattr(triplepack, name)
        assert not isinstance(obj, types.ModuleType), name


# run in a fresh interpreter: what each import adds to sys.modules, then
# the public names that a star import binds but their module does not
COLD_IMPORT = """
import json, sys
from importlib import import_module

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("triplepack", "sympy"))

import triplepack
after_package = loaded()
import triplepack.cli
after_cli = loaded()
ns = {}
exec("from triplepack import *", ns)
unbound = [
    name for name in triplepack.__all__
    if ns.get(name) is not getattr(import_module("triplepack." + triplepack._MODULE_OF[name]), name)
]
print(json.dumps({
    "package": after_package,
    "cli": after_cli,
    "unbound": unbound,
    "not_in_dir": sorted(set(triplepack.__all__) - set(dir(triplepack))),
}))
"""


def test_cold_import_loads_only_what_it_runs():
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["package"] == ["triplepack"]
    # no sympy either: dioph carries its own CRT fold and checks coprimality with math.gcd
    assert got["cli"] == ["triplepack", "triplepack.cli", "triplepack.errors", "triplepack.jsonio"]
    assert got["unbound"] == [] and got["not_in_dir"] == []


# what the modules of every command add to sys.modules in a fresh
# interpreter: the records are namedtuples and one __slots__ class, so
# neither dataclasses nor the inspect module it imports is loaded
RECORD_IMPORT = """
import json, sys
before = set(sys.modules)
import triplepack.cli, triplepack.leave, triplepack.oracle, triplepack.gdd
import triplepack.dioph, triplepack.decomp, triplepack.jsonio
print(json.dumps(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_package_loads_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-c", RECORD_IMPORT],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_names_the_benchmark_binds_resolve(monkeypatch):
    # perfbench modules import each other by bare name, as run.py does;
    # they are read here and dropped again afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [name for name in ("checks", "spans", "workloads") if name not in sys.modules]
    try:
        import spans
        import workloads

        api = workloads.load_api()
        missing = [m for m in spans.MULTIGRAPH_METHODS if not hasattr(Multigraph, m)]
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert api.modules and callable(api.achieved_lower_bound)
    assert missing == []
