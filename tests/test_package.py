"""Package-wide properties: the public name list, the absence of
``assert`` statements, which ``python -O`` strips, and the package names
that the benchmark under ``perfbench/`` binds."""

import ast
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
