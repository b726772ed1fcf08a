"""Package-wide properties: the public name list and the absence of
``assert`` statements, which ``python -O`` strips."""

import ast
import types
from pathlib import Path

import triplepack

SRC = Path(triplepack.__file__).resolve().parent


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
