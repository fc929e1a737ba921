import ast
from pathlib import Path

import qf


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(qf.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exported_name_resolves():
    assert [name for name in qf.__all__ if not hasattr(qf, name)] == []
