"""Rules on the library source itself."""

import ast
from pathlib import Path

import cellspace


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    root = Path(cellspace.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not found, f"assert statements in cellspace: {found}"
