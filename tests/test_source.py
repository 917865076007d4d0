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


def test_rows_are_read_only_at_the_api_edge():
    # an exact table is a kernel over one denominator; its n x n `rows` of
    # Fractions are built on first read, so only the module that defines
    # them and the serializers may read them
    root = Path(cellspace.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name in ("metrics.py", "formats.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "rows":
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not found, f"reads of .rows outside metrics.py and formats.py: {found}"
