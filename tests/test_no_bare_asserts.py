"""No runtime check in the package may live in an ``assert``: ``python -O``
strips them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "saxl"


def test_package_has_no_assert_statements():
    found = []
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            "%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert not found, "assert statements in src/saxl: %s" % ", ".join(found)
