"""No runtime check in the package may live in an ``assert``: ``python -O``
strips them.  Nor may one raise a bare ``AssertionError``, which the command
line does not map to an exit code; runtime checks raise ``CrossCheckFailed``.
Nor may any module but ``perm`` build a permutation without validation."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "saxl"


def _find(predicate, skip: str = "") -> list[str]:
    found = []
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    for path in paths:
        if path.name == skip:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend("%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if predicate(node))
    return found


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, "assert statements in src/saxl: %s" % ", ".join(found)


def test_package_raises_no_bare_assertion_error():
    found = _find(_raises_assertion_error)
    assert not found, "raise AssertionError in src/saxl: %s" % ", ".join(found)


def _names_trusted(node) -> bool:
    return (
        isinstance(node, ast.Name) and node.id == "_trusted"
        or isinstance(node, ast.Attribute) and node.attr == "_trusted"
        or isinstance(node, ast.alias) and node.name == "_trusted"
    )


def test_unchecked_constructor_stays_in_perm():
    found = _find(_names_trusted, skip="perm.py")
    assert not found, "perm._trusted used outside perm.py: %s" % ", ".join(found)
