"""A stabiliser chain's levels and the size of a block of element rows are
internals of ``saxl.group``: no other module of the package reads a level's
``transversal``, ``orbit_list`` or ``done``, and only ``perm``, which defines
it, and ``group``, which sizes its blocks by it, name ``BLOCK_ENTRIES``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "saxl"


def _modules_spelling(names: set[str], attributes_only: bool) -> set[str]:
    """The files of src/saxl that spell one of ``names`` as an attribute,
    or else also as a name or an imported name."""
    found = set()
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            spelled = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            if spelled and getattr(node, spelled) in names and (spelled == "attr" or not attributes_only):
                found.add(path.name)
    return found


def test_chain_levels_are_read_only_in_group():
    assert _modules_spelling({"transversal", "orbit_list", "done"}, attributes_only=True) == {"group.py"}


def test_block_size_is_named_only_in_perm_and_group():
    assert _modules_spelling({"BLOCK_ENTRIES"}, attributes_only=False) == {"group.py", "perm.py"}
