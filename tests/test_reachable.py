"""Every definition in src/snorder has a caller outside the tests."""

import ast
from pathlib import Path

import snorder

ROOT = Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node, strings: bool = False) -> set:
    """The names node loads and the attributes it reads; with strings, also
    its string constants that are identifiers (perfbench looks layer
    functions up by name)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and str(n.value).isidentifier():
            out.add(n.value)
    return out


def _with_class(node) -> bool:
    """Dunders and properties count with their class, not by name."""
    decorators = {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
                  for d in node.decorator_list}
    return node.name.startswith("__") or bool(decorators & {"property", "cached_property"})


def unreachable_definitions(root: Path = ROOT) -> list:
    """The functions, classes and methods of src/snorder that nothing
    reaches from snorder.__all__, the cli module, module-level code or a
    name used in perfbench/ or scripts/.  A reached definition reaches the
    names its body uses; methods count by attribute name."""
    used = set(snorder.__all__)
    for folder in ("perfbench", "scripts"):
        for path in (root / folder).rglob("*.py"):
            used |= _names(ast.parse(path.read_text()), strings=True)
    defs = []  # (label, name, the nodes a reached definition reaches through)
    for path in sorted((root / "src" / "snorder").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "cli":
            used |= _names(tree)
            continue
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS) or stmt.name.startswith("__"):
                used |= _names(stmt)
                continue
            used |= set().union(*map(_names, stmt.decorator_list))
            if not isinstance(stmt, ast.ClassDef):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, [stmt]))
                continue
            own = list(stmt.bases)
            for item in stmt.body:
                if isinstance(item, _DEFS) and not _with_class(item):
                    defs.append((f"{path.stem}.{stmt.name}.{item.name}", item.name, [item]))
                else:
                    own.append(item)
            defs.append((f"{path.stem}.{stmt.name}", stmt.name, own))
    reached = set()
    while True:
        new = [d for d in defs if d[0] not in reached and d[1] in used]
        if not new:
            return sorted(label for label, _, _ in defs if label not in reached)
        for label, _, nodes in new:
            reached.add(label)
            used |= set().union(*map(_names, nodes))


def test_every_definition_has_a_caller_outside_the_tests():
    """A definition only tests reach belongs in the tests, next to them."""
    assert unreachable_definitions() == []
