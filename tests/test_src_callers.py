"""Every public name in `src/klrcalc` has a caller in `src/klrcalc`.

A function, class or method reached only from `tests/` is code the reports
do not need: it belongs in the test module that uses it.  The check reads
the package's syntax trees; it imports nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "klrcalc"

# Public names that only tests/test_acceptance.py calls: the acceptance
# criteria are written against these list APIs.
ALLOWED = {"alternating.alt_basis", "alternating.express_coverage"}


def _definitions(tree, module):
    """(qualified name, bare name, node) for every public top-level function
    and class, each class followed by its public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unreached_names() -> set:
    """The public names that no other `src/` code refers to, where
    references made inside an unreached name do not count either: dropping
    them is repeated until no new name drops out.  A method is referred to
    as an attribute, a function or class also by name.  Imports are not
    references, so `__init__.py`'s re-exports reach nothing and it is not
    read."""
    defs = {}     # qualified name -> (bare name, is a method)
    # (bare name, as an attribute) -> qualified names of the public
    # definitions it is referred to inside (None: outside all of them)
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for qual, name, node in _definitions(tree, path.stem):
            defs[qual] = name, qual.count(".") == 2
            for sub in ast.walk(node):
                owner[id(sub)] = qual  # a method overrides its class
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                key = sub.id, False
            elif isinstance(sub, ast.Attribute):
                key = sub.attr, True
            else:
                continue
            callers.setdefault(key, set()).add(owner.get(id(sub)))

    def refs(name, method):
        by_attr = callers.get((name, True), set())
        return by_attr if method else by_attr | callers.get((name, False), set())

    dead: set = set()
    while new := {qual for qual, (name, method) in defs.items()
                  if qual not in dead and refs(name, method) <= dead | {qual}}:
        dead |= new
    return dead


def test_every_public_name_has_a_src_caller():
    assert unreached_names() == ALLOWED
