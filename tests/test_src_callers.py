"""Every public name in `src/klrcalc` has a caller in `src/klrcalc`.

A function, class or method reached only from `tests/` is code the reports
do not need: it belongs in the test module that uses it.  The check reads
the package's syntax trees; it imports nothing.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "klrcalc"

# Public names that only tests/test_acceptance.py calls: the acceptance
# criteria are written against these list APIs.
ALLOWED = {"alternating.alt_basis", "alternating.express_coverage"}

# Public methods the bare-name match cannot judge: each shares its name with
# a method of a builtin type or an attribute of a `src/` class, so any read
# of that attribute (a set's `add`, a `Mono`'s `seq`) counts as a call.
# Each has been checked by hand to have a `src/` caller; a new one must be
# checked and listed here.
REVIEWED_SHADOWED = {
    "scalars.Rationals.add", "scalars.Rationals.format",
    "scalars.PrimeField.add", "scalars.PrimeField.format",
    "quiver.ReversalMap.seq",
}


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


def shadowed_methods() -> set:
    """The public methods whose name is also that of a public method of a
    builtin type, or of an attribute that a `src/` class declares: a field
    in its body (a NamedTuple or dataclass field) or a `self.name = ...`
    assignment."""
    shadows = {name for t in vars(builtins).values() if isinstance(t, type)
               for name in dir(t) if not name.startswith("_")}
    methods = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qual, name, _ in _definitions(tree, path.stem):
            if qual.count(".") == 2:
                methods[qual] = name
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            shadows |= {item.target.id for item in cls.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)}
            shadows |= {sub.attr for sub in ast.walk(cls)
                        if isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"}
    return {qual for qual, name in methods.items() if name in shadows}


def test_every_public_name_has_a_src_caller():
    assert unreached_names() == ALLOWED


def test_shadowed_methods_are_reviewed():
    assert shadowed_methods() == REVIEWED_SHADOWED


def test_only_the_engine_names_its_letter_actions():
    # letters act through `KLR.act` and words through `KLR.act_words`: no
    # other module reaches the engine's one letter action, its step loop or
    # the steps it runs.  Nor do the
    # relation checks reach the rewrite memo tables or the packed term keys
    # (their stems, exponent fields and offsets, encoding and decoding): a
    # fast path of their own would be a second letter action
    actions = {"_resolve", "_run_steps", "_y_steps", "_psi_steps"}
    internals = {"_y_cache", "_psi_cache", "_y_stem", "_psi_stem", "_acc",
                 "_STEM", "_WIDTH", "_LIMIT",
                 "_stem", "_stems", "_stem_ids", "_faces", "_words", "_unit_e",
                 "_exp_offset", "_exp_offsets", "_exp_vectors", "_key", "_encode",
                 "_decode", "SuffixProgram", "_signed_sum"}
    # a listed name that the engine no longer defines guards nothing
    engine = ast.parse((SRC / "algebra.py").read_text())
    defined = {sub.name for sub in ast.walk(engine)
               if isinstance(sub, (ast.FunctionDef, ast.ClassDef))}
    defined |= {sub.id for sub in ast.walk(engine)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    defined |= {sub.attr for sub in ast.walk(engine)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)}
    assert (actions | internals) - defined == set()
    named, reached = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(sub, "attr", None) or getattr(sub, "id", None) \
                or getattr(sub, "name", None)
            if name in actions:
                named.add(path.name)
            if name in internals:
                reached.add(path.name)
    assert named == {"algebra.py"}
    assert not reached & {"suites.py", "alternating.py"}


def test_no_src_module_eliminates():
    # spans are checked one sgn plane at a time: elimination is a test
    # reference (tests/spans.py), and no `src/` module defines or imports
    # an echelon or the module that held one
    assert not (SRC / "linalg.py").exists()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                names = [sub.name]
            elif isinstance(sub, ast.ImportFrom):
                names = [sub.module or ""] + [alias.name for alias in sub.names]
            elif isinstance(sub, ast.Import):
                names = [alias.name for alias in sub.names]
            assert not [name for name in names
                        if "echelon" in name.lower() or "linalg" in name], path.name
