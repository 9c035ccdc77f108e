"""Every private helper in the package has a caller.

A private name (one leading underscore, not a dunder) defined at module
level in ``src/grassq``, or as a method of a module-level class, must be
read somewhere in the package outside its own definition: as a name, as
an attribute, or in an import.  A helper whose last caller was folded
into another one fails here.

The same reading pins the owner of the Grassmann word: only ``galg``
reads ``Kind``, so no other module builds a (kind, index, exponent)
factor by hand.  It pins the owner of the unit form too: in
``scalars``, only ``Cyclo`` and the field helpers defined above it read
a coefficient's stored form or build one unchecked, so ``Scalar`` and
the sparse sums multiply coefficients through ``Cyclo``'s own product.
And it pins the owner of the packed ``Scalar`` key: only ``Scalar``,
the per-level table that holds the layout and the key helpers read it;
and the owner of the operand check: one function raises
``LevelMismatchError``, and only ``__eq__`` returns ``NotImplemented``; and the owner of the level itself: one function,
``scalars._field``, reads a level a caller gives with ``operator.index``
and refuses one below 2.  It pins one body for the Scalar product,
``Scalar.__mul__``, which alone in ``scalars`` passes a phase to a
product, and one renderer of a coefficient times its symbols,
``scalars._times``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grassq"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _scopes(node):
    """``(part, names it binds)`` for a module-level statement, or, for a
    class, for each part of its header and each statement of its body,
    each of which also binds the class name."""
    if not isinstance(node, ast.ClassDef):
        return [(node, _defined(node))]
    header = node.bases + node.keywords + node.decorator_list
    return [(part, [node.name]) for part in header] + [
        (stmt, _defined(stmt) + [node.name]) for stmt in node.body]


def _methods(node):
    """``(Class.name, name)`` for each private method of a class."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [(f"{node.name}.{stmt.name}", stmt.name) for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _private(stmt.name)]


def _read(tree):
    """The names a tree reads: loaded names, attributes and imports."""
    for n in ast.walk(tree):
        kind = type(n)
        if kind is ast.Name and type(n.ctx) is ast.Load:
            yield n.id
        elif kind is ast.Attribute:
            yield n.attr
        elif kind is ast.ImportFrom:
            yield from (a.name for a in n.names)


def test_every_private_helper_is_used():
    definitions, methods, reads = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            definitions += [(path.name, name, name) for name in _defined(node)
                            if _private(name)]
            methods += [(path.name, *method) for method in _methods(node)]
            for part, own in _scopes(node):
                for name in _read(part):
                    if name not in own:
                        reads.setdefault(name, set()).add(path.name)
    assert definitions, "no private helpers found; is SRC right?"
    assert methods, "no private methods found; is SRC right?"
    unused = [f"{module}: {label}" for module, label, name
              in definitions + methods if name not in reads]
    assert not unused, unused


def test_only_galg_reads_the_generator_kinds():
    readers = {path.name for path in SRC.glob("*.py")
               if "Kind" in set(_read(ast.parse(path.read_text())))}
    assert readers == {"galg.py"}, sorted(readers - {"galg.py"})


# A Cyclo's stored form and its two unchecked constructors.
UNIT_FORM = {"_k", "_t", "_num", "_den", "_unit", "_new"}


def test_only_cyclo_and_the_field_helpers_read_the_unit_form():
    body = ast.parse((SRC / "scalars.py").read_text()).body
    at = next(i for i, node in enumerate(body)
              if isinstance(node, ast.ClassDef) and node.name == "Cyclo")
    owners = {"Cyclo"} | {node.name for node in body[:at]
                          if isinstance(node, ast.FunctionDef)}
    readers = {name for node in body for name in _defined(node)
               if UNIT_FORM & set(_read(node))}
    assert "Cyclo" in readers and "_unit" in owners
    assert readers <= owners, sorted(readers - owners)


# The packed Scalar key: its layout on the table, its constants and its
# helpers.
KEY_LAYOUT = {"key_ones", "key_bias", "key_guard", "key_fields",
              "key_names", "_FIELD_BITS", "_EXP_LIMIT", "_exponent", "_pack",
              "_unpack", "_guarded"}
KEY_OWNERS = {"Scalar", "_Table", "_FIELD_BITS", "_EXP_LIMIT", "_exponent",
              "_pack", "_unpack", "_guarded"}


def test_only_scalar_and_the_key_helpers_read_the_packed_key():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "scalars.py":
            assert not KEY_LAYOUT & set(_read(tree)), path.name
    body = ast.parse((SRC / "scalars.py").read_text()).body
    readers = {name for node in body for name in _defined(node)
               if KEY_LAYOUT & set(_read(node))}
    assert {"Scalar", "_Table"} <= readers
    assert readers <= KEY_OWNERS, sorted(readers - KEY_OWNERS)


def _functions_holding(found):
    """``module: function`` for each function in ``src/grassq`` and each
    of its nodes for which ``found`` holds."""
    return [f"{path.name}: {node.name}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in ast.walk(node) if found(n)]


def test_one_function_raises_the_level_mismatch():
    raisers = _functions_holding(
        lambda n: isinstance(n, ast.Raise) and n.exc
        and "LevelMismatchError" in set(_read(n.exc)))
    assert raisers == ["scalars.py: _same_level"], raisers


def test_only_eq_returns_not_implemented():
    # every other binary operation refuses another type in its operand
    # check, ``scalars._same_level``, so no operation gives way to a
    # reflected one
    returners = _functions_holding(
        lambda n: isinstance(n, ast.Return) and isinstance(n.value, ast.Name)
        and n.value.id == "NotImplemented")
    assert returners and all(r.endswith(": __eq__") for r in returners), \
        returners


def test_one_function_reads_the_level_a_caller_gives():
    readers = _functions_holding(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "index"
        and isinstance(n.value, ast.Name) and n.value.id == "operator")
    refusers = _functions_holding(
        lambda n: isinstance(n, ast.Raise) and n.exc is not None
        and any(isinstance(c, ast.Constant)
                and c.value == "level must be at least 2"
                for c in ast.walk(n.exc)))
    assert readers == ["scalars.py: _field"], readers
    assert refusers == ["scalars.py: _field"], refusers


def _phased_product(n):
    """Whether ``n`` is a call ``x.__mul__(y, k)``: a product asked for by
    name, with a phase."""
    return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__mul__" and len(n.args) == 2)


def test_one_function_forms_the_scalar_product():
    # ``*`` and an operator product's phased coefficient step are one
    # body: in scalars only Scalar.__mul__ hands a phase to Cyclo's
    # product, each other module passes its phase to Scalar.__mul__, and
    # no second product method is defined
    callers = set(_functions_holding(_phased_product))
    assert {c for c in callers if c.startswith("scalars.py")} == {
        "scalars.py: __mul__"}, callers
    assert {c.split(": ")[0] for c in callers} == {
        "opalg.py", "resolution.py", "scalars.py"}, callers
    defined = _functions_holding(
        lambda n: isinstance(n, ast.FunctionDef) and n.name == "_mul_q")
    assert not defined, defined


def test_one_function_renders_a_coefficient_times_its_symbols():
    # the rules for a coefficient of 1, of -1 and of a sum are written once
    comparers = _functions_holding(
        lambda n: isinstance(n, ast.Compare) and any(
            isinstance(c, ast.Constant) and c.value == "-1"
            for c in (n.left, *n.comparators)))
    assert comparers == ["scalars.py: _times"], comparers
