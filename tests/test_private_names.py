"""Every module-level private helper in the package has a caller.

A private name (one leading underscore, not a dunder) defined at module
level in ``src/grassq`` must be read somewhere in the package outside
its own definition: as a name, as an attribute, or in an import.  A
helper whose last caller was folded into another one fails here.
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
    definitions, reads = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            own = [name for name in _defined(node) if _private(name)]
            definitions += [(path.name, name) for name in own]
            for name in _read(node):
                if name not in own:
                    reads.setdefault(name, set()).add(path.name)
    assert definitions, "no private helpers found; is SRC right?"
    unused = [f"{module}: {name}" for module, name in definitions
              if name not in reads]
    assert not unused, unused
