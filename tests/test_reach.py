"""Every public function and method of the exact engine is run by the checker.

The public-name counterpart of ``test_private_names.py``.  A fresh
interpreter profiles ``emit_report(run_suite("all", (2, 4), max_n=4),
"json")``, the work behind ``grassq verify all``, from before grassq is
imported, so what runs at import time (``d_theta`` and ``d_thetabar``
build ``resolution.MEASURE``) counts as entered.  Every public function
and method, dunders included, defined in the modules below must be
entered; a name the checker never runs is deleted, or listed in
``ALLOWED`` with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grassq"
MODULES = ("galg", "opalg", "coherent", "resolution", "suq2")

ALLOWED = {
    # The Berezin integral of a word sum.  The checker integrates
    # operators with opalg.berezin_op; berezin stays as the word-level
    # entry point that test_galg checks integration through and the
    # benchmark's random-algebra workload times.
    "galg.berezin",
}

PROFILE = """\
import json, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
from grassq.suites import emit_report, run_suite
emit_report(run_suite("all", (2, 4), max_n=4), "json")
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _public(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _first_line(node):
    """The line a def's code object starts on: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _defined(module):
    """``{(module.qualname): first line}`` for the module's public
    functions and the public methods of its classes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            found[f"{module}.{node.name}"] = _first_line(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    found[f"{module}.{node.name}.{item.name}"] = \
                        _first_line(item)
    return found


def _entered():
    """``{(module, first line)}`` of every grassq code object entered."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", PROFILE], env=env,
                         check=True, capture_output=True, text=True).stdout
    return {(Path(name).stem, line) for name, line in json.loads(out)
            if Path(name).resolve().parent == PACKAGE}


def test_every_public_engine_name_is_run_by_the_checker():
    entered = _entered()
    defined = {}
    for module in MODULES:
        defined.update(_defined(module))
    assert len(defined) > 50, "too few definitions found; is PACKAGE right?"
    assert ALLOWED <= set(defined)
    unreached = sorted(name for name, line in defined.items()
                       if (name.split(".")[0], line) not in entered)
    assert unreached == sorted(ALLOWED)
