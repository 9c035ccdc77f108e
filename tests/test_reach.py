"""Every public function and method of the exact engine, and every
option it takes, is used by the checker.

The public-name counterpart of ``test_private_names.py``.  A fresh
interpreter profiles ``emit_report(run_suite("all", (2, 4), max_n=4),
"json")``, the work behind ``grassq verify all``, from before grassq is
imported, so what runs at import time (``d_theta`` and ``d_thetabar``
build ``resolution.MEASURE``) counts as entered.  Every public function
and method, dunders included, defined in the modules below must be
entered; a name the checker never runs is deleted, or listed in
``ALLOWED`` with its reason.  The same run records, for each call, which
parameters that have a default received another value, and every such
parameter must receive one at least once: an option that only tests set
is deleted too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grassq"
MODULES = ("galg", "opalg", "coherent", "resolution", "suq2")

# The benchmark's workload table.
WORKLOADS = PACKAGE.parent.parent / "perfbench" / "workloads.py"
# The benchmark traces a constructor as ``new`` and a product dunder by
# its operator's name.
TRACED_ALIASES = {"new": "__init__", "mul": "__mul__",
                  "matmul": "__matmul__"}

ALLOWED = {
    # The Berezin integral of a word sum.  The checker integrates
    # operators with opalg.berezin_op; berezin stays as the word-level
    # entry point that test_galg checks integration through and the
    # benchmark's random-algebra workload times.
    "galg.berezin",
}

# The hook keys each code object by (file, first line).  On its first
# call it finds the function through the frame's module globals and its
# qualified name and keeps the function's defaults; every call then
# records the defaulted parameters whose value is not the default (an
# equal value of the same type counts as the default).
HOOK = """\
import inspect, json, sys
entered, options, defaults = set(), set(), {}

def _defaults(frame):
    code = frame.f_code
    obj = frame.f_globals
    try:
        for part in code.co_qualname.split("."):
            obj = (obj[part] if isinstance(obj, dict)
                   else inspect.getattr_static(obj, part))
    except (KeyError, AttributeError):
        return {}
    for unwrap in ("__func__", "fget", "func"):
        obj = getattr(obj, unwrap, obj)
    if getattr(obj, "__code__", None) is not code:
        return {}
    return {name: p.default
            for name, p in inspect.signature(obj).parameters.items()
            if p.default is not p.empty}

def hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = (code.co_filename, code.co_firstlineno)
    entered.add(key)
    if code not in defaults:
        defaults[code] = _defaults(frame) if "grassq" in key[0] else {}
    for name, default in defaults[code].items():
        value = frame.f_locals[name]
        if not (value is default or (type(value) is type(default)
                                     and value == default)):
            options.add(key + (name,))
"""
REPORT = """
print(json.dumps({"entered": sorted(entered), "options": sorted(options)}))
"""
PROFILE = HOOK + """
sys.setprofile(hook)
from grassq.suites import emit_report, run_suite
emit_report(run_suite("all", (2, 4), max_n=4), "json")
sys.setprofile(None)
""" + REPORT
# One pass of the benchmark workload named by argv[2], from the workload
# table in the directory argv[1], profiled as the benchmark traces it:
# after set-up, over the operations alone, in a fresh interpreter.
BENCHMARK_PASS = HOOK + """
sys.path.insert(0, sys.argv[1])
import workloads
work = workloads.setup(sys.argv[2], 1)
sys.setprofile(hook)
for _, fn in work.ops:
    fn()
sys.setprofile(None)
""" + REPORT


def _public(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _first_line(node):
    """The line a def's code object starts on: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _options(node):
    """The names of a def's parameters that have a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _defined(module):
    """``{module.qualname: (first line, defaulted parameters)}`` for the
    module's public functions and the public methods of its classes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            found[f"{module}.{node.name}"] = (_first_line(node),
                                              _options(node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    found[f"{module}.{node.name}.{item.name}"] = (
                        _first_line(item), _options(item))
    return found


def _profiled(script, *args):
    """``(entered, options)`` of a profiled run: ``{(module, first
    line)}`` of every grassq code object entered, and ``{(module, first
    line, parameter)}`` of every defaulted parameter given another value."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", script, *args], env=env, check=True,
        capture_output=True, text=True).stdout.splitlines()[-1])
    ours = [(Path(name).stem, *rest) for name, *rest in
            out["entered"] + out["options"]
            if Path(name).resolve().parent == PACKAGE]
    return ({k for k in ours if len(k) == 2}, {k for k in ours if len(k) == 3})


@pytest.fixture(scope="module")
def profile():
    """:func:`_profiled` for the run behind ``grassq verify all``."""
    return _profiled(PROFILE)


@pytest.fixture(scope="module")
def defined():
    found = {}
    for module in MODULES:
        found.update(_defined(module))
    assert len(found) > 50, "too few definitions found; is PACKAGE right?"
    assert ALLOWED <= set(found)
    return found


def test_every_public_engine_name_is_run_by_the_checker(profile, defined):
    entered, _ = profile
    unreached = sorted(name for name, (line, _) in defined.items()
                       if (name.split(".")[0], line) not in entered)
    assert unreached == sorted(ALLOWED)


def test_every_engine_option_is_set_by_the_checker(profile, defined):
    _, options = profile
    seen = 0
    never = []
    for name, (line, params) in defined.items():
        for param in params:
            seen += 1
            if (name.split(".")[0], line, param) not in options:
                never.append(f"{name}.{param}")
    assert seen > 10, "too few defaulted parameters found"
    assert not never, f"options the checker never sets: {sorted(never)}"


def _must_hit():
    """``{workload: names}`` of the benchmark's ``MUST_HIT``, read from
    the source of ``perfbench/workloads.py`` without importing it."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "MUST_HIT" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no MUST_HIT table in perfbench/workloads.py")


@pytest.mark.parametrize("workload", sorted(_must_hit()))
def test_a_benchmark_pass_enters_every_name_it_pins(workload):
    # a traced benchmark pass fails on a pinned name it never enters; this
    # catches a name the engine stops entering before a benchmark run does
    entered, _ = _profiled(BENCHMARK_PASS, str(WORKLOADS.parent), workload)
    missing = []
    for name in _must_hit()[workload]:
        module, *owner, attr = name.split(".")
        if owner:
            attr = TRACED_ALIASES.get(attr, attr)
        line, _ = _defined(module)[".".join([module, *owner, attr])]
        if (module, line) not in entered:
            missing.append(name)
    assert not missing, missing
