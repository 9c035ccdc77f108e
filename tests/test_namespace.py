"""The lazy ``grassq`` namespace: the exact algebra imports alone, and the
package still exports the same names, each the object of its home module."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import grassq

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTED = [
    "BiorthoDecomp", "CoherentState", "Cyclo", "GExpr", "IDENT", "Kind",
    "OpExpr", "PHI", "PSI", "Problem", "Scalar", "SuiteReport",
    "Suq2System", "berezin", "biortho_decompose", "check_pseudo_hermiticity",
    "check_stability", "closed_form_weight", "cyclotomic_polynomial",
    "d_theta", "d_thetabar", "dual_identity_sum", "emit_report",
    "eta_conjugate", "evolve_state", "exponential_form",
    "exponential_form_defect", "grade", "instantiate_numeric", "ket",
    "ket_op", "make_coherent", "make_ladder", "make_squeezed_state",
    "make_suq2", "mirror_weight", "numeric_ladder", "op_dagger", "op_term",
    "outer", "q_commutator", "q_exponential", "rho_factorial", "run_suite",
    "sharp_adjoint", "solve_weight", "squeeze_defect", "theta_op",
    "thetabar_op", "verify_eigen", "verify_resolution"]

# What the exact algebra must not pull in.
HEAVY = ["numpy", "grassq.biortho", "grassq.suites", "grassq.coherent",
         "dataclasses"]


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a new interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_the_exact_algebra_imports_without_numpy_or_the_suites():
    loaded, later = _fresh(
        "import json, sys\n"
        "import grassq.scalars, grassq.galg, grassq.opalg\n"
        f"heavy = {HEAVY!r}\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "import grassq\n"
        "assert callable(grassq.run_suite)\n"
        "print(json.dumps([loaded, [m in sys.modules for m in heavy]]))\n")
    assert loaded == []
    assert all(later)


def test_a_bare_import_loads_no_submodule_and_reaches_each():
    before, suites = _fresh(
        "import json, sys\n"
        "import grassq\n"
        "before = sorted(m for m in sys.modules if m.startswith('grassq.'))\n"
        "print(json.dumps([before, grassq.suites.__name__]))\n")
    assert before == []
    assert suites == "grassq.suites"


def test_the_namespace_exports_the_same_names():
    assert sorted(grassq.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(grassq))
    star: dict = {}
    exec("from grassq import *", star)
    assert sorted(set(star) - {"__builtins__"}) == EXPORTED


def test_each_name_is_the_object_of_its_home_module():
    for name in EXPORTED:
        home = import_module(f"grassq.{grassq._HOME[name]}")
        obj = getattr(grassq, name)
        assert obj is vars(home)[name], name
        # defined there, not imported into it from elsewhere
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_an_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "_HOMELESS", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(grassq, name)
    assert not hasattr(grassq, "numpy")
