"""Exact engine for Z_n-graded Grassmann calculus and the coherent-state,
resolution-of-identity and squeezing identities of biorthonormal
(pseudo-Hermitian) ladder systems, with a numeric toolkit for concrete
matrices.

The package namespace is lazy (PEP 562): ``import grassq`` loads no
submodule, and each exported name imports its home module on first
access.  So ``import grassq.scalars``, ``grassq.galg`` or
``grassq.opalg`` loads only the exact algebra, and numpy loads only with
``biortho``, ``suites`` or ``cli``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "scalars": ("Cyclo", "Scalar", "cyclotomic_polynomial", "rho_factorial"),
    "galg": ("GExpr", "Kind", "berezin", "d_theta", "d_thetabar", "grade"),
    "opalg": ("IDENT", "OpExpr", "PHI", "PSI", "dual_identity_sum",
              "eta_conjugate", "ket", "ket_op", "make_ladder", "op_dagger",
              "op_term", "outer", "q_commutator", "sharp_adjoint", "theta_op",
              "thetabar_op"),
    "coherent": ("CoherentState", "check_stability", "evolve_state",
                 "exponential_form", "exponential_form_defect",
                 "make_coherent", "q_exponential", "verify_eigen"),
    "resolution": ("closed_form_weight", "mirror_weight", "solve_weight",
                   "verify_resolution"),
    "suq2": ("Suq2System", "make_squeezed_state", "make_suq2",
             "squeeze_defect"),
    "biortho": ("BiorthoDecomp", "biortho_decompose",
                "check_pseudo_hermiticity", "instantiate_numeric",
                "numeric_ladder"),
    "suites": ("Problem", "SuiteReport", "emit_report", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name from its home module, bound here on first access;
    any other public name is tried as a submodule (``grassq.suites``)."""
    home = _HOME.get(name)
    if home is not None:
        value = getattr(_import_module(f".{home}", __name__), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return _import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
