"""Exact engine for Z_n-graded Grassmann calculus and the coherent-state,
resolution-of-identity and squeezing identities of biorthonormal
(pseudo-Hermitian) ladder systems, with a numeric toolkit for concrete
matrices."""

from .scalars import Cyclo, Scalar, cyclotomic_polynomial, rho_factorial
from .galg import (GExpr, Kind, berezin, d_theta, d_thetabar, grade,
                   normal_order, theta, thetabar)
from .opalg import (IDENT, OpExpr, PHI, PSI, bra, dual_identity_sum,
                    eta_conjugate, ket, ket_op, make_ladder, op_dagger,
                    op_term, outer, q_commutator, sharp_adjoint, theta_op,
                    thetabar_op)
from .coherent import (CoherentState, check_stability, evolve_state,
                       exponential_form, exponential_form_defect,
                       make_coherent, q_exponential, verify_eigen)
from .resolution import (Weight, closed_form_weight, compare_weights,
                         mirror_weight, solve_weight, verify_resolution)
from .suq2 import (Suq2System, check_closure, make_squeeze,
                   make_squeezed_state, make_suq2, squeeze_defect,
                   verify_suq2_relations)
from .biortho import (BiorthoDecomp, biortho_decompose,
                      check_pseudo_hermiticity, instantiate_numeric,
                      numeric_ladder)
from .suites import Problem, SuiteReport, emit_report, run_suite

__version__ = "0.1.0"
