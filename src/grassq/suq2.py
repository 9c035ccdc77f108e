"""The three-level specialization: algebra closure, squeezing, squeezed states.

With b and b_sharp the three-level ladder pair and b_z their
q-commutator, the bracket [b_z, b]_q is proportional to b exactly when

    (1 + q + q^2)(rho_1 - rho_2) = 0,

so either q is a primitive cube root of unity (any rho) or the two rho
parameters coincide.  At the cube root all three closure relations hold
with symbolic rho.

The squeezing operator is the ordinary (factorial) exponential

    S(theta) = exp[ (theta b_sharp^2 - thetabar b^2) / 2 ].

The mechanical expansion is authoritative here: it terminates by
nilpotency, but it does not agree with the compact second-order closed
form sometimes quoted for it; those comparisons are reported as exact
defects rather than reconciled.  The metric-conjugated operator does
satisfy  eta S(theta) eta^-1 = exp[(theta b~'^2 - thetabar b~^2)/2]
exactly, because metric conjugation is an algebra homomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import EngineError
from .galg import Kind
from .opalg import (OpExpr, PHI, PSI, _known_family, _nilpotent_series,
                    eta_conjugate, ket, ket_op, op_dagger, op_term, outer,
                    q_commutator, sharp_adjoint, theta_op, thetabar_op)
from .scalars import Scalar


@dataclass(frozen=True)
class Suq2System:
    """Three-level ladder triple over a chosen root of unity."""

    root_order: int
    sqrt_rho: tuple[Scalar, Scalar]
    b: OpExpr
    b_sharp: OpExpr
    b_z: OpExpr

    @property
    def rho(self) -> tuple[Scalar, Scalar]:
        return (self.sqrt_rho[0] * self.sqrt_rho[0],
                self.sqrt_rho[1] * self.sqrt_rho[1])


def make_suq2(root_order: int = 3, equal_rho: bool = False) -> Suq2System:
    """Build the three-level system with q a primitive root of the given order.

    b = s_1 |psi_0><phi_1| + s_2 |psi_1><phi_2| is the defining sum over
    three levels and b_sharp its metric adjoint.  ``equal_rho`` sets s_2 =
    s_1, the degenerate rho_2 = rho_1 that closes the algebra at any root.
    """
    if root_order < 3:
        raise EngineError("need at least s_1 and s_2, so root order >= 3")
    s1 = Scalar.s(root_order, 1)
    s2 = s1 if equal_rho else Scalar.s(root_order, 2)
    b = OpExpr(root_order, {((), outer(PSI, 0, PHI, 1)): s1,
                            ((), outer(PSI, 1, PHI, 2)): s2})
    b_sharp = sharp_adjoint(b)
    return Suq2System(root_order, (s1, s2), b, b_sharp,
                      q_commutator(b, b_sharp))


def closure_prefactors(sys: Suq2System) -> tuple[Scalar, Scalar]:
    """The two scalar prefactors (rho_1 - q rho_2 + q^2 rho_1) and its mirror."""
    q = Scalar.q(sys.root_order)
    q2 = Scalar.q(sys.root_order, 2)
    r1, r2 = sys.rho
    return (r1 - q * r2 + q2 * r1, r2 - q * r1 + q2 * r2)


@dataclass(frozen=True)
class ClosureVerdict:
    closes: bool
    defect_first: OpExpr
    defect_second: OpExpr


def check_closure(root_order: int = 3, equal_rho: bool = False) -> ClosureVerdict:
    """Does [b_z, b]_q reduce to a multiple of b for this (q, rho) choice?

    Both candidate prefactors are tried; the algebra closes when both
    defects vanish, which happens exactly when (1+q+q^2)(rho_1 - rho_2)
    is zero.
    """
    sys = make_suq2(root_order, equal_rho)
    bracket = q_commutator(sys.b_z, sys.b)
    pref1, pref2 = closure_prefactors(sys)
    first = bracket - sys.b.scale(pref1)
    second = bracket - sys.b.scale(pref2)
    return ClosureVerdict(closes=first.is_zero and second.is_zero,
                          defect_first=first, defect_second=second)


@dataclass(frozen=True)
class Suq2Relations:
    bracket_defines_bz: OpExpr
    bz_with_b: OpExpr
    bsharp_with_bz: OpExpr
    prefactor_difference: Scalar

    @property
    def all_hold(self) -> bool:
        return (self.bracket_defines_bz.is_zero and self.bz_with_b.is_zero
                and self.bsharp_with_bz.is_zero
                and self.prefactor_difference.is_zero)


def verify_suq2_relations(sys: Suq2System) -> Suq2Relations:
    """Defects of the three closure relations at the cube root."""
    if sys.root_order != 3:
        raise EngineError("the closure relations are stated at the cube root")
    pref1, pref2 = closure_prefactors(sys)
    return Suq2Relations(
        bracket_defines_bz=q_commutator(sys.b, sys.b_sharp) - sys.b_z,
        bz_with_b=q_commutator(sys.b_z, sys.b) - sys.b.scale(pref1),
        bsharp_with_bz=q_commutator(sys.b_sharp, sys.b_z)
        - sys.b_sharp.scale(pref1),
        prefactor_difference=pref1 - pref2,
    )


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def factorial_exponential(arg: OpExpr, on: OpExpr | None = None) -> OpExpr:
    """exp(arg) on = sum_k (arg^k on) / k!, exact, for nilpotent arguments.

    ``on`` defaults to the identity (the operator exp(arg) itself).  A
    term arg^k on still nonzero past k = 2 level + 1 is reported as
    non-terminating.
    """
    return _nilpotent_series(arg, 2 * arg.level + 1,
                             (Fraction(1, math.factorial(k))
                              for k in count(1)), on)


def _squeeze_term(up: OpExpr, down: OpExpr) -> OpExpr:
    """(theta up - thetabar down) / 2, for the squares of a ladder pair."""
    n = up.level
    return (theta_op(n) @ up - thetabar_op(n) @ down).scale(Fraction(1, 2))


def squeeze_argument(sys: Suq2System) -> OpExpr:
    """(theta b_sharp^2 - thetabar b^2) / 2."""
    return _squeeze_term(sys.b_sharp.power(2), sys.b.power(2))


def make_squeeze(sys: Suq2System) -> OpExpr:
    """The squeezing operator from its exponential series."""
    return factorial_exponential(squeeze_argument(sys))


def squeeze_closed_form(sys: Suq2System) -> OpExpr:
    """The compact quadratic closed form quoted for the squeezing operator:

        I + (theta b#^2 - thetabar b^2)/2
          - (qbar/4) theta thetabar (b#^2 b^2 + q b^2 b#^2)

    Kept as a comparison target; the mechanical series is the
    authoritative operator.
    """
    n = sys.root_order
    bs2 = sys.b_sharp.power(2)
    b2 = sys.b.power(2)
    cross = bs2 @ b2 + (b2 @ bs2).scale(Scalar.q(n))
    theta_thetabar = op_term(n, Scalar.one(n), left=[(Kind.THETA, 1, 1),
                                                     (Kind.THETABAR, 1, 1)])
    second = (theta_thetabar @ cross).scale(
        Scalar.q(n, -1) * Fraction(-1, 4))
    return OpExpr.identity(n) + _squeeze_term(bs2, b2) + second


def squeeze_defect(sys: Suq2System) -> OpExpr:
    """Mechanical series minus the quadratic closed form, reported verbatim."""
    return make_squeeze(sys) - squeeze_closed_form(sys)


def make_squeezed_state(sys: Suq2System, family: str = PSI) -> OpExpr:
    """S(theta)|psi_0>, the series applied to the vacuum term by term.

    The dual family is its metric image; any other family is refused.
    """
    _known_family(family)
    state = factorial_exponential(squeeze_argument(sys),
                                  on=ket_op(sys.root_order, PSI, 0))
    if family == PHI:
        return eta_conjugate(state)
    return state


def squeezed_closed_form(sys: Suq2System, family: str = PSI) -> OpExpr:
    """(1 - rho_1 rho_2 / 4 theta thetabar)|F_0> + sqrt(rho_1 rho_2)/2 theta |F_2>."""
    n = sys.root_order
    _known_family(family)
    r1, r2 = sys.rho
    sqrt_r1r2 = sys.sqrt_rho[0] * sys.sqrt_rho[1]
    head = ket_op(n, family, 0)
    cross = op_term(n, r1 * r2 * Fraction(-1, 4), ket(family, 0),
                    left=[(Kind.THETA, 1, 1), (Kind.THETABAR, 1, 1)])
    tail = op_term(n, sqrt_r1r2 * Fraction(1, 2), ket(family, 2),
                   left=[(Kind.THETA, 1, 1)])
    return head + cross + tail


def squeezed_state_defect(sys: Suq2System, family: str = PSI) -> OpExpr:
    return make_squeezed_state(sys, family) - squeezed_closed_form(sys, family)


def squeeze_tilde_exponential_defect(sys: Suq2System) -> OpExpr:
    """eta S eta^-1 against exp[(theta b~'^2 - thetabar b~^2)/2]; exact zero."""
    conjugated = eta_conjugate(make_squeeze(sys))
    arg = _squeeze_term(op_dagger(sys.b).power(2),
                        eta_conjugate(sys.b).power(2))
    return conjugated - factorial_exponential(arg)
