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

:func:`make_suq2` builds each system once per (root order, equal_rho)
and hands the same object to every caller, and a system is the one owner
of every value derived from it: rho_i = s_i^2, the squares (b_sharp^2,
b^2), the closure verdict, the bracket relations, the squeeze argument,
the series S, the verdict that it terminates and the state S|psi_0>,
each formed at most once, on first use.  The suq2 checks of :mod:`grassq.suites` read these values
directly; :func:`squeeze_closed_form`, the squeeze builders and the
defects below only read them; and the relation [b_z, b]_q is the
closure verdict's first defect rather than a second copy.  Within one
``run_suite("all")`` the suq2 checks read S four times and S|psi_0>
three times, so the cached values alone cut the series sums from eight
to three.  Keeping the systems across
calls pays only where one process runs the suq2 suite more than once,
as a test session or a caller that runs one level at a time does; one
``grassq verify`` run calls ``run_suite`` once.  Sharing is exact
because none of these values ever changes: the dataclass is frozen, no
operator body is mutated, and each cached value is a function of the
system's fields alone.  The relation [b, b_sharp]_q = b_z still holds
``b_z`` against its written-out sum, not against the commutator it was
built from, and :func:`squeeze_tilde_exponential_defect` still sums its
own right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count

from .errors import EngineError
from .galg import _monomial
from .opalg import (OpExpr, PHI, PSI, _known_family, _nilpotent_series,
                    eta_conjugate, ket, ket_op, op_dagger, op_term, outer,
                    q_commutator, sharp_adjoint, theta_op, thetabar_op)
from .scalars import Scalar, _field


@dataclass(frozen=True)
class Suq2System:
    """Three-level ladder triple over a chosen root of unity."""

    root_order: int
    sqrt_rho: tuple[Scalar, Scalar]
    b: OpExpr
    b_sharp: OpExpr
    b_z: OpExpr

    @cached_property
    def rho(self) -> tuple[Scalar, Scalar]:
        """(rho_1, rho_2) = (s_1^2, s_2^2)."""
        return (self.sqrt_rho[0] * self.sqrt_rho[0],
                self.sqrt_rho[1] * self.sqrt_rho[1])

    @cached_property
    def squares(self) -> tuple[OpExpr, OpExpr]:
        """(b_sharp^2, b^2), read by the squeeze argument and its closed form."""
        return self.b_sharp.power(2), self.b.power(2)

    @cached_property
    def closure(self) -> ClosureVerdict:
        """[b_z, b]_q against both candidate prefactors times b; the
        algebra closes when both defects vanish, which happens exactly
        when (1+q+q^2)(rho_1 - rho_2) is zero."""
        bracket = q_commutator(self.b_z, self.b)
        first, second = (bracket - self.b.scale(pref)
                         for pref in closure_prefactors(self))
        return ClosureVerdict(first.is_zero and second.is_zero, first, second)

    @cached_property
    def relations(self) -> Suq2Relations:
        """Defects of the three closure relations at the cube root; b_z is
        held against its defining sum, and [b_z, b]_q is the closure's."""
        if self.root_order != 3:
            raise EngineError("the closure relations are stated at the cube root")
        pref1, pref2 = closure_prefactors(self)
        return Suq2Relations(
            bracket_defines_bz=self.b_z - _bz_defining_sum(self),
            bz_with_b=self.closure.defect_first,
            bsharp_with_bz=q_commutator(self.b_sharp, self.b_z)
            - self.b_sharp.scale(pref1),
            prefactor_difference=pref1 - pref2,
        )

    @cached_property
    def squeeze_argument(self) -> OpExpr:
        """(theta b_sharp^2 - thetabar b^2) / 2."""
        return _squeeze_term(*self.squares)

    @cached_property
    def squeeze(self) -> OpExpr:
        """The squeezing operator S from its exponential series."""
        return factorial_exponential(self.squeeze_argument)

    @cached_property
    def squeeze_terminates(self) -> bool:
        """Whether the nilpotency that ends the series S holds: the
        squeeze argument's power just past the series bound vanishes."""
        bound = _series_bound(self.root_order)
        return self.squeeze_argument.power(bound + 1).is_zero

    @cached_property
    def squeezed_vacuum(self) -> OpExpr:
        """S|psi_0>, the series applied to the vacuum term by term."""
        return factorial_exponential(self.squeeze_argument,
                                     on=ket_op(self.root_order, PSI, 0))


def make_suq2(root_order: int = 3, equal_rho: bool = False) -> Suq2System:
    """Build the three-level system with q a primitive root of the given order.

    b = s_1 |psi_0><phi_1| + s_2 |psi_1><phi_2| is the defining sum over
    three levels and b_sharp its metric adjoint.  ``equal_rho`` sets s_2 =
    s_1, the degenerate rho_2 = rho_1 that closes the algebra at any root.
    The system is built once per (root_order, equal_rho) and shared (see
    the module docstring).
    """
    return _build_suq2(_field(root_order).n, equal_rho)


@lru_cache(maxsize=8)
def _build_suq2(root_order: int, equal_rho: bool) -> Suq2System:
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


@dataclass(frozen=True)
class Suq2Relations:
    bracket_defines_bz: OpExpr
    bz_with_b: OpExpr
    bsharp_with_bz: OpExpr
    prefactor_difference: Scalar


def _bz_defining_sum(sys: Suq2System) -> OpExpr:
    """b_z = [b, b_sharp]_q written out: s_1^2 |psi_0><phi_0|
    + (s_2^2 - q s_1^2) |psi_1><phi_1| - q s_2^2 |psi_2><phi_2|."""
    r1, r2 = sys.rho
    return OpExpr(sys.root_order, {
        ((), outer(PSI, 0, PHI, 0)): r1,
        ((), outer(PSI, 1, PHI, 1)): r2 - r1.mul_q_power(1),
        ((), outer(PSI, 2, PHI, 2)): -r2.mul_q_power(1)})


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def _series_bound(level: int) -> int:
    """The last power of an argument that :func:`factorial_exponential`
    sums: 2 level + 1."""
    return 2 * level + 1


def factorial_exponential(arg: OpExpr, on: OpExpr | None = None) -> OpExpr:
    """exp(arg) on = sum_k (arg^k on) / k!, exact, for nilpotent arguments.

    ``on`` defaults to the identity (the operator exp(arg) itself).  A
    term arg^k on still nonzero past k = ``_series_bound(level)`` is
    reported as non-terminating.
    """
    return _nilpotent_series(arg, _series_bound(arg.level),
                             (Fraction(1, math.factorial(k))
                              for k in count(1)), on)


def _squeeze_term(up: OpExpr, down: OpExpr) -> OpExpr:
    """(theta up - thetabar down) / 2, for the squares of a ladder pair."""
    n = up.level
    return (theta_op(n) @ up - thetabar_op(n) @ down).scale(Fraction(1, 2))


def squeeze_closed_form(sys: Suq2System) -> OpExpr:
    """The compact quadratic closed form quoted for the squeezing operator:

        I + (theta b#^2 - thetabar b^2)/2
          - (qbar/4) theta thetabar (b#^2 b^2 + q b^2 b#^2)

    Kept as a comparison target; the mechanical series is the
    authoritative operator.
    """
    n = sys.root_order
    bs2, b2 = sys.squares
    cross = bs2 @ b2 + (b2 @ bs2).scale(Scalar.q(n))
    theta_thetabar = op_term(n, Scalar.one(n), left=_monomial(1, 1))
    second = (theta_thetabar @ cross).scale(
        Scalar.q(n, -1) * Fraction(-1, 4))
    return OpExpr.identity(n) + sys.squeeze_argument + second


def squeeze_defect(sys: Suq2System) -> OpExpr:
    """Mechanical series minus the quadratic closed form, reported verbatim."""
    return sys.squeeze - squeeze_closed_form(sys)


def make_squeezed_state(sys: Suq2System, family: str = PSI) -> OpExpr:
    """S(theta)|psi_0>, the series applied to the vacuum term by term.

    The dual family is its metric image; any other family is refused.
    """
    _known_family(family)
    state = sys.squeezed_vacuum
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
                    left=_monomial(1, 1))
    tail = op_term(n, sqrt_r1r2 * Fraction(1, 2), ket(family, 2),
                   left=_monomial(1, 0))
    return head + cross + tail


def squeezed_state_defect(sys: Suq2System, family: str = PSI) -> OpExpr:
    return make_squeezed_state(sys, family) - squeezed_closed_form(sys, family)


def squeeze_tilde_exponential_defect(sys: Suq2System) -> OpExpr:
    """eta S eta^-1 against exp[(theta b~'^2 - thetabar b~^2)/2]; exact zero."""
    conjugated = eta_conjugate(sys.squeeze)
    arg = _squeeze_term(op_dagger(sys.b).power(2),
                        eta_conjugate(sys.b).power(2))
    return conjugated - factorial_exponential(arg)
