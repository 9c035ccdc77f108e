"""Graded coherent states, their exponential form, and time evolution.

The lowering-operator eigenstate at level n is

    |theta>_n = sum_{i=0}^{n-1} qbar^(i(i+1)/2) / sqrt(rho_i!) theta^i |psi_i>

and the dual family replaces |psi_i> by |phi_i> (it is the eigenstate of
the metric-conjugated lowering operator).  Both satisfy the eigenvalue
equation with Grassmann eigenvalue theta, coincide with the q-exponential
of (raising operator * theta) applied to the vacuum, and evolve stably
under the equally spaced spectrum E_k = -(n-k-2) E: the evolved state is
a global phase times the original state with theta replaced by u theta,
where u is the unimodular symbol standing for exp(-i E t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import EngineError
from .galg import Kind, grade
from .opalg import (OpExpr, PHI, PSI, _nilpotent_series, default_sqrt_rho,
                    ket, ket_op, make_ladder, op_term, theta_op)
from .scalars import Scalar


@dataclass(frozen=True)
class CoherentState:
    level: int
    family: str
    sqrt_rho: tuple[Scalar, ...]
    body: OpExpr

    def __post_init__(self):
        if self.family not in (PSI, PHI):
            raise EngineError(f"unknown family {self.family!r}")


def make_coherent(level: int, family: str = PSI,
                  sqrt_rho: Sequence[Scalar] | None = None) -> CoherentState:
    """The closed-form coherent state of the requested family.

    The i-th coefficient is qbar^(i(i+1)/2) divided by sqrt(rho_i!); the
    i = 0 coefficient is 1.  Custom sqrt_rho values must be invertible
    monomials (the defaults s_i are).
    """
    if level < 2:
        raise EngineError("need at least two levels")
    rho = tuple(sqrt_rho) if sqrt_rho is not None else default_sqrt_rho(level)
    if len(rho) < level - 1:
        raise EngineError("need one sqrt(rho) per ladder step")
    body = OpExpr.zero(level)
    inv_fact = Scalar.one(level)
    for i in range(level):
        if i:
            inv_fact = inv_fact * rho[i - 1].monomial_inverse()
        coeff = inv_fact.mul_q_power(-(i * (i + 1)) // 2)
        body = body + op_term(level, coeff, ket(family, i),
                              left=[(Kind.THETA, 1, i)])
    return CoherentState(level, family, rho, body)


def ladder_for(state: CoherentState) -> OpExpr:
    """The operator the state is an eigenstate of."""
    kind = "b" if state.family == PSI else "b_tilde"
    return make_ladder(kind, state.level, state.sqrt_rho)


def verify_eigen(state: CoherentState) -> OpExpr:
    """Defect of the eigenvalue equation; the zero expression certifies it."""
    lowered = ladder_for(state) @ state.body
    scaled = theta_op(state.level) @ state.body
    return lowered - scaled


def q_exponential(arg: OpExpr, level: int,
                  sqrt_rho: Sequence[Scalar] | None = None) -> OpExpr:
    """e_q^arg = sum_k arg^k / rho_k!, exact, for nilpotent arguments.

    The series must terminate within the nilpotency bound; if arg^level
    is still nonzero the factorial rho_level! would need a symbol that
    does not exist, and the series is reported as non-terminating.
    """
    rho = tuple(sqrt_rho) if sqrt_rho is not None else default_sqrt_rho(level)

    def inverse_factorials():
        inv_fact = Scalar.one(level)
        for sqrt_rho_k in rho:
            inv_rho_k = sqrt_rho_k.monomial_inverse()
            inv_fact = inv_fact * inv_rho_k * inv_rho_k
            yield inv_fact
    return _nilpotent_series(arg, min(level - 1, len(rho)),
                             inverse_factorials())


def exponential_form(state: CoherentState) -> OpExpr:
    """The q-exponential construction of the same state from its vacuum."""
    kind = "b_sharp" if state.family == PSI else "b_tilde_sharp_prime"
    raiser = make_ladder(kind, state.level, state.sqrt_rho)
    arg = raiser @ theta_op(state.level)
    series = q_exponential(arg, state.level, state.sqrt_rho)
    return series @ ket_op(state.level, state.family, 0)


def exponential_form_defect(state: CoherentState) -> OpExpr:
    return state.body - exponential_form(state)


def evolve_state(state: CoherentState,
                 energy_of_level: Optional[Callable[[int], int]] = None) -> OpExpr:
    """Time-evolved state: the k-th term picks up exp(-i E_k t) = u^(E_k/E).

    The default spectrum is the equally spaced E_k = -(level-k-2) E, the
    one that makes the evolution stable.  ``energy_of_level`` may supply
    a different integer multiple of E per level, mainly to demonstrate
    that stability fails off the default rule.
    """
    n = state.level
    if energy_of_level is None:
        energy_of_level = lambda k: -(n - k - 2)
    return OpExpr(n, {(w, d): c * Scalar.u(n, energy_of_level(d[0][1]))
                      for (w, d), c in state.body.terms.items()})


def theta_time_shift(e: OpExpr) -> OpExpr:
    """Substitute theta -> u theta: each term gains u^(theta degree)."""
    return OpExpr(e.level, {
        key: c * Scalar.u(e.level, deg) if (deg := grade(key[0])[0]) else c
        for key, c in e.terms.items()})


def check_stability(level: int, family: str = PSI,
                    sqrt_rho: Sequence[Scalar] | None = None) -> OpExpr:
    """Defect of  evolved state == u^-(n-2) * (state with theta -> u theta).

    Zero certifies that the evolved state is again a coherent state, up
    to the global phase u^-(n-2), i.e. exp(i (n-2) E t).
    """
    state = make_coherent(level, family, sqrt_rho)
    evolved = evolve_state(state)
    target = theta_time_shift(state.body).scale(Scalar.u(level, -(level - 2)))
    return evolved - target
