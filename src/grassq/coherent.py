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

The exponential form is built on the vacuum: by linearity
e_q^A |F_0> = sum_k (A^k |F_0>) / rho_k!, so :func:`q_exponential` with
``on=|F_0>`` forms n one-term states and never the operator e_q^A, whose
~n^2/2 terms would nearly all miss |F_0>.

Every coefficient is written in the symbols s_i = sqrt(rho_i), so an
identity proved here holds for every choice of rho_i > 0: substituting
values (as the numeric suite does) cannot break it.

:func:`make_coherent` keeps the 32 most recently built states and hands
the same object to every caller: one ``verify all`` run asks for each
state many times, from the coherent checks, the stability checks, the
weight solve and every resolution integral, and it visits one level at
a time, so each level's states are read while they are kept.  Sharing
is exact because a state never changes: the dataclass is frozen and its
body is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EngineError
from .galg import Kind, grade
from .opalg import (OpExpr, PSI, _known_family, _nilpotent_series, ket,
                    ket_op, make_ladder, op_term, theta_op)
from .scalars import Scalar, rho_factorial_inverse


@dataclass(frozen=True)
class CoherentState:
    level: int
    family: str
    body: OpExpr

    def __post_init__(self):
        _known_family(self.family)


def make_coherent(level: int, family: str = PSI) -> CoherentState:
    """The closed-form coherent state of the requested family.

    The i-th coefficient is qbar^(i(i+1)/2) / (s_1 ... s_i); the i = 0
    coefficient is 1.  The 32 most recently built (level, family) states
    are kept and shared (see the module docstring).
    """
    return _build_coherent(level, family)


@lru_cache(maxsize=32)
def _build_coherent(level: int, family: str) -> CoherentState:
    if level < 2:
        raise EngineError("need at least two levels")
    body = OpExpr.zero(level)
    inv_fact = Scalar.one(level)
    for i in range(level):
        if i:
            inv_fact = inv_fact * Scalar.s(level, i, -1)
        coeff = inv_fact.mul_q_power(-(i * (i + 1)) // 2)
        body = body + op_term(level, coeff, ket(family, i),
                              left=[(Kind.THETA, 1, i)])
    return CoherentState(level, family, body)


def ladder_for(state: CoherentState) -> OpExpr:
    """The operator the state is an eigenstate of."""
    kind = "b" if state.family == PSI else "b_tilde"
    return make_ladder(kind, state.level)


def verify_eigen(state: CoherentState) -> OpExpr:
    """Defect of the eigenvalue equation; the zero expression certifies it."""
    lowered = ladder_for(state) @ state.body
    scaled = theta_op(state.level) @ state.body
    return lowered - scaled


def q_exponential(arg: OpExpr, on: OpExpr | None = None) -> OpExpr:
    """e_q^arg on = sum_k (arg^k on) / rho_k!, exact, for nilpotent arguments.

    ``on`` defaults to the identity, which gives the operator e_q^arg;
    passing a state gives e_q^arg applied to it, built one term arg^k on
    at a time.  The series must end within the nilpotency bound: if a
    term arg^k on with k >= arg.level is still nonzero, the factorial
    rho_k! would need a symbol that does not exist, and the series is
    reported as non-terminating.
    """
    level = arg.level
    return _nilpotent_series(arg, level - 1, (rho_factorial_inverse(level, k)
                                              for k in range(1, level)), on)


def exponential_form(state: CoherentState) -> OpExpr:
    """The q-exponential construction of the same state from its vacuum.

    The series acts on the vacuum term by term, so only the n states
    arg^k |F_0> are formed, never the operator e_q^arg itself.
    """
    kind = "b_sharp" if state.family == PSI else "b_tilde_sharp_prime"
    arg = make_ladder(kind, state.level) @ theta_op(state.level)
    return q_exponential(arg, on=ket_op(state.level, state.family, 0))


def exponential_form_defect(state: CoherentState) -> OpExpr:
    return state.body - exponential_form(state)


def evolve_state(state: CoherentState) -> OpExpr:
    """Time-evolved state: the k-th term picks up exp(-i E_k t) = u^(E_k/E).

    The spectrum is the equally spaced E_k = -(level-k-2) E, the one that
    makes the evolution stable.
    """
    n = state.level
    return OpExpr(n, {(w, d): c * Scalar.u(n, -(n - d[0][1] - 2))
                      for (w, d), c in state.body.terms.items()})


def theta_time_shift(e: OpExpr) -> OpExpr:
    """Substitute theta -> u theta: each term gains u^(theta degree)."""
    return OpExpr(e.level, {
        key: c * Scalar.u(e.level, deg) if (deg := grade(key[0])[0]) else c
        for key, c in e.terms.items()})


def check_stability(level: int, family: str = PSI) -> OpExpr:
    """Defect of  evolved state == u^-(n-2) * (state with theta -> u theta).

    Zero certifies that the evolved state is again a coherent state, up
    to the global phase u^-(n-2), i.e. exp(i (n-2) E t).
    """
    state = make_coherent(level, family)
    evolved = evolve_state(state)
    target = theta_time_shift(state.body).scale(Scalar.u(level, -(level - 2)))
    return evolved - target
