"""Graded coherent states, their exponential form, and time evolution.

The lowering-operator eigenstate at level n is

    |theta>_n = sum_{i=0}^{n-1} qbar^(i(i+1)/2) / sqrt(rho_i!) theta^i |psi_i>

and the dual family replaces |psi_i> by |phi_i> (it is the eigenstate of
the metric-conjugated lowering operator).  Both satisfy the eigenvalue
equation with Grassmann eigenvalue theta, coincide with the q-exponential
of (raising operator * theta) applied to the vacuum, and evolve stably
under the equally spaced spectrum E_k = -(n-k-2) E: the evolved state is
a global phase times the original state with theta replaced by u theta,
where u is the unimodular symbol standing for exp(-i E t).  The
ladders are b from ``make_ladder`` and the three defined from it: the
psi state is lowered by b and raised by b# = ``sharp_adjoint(b)``, the
phi state lowered by b~ = ``eta_conjugate(b)`` and raised by
b~#' = ``op_dagger(b)``.

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
body is never mutated.  The ladder b is kept per level in the same way
(``make_ladder``): one coherent run at a level reads it in both eigen
checks and both exponential forms, and ``verify all`` once more in the
numeric eigen grounding, so b is built and filed by bra once per level.
Both caches are keyed on ``scalars._field(level).n``, the one reader
of a level a caller gives: 3.0 == 3 and both hash alike, so a cache
keyed on the level as given would hand a float level the kept int build
instead of refusing it.  ``_field`` refuses the float with ``TypeError``
and a level below 2 with ``ValueError``, and reads a numpy integer as
its int.

Time evolution only moves exponents of u: each term of a state gains a
power of u, which :meth:`Scalar.mul_u_power` adds to the term's key, so
no coefficient product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .galg import _monomial, grade
from .opalg import (OpExpr, PSI, _known_family, _nilpotent_series,
                    eta_conjugate, ket, ket_op, make_ladder, op_dagger,
                    op_term, sharp_adjoint, theta_op)
from .scalars import Scalar, _accumulate, _field


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
    return _build_coherent(_field(level).n, family)


@lru_cache(maxsize=32)
def _build_coherent(level: int, family: str) -> CoherentState:
    terms: dict = {}
    for i in range(level):
        # 1/(s_1 ... s_i), built whole as rho_factorial builds rho_i!
        coeff = Scalar._monomial(level, range(i), -1).mul_q_power(
            -(i * (i + 1)) // 2)
        _accumulate(terms, op_term(level, coeff, ket(family, i),
                                   left=_monomial(i, 0)).terms.items())
    return CoherentState(level, family, OpExpr._wrap(level, terms))


def verify_eigen(state: CoherentState) -> OpExpr:
    """Defect of the eigenvalue equation; the zero expression certifies it.

    The psi state is an eigenstate of b, the phi state of b~ = eta b eta^-1.
    """
    b = make_ladder(state.level)
    lowered = (b if state.family == PSI else eta_conjugate(b)) @ state.body
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
    return _nilpotent_series(arg, level - 1, _inverse_factorials(level), on)


def _inverse_factorials(level: int):
    """1/rho_1!, 1/rho_2!, ..., 1/rho_(level-1)!, each the monomial
    s_1^-2 ... s_k^-2, so no factorial is built and inverted."""
    for k in range(1, level):
        yield Scalar._monomial(level, range(k), -2)


def exponential_form(state: CoherentState) -> OpExpr:
    """The q-exponential construction of the same state from its vacuum.

    The series acts on the vacuum term by term, so only the n states
    arg^k |F_0> are formed, never the operator e_q^arg itself.
    """
    b = make_ladder(state.level)
    raising = sharp_adjoint(b) if state.family == PSI else op_dagger(b)
    arg = raising @ theta_op(state.level)
    return q_exponential(arg, on=ket_op(state.level, state.family, 0))


def exponential_form_defect(state: CoherentState) -> OpExpr:
    return state.body - exponential_form(state)


def evolve_state(state: CoherentState) -> OpExpr:
    """Time-evolved state: the k-th term picks up exp(-i E_k t) = u^(E_k/E).

    The spectrum is the equally spaced E_k = -(level-k-2) E, the one that
    makes the evolution stable.
    """
    n = state.level
    return _u_shift(state.body, lambda w, d: -(n - d[0][1] - 2))


def theta_time_shift(e: OpExpr) -> OpExpr:
    """Substitute theta -> u theta: each term gains u^(theta degree)."""
    return _u_shift(e, lambda w, d: grade(w)[0])


def _u_shift(e: OpExpr, power) -> OpExpr:
    """``e`` with each term (w, d) times u**power(w, d).  A u power moves
    only the key's u field, so every coefficient stays nonzero and every
    key distinct."""
    return OpExpr._wrap(e.level, {(w, d): c.mul_u_power(power(w, d))
                                  for (w, d), c in e.terms.items()})


def check_stability(level: int, family: str = PSI) -> OpExpr:
    """Defect of  evolved state == u^-(n-2) * (state with theta -> u theta).

    Zero certifies that the evolved state is again a coherent state, up
    to the global phase u^-(n-2), i.e. exp(i (n-2) E t).
    """
    state = make_coherent(level, family)
    evolved = evolve_state(state)
    target = _u_shift(theta_time_shift(state.body),
                      lambda w, d: -(level - 2))
    return evolved - target
