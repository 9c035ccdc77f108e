"""Weight functions and resolutions of the identity.

A weight is a polynomial w(theta, thetabar) = sum c_kl theta^k thetabar^l.
The engine checks integrals of the form

    int dthetabar dtheta  w(theta, thetabar) |A><B|

against the resolved identity sum_i |psi_i><phi_i| (or its dual).  With
the mixed pairs |theta><theta~| and |theta~><theta| a diagonal weight
makes the integral the exact identity; the same-family pairs produce
same-family dyads and therefore can never match it.

:func:`solve_weight` re-derives the weight from scratch.  It builds
|theta><theta~| once and integrates every monomial theta^k thetabar^l
against it, which gives one column of the linear system in the unknowns
c_kl.  It then proves that the system is a generalized permutation
matrix: every column holds exactly one invertible monomial entry and
every dyad |psi_i><phi_j| is hit exactly once.  Such a system has
exactly one solution, read off by inverting the entries on the diagonal
dyads; any other shape is refused.  The solver, not any closed formula,
is the source of truth; the two closed-form candidates below are
compared against it index by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EngineError, SingularSystemError
from .galg import GExpr, Kind, d_theta, d_thetabar, grade, normalize_word
from .opalg import (OpExpr, PHI, PSI, berezin_op, dual_identity_sum,
                    op_dagger)
from .coherent import evolve_state, make_coherent
from .scalars import Scalar, rho_factorial

MEASURE = (d_thetabar(), d_theta())

MIXED_PAIRS = ((PSI, PHI), (PHI, PSI))
SAME_PAIRS = ((PSI, PSI), (PHI, PHI))


@dataclass(frozen=True)
class Weight:
    """Diagonal-or-not weight polynomial, stored as a graded expression."""

    level: int
    expr: GExpr

    def coefficient(self, k: int, l: int) -> Scalar:
        _, word = normalize_word(self.level, _monomial_word(k, l))
        return self.expr.terms.get(word, Scalar.zero(self.level))

    def is_diagonal(self) -> bool:
        return all(dt == db for dt, db in map(grade, self.expr.terms))


def _monomial_word(k: int, l: int) -> list:
    return [(Kind.THETA, 1, k), (Kind.THETABAR, 1, l)]


def _weight(level: int, coefficients: dict[tuple[int, int], Scalar]) -> Weight:
    """sum c_kl theta^k thetabar^l over the given coefficients c_kl."""
    return Weight(level, GExpr.from_raw(
        level, [(c, _monomial_word(k, l)) for (k, l), c in coefficients.items()]))


def _factorial_weight(level: int, reverse: bool) -> Weight:
    """sum_i q^(i(i+1)) rho_m! theta^i thetabar^i; m = n-1-i if ``reverse`` else i."""
    return _weight(level, {
        (i, i): rho_factorial(level, level - 1 - i if reverse else i)
        .mul_q_power(i * (i + 1)) for i in range(level)})


def closed_form_weight(level: int) -> Weight:
    """The candidate  sum_i q^(i(i+1)) rho_{n-1-i}! theta^i thetabar^i."""
    return _factorial_weight(level, reverse=True)


def mirror_weight(level: int) -> Weight:
    """The competing candidate with the factorial index unreversed,
    sum_i q^(i(i+1)) rho_i! theta^i thetabar^i."""
    return _factorial_weight(level, reverse=False)


def _pair_outer(level: int, pair: tuple[str, str],
                sqrt_rho: Sequence[Scalar] | None, evolved: bool = False) -> OpExpr:
    """|A><B| for the pair's coherent states: ket body @ dagger(bra body)."""
    ket_state = make_coherent(level, pair[0], sqrt_rho)
    bra_state = make_coherent(level, pair[1], sqrt_rho)
    ket_body = evolve_state(ket_state) if evolved else ket_state.body
    bra_body = evolve_state(bra_state) if evolved else bra_state.body
    return ket_body @ op_dagger(bra_body)


def _integrate(weight: Weight, outer_product: OpExpr) -> OpExpr:
    return berezin_op(OpExpr.from_gexpr(weight.expr) @ outer_product, MEASURE)


def resolution_integral(weight: Weight, pair: tuple[str, str],
                        sqrt_rho: Sequence[Scalar] | None = None,
                        evolved: bool = False) -> OpExpr:
    """int dthetabar dtheta w |A><B| for the requested state pair.

    ``pair`` names the families of the ket state and of the state whose
    dagger provides the bra.  With ``evolved`` both states carry their
    time evolution factors first.
    """
    return _integrate(weight, _pair_outer(weight.level, pair, sqrt_rho, evolved))


def identity_target(level: int, pair: tuple[str, str]) -> OpExpr:
    """The identity the integral is compared against: the resolved sum
    whose ket family matches the pair's ket state."""
    return dual_identity_sum(level, pair[0])


def verify_resolution(weight: Weight, pair: tuple[str, str],
                      sqrt_rho: Sequence[Scalar] | None = None,
                      evolved: bool = False) -> OpExpr:
    """Defect of the resolution of identity for the given pair."""
    integral = resolution_integral(weight, pair, sqrt_rho, evolved)
    return integral - identity_target(weight.level, pair)


# ---------------------------------------------------------------------------
# the weight system and its permutation structure
# ---------------------------------------------------------------------------

def _solve_permutation(level: int, columns: dict) -> dict:
    """Solve  sum_kl columns[kl][ij] c_kl = delta_ij, (i, j), (k, l) in range(level)^2.

    The system must be a generalized permutation matrix: each column one
    single-term (so invertible) entry, no row hit twice, hence none missed.
    Its unique solution is c_kl = 1/entry on the diagonal rows, zero
    elsewhere.  Any other shape, or a surviving off-diagonal c_kl, raises
    :class:`SingularSystemError`.
    """
    rows = {(i, j) for i in range(level) for j in range(level)}
    if set(columns) != rows:
        raise SingularSystemError("need one unknown c_kl per row (i, j)")
    solution = {}
    for (k, l), column in columns.items():
        if len(column) != 1:
            raise SingularSystemError(f"column c_{k}{l} has {len(column)} entries")
        (row, entry), = column.items()
        if len(entry.terms) != 1:
            raise SingularSystemError(f"c_{k}{l} has a non-monomial entry {entry}")
        if row not in rows:
            raise SingularSystemError(f"row {row} is hit twice or does not exist")
        rows.remove(row)
        if row[0] == row[1]:
            if k != l:
                raise SingularSystemError(f"off-diagonal c_{k}{l} survived")
            solution[(k, l)] = entry.monomial_inverse()
    return solution


def solve_weight(level: int,
                 sqrt_rho: Sequence[Scalar] | None = None) -> Weight:
    """Derive the weight coefficients from the resolution condition.

    Builds |theta><theta~| once, integrates every monomial theta^k
    thetabar^l against it and equates the total with sum_i |psi_i><phi_i|.
    The system must be a generalized permutation matrix, which proves the
    solution unique, and the solution must be diagonal.
    """
    n = level
    outer_product = _pair_outer(n, (PSI, PHI), sqrt_rho)
    columns = {}
    for kl in [(k, l) for k in range(n) for l in range(n)]:
        integral = _integrate(_weight(n, {kl: Scalar.one(n)}), outer_product)
        if any(word or not (k and b) for word, (k, b) in integral.terms):
            raise EngineError("unexpected term shape in weight system")
        columns[kl] = {(k[1], b[1]): c
                       for (_, (k, b)), c in integral.terms.items()}
    return _weight(n, _solve_permutation(n, columns))


def compare_weights(a: Weight, b: Weight) -> list[tuple[int, bool, Scalar]]:
    """Per-index comparison of two diagonal weights.

    Returns one row (index, equal, difference) per diagonal slot.
    """
    if a.level != b.level:
        raise EngineError("weights live at different levels")
    rows = []
    for i in range(a.level):
        diff = a.coefficient(i, i) - b.coefficient(i, i)
        rows.append((i, diff.is_zero, diff))
    return rows
