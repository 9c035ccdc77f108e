"""Weight functions and resolutions of the identity.

A weight is a polynomial w(theta, thetabar) = sum c_kl theta^k thetabar^l.
The engine checks integrals of the form

    int dthetabar dtheta  w(theta, thetabar) |A><B|

against the resolved identity sum_i |psi_i><phi_i| (or its dual).  With
the mixed pairs |theta><theta~| and |theta~><theta| a diagonal weight
makes the integral the exact identity; the same-family pairs produce
same-family dyads and therefore can never match it.  States, weights and
integrals are written in the symbols s_i = sqrt(rho_i) (rho_k! is
s_1^2 ... s_k^2), so one solve and one integral hold for every choice of
rho_i > 0 at once.

:func:`solve_weight` re-derives the weight from scratch.  The integral of
each monomial theta^k thetabar^l against |theta><theta~| is one column
of the linear system in the unknowns c_kl.  The solver proves that the
system is a generalized permutation matrix: every column holds exactly
one invertible monomial entry and every dyad |psi_i><phi_j| is hit
exactly once.  Such a system has exactly one solution, read off by
inverting the entries on the diagonal dyads; any other shape is
refused.  Every column is built the same way: its (ket term, bra term)
pairs are contracted and integrated word by word, and exactly one pair
may survive, on one dyad with two single-term coefficients, which makes
the entry a nonzero monomial.  Only the n diagonal entries, which the
solution reads, are multiplied out, and each column streams into the
solver as it is built.  The solver, not any closed formula, is the
source of truth; the closed-form candidates below are compared with it.

Every integral is formed by degree complement.  The measure keeps a word
only when it holds theta_1^(n-1) thetabar_1^(n-1) (int dtheta theta^k =
delta(k, n-1)).  Normal ordering merges equal generators by adding their
exponents, returns zero at an exponent >= n, and a phase never changes
an exponent; so a product's theta_1 and thetabar_1 exponents are the
sums of its factors'.  So |A><B| is never formed whole: one complement
stream (:func:`_complement_pairs`) splits its ket factor and the dagger
of its bra factor by those exponents and yields each ket block (c, d)
with each bra block (e, f) under the weight degrees (n-1-c-e, n-1-d-f)
that read them.  The check composes a weight block only with the pairs
that arrive under its degrees, so a diagonal weight reads n of the n^2
ket-bra products and nothing is filed.  The solve, the one reader of
every pair, files the stream by (k, l) and integrates the pairs under
(k, l), term by term, as column c_kl, with no operator product at all.
Every product left out integrates to exactly 0, so no result changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EngineError, SingularSystemError
from .galg import (GExpr, Kind, Word, d_theta, d_thetabar, grade,
                   integrate_word, normalize_word)
from .opalg import (OpExpr, PHI, PSI, _term_pairs, berezin_op,
                    dual_identity_sum, op_dagger)
from .coherent import evolve_state, make_coherent
from .scalars import Scalar, rho_factorial

MEASURE = (d_thetabar(), d_theta())

MIXED_PAIRS = ((PSI, PHI), (PHI, PSI))
SAME_PAIRS = ((PSI, PSI), (PHI, PHI))


@dataclass(frozen=True)
class Weight:
    """Diagonal-or-not weight polynomial, stored as a graded expression."""

    expr: GExpr

    @property
    def level(self) -> int:
        return self.expr.level

    def coefficient(self, k: int, l: int) -> Scalar:
        _, word = normalize_word(self.level, _monomial_word(k, l))
        return self.expr.terms.get(word, Scalar.zero(self.level))

    def is_diagonal(self) -> bool:
        return all(dt == db for dt, db in map(grade, self.expr.terms))


def _monomial_word(k: int, l: int) -> list:
    return [(Kind.THETA, 1, k), (Kind.THETABAR, 1, l)]


def _weight(level: int, coefficients: dict[tuple[int, int], Scalar]) -> Weight:
    """sum c_kl theta^k thetabar^l over the given coefficients c_kl."""
    return Weight(GExpr.from_raw(
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


def _pair_outer(level: int, pair: tuple[str, str], evolved: bool = False):
    """The degree-complement stream of |A><B| for the pair's coherent
    states (:func:`_complement_pairs`)."""
    states = [make_coherent(level, family) for family in pair]
    return _complement_pairs(*[evolve_state(s) if evolved else s.body
                               for s in states])


def _complement_pairs(ket_body: OpExpr, bra_body: OpExpr):
    """Yield ``((a, b), ket block, bra block)`` for |A><B|: each ket block
    (c, d) of ``ket_body`` with each bra block (e, f) of
    dagger(``bra_body``) (see ``_blocks``), under the only weight degrees
    (a, b) = (n-1-c-e, n-1-d-f) that read it."""
    top = ket_body.level - 1
    bra_blocks = _blocks(op_dagger(bra_body))
    for (c, d), ket_block in _blocks(ket_body).items():
        for (e, f), bra_block in bra_blocks.items():
            yield (top - c - e, top - d - f), ket_block, bra_block


def _measured_degrees(word: Word) -> tuple[int, int]:
    """Exponents of theta_1 and thetabar_1, the two variables MEASURE
    integrates (a canonical word holds each generator at most once)."""
    exps = {(kind, index): exp for kind, index, exp in word}
    return exps.get((Kind.THETA, 1), 0), exps.get((Kind.THETABAR, 1), 0)


def _blocks(e: OpExpr) -> dict[tuple[int, int], OpExpr]:
    """``e`` split into one OpExpr per measured degrees of its words."""
    blocks: dict = {}
    for key, c in e.terms.items():
        blocks.setdefault(_measured_degrees(key[0]), {})[key] = c
    return {d: OpExpr._wrap(e.level, terms) for d, terms in blocks.items()}


def _integrate(weight: Weight, pairs) -> OpExpr:
    """int dthetabar dtheta w |A><B|, ``pairs`` any iterable of the
    triples ``_pair_outer(...)`` yields.

    A weight block (a, b) is composed only with the (ket block, bra
    block) pairs that arrive under (a, b) (see the module docstring);
    every other product, which would integrate to 0, is never formed.  Nor
    is such a product normal ordered, so a generator pair without an
    exchange rule inside it goes unreported: its value is 0 however that
    missing rule would read.
    """
    blocks = _blocks(OpExpr.from_gexpr(weight.expr))
    integrand = OpExpr.zero(weight.level)
    for ab, ket_block, bra_block in pairs:
        if ab in blocks:
            integrand = integrand + blocks[ab] @ ket_block @ bra_block
    return berezin_op(integrand, MEASURE)


def resolution_integral(weight: Weight, pair: tuple[str, str],
                        evolved: bool = False) -> OpExpr:
    """int dthetabar dtheta w |A><B| for the requested state pair.

    ``pair`` names the families of the ket state and of the state whose
    dagger provides the bra.  With ``evolved`` both states carry their
    time evolution factors first.
    """
    return _integrate(weight, _pair_outer(weight.level, pair, evolved))


def verify_resolution(weight: Weight, pair: tuple[str, str],
                      evolved: bool = False) -> OpExpr:
    """Defect of the resolution of identity for the given pair, against
    the resolved sum whose ket family matches the pair's ket state."""
    return (resolution_integral(weight, pair, evolved)
            - dual_identity_sum(weight.level, pair[0]))


# ---------------------------------------------------------------------------
# the weight system and its permutation structure
# ---------------------------------------------------------------------------

def _solve_permutation(level: int, columns) -> dict:
    """Solve  sum_kl column_kl c_kl = sum_i |psi_i><phi_i|  as it streams.

    ``columns`` yields ``((k, l), row, entry)`` from :func:`_column` once
    per (k, l) in range(level)^2.  The system must be a generalized
    permutation matrix: no row hit twice, hence, with level^2 columns,
    none missed.  An entry may be None, which is never read.  The unique
    solution is c_kl = 1/entry on the diagonal rows, zero elsewhere.  A
    row hit twice or out of range, or a surviving off-diagonal c_kl,
    raises :class:`SingularSystemError`.
    """
    rows = {(i, j) for i in range(level) for j in range(level)}
    solution = {}
    for (k, l), row, entry in columns:
        if row not in rows:
            raise SingularSystemError(f"row {row} is hit twice or does not exist")
        rows.remove(row)
        if row[0] == row[1]:
            if k != l:
                raise SingularSystemError(f"off-diagonal c_{k}{l} survived")
            solution[(k, l)] = entry.monomial_inverse()
    return solution


def _row(word: Word, dyad: tuple) -> tuple[int, int]:
    """The row (i, j) of a weight-system term: an empty word on |psi_i><phi_j|."""
    ket_side, bra_side = dyad
    if word or not (ket_side and bra_side):
        raise SingularSystemError("unexpected term shape in weight system")
    return ket_side[1], bra_side[1]


def _column(level: int, kl: tuple[int, int], block_pairs) -> tuple:
    """Column c_kl of the weight system, ``(kl, row, entry)``.

    For each (ket block, bra block) pair filed under (k, l), ``_term_pairs``
    contracts the dyads and normal orders (ket word) (bra word), and
    ``integrate_word`` integrates theta^k thetabar^l times that word.
    Exactly one term pair must survive, as the empty word on an outer
    product, with two single-term coefficients; any other shape raises
    :class:`SingularSystemError` (no cancellation is assumed).  The entry,
    a phase times their product, is then a nonzero monomial; it is formed
    only when k == l, the columns the solution reads, and is ``None``
    otherwise.
    """
    k, l = kl
    monomial = _monomial_word(k, l)
    survivors = []
    for ket_block, bra_block in block_pairs:
        for (word, dyad), qe, c_ket, c_bra in _term_pairs(
                level, ket_block.terms, bra_block.terms):
            qi, rest = integrate_word(level, monomial + list(word), MEASURE)
            if rest is not None:
                survivors.append((_row(rest, dyad), qe + qi, c_ket, c_bra))
    if len(survivors) != 1:
        raise SingularSystemError(
            f"column c_{k}{l} is reached by {len(survivors)} term pairs")
    (row, qe, c_ket, c_bra), = survivors
    if len(c_ket.terms) != 1 or len(c_bra.terms) != 1:
        raise SingularSystemError(f"c_{k}{l} has a non-monomial factor")
    return kl, row, (c_ket * c_bra).mul_q_power(qe) if k == l else None


def solve_weight(level: int) -> Weight:
    """Derive the weight coefficients from the resolution condition.

    Equates int w |theta><theta~| with sum_i |psi_i><phi_i|.  Column c_kl
    is one walk over the pairs the complement stream of |theta><theta~|
    yields under (k, l) (:func:`_column`); the solve files them by column,
    the only table of complement pairs, and the solver reads each column
    as it is built.  The system must be a generalized permutation matrix,
    which proves the solution unique, and the solution must be diagonal.
    """
    columns: dict = {}
    for kl, ket_block, bra_block in _pair_outer(level, (PSI, PHI)):
        columns.setdefault(kl, []).append((ket_block, bra_block))
    return _weight(level, _solve_permutation(level, (
        _column(level, (k, l), columns.get((k, l), ()))
        for k in range(level) for l in range(level))))


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
