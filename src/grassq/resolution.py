"""Weights and resolutions of the identity.

A weight is a polynomial w(theta, thetabar) = sum c_kl theta^k thetabar^l,
held as the :class:`~grassq.galg.GExpr` of that sum; it is diagonal
(:func:`is_diagonal`) when only k = l terms occur.  The engine checks
integrals of the form

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
pairs are placed, and exactly one pair may survive integration, on one
dyad with two single-term coefficients, which makes the entry a nonzero
monomial.  Only the n diagonal entries, which the solution reads, are
multiplied out, and each surviving pair streams into the solver as the
walk reaches it.  The solver, not any closed formula, is the source of
truth; the closed-form candidates below are compared with it.

One walk (:func:`_read_pairs`) forms every integral, the solve's and the
checks'.  The measure keeps a word only when it holds theta_1^(n-1)
thetabar_1^(n-1): int dtheta theta^k = delta(k, n-1), the paragrassmann
rule of Filippov, Isaev and Kurdikov (1992).  Normal ordering merges
equal generators by adding their exponents, returns zero at an exponent
>= n, and a phase never changes an exponent; so a product's theta_1 and
thetabar_1 exponents are the sums of its factors'.  A ket term of
degrees (c, d) and a term (e, f) of the dagger of the bra are therefore
read by exactly one weight degree, (a, b) = (n-1-c-e, n-1-d-f).  The
walk skips a pair unless its reader wants (a, b), and places theta^a
thetabar^b (ket word) (bra word) once for each pair it keeps: |A><B| is
never formed and no operator is composed.  A check reads the degrees
its weight holds, so a diagonal weight places n of the n^2 pairs; it
adds c_ab c_ket c_bra q^qe over them into one integrand and integrates
that once (``berezin_op``).  The complement gives every placed word
the degrees (n-1, n-1), and the bodies hold theta_1 and thetabar_1
alone, so every word is theta^(n-1) thetabar^(n-1) itself.  The solve
reads every degree, integrates that one word once per level, and gives
every entry its phase; it files nothing.  Every pair left out
integrates to exactly 0, so no result changes.
"""

from __future__ import annotations

from .errors import EngineError, SingularSystemError
from .galg import (GExpr, _monomial, d_theta, d_thetabar, grade,
                   integrate_word, normalize_word)
from .opalg import (OpExpr, PHI, PSI, _contract, _place, berezin_op,
                    dual_identity_sum, op_dagger)
from .coherent import evolve_state, make_coherent
from .scalars import Scalar, _accumulate, rho_factorial

MEASURE = (d_thetabar(), d_theta())

MIXED_PAIRS = ((PSI, PHI), (PHI, PSI))
SAME_PAIRS = ((PSI, PSI), (PHI, PHI))


def is_diagonal(weight: GExpr) -> bool:
    """Whether every term of the weight has equal theta and thetabar degree."""
    return all(dt == db for dt, db in map(grade, weight.terms))


def _weight(level: int, coefficients: dict[tuple[int, int], Scalar]) -> GExpr:
    """sum c_kl theta^k thetabar^l over the given coefficients c_kl."""
    return GExpr.from_raw(
        level, [(c, _monomial(k, l)) for (k, l), c in coefficients.items()])


def _factorial_weight(level: int, reverse: bool) -> GExpr:
    """sum_i q^(i(i+1)) rho_m! theta^i thetabar^i; m = n-1-i if ``reverse`` else i."""
    return _weight(level, {
        (i, i): rho_factorial(level, level - 1 - i if reverse else i)
        .mul_q_power(i * (i + 1)) for i in range(level)})


def closed_form_weight(level: int) -> GExpr:
    """The candidate  sum_i q^(i(i+1)) rho_{n-1-i}! theta^i thetabar^i."""
    return _factorial_weight(level, reverse=True)


def mirror_weight(level: int) -> GExpr:
    """The competing candidate with the factorial index unreversed,
    sum_i q^(i(i+1)) rho_i! theta^i thetabar^i."""
    return _factorial_weight(level, reverse=False)


def _coefficients(weight: GExpr) -> dict[tuple[int, int], Scalar]:
    """``{(k, l): c_kl}`` of the weight, read by ``grade``, which refuses
    a measure symbol.  A word holding another variable, such as theta_2,
    is refused too: it is not the word theta^k thetabar^l of its degrees."""
    level = weight.level
    if any(normalize_word(level, _monomial(*grade(w)))[1] != w
           for w in weight.terms):
        raise EngineError("a weight is a sum of theta^k thetabar^l terms")
    return {grade(word): c for word, c in weight.terms.items()}


def _read_pairs(ket_body: OpExpr, bra_body: OpExpr, reads):
    """The term pairs of |A><B| that the weight degrees in ``reads`` (None
    for every degree) read, for ket body A and bra body B.

    Each term (c, d) of ``ket_body`` meets each term (e, f) of
    dagger(``bra_body``), in that order, under the one weight degree
    (a, b) = (n-1-c-e, n-1-d-f) that reads it (see the module docstring;
    the bodies' words, like the weight's, hold theta_1 and thetabar_1
    alone, so the degrees are their ``grade``).  A pair under a degree not
    in ``reads`` is skipped before anything is formed; otherwise its dyads
    are contracted (``_contract``, which refuses a same-family pairing)
    and theta^a thetabar^b (ket word) (bra word) is placed once.  Yields
    ``((a, b), (word, dyad), qe, c_ket, c_bra)`` for each pair that
    neither contraction nor ordering makes zero: the pair contributes
    c_ab c_ket c_bra q^qe word dyad.
    """
    level = ket_body.level
    bra_terms = [(grade(w), w, d, c)
                 for (w, d), c in op_dagger(bra_body).terms.items()]
    for (w1, d1), c_ket in ket_body.terms.items():
        c, d = grade(w1)
        for (e, f), w2, d2, c_bra in bra_terms:
            ab = (level - 1 - c - e, level - 1 - d - f)
            if reads is None or ab in reads:
                dyad = _contract(d1, d2)
                qe, word = _place(level, _monomial(*ab) + w1, d1, w2)
                if dyad is not None and word is not None:
                    yield ab, (word, dyad), qe, c_ket, c_bra


def resolution_integral(weight: GExpr, pair: tuple[str, str],
                        evolved: bool = False) -> OpExpr:
    """int dthetabar dtheta w |A><B| for the requested state pair.

    ``pair`` names the families of the ket state and of the state whose
    dagger provides the bra.  With ``evolved`` both states carry their
    time evolution factors first.  Only the term pairs that the weight's
    degrees read are placed (:func:`_read_pairs`); they are added into one
    integrand, which is integrated once.
    """
    states = [make_coherent(weight.level, family) for family in pair]
    bodies = [evolve_state(s) if evolved else s.body for s in states]
    coefficients = _coefficients(weight)
    integrand = _accumulate({}, (
        (key, coefficients[ab]._mul_q(c_ket, 0)._mul_q(c_bra, qe))
        for ab, key, qe, c_ket, c_bra in _read_pairs(*bodies, coefficients)))
    return berezin_op(OpExpr._wrap(weight.level, integrand), MEASURE)


def verify_resolution(weight: GExpr, pair: tuple[str, str],
                      evolved: bool = False) -> OpExpr:
    """Defect of the resolution of identity for the given pair, against
    the resolved sum whose ket family matches the pair's ket state."""
    return (resolution_integral(weight, pair, evolved)
            - dual_identity_sum(weight.level, pair[0]))


# ---------------------------------------------------------------------------
# the weight system and its permutation structure
# ---------------------------------------------------------------------------

def _solve_permutation(level: int, entries) -> dict:
    """Solve  sum_kl column_kl c_kl = sum_i |psi_i><phi_i|  as it streams.

    ``entries`` yields ``((k, l), row, c_ket, c_bra, qe)`` for each term
    pair that survives integration (:func:`_entries`): column c_kl holds
    c_ket c_bra q^qe on row (i, j).  The system must be a generalized
    permutation matrix: each column reached once, each row hit once, and
    each entry a nonzero monomial, which is the product of two single-term
    factors (no cancellation is assumed).  With level^2 rows, every row
    hit means every column reached.  The unique solution is c_kl =
    1/entry on the diagonal rows, zero elsewhere; only those entries are
    formed, in one coefficient step (``Scalar._mul_q``).  Any other shape,
    a column or row outside 0..level-1, or a surviving off-diagonal c_kl,
    raises :class:`SingularSystemError` at the first entry that shows it.
    The solution is in (k, l) order.

    The columns reached and the rows hit are two tables of level^2 bytes,
    (i, j) at i * level + j, with a count of the rows left.  Each
    coordinate is bounds-checked before it indexes, since a negative
    index would wrap round to another cell.
    """
    size = level * level
    reached, hit, left = bytearray(size), bytearray(size), size
    solution = {}
    for (k, l), row, c_ket, c_bra, qe in entries:
        if not (0 <= k < level and 0 <= l < level):
            raise SingularSystemError(f"column c_{k}{l} does not exist")
        column = k * level + l
        if reached[column]:
            raise SingularSystemError(f"column c_{k}{l} is reached twice")
        reached[column] = 1
        i, j = row
        if not (0 <= i < level and 0 <= j < level) or hit[i * level + j]:
            raise SingularSystemError(f"row {row} is hit twice or does not exist")
        hit[i * level + j] = 1
        left -= 1
        if len(c_ket.terms) != 1 or len(c_bra.terms) != 1:
            raise SingularSystemError(f"c_{k}{l} has a non-monomial factor")
        if i == j:
            if k != l:
                raise SingularSystemError(f"off-diagonal c_{k}{l} survived")
            solution[(k, l)] = c_ket._mul_q(c_bra, qe).monomial_inverse()
    if left:
        raise SingularSystemError(
            f"row {divmod(hit.index(0), level)} is never hit")
    return dict(sorted(solution.items()))


def _entries(level: int):
    """The weight system as it streams, for :func:`_solve_permutation`.

    Every term pair of |theta><theta~| (:func:`_read_pairs`, reading every
    degree) is placed under its column (k, l) as theta^k thetabar^l (ket
    word) (bra word).  The complement gives that word the degrees
    (n-1, n-1), so it is ``top`` = theta^(n-1) thetabar^(n-1), the one
    word the measure keeps (see the module docstring): ``top`` is
    integrated once per level, to q^q0, and a pair that placed any other
    word integrates to 0 and is skipped.  A pair on ``top`` must lie on an
    outer product |psi_i><phi_j|; it yields
    ``((k, l), (i, j), c_ket, c_bra, qe + q0)``.
    """
    top = normalize_word(level, _monomial(level - 1, level - 1))[1]
    q0 = integrate_word(level, top, MEASURE)[0]
    bodies = [make_coherent(level, family).body for family in (PSI, PHI)]
    for kl, (word, (ket_side, bra_side)), qe, c_ket, c_bra in _read_pairs(
            *bodies, None):
        if word == top:
            if not (ket_side and bra_side):
                raise SingularSystemError("unexpected term shape in weight system")
            yield kl, (ket_side[1], bra_side[1]), c_ket, c_bra, qe + q0


def solve_weight(level: int) -> GExpr:
    """Derive the weight coefficients from the resolution condition.

    Equates int w |theta><theta~| with sum_i |psi_i><phi_i|.  Each term
    pair of |theta><theta~| is placed as the walk reaches it and takes the
    one integration phase of its level (:func:`_entries`), and each
    surviving pair goes straight into the solver, so no table of pairs or
    columns is kept.  The system must be a generalized permutation
    matrix, which proves the solution unique, and the solution must be
    diagonal.
    """
    return _weight(level, _solve_permutation(level, _entries(level)))
