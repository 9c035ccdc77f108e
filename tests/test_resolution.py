import random
from fractions import Fraction

import pytest

from conftest import (diagonal_differences, random_scalar, shifted_weight,
                      word_operator)
from grassq import resolution
from grassq.coherent import CoherentState, evolve_state, make_coherent
from grassq.errors import EngineError, SingularSystemError
from grassq.galg import GExpr, Kind, grade, normalize_word
from grassq.opalg import (PHI, PSI, OpExpr, berezin_op, ket, op_dagger,
                          op_term, outer)
from grassq.resolution import (MEASURE, MIXED_PAIRS, SAME_PAIRS,
                               closed_form_weight, is_diagonal, mirror_weight,
                               resolution_integral, solve_weight,
                               verify_resolution, _coefficients, _entries,
                               _read_pairs, _solve_permutation, _weight)
from grassq.scalars import Cyclo, Scalar, rho_factorial
from grassq.suites import run_suite


def _monomial(k, l):
    """theta^k thetabar^l as raw factors."""
    return [(Kind.THETA, 1, k), (Kind.THETABAR, 1, l)]


def test_closed_form_weight_values():
    # n=3: rho1 rho2 + q^2 rho1 th thb + th^2 thb^2  (q^2 = 1/q at n=3)
    assert closed_form_weight(3) == GExpr.from_raw(3, [
        (rho_factorial(3, 2), []),
        (rho_factorial(3, 1).mul_q_power(2), _monomial(1, 1)),
        (Scalar.one(3), _monomial(2, 2))])  # q^6 rho_0! = 1
    # n=2: rho_1 + q^2 th thb with q^2 = 1
    assert closed_form_weight(2) == GExpr.from_raw(2, [
        (rho_factorial(2, 1), []), (Scalar.one(2), _monomial(1, 1))])


def test_solver_matches_reversed_factorial_form():
    for n in range(2, 9):
        solved = solve_weight(n)
        assert is_diagonal(solved)
        difference = solved - closed_form_weight(n)
        assert difference.is_zero, (n, str(difference))


def test_solver_disagrees_with_plain_factorial_form():
    # rho_i! vs rho_{n-1-i}!: indices match only where the two coincide
    for n in (2, 3, 4):
        rows = diagonal_differences(solve_weight(n), mirror_weight(n))
        for i, diff in rows:
            factorials_agree = rho_factorial(n, i) == rho_factorial(n, n - 1 - i)
            assert diff.is_zero == factorials_agree, (n, i, str(diff))


def test_mixed_pairs_resolve_exactly():
    for n in range(2, 6):
        weight = solve_weight(n)
        for pair in MIXED_PAIRS:
            defect = verify_resolution(weight, pair)
            assert defect.is_zero, (n, pair, str(defect))


def test_same_family_pairs_fail_structurally():
    for n in (2, 3, 4):
        weight = solve_weight(n)
        for pair in SAME_PAIRS:
            defect = verify_resolution(weight, pair)
            assert not defect.is_zero
            integral = resolution_integral(weight, pair)
            families = {(d[0][0], d[1][0]) for (_, d) in integral.terms}
            assert families == {(pair[0], pair[0])}


def test_same_family_integral_is_the_gram_sum():
    # int w |theta><theta| collapses to sum_i |psi_i><psi_i| exactly
    for n in (2, 3):
        integral = resolution_integral(solve_weight(n), (PSI, PSI))
        expected = {((), outer(PSI, i, PSI, i)): Scalar.one(n)
                    for i in range(n)}
        assert integral.terms == expected


def test_resolution_phase_bookkeeping():
    # independent oracle for the engine's crossing phases: expanding the
    # monomial integral by hand gives, for surviving (i, j),
    #   A_i conj(A_j) q^(i l) q^(j(i-1)) qbar^(j(j-1))
    # with A_i = qbar^(i(i+1)/2)/sqrt(rho_i!) and k+i = l+j = n-1
    for n in (2, 3, 4):
        for k in range(n):
            for l in range(n):
                weight = GExpr.from_raw(
                    n, [(Scalar.one(n), [(Kind.THETA, 1, k),
                                         (Kind.THETABAR, 1, l)])])
                integral = resolution_integral(weight, (PSI, PHI))
                i, j = n - 1 - k, n - 1 - l
                inv_fact = Scalar.one(n)
                for m in range(1, i + 1):
                    inv_fact = inv_fact * Scalar.s(n, m, -1)
                for m in range(1, j + 1):
                    inv_fact = inv_fact * Scalar.s(n, m, -1)
                phase = (-(i * (i + 1)) // 2 + (j * (j + 1)) // 2
                         + i * l + j * (i - 1) - j * (j - 1))
                expected = {((), outer(PSI, i, PHI, j)):
                            inv_fact.mul_q_power(phase)}
                assert integral.terms == expected, (n, k, l)


def test_evolved_pair_resolves_with_static_weight():
    for n in (2, 3, 4):
        weight = solve_weight(n)
        for pair in MIXED_PAIRS:
            defect = verify_resolution(weight, pair, evolved=True)
            assert defect.is_zero, (n, pair)


def test_permutation_solver(monkeypatch):
    n = 2
    one, q, s1 = Scalar.one(n), Scalar.q(n), Scalar.s(n, 1)
    # the n=2 shape: c_kl reaches row (1-k, 1-l) with a monomial entry,
    # c_ket c_bra q^qe
    entries = {(0, 0): ((1, 1), s1, one, 0), (0, 1): ((1, 0), q, one, 0),
               (1, 0): ((0, 1), one, one, 0), (1, 1): ((0, 0), s1, q, 0)}

    def solve(changes, extra=()):
        return _solve_permutation(n, [
            (kl, *entry) for kl, entry in {**entries, **changes}.items()
            if entry is not None] + list(extra))

    formed = []
    plain_mul = Scalar.__mul__

    def mul(self, other, k=0):
        formed.append((self, other, k))
        return plain_mul(self, other, k)
    with monkeypatch.context() as counting:
        counting.setattr(Scalar, "__mul__", mul)
        x = solve({})
    assert list(x) == [(0, 0), (1, 1)]
    assert x[(0, 0)] * s1 == one
    assert x[(1, 1)] * s1 * q == one
    # only the diagonal entries, the ones the solution reads, are formed
    assert formed == [(s1, one, 0), (s1, q, 0)]
    # entries in any order give the solution in (k, l) order
    assert list(_solve_permutation(n, [
        ((1, 1), (0, 0), s1, q, 0), ((1, 0), (0, 1), one, one, 0),
        ((0, 1), (1, 0), q, one, 0), ((0, 0), (1, 1), s1, one, 0)])) == [
            (0, 0), (1, 1)]

    def refused(changes, reason, extra=()):
        with pytest.raises(SingularSystemError, match=reason):
            solve(changes, extra)

    refused({(0, 1): ((0, 1), q, one, 0)}, r"row \(0, 1\) is hit twice")
    refused({(0, 1): ((2, 0), q, one, 0)}, "does not exist")
    # each coordinate is bounded before it indexes the row table, where
    # (-1, 0) would wrap round to the unhit row (1, 0), and (0, 2) too
    for row in ((-1, 0), (0, -1), (0, 2)):
        refused({(0, 1): (row, q, one, 0)},
                rf"row \({row[0]}, {row[1]}\) is hit twice or does not exist")
    refused({(0, 1): None}, "column c_-10 does not exist",
            [((-1, 0), (1, 0), q, one, 0)])
    refused({(0, 1): ((1, 1), q, one, 0), (0, 0): ((1, 0), s1, one, 0)},
            "off-diagonal c_01 survived")
    refused({(0, 1): ((1, 0), q + one, one, 0)},
            "c_01 has a non-monomial factor")
    refused({(0, 1): ((1, 0), q, one + s1, 0)},
            "c_01 has a non-monomial factor")
    # two survivors on one column, even on distinct rows, are not summed
    refused({(0, 1): None}, "column c_00 is reached twice",
            [((0, 0), (1, 0), q, one, 0)])
    # a column no pair survives on leaves its row unhit
    refused({(0, 1): None}, r"row \(1, 0\) is never hit")


def _all_degrees(n):
    """Every weight degree (a, b), in column order."""
    return [(a, b) for a in range(n) for b in range(n)]


def test_walk_places_every_term_pair_once_under_its_complement():
    # each (ket term, bra term) pair under the one weight degree that
    # reads it, (n-1-c, n-1-f) for a ket term theta^c and a bra term
    # thetabar^f, placed as the plain product of theta^a thetabar^b, the
    # ket term and the bra term; a reader gets exactly the pairs under the
    # degrees it holds, in its own order
    rng = random.Random(26)
    for n in range(2, 9):
        one = Scalar.one(n)
        degrees = _all_degrees(n)
        for pair in MIXED_PAIRS + SAME_PAIRS:
            for evolved in (False, True):
                ket_body, bra_body = _pair_bodies(n, pair, evolved)
                walked = list(_read_pairs(ket_body, bra_body, degrees))
                want = {}
                for ket_key, c_ket in ket_body.terms.items():
                    for bra_key, c_bra in op_dagger(bra_body).terms.items():
                        ab = (n - 1 - grade(ket_key[0])[0],
                              n - 1 - grade(bra_key[0])[1])
                        product = (op_term(n, one, left=_monomial(*ab))
                                   @ OpExpr(n, {ket_key: c_ket})
                                   @ OpExpr(n, {bra_key: c_bra}))
                        assert ab not in want, (n, pair, evolved, ab)
                        want[ab] = product.terms
                assert {ab: {key: c_ket.__mul__(c_bra, qe)}
                        for ab, key, qe, c_ket, c_bra in walked} == want, (
                            n, pair, evolved)
                assert len(walked) == len(want), (n, pair, evolved)
                reads = rng.sample(degrees, rng.randrange(n * n))
                assert list(_read_pairs(ket_body, bra_body, reads)) == [
                    t for ab in reads for t in walked if t[0] == ab], (
                        n, pair, evolved)


def test_every_solve_pair_places_the_one_word_the_measure_keeps():
    # the premise of integrating once per level: the complement gives
    # every pair of |theta><theta~| the word theta^(n-1) thetabar^(n-1)
    for n in range(2, 17):
        _, top = normalize_word(n, _monomial(n - 1, n - 1))
        stream = list(_read_pairs(*_pair_bodies(n, (PSI, PHI), False),
                                  _all_degrees(n)))
        assert len(stream) == n * n, n
        assert all(word == top for _, (word, _), *_ in stream), n


def test_column_reads_one_term_pair_and_refuses_any_other_shape(monkeypatch):
    n = 2
    stream = list(_read_pairs(*_pair_bodies(n, (PSI, PHI), False),
                              _all_degrees(n)))
    entries = list(_entries(n))
    # c_01: theta^0 thetabar^1 meets the ket term theta |psi_1> and the
    # bra term <phi_0|, and only there
    (_, (word, dyad), *_), = [t for t in stream if t[0] == (0, 1)]
    assert dyad == outer(PSI, 1, PHI, 0)
    assert word == ((Kind.THETA, 1, 1), (Kind.THETABAR, 1, 1))
    (row, *_), = [e[1:] for e in entries if e[0] == (0, 1)]
    assert row == (1, 0)
    # a diagonal column carries the value the exact integral gives
    for k in range(n):
        integral = resolution_integral(_weight(n, {(k, k): Scalar.one(n)}),
                                       (PSI, PHI))
        ((_, (ket_side, bra_side)), value), = integral.terms.items()
        (row, c_ket, c_bra, qe), = [e[1:] for e in entries if e[0] == (k, k)]
        assert row == (ket_side[1], bra_side[1]), k
        assert c_ket.__mul__(c_bra, qe) == value, k

    def refused(pairs, reason):
        with monkeypatch.context() as mutant:
            mutant.setattr(resolution, "_read_pairs", lambda *_: iter(pairs))
            with pytest.raises(SingularSystemError, match=reason):
                solve_weight(n)

    def replaced(kl, at, value):
        """The stream with field ``at`` of the pair under ``kl`` replaced."""
        return [t[:at] + (value,) + t[at + 1:] if t[0] == kl else t
                for t in stream]

    (_, key, _, c_ket, c_bra), = [t for t in stream if t[0] == (0, 1)]
    s1 = Scalar.s(n, 1)
    refused(replaced((0, 1), 3, c_ket * (Scalar.one(n) + s1)),
            "c_01 has a non-monomial factor")
    refused(replaced((0, 1), 4, c_bra * (Scalar.one(n) + s1)),
            "c_01 has a non-monomial factor")
    # a pair that lost its weight monomial leaves a word behind: the ket
    # and bra words alone, theta, miss the thetabar the measure needs
    refused(replaced((0, 1), 1, (((Kind.THETA, 1, 1),), key[1])),
            r"row \(1, 0\) is never hit")
    # two surviving pairs on a diagonal column are refused, not summed
    refused(stream + [t for t in stream if t[0] == (0, 0)],
            "column c_00 is reached twice")


def test_solve_raises_at_the_first_bad_entry_without_reading_on(
        monkeypatch):
    # the solve pulls the walk one pair at a time: a bad second pair
    # stops it before the other n^2 - 2 are placed
    n = 6
    plain_read_pairs = resolution._read_pairs
    pulled = []

    def read_pairs(*args):
        for at, (kl, key, qe, c_ket, c_bra) in enumerate(
                plain_read_pairs(*args)):
            pulled.append(kl)
            if at == 1:
                c_bra = c_bra * (Scalar.one(n) + Scalar.s(n, 1))
            yield kl, key, qe, c_ket, c_bra
    monkeypatch.setattr(resolution, "_read_pairs", read_pairs)
    with pytest.raises(SingularSystemError, match="non-monomial factor"):
        solve_weight(n)
    assert len(pulled) == 2


def test_integral_refuses_a_word_outside_the_weight_polynomials():
    # a weight is sum c_kl theta^k thetabar^l, read as {(k, l): c_kl}; a
    # word of another index is refused, not read under its total
    # degrees, and so is a word holding a measure symbol.  is_diagonal
    # reads the weight the same way, so theta_2 thetabar_1 is not a
    # diagonal term of total degrees (1, 1)
    n = 4
    assert _coefficients(closed_form_weight(n)) == {
        (i, i): rho_factorial(n, n - 1 - i).mul_q_power(i * (i + 1))
        for i in range(n)}
    for raw, message in (
            ([(Kind.THETA, 2, 1)], "a weight is a sum of theta"),
            ([(Kind.THETA, 2, 1)] + _monomial(1, 2),
             "a weight is a sum of theta"),
            ([(Kind.THETA, 1, 1), (Kind.THETABAR, 2, 1)],
             "a weight is a sum of theta"),
            ([(Kind.THETA, 2, 1), (Kind.THETABAR, 1, 1)],
             "a weight is a sum of theta"),
            ([(Kind.DTHETA, 1, 1)], "measure symbol"),
            (_monomial(2, 2) + [(Kind.DTHETABAR, 1, 1)], "measure symbol")):
        weight = closed_form_weight(n) + GExpr.from_raw(
            n, [(Scalar.one(n), raw)])
        with pytest.raises(EngineError, match=message):
            _coefficients(weight)
        with pytest.raises(EngineError, match=message):
            resolution_integral(weight, (PSI, PHI))
        with pytest.raises(EngineError, match=message):
            is_diagonal(weight)


# ---------------------------------------------------------------------------
# the degree-complement integral against the plain one
# ---------------------------------------------------------------------------

def _pair_bodies(n, pair, evolved):
    """The ket body and the bra body of the pair's coherent states."""
    states = [make_coherent(n, family) for family in pair]
    return [evolve_state(s) if evolved else s.body for s in states]


def _plain_outer(ket_body, bra_body):
    """|A><B| formed whole: every ket term times every bra term."""
    return ket_body @ op_dagger(bra_body)


def _reference_integral(weight, outer_product):
    """Every weight term times every outer-product term, then integrated."""
    return berezin_op(word_operator(weight) @ outer_product, MEASURE)


def _random_weight(rng, n, shape):
    cells = [(k, l) for k in range(n) for l in range(n)]
    if shape == "single":
        cells = [rng.choice(cells)]
    elif shape == "non-diagonal":
        cells = rng.sample([(k, l) for k, l in cells if k != l],
                           rng.randrange(1, n * (n - 1) + 1))
    return _weight(n, {kl: random_scalar(rng, n) + Scalar.one(n)
                       for kl in cells})


def _assert_same(got, want, context):
    assert got == want, context
    assert str(got) == str(want), context


def test_filtered_integral_matches_the_plain_one():
    # every (pair, evolved) combination meets every weight shape at every
    # level, so a solved weight is integrated against static and evolved
    # states of all four pairs
    rng = random.Random(20261018)
    for n in range(2, 9):
        solved = solve_weight(n)
        for pair in MIXED_PAIRS + SAME_PAIRS:
            for evolved in (False, True):
                outer_product = _plain_outer(*_pair_bodies(n, pair, evolved))
                for shape in ("dense", "non-diagonal", "single", "solved"):
                    weight = (solved if shape == "solved"
                              else _random_weight(rng, n, shape))
                    _assert_same(resolution_integral(weight, pair, evolved),
                                 _reference_integral(weight, outer_product),
                                 (n, pair, evolved, shape))


def _thin(rng, e):
    """A random proper subset of the terms of ``e``."""
    keys = rng.sample(sorted(e.terms, key=str), rng.randrange(len(e.terms)))
    return OpExpr(e.level, {key: e.terms[key] for key in keys})


def _on_bodies(monkeypatch, ket_body, bra_body, run):
    """``run()`` with the psi and phi coherent states' bodies replaced by
    the given ones."""
    bodies = {PSI: ket_body, PHI: bra_body}
    with monkeypatch.context() as replaced:
        replaced.setattr(resolution, "make_coherent", lambda level, family:
                         CoherentState(level, family, bodies[family]))
        return run()


def _integral_on_bodies(monkeypatch, weight, ket_body, bra_body):
    """``resolution_integral(weight, (PSI, PHI))`` on the given bodies."""
    return _on_bodies(monkeypatch, ket_body, bra_body,
                      lambda: resolution_integral(weight, (PSI, PHI)))


def test_weight_blocks_without_a_partner_integrate_to_zero(monkeypatch):
    # thin the ket and bra bodies so that some weight degrees find no
    # partner pair
    rng = random.Random(7)
    for n in range(2, 9):
        ket_body, bra_body = _pair_bodies(n, (PSI, PHI), False)
        for _ in range(3):
            ket_thin, bra_thin = _thin(rng, ket_body), _thin(rng, bra_body)
            thinned = _plain_outer(ket_thin, bra_thin)
            for shape in ("dense", "non-diagonal", "single"):
                weight = _random_weight(rng, n, shape)
                _assert_same(_integral_on_bodies(monkeypatch, weight,
                                                 ket_thin, bra_thin),
                             _reference_integral(weight, thinned),
                             (n, len(ket_thin.terms), len(bra_thin.terms),
                              shape))


def _with_term(body, index, raw, dyad):
    """``body`` with its term on index ``index`` replaced by the raw word
    ``raw`` on ``dyad``, coefficient 1."""
    n = body.level
    kept = OpExpr(n, {key: c for key, c in body.terms.items()
                      if key[1][0][1] != index})
    return kept + op_term(n, Scalar.one(n), dyad, left=raw)


# each maps the ket and bra bodies of (psi, phi) to a pair of another shape
SHAPE_BREAKERS = {
    "ket-term-with-a-thetabar": lambda ket_body, bra_body: (
        _with_term(ket_body, 1, _monomial(1, 1), ket(PSI, 1)), bra_body),
    "ket-term-on-an-outer-product": lambda ket_body, bra_body: (
        _with_term(ket_body, 1, _monomial(1, 0), outer(PSI, 1, PHI, 0)),
        bra_body),
    "ket-term-of-another-index": lambda ket_body, bra_body: (
        _with_term(ket_body, 1, [(Kind.THETA, 2, 1)], ket(PSI, 1)), bra_body),
    "two-ket-terms-of-one-degree": lambda ket_body, bra_body: (
        _with_term(ket_body, 2, _monomial(1, 0), ket(PSI, 2)), bra_body),
    "bra-whose-dagger-holds-a-theta": lambda ket_body, bra_body: (
        ket_body, _with_term(bra_body, 1, _monomial(1, 1), ket(PHI, 1))),
}


@pytest.mark.parametrize("case", sorted(SHAPE_BREAKERS))
def test_a_state_of_another_shape_is_refused_before_it_is_read(
        case, monkeypatch):
    # the walk reads one ket term theta^c per degree c on a bare ket, and
    # one bra term thetabar^f per degree f on a bare bra; any other shape
    # would be misread, so the check and the solve both refuse it
    n = 3
    bodies = SHAPE_BREAKERS[case](*_pair_bodies(n, (PSI, PHI), False))
    for run in (lambda: resolution_integral(closed_form_weight(n),
                                            (PSI, PHI)),
                lambda: solve_weight(n)):
        with pytest.raises(EngineError) as refused:
            _on_bodies(monkeypatch, *bodies, run)
        assert str(refused.value) == (
            "a state is one theta^k |F_i> term per degree")


def _reference_columns(n, integrate):
    """Every column of the weight system in full, values included: the
    monomial theta^k thetabar^l integrated by ``integrate``."""
    columns = {}
    for k in range(n):
        for l in range(n):
            integral = integrate(_weight(n, {(k, l): Scalar.one(n)}))
            columns[(k, l)] = {(ket_side[1], bra_side[1]): c for
                               (_, (ket_side, bra_side)), c in
                               integral.terms.items()}
    return columns


def _reference_solve(n):
    outer_product = _plain_outer(*_pair_bodies(n, (PSI, PHI), False))
    reference = _reference_columns(
        n, lambda weight: _reference_integral(weight, outer_product))
    entries = []
    for kl, column in reference.items():
        (row, entry), = column.items()
        entries.append((kl, row, entry, Scalar.one(n), 0))
    return _weight(n, _solve_permutation(n, entries))


def test_solver_matches_a_solve_on_the_plain_integral():
    for n in range(2, 9):
        _assert_same(solve_weight(n), _reference_solve(n), n)


def _at_rational_s(x, n):
    """The Scalar x, which holds no u, at s_i = i + 1: a Cyclo."""
    value = Cyclo.zero(n)
    for key, c in x.monomials():
        assert not key[-1], key
        factor = Fraction(1)
        for i, e in enumerate(key[:-1], start=1):
            factor *= Fraction(i + 1) ** e
        value += c.scaled(factor)
    return value


def _eliminate(matrix, rhs):
    """The one x with matrix x = rhs over Cyclo, by Gauss-Jordan
    elimination; any singular matrix fails."""
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        assert pivot is not None, f"singular at column {col}"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = rows[col][col].inverse()
        rows[col] = [x * inverse for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                f = row[col]
                rows[r] = [x - f * y for x, y in zip(row, rows[col])]
    return [row[-1] for row in rows]


def test_solver_matches_a_dense_solve_without_the_permutation_argument():
    # the plain integral gives every column of the system in full; at
    # s_i = i + 1 each entry is a Cyclo, and elimination assumes nothing
    # of the system's shape, so the solve's reading of one entry per
    # column, its phase and its inverse are checked, not reused
    for n in range(2, 6):
        outer_product = _plain_outer(*_pair_bodies(n, (PSI, PHI), False))
        columns = _reference_columns(
            n, lambda weight: _reference_integral(weight, outer_product))
        cells = [(i, j) for i in range(n) for j in range(n)]
        zero = Scalar.zero(n)
        matrix = [[_at_rational_s(columns[kl].get(row, zero), n)
                   for kl in cells] for row in cells]
        identity = [Cyclo.from_rational(n, int(i == j)) for i, j in cells]
        solved = _coefficients(solve_weight(n))
        assert _eliminate(matrix, identity) == [
            _at_rational_s(solved.get(kl, zero), n) for kl in cells], n


def test_solver_columns_match_the_per_column_integral():
    # the reference integrates every monomial exactly, one column at a
    # time, as a check does; the solve integrates each pair of the walk
    # once, word by word, so its entries must agree on every column, row
    # and value
    for n in range(2, 17):
        want = _reference_columns(
            n, lambda w: resolution_integral(w, (PSI, PHI)))
        got = {}
        for kl, row, c_ket, c_bra, qe in _entries(n):
            assert kl not in got, (n, kl)
            got[kl] = {row: c_ket.__mul__(c_bra, qe)}
        assert got == want, n
        assert all(len(column) == 1 for column in want.values()), n


def _counting(monkeypatch, names):
    """Count the calls of ``OpExpr.__matmul__`` ("matmul") and of the
    named functions as ``resolution`` reads them."""
    calls = dict.fromkeys(names, 0)

    def counted(name, plain):
        def wrapper(*args):
            calls[name] += 1
            return plain(*args)
        return wrapper

    for name in names:
        if name == "matmul":
            monkeypatch.setattr(OpExpr, "__matmul__",
                                counted(name, OpExpr.__matmul__))
        else:
            monkeypatch.setattr(resolution, name,
                                counted(name, getattr(resolution, name)))
    return calls


def test_each_check_places_only_the_pairs_it_reads(monkeypatch,
                                                   fresh_caches):
    # counts calls, not time: a diagonal weight reads n of the n^2 pairs,
    # and the check composes no operator and integrates once
    n = 12
    weight = solve_weight(n)
    calls = _counting(monkeypatch, ("matmul", "berezin_op", "_place"))
    for pair in MIXED_PAIRS + SAME_PAIRS:
        for evolved in (False, True):
            calls.update(dict.fromkeys(calls, 0))
            resolution_integral(weight, pair, evolved=evolved)
            assert calls == {"matmul": 0, "berezin_op": 1, "_place": n}, (
                pair, evolved)


def test_weight_solve_makes_no_operator_product(monkeypatch, fresh_caches):
    # counts calls, not time: every column is one placed pair, and the
    # one word they all place is integrated once
    n = 12
    solve_weight(n)  # the default coherent states are built once
    calls = _counting(monkeypatch, ("matmul", "berezin_op", "_place",
                                    "integrate_word"))
    assert solve_weight(n) == closed_form_weight(n)
    assert calls == {"matmul": 0, "berezin_op": 0, "_place": n * n,
                     "integrate_word": 1}


def test_resolution_status_pattern_holds_at_n16():
    report = run_suite("resolution", (16, 16), max_n=16)
    statuses = {c.id.rsplit("/", 1)[1]: c.status for c in report.checks}
    assert statuses == {
        "solver-diagonal": "pass",
        "mixed-psi-phi": "pass", "mixed-phi-psi": "pass",
        "same-psi-psi": "pass", "same-phi-phi": "pass",
        "weight-reversed-factorial": "pass",
        "weight-plain-factorial": "reported-discrepancy"}


# ---------------------------------------------------------------------------
# every resolution pass/fail check can fail
# ---------------------------------------------------------------------------

def _same_family_sum(plain):
    """dual_identity_sum with the ket family on both sides: the Gram sum
    that a same-family integral equals."""
    def mutant(level, ket_family=PSI):
        return OpExpr(level, {((), outer(ket_family, i, ket_family, i)):
                              Scalar.one(level) for i in range(level)})
    return mutant


RESOLUTION_MUTANTS = {
    "_weight": (
        shifted_weight,
        {"resolution/n=3/solver-diagonal", "resolution/n=3/mixed-psi-phi",
         "resolution/n=3/mixed-phi-psi", "dynamics/n=3/evolved-resolution"}),
    "dual_identity_sum": (
        _same_family_sum,
        {"resolution/n=3/same-psi-psi", "resolution/n=3/same-phi-phi",
         "resolution/n=3/mixed-psi-phi", "resolution/n=3/mixed-phi-psi",
         "dynamics/n=3/evolved-resolution"}),
    # the walk loses the pairs under (0, 0) wherever a weight reads them
    # (a check reads its weight's coefficient table); the solve, which
    # reads every degree from a generator, keeps them
    "_read_pairs": (
        lambda plain: lambda ket_body, bra_body, reads: (
            t for t in plain(ket_body, bra_body, reads)
            if not isinstance(reads, dict) or t[0] != (0, 0)),
        {"resolution/n=3/mixed-psi-phi", "resolution/n=3/mixed-phi-psi",
         "dynamics/n=3/evolved-resolution"}),
}


@pytest.mark.parametrize("name", sorted(RESOLUTION_MUTANTS))
def test_each_resolution_check_fails_under_a_named_mutant(
        name, monkeypatch, fresh_caches):
    # every pass/fail check of the resolution identity has a row; the
    # weight-* comparisons are left out, since a wrong weight makes them
    # report a discrepancy, never fail.  Other checks may move too
    def statuses():
        return {c.id: c.status for selector in ("resolution", "dynamics")
                for c in run_suite(selector, (3, 3), max_n=3).checks}

    clean = statuses()
    table = {i for i in clean if i.startswith("resolution/")
             and "/weight-" not in i} | {"dynamics/n=3/evolved-resolution"}
    assert set().union(*(flips for _, flips in
                         RESOLUTION_MUTANTS.values())) == table
    assert {clean[i] for i in table} == {"pass"}
    mutant, flips = RESOLUTION_MUTANTS[name]
    monkeypatch.setattr(resolution, name, mutant(getattr(resolution, name)))
    mutated = statuses()
    assert {mutated[i] for i in flips} == {"fail"}
