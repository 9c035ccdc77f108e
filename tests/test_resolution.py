import random

import pytest

from conftest import diagonal_differences, random_scalar, shifted_weight
from grassq import resolution
from grassq.coherent import evolve_state, make_coherent
from grassq.errors import SingularSystemError
from grassq.galg import GExpr, Kind
from grassq.opalg import PHI, PSI, OpExpr, berezin_op, op_dagger, outer
from grassq.resolution import (MEASURE, MIXED_PAIRS, SAME_PAIRS,
                               closed_form_weight, is_diagonal, mirror_weight,
                               resolution_integral, solve_weight,
                               verify_resolution, _blocks,
                               _complement_pairs, _entries, _integrate,
                               _measured_degrees, _pair_outer,
                               _solve_permutation, _weight)
from grassq.scalars import Scalar, rho_factorial
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
    plain_mul_q = Scalar._mul_q

    def mul_q(self, other, k):
        formed.append((self, other, k))
        return plain_mul_q(self, other, k)
    with monkeypatch.context() as counting:
        counting.setattr(Scalar, "_mul_q", mul_q)
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


def _degrees(block):
    """The one (theta_1, thetabar_1) degree pair of every word in ``block``."""
    (degrees,) = {_measured_degrees(word) for word, _ in block.terms}
    return degrees


def test_pair_outer_files_every_block_pair_once_under_its_complement():
    for n in range(2, 9):
        for pair in MIXED_PAIRS + SAME_PAIRS:
            for evolved in (False, True):
                ket_body, bra_body = _pair_bodies(n, pair, evolved)
                ket_blocks = _blocks(ket_body)
                bra_blocks = _blocks(op_dagger(bra_body))
                filed = []
                for ab, ket_block, bra_block in _pair_outer(n, pair, evolved):
                    cd, ef = _degrees(ket_block), _degrees(bra_block)
                    assert ket_block == ket_blocks[cd], (n, pair, cd)
                    assert bra_block == bra_blocks[ef], (n, pair, ef)
                    filed.append((ab, cd, ef))
                want = [((n - 1 - c - e, n - 1 - d - f), (c, d), (e, f))
                        for c, d in ket_blocks for e, f in bra_blocks]
                assert sorted(filed) == sorted(want), (n, pair, evolved)


def test_column_reads_one_term_pair_and_refuses_any_other_shape(monkeypatch):
    n = 2
    stream = list(_pair_outer(n, (PSI, PHI)))
    entries = list(_entries(n))
    # c_01: theta^0 thetabar^1 meets the ket block (1, 0) and the bra
    # block (0, 0), and only there
    (_, ket_block, bra_block), = [t for t in stream if t[0] == (0, 1)]
    assert (_degrees(ket_block), _degrees(bra_block)) == ((1, 0), (0, 0))
    (row, *_), = [e[1:] for e in entries if e[0] == (0, 1)]
    assert row == (1, 0)
    # a diagonal column carries the value the exact integral gives
    for k in range(n):
        integral = _integrate(_weight(n, {(k, k): Scalar.one(n)}), stream)
        ((_, (ket_side, bra_side)), value), = integral.terms.items()
        (row, c_ket, c_bra, qe), = [e[1:] for e in entries if e[0] == (k, k)]
        assert row == (ket_side[1], bra_side[1]), k
        assert c_ket._mul_q(c_bra, qe) == value, k

    def refused(triples, reason):
        with monkeypatch.context() as mutant:
            mutant.setattr(resolution, "_pair_outer", lambda *_: triples)
            with pytest.raises(SingularSystemError, match=reason):
                solve_weight(n)

    def replaced(kl, *blocks):
        return [(kl, *blocks) if t[0] == kl else t for t in stream]

    s1 = Scalar.s(n, 1)
    refused(replaced((0, 1), ket_block.scale(Scalar.one(n) + s1), bra_block),
            "c_01 has a non-monomial factor")
    refused(replaced((0, 1), ket_block, bra_block.scale(Scalar.one(n) + s1)),
            "c_01 has a non-monomial factor")
    # a pair filed under another column leaves a word behind
    (_, *blocks_11), = [t for t in stream if t[0] == (1, 1)]
    refused(replaced((0, 1), *blocks_11), r"row \(1, 0\) is never hit")
    # two surviving pairs on a diagonal column are refused, not summed
    refused(stream + [t for t in stream if t[0] == (0, 0)],
            "column c_00 is reached twice")


def test_solve_raises_at_the_first_bad_entry_without_reading_on(
        monkeypatch):
    # the solve pulls the complement stream one pair at a time: a bad
    # second pair stops it before the other n^2 - 2 are built
    n = 6
    plain_pair_outer = resolution._pair_outer
    pulled = []

    def pair_outer(*args):
        for at, (kl, ket_block, bra_block) in enumerate(
                plain_pair_outer(*args)):
            pulled.append(kl)
            if at == 1:
                bra_block = bra_block.scale(Scalar.one(n) + Scalar.s(n, 1))
            yield kl, ket_block, bra_block
    monkeypatch.setattr(resolution, "_pair_outer", pair_outer)
    with pytest.raises(SingularSystemError, match="non-monomial factor"):
        solve_weight(n)
    assert len(pulled) == 2


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
    return berezin_op(OpExpr.from_gexpr(weight) @ outer_product, MEASURE)


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


def test_weight_blocks_without_a_partner_integrate_to_zero():
    # thin the ket and bra bodies so that some weight blocks find no
    # partner block
    rng = random.Random(7)
    for n in range(2, 9):
        ket_body, bra_body = _pair_bodies(n, (PSI, PHI), False)
        for _ in range(3):
            ket_thin, bra_thin = _thin(rng, ket_body), _thin(rng, bra_body)
            # a list, not the one-pass stream: three weights read it
            reached = list(_complement_pairs(ket_thin, bra_thin))
            thinned = _plain_outer(ket_thin, bra_thin)
            for shape in ("dense", "non-diagonal", "single"):
                weight = _random_weight(rng, n, shape)
                _assert_same(_integrate(weight, reached),
                             _reference_integral(weight, thinned),
                             (n, len(ket_thin.terms), len(bra_thin.terms),
                              shape))


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


def test_solver_columns_match_the_per_column_integral():
    # the reference integrates every monomial exactly, one column at a
    # time; the solve integrates each pair of the stream once, term by
    # term, so its entries must agree on every column, row and value
    for n in range(2, 17):
        stream = list(_pair_outer(n, (PSI, PHI)))
        want = _reference_columns(n, lambda w: _integrate(w, stream))
        got = {}
        for kl, row, c_ket, c_bra, qe in _entries(n):
            assert kl not in got, (n, kl)
            got[kl] = {row: c_ket._mul_q(c_bra, qe)}
        assert got == want, n
        assert all(len(column) == 1 for column in want.values()), n


def test_diagonal_integral_composes_only_the_blocks_it_reads(monkeypatch,
                                                             fresh_caches):
    # counts term pairs, not time: the whole |A><B| alone is n^2 pairs
    pairs = []
    plain_matmul = OpExpr.__matmul__

    def counting_matmul(a, b):
        pairs.append(len(a.terms) * len(b.terms))
        return plain_matmul(a, b)

    n = 12
    weight = solve_weight(n)
    monkeypatch.setattr(OpExpr, "__matmul__", counting_matmul)
    for pair in MIXED_PAIRS + SAME_PAIRS:
        for evolved in (False, True):
            pairs.clear()
            resolution_integral(weight, pair, evolved=evolved)
            assert 0 < sum(pairs) <= 2 * n, (pair, evolved, sum(pairs))


def test_weight_solve_makes_no_operator_product(monkeypatch, fresh_caches):
    # counts calls, not time: every column is one integrated term pair
    n = 12
    solve_weight(n)  # the default coherent states are built once
    calls = {"matmul": 0, "berezin_op": 0, "integrate_word": 0}

    def counted(name, plain):
        def wrapper(*args):
            calls[name] += 1
            return plain(*args)
        return wrapper

    monkeypatch.setattr(OpExpr, "__matmul__",
                        counted("matmul", OpExpr.__matmul__))
    for name in ("berezin_op", "integrate_word"):
        monkeypatch.setattr(resolution, name,
                            counted(name, getattr(resolution, name)))
    assert solve_weight(n) == closed_form_weight(n)
    assert calls == {"matmul": 0, "berezin_op": 0, "integrate_word": n * n}


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
    "_integrate": (
        lambda plain: lambda weight, pairs: plain(
            weight, (triple for triple in pairs if triple[0] != (0, 0))),
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
