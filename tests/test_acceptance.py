"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the symbolic criteria demand
exact zero expressions, the numeric ones the stated residual bounds.
"""

import random
import time
from fractions import Fraction

import numpy as np

from grassq.biortho import (biortho_decompose, check_pseudo_hermiticity,
                            decomposition_residuals, instantiate_numeric,
                            numeric_ladder)
from grassq.coherent import (check_stability, exponential_form_defect,
                             make_coherent, verify_eigen)
from grassq.galg import GExpr, Kind, berezin, d_theta
from grassq.opalg import (OpExpr, PHI, PSI, eta_conjugate, ket, ket_op,
                          make_ladder, op_dagger, op_term, outer,
                          q_commutator, theta_op, thetabar_op)
from grassq.resolution import (MIXED_PAIRS, SAME_PAIRS, closed_form_weight,
                               is_diagonal, mirror_weight,
                               resolution_integral, solve_weight,
                               verify_resolution)
from grassq.scalars import Scalar, rho_factorial
from grassq.suq2 import (make_squeezed_state, make_suq2, squeeze_defect,
                         squeeze_tilde_exponential_defect,
                         squeezed_closed_form, squeezed_state_defect)

from conftest import (diagonal_differences, random_gexpr,
                      random_real_spectrum_matrix, random_single_pair_word,
                      word_operator)
from rewrite_oracle import rewrite_gexpr


def _verdict(number: int, label: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {label}")


def test_criterion_1_coherent_eigen_identities():
    started = time.perf_counter()
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = verify_eigen(make_coherent(n, family))
            assert defect.is_zero, (n, family, str(defect))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict(1, "eigen defects exactly zero, n=2..6, both families", started)


def test_criterion_2_exponential_form_equivalence():
    started = time.perf_counter()
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = exponential_form_defect(make_coherent(n, family))
            assert defect.is_zero, (n, family, str(defect))
    _verdict(2, "closed form equals q-exponential form, n=2..6", started)


def test_criterion_3_bi_overcompleteness():
    started = time.perf_counter()
    for n in range(2, 6):
        weight = solve_weight(n)
        assert is_diagonal(weight), n
        for pair in MIXED_PAIRS:
            defect = verify_resolution(weight, pair)
            assert defect.is_zero, (n, pair, str(defect))
        for pair in SAME_PAIRS:
            defect = verify_resolution(weight, pair)
            assert not defect.is_zero, (n, pair)
            families = {(d[0][0], d[1][0])
                        for _, d in resolution_integral(weight, pair).terms}
            assert families == {(pair[0], pair[0])}
        # arbitration between the two closed-form candidates
        reversed_rows = diagonal_differences(weight, closed_form_weight(n))
        assert all(diff.is_zero for _, diff in reversed_rows), \
            (n, [(i, str(diff)) for i, diff in reversed_rows])
        plain_rows = diagonal_differences(weight, mirror_weight(n))
        for i, diff in plain_rows:
            expected = rho_factorial(n, i) == rho_factorial(n, n - 1 - i)
            assert diff.is_zero == expected, (n, i, str(diff))
            if not diff.is_zero:
                print(f"  n={n} i={i}: plain-factorial candidate off by "
                      f"{diff}")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(3, "solver-derived diagonal weight, mixed pairs resolve, "
                "same-family pairs obstructed; reversed-factorial form "
                "confirmed, plain-factorial form reported", started)


def test_criterion_4_three_level_weight():
    started = time.perf_counter()
    solved = solve_weight(3)
    r1 = rho_factorial(3, 1)
    literal = (GExpr.from_raw(3, [(rho_factorial(3, 2), [])])
               + GExpr.from_raw(3, [(r1 * Scalar.q(3, -1),
                                     [(Kind.THETA, 1, 1),
                                      (Kind.THETABAR, 1, 1)])])
               + GExpr.from_raw(3, [(Scalar.one(3),
                                     [(Kind.THETA, 1, 2),
                                      (Kind.THETABAR, 1, 2)])]))
    difference = solved - literal
    assert difference.is_zero, f"regression artifact: {difference}"
    _verdict(4, "derived n=3 weight equals rho1 rho2 + rho1/q th thb "
                "+ th^2 thb^2 exactly", started)


def test_criterion_5_stability():
    started = time.perf_counter()
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = check_stability(n, family)
            assert defect.is_zero, (n, family, str(defect))
    # the time-dependent pair resolves with the static weight
    for n in range(2, 6):
        weight = solve_weight(n)
        for pair in MIXED_PAIRS:
            defect = verify_resolution(weight, pair, evolved=True)
            assert defect.is_zero, (n, pair)
    _verdict(5, "evolution stable under E_k = -(n-k-2)E and the "
                "time-dependent bi-resolution holds, n=2..6", started)


def test_criterion_6_suq2_closure_and_relations():
    started = time.perf_counter()
    assert make_suq2(3).closure.closes
    assert make_suq2(4, equal_rho=True).closure.closes
    sys4 = make_suq2(4)
    assert not sys4.closure.closes
    q, q2 = Scalar.q(4), Scalar.q(4, 2)
    r1, r2 = sys4.rho
    obstruction = (Scalar.one(4) + q + q2) * (r2 - r1) * sys4.sqrt_rho[1]
    assert sys4.closure.defect_first == OpExpr(
        4, {((), outer(PSI, 1, PHI, 2)): obstruction})
    sys3 = make_suq2(3)
    relations = sys3.relations
    assert relations.bracket_defines_bz.is_zero
    assert relations.bz_with_b.is_zero
    assert relations.bsharp_with_bz.is_zero
    assert relations.prefactor_difference.is_zero
    assert sys3.b.power(3).is_zero and sys3.b_sharp.power(3).is_zero
    _verdict(6, "closure iff cube root or equal rho; all three relations "
                "hold; b^3 = b#^3 = 0", started)


def test_criterion_7_squeezing():
    started = time.perf_counter()
    sys3 = make_suq2(3)
    # the factorial series terminates (fifth power vanishes)
    assert sys3.squeeze_argument.power(5).is_zero
    squeeze = sys3.squeeze
    assert not squeeze.is_zero
    # comparison against the quadratic closed form: recorded exact defect
    sq = sys3.sqrt_rho[0] * sys3.sqrt_rho[1]
    c2 = sq * sq * Fraction(1, 4)
    c3 = sq * sq * sq * Fraction(1, 8)
    c4 = sq * sq * sq * sq * Fraction(1, 16)
    operator_defect = squeeze_defect(sys3)
    assert not operator_defect.is_zero
    print(f"  squeeze operator defect (recorded): {operator_defect}")
    # squeezed state against its quoted closed form: frozen exact defect
    state_defect = squeezed_state_defect(sys3, PSI)
    expected_state_defect = (
        op_term(3, c2 * Fraction(1, 2), ket(PSI, 0),
                left=[(Kind.THETA, 1, 1), (Kind.THETABAR, 1, 1)])
        + op_term(3, c3 * Fraction(-1, 6), ket(PSI, 2),
                  left=[(Kind.THETA, 1, 2), (Kind.THETABAR, 1, 1)])
        + op_term(3, c4 * Scalar.q(3) * Fraction(1, 24), ket(PSI, 0),
                  left=[(Kind.THETA, 1, 2), (Kind.THETABAR, 1, 2)]))
    assert state_defect == expected_state_defect
    print(f"  squeezed state defect (recorded): {state_defect}")
    # the tilde state really is the metric image, on both channels
    assert make_squeezed_state(sys3, PHI) == \
        eta_conjugate(make_squeezed_state(sys3, PSI))
    assert eta_conjugate(make_squeezed_state(sys3, PSI)) == \
        eta_conjugate(squeeze) @ ket_op(3, PHI, 0)
    assert squeezed_state_defect(sys3, PHI) == \
        eta_conjugate(expected_state_defect)
    # the conjugated operator equals its own exponential form exactly
    assert squeeze_tilde_exponential_defect(sys3).is_zero
    _verdict(7, "series terminates; closed-form comparisons recorded as "
                "exact defects; tilde channels consistent; conjugated "
                "exponential form exact", started)


def test_criterion_8_numeric_grounding():
    started = time.perf_counter()
    systems = [np.array([[1.0, 4.0], [1.0, 1.0]])]
    rng = np.random.default_rng(20240811)
    for trial in range(50):
        systems.append(random_real_spectrum_matrix(rng, 2 + trial % 5))
    # precompute the symbolic defects per level
    symbolic = {}
    for n in range(2, 7):
        weight = solve_weight(n)
        symbolic[n] = {
            "eigen": verify_eigen(make_coherent(n, PSI)),
            "stability": check_stability(n, PSI),
            "mixed": verify_resolution(weight, (PSI, PHI)),
            "same": verify_resolution(weight, (PSI, PSI)),
        }
    rho_pool = [2.0, 3.0, 1.5, 2.5, 4.0]
    for H in systems:
        decomp = biortho_decompose(H)
        n = decomp.size
        assert max(decomposition_residuals(decomp).values()) < 1e-9
        report = check_pseudo_hermiticity(decomp)
        assert report.residual < 1e-9
        assert report.eta_min_eigenvalue > 0
        rho = rho_pool[:n - 1]
        ladders = numeric_ladder(decomp, rho)
        assert ladders.dagger_residual < 1e-12
        defects = symbolic[n]
        assert instantiate_numeric(defects["eigen"], decomp, rho) < 1e-10
        assert instantiate_numeric(defects["stability"], decomp, rho) < 1e-10
        assert instantiate_numeric(defects["mixed"], decomp, rho) < 1e-10
        gap = instantiate_numeric(defects["same"], decomp, rho)
        assert gap > 0.01, (n, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict(8, "51 concrete systems: eigendata at 1e-9, metric positive, "
                "b~#' = b^dag at 1e-12, zero defects ground below 1e-10, "
                "same-family gaps above 0.01", started)


def test_criterion_9_rewriting_soundness():
    started = time.perf_counter()
    # closed form against randomized rule-application order, 1000 words per level
    for n in (2, 3, 4):
        seeder = random.Random(1000 + n)
        for trial in range(1000):
            raw = random_single_pair_word(seeder, n, 6, with_measures=True)
            reference = GExpr.from_raw(n, [(Scalar.one(n), raw)])
            shuffled = rewrite_gexpr(n, raw, random.Random(trial))
            assert shuffled == reference, (n, raw)
    # product associativity
    rng = random.Random(99)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        a, b, c = (word_operator(random_gexpr(rng, n)) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)
    # integration selects exactly the top degree
    for n in (2, 3, 4, 5):
        one = GExpr.from_raw(n, [(Scalar.one(n), [])])
        for k in range(n):
            power = GExpr.from_raw(n, [(Scalar.one(n), [(Kind.THETA, 1, k)])])
            value = berezin(power, [d_theta()])
            assert value == (one if k == n - 1 else GExpr.zero(n))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(9, "3000 normal orderings match randomized rewriting; product "
                "associative; integration selects degree n-1", started)
