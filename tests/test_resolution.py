import pytest

from grassq.errors import SingularSystemError
from grassq.galg import GExpr, Kind
from grassq.opalg import PHI, PSI, outer
from grassq.resolution import (MIXED_PAIRS, SAME_PAIRS, Weight,
                               closed_form_weight, compare_weights,
                               mirror_weight, resolution_integral,
                               solve_weight, verify_resolution,
                               _solve_permutation)
from grassq.scalars import Scalar, rho_factorial


def test_closed_form_weight_values():
    # n=3: rho1 rho2 + q^2 rho1 th thb + th^2 thb^2  (q^2 = 1/q at n=3)
    w = closed_form_weight(3)
    assert w.coefficient(0, 0) == rho_factorial(3, 2)
    assert w.coefficient(1, 1) == rho_factorial(3, 1).mul_q_power(2)
    assert w.coefficient(2, 2) == Scalar.one(3)  # q^6 rho_0! = 1
    # n=2: rho_1 + q^2 th thb with q^2 = 1
    w2 = closed_form_weight(2)
    assert w2.coefficient(0, 0) == rho_factorial(2, 1)
    assert w2.coefficient(1, 1) == Scalar.one(2)


def test_solver_matches_reversed_factorial_form():
    for n in range(2, 9):
        solved = solve_weight(n)
        assert solved.is_diagonal()
        rows = compare_weights(solved, closed_form_weight(n))
        assert all(equal for _, equal, _ in rows), (n, rows)


def test_solver_disagrees_with_plain_factorial_form():
    # rho_i! vs rho_{n-1-i}!: indices match only where the two coincide
    for n in (2, 3, 4):
        rows = compare_weights(solve_weight(n), mirror_weight(n))
        for i, equal, diff in rows:
            factorials_agree = rho_factorial(n, i) == rho_factorial(n, n - 1 - i)
            assert equal == factorials_agree, (n, i, str(diff))


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
                weight = Weight(n, GExpr.from_raw(
                    n, [(Scalar.one(n), [(Kind.THETA, 1, k),
                                         (Kind.THETABAR, 1, l)])]))
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


def test_permutation_solver():
    n = 2
    one, q, s1 = Scalar.one(n), Scalar.q(n), Scalar.s(n, 1)
    # the n=2 shape: c_kl reaches row (1-k, 1-l) with a monomial entry
    columns = {(0, 0): {(1, 1): s1}, (0, 1): {(1, 0): q},
               (1, 0): {(0, 1): one}, (1, 1): {(0, 0): s1 * q}}
    x = _solve_permutation(n, columns)
    assert set(x) == {(0, 0), (1, 1)}
    assert x[(0, 0)] * s1 == one
    assert x[(1, 1)] * s1 * q == one

    def refused(changes, reason):
        with pytest.raises(SingularSystemError, match=reason):
            _solve_permutation(n, {**columns, **changes})

    refused({(0, 0): {(1, 1): one + s1}}, "non-monomial")
    refused({(0, 1): {}}, "has 0 entries")
    refused({(0, 1): {(0, 1): q}}, "hit twice")
    refused({(0, 1): {(1, 1): q}, (0, 0): {(1, 0): s1}}, "off-diagonal")
