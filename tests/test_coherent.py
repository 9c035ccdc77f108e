import random
from fractions import Fraction

import pytest

from conftest import random_scalar, random_single_pair_word
from grassq.coherent import (CoherentState, check_stability, evolve_state,
                             exponential_form, exponential_form_defect,
                             make_coherent, q_exponential, theta_time_shift,
                             verify_eigen)
from grassq.errors import NonTerminatingSeriesError
from grassq.galg import Kind, grade
from grassq.opalg import (OpExpr, PHI, PSI, eta_conjugate, ket, ket_op,
                          make_ladder, op_term, theta_op)
from grassq.scalars import Scalar

TH = (Kind.THETA, 1, 1)


def test_closed_form_three_levels():
    n = 3
    state = make_coherent(n, PSI)
    inv_s1 = Scalar.s(n, 1, -1)
    inv_s1s2 = inv_s1 * Scalar.s(n, 2, -1)
    expected = (ket_op(n, PSI, 0)
                + op_term(n, Scalar.q(n, -1) * inv_s1, ket(PSI, 1), left=[TH])
                + op_term(n, inv_s1s2, ket(PSI, 2),
                          left=[(Kind.THETA, 1, 2)]))
    assert state.body == expected
    # the dual family has the same coefficients over phi kets
    assert make_coherent(n, PHI).body == eta_conjugate(expected)


def test_closed_form_two_levels():
    # at n=2 the i=1 phase qbar^1 = -1
    state = make_coherent(2, PSI)
    expected = ket_op(2, PSI, 0) + op_term(
        2, Scalar.from_rational(2, -1) * Scalar.s(2, 1, -1),
        ket(PSI, 1), left=[TH])
    assert state.body == expected


def test_default_state_is_built_once_per_level_and_family():
    assert make_coherent(5, PSI) is make_coherent(5, PSI)
    assert make_coherent(5) is make_coherent(5, PSI)
    keys = [(3, PSI), (4, PSI), (3, PHI)]
    states = [make_coherent(n, family) for n, family in keys]
    assert len({id(state) for state in states}) == len(keys)
    for (n, family), state in zip(keys, states):
        assert (state.level, state.family) == (n, family)
        assert {d[0][0] for _, d in state.body.terms} == {family}
        assert len(state.body.terms) == n


def test_custom_sqrt_rho_builds_a_fresh_state():
    n = 3
    default = make_coherent(n, PSI)
    custom = (Scalar.from_rational(n, 2), Scalar.from_rational(n, 3))
    state = make_coherent(n, PSI, custom)
    assert state is not make_coherent(n, PSI, custom)
    assert state is not default and state.sqrt_rho == custom
    expected = (ket_op(n, PSI, 0)
                + op_term(n, Scalar.q(n, -1) * Scalar.from_rational(
                    n, Fraction(1, 2)), ket(PSI, 1), left=[TH])
                + op_term(n, Scalar.from_rational(n, Fraction(1, 6)),
                          ket(PSI, 2), left=[(Kind.THETA, 1, 2)]))
    assert state.body == expected
    # the custom build leaves the shared default state as it was
    assert make_coherent(n, PSI) is default
    assert default.sqrt_rho == (Scalar.s(n, 1), Scalar.s(n, 2))


def test_leading_coefficient_is_one():
    for n in range(2, 7):
        body = make_coherent(n, PSI).body
        assert body.terms[((), ket(PSI, 0))] == Scalar.one(n)


def test_eigen_identities():
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = verify_eigen(make_coherent(n, family))
            assert defect.is_zero, (n, family, str(defect))


def test_corrupted_state_has_defect():
    n = 3
    good = make_coherent(n, PSI)
    bad_body = good.body + op_term(n, Scalar.one(n), ket(PSI, 1), left=[TH])
    bad = CoherentState(n, PSI, good.sqrt_rho, bad_body)
    defect = verify_eigen(bad)
    assert not defect.is_zero
    assert any(d == ket(PSI, 0) and grade(w) == (1, 0)
               for (w, d) in defect.terms)


def test_exponential_form_equivalence():
    for n in range(2, 17):
        for family in (PSI, PHI):
            defect = exponential_form_defect(make_coherent(n, family))
            assert defect.is_zero, (n, family, str(defect))


def test_q_exponential_of_zero():
    assert q_exponential(OpExpr.zero(3), 3) == OpExpr.identity(3)


def test_q_exponential_nontermination_guard():
    with pytest.raises(NonTerminatingSeriesError):
        q_exponential(OpExpr.identity(3), 3)
    # on a state the rule is the same: arg^k |psi_0> never vanishes
    with pytest.raises(NonTerminatingSeriesError):
        q_exponential(OpExpr.identity(3), 3, on=ket_op(3, PSI, 0))


def _random_ket_sum(rng: random.Random, n: int, family: str) -> OpExpr:
    acc = OpExpr.zero(n)
    for _ in range(rng.randrange(1, 4)):
        acc = acc + op_term(n, random_scalar(rng, n) + Scalar.one(n),
                            ket(family, rng.randrange(n)),
                            left=random_single_pair_word(rng, n, 3))
    return acc


def test_q_exponential_on_a_state_matches_the_operator_applied():
    # e_q^arg on == (e_q^arg) @ on, to the byte; the identity is the default
    rng = random.Random(8)
    for n in range(2, 11):
        rational_rho = tuple(Scalar.from_rational(n, Fraction(i + 2, i + 1))
                             for i in range(n - 1))
        for family, kind in ((PSI, "b_sharp"), (PHI, "b_tilde_sharp_prime")):
            for rho in (None, rational_rho):
                arg = make_ladder(kind, n, rho) @ theta_op(n)
                series = q_exponential(arg, n, rho)
                on_identity = q_exponential(arg, n, rho,
                                            on=OpExpr.identity(n))
                assert on_identity == series
                assert str(on_identity) == str(series)
                for on in (ket_op(n, family, 0),
                           _random_ket_sum(rng, n, family)):
                    applied = q_exponential(arg, n, rho, on=on)
                    expected = series @ on
                    assert applied == expected, (n, family, rho)
                    assert str(applied) == str(expected)


def test_eta_maps_between_families():
    for n in range(2, 7):
        psi = make_coherent(n, PSI)
        phi = make_coherent(n, PHI)
        assert eta_conjugate(psi.body) == phi.body


def test_evolution_default_spectrum():
    n = 3
    state = make_coherent(n, PSI)
    evolved = evolve_state(state)
    # E_k = -(n-k-2) E, so (E_0, E_1, E_2) = (-E, 0, E) at n=3
    for (w, d), c in evolved.terms.items():
        k = d[0][1]
        assert c == state.body.terms[(w, d)] * Scalar.u(n, -(n - k - 2))


def test_evolution_two_levels():
    # at n=2 the rule gives (E_0, E_1) = (0, E)
    state = make_coherent(2, PSI)
    evolved = evolve_state(state)
    for (w, d), c in evolved.terms.items():
        expected = state.body.terms[(w, d)] * Scalar.u(2, -(2 - d[0][1] - 2))
        assert c == expected
    assert evolved.terms[((), ket(PSI, 0))] == Scalar.one(2)


def test_evolution_at_time_zero():
    # u = 1 recovers the original state numerically, term by term
    state = make_coherent(3, PSI)
    evolved = evolve_state(state)
    rho = [2.0, 3.0]
    for key, c in evolved.terms.items():
        assert abs(c.eval(rho, u_value=1.0)
                   - state.body.terms[key].eval(rho, u_value=1.0)) < 1e-12


def test_stability():
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = check_stability(n, family)
            assert defect.is_zero, (n, family, str(defect))


def test_wrong_spectrum_breaks_stability():
    n = 3
    state = make_coherent(n, PSI)
    evolved = evolve_state(state, energy_of_level=lambda k: k)
    target = theta_time_shift(state.body).scale(Scalar.u(n, -(n - 2)))
    assert not (evolved - target).is_zero


def test_exponential_form_uses_the_right_vacuum():
    # the dual-family series is seeded on |phi_0>
    n = 3
    state = make_coherent(n, PHI)
    form = exponential_form(state)
    assert ((), ket(PHI, 0)) in form.terms
    assert all(d[0][0] == PHI for (_, d) in form.terms)
