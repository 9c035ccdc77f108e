from fractions import Fraction

import pytest

from grassq.errors import EngineError, NonTerminatingSeriesError
from grassq.galg import Kind
from grassq.opalg import (IDENT, OpExpr, PHI, PSI, eta_conjugate, ket,
                          ket_op, op_dagger, op_term, outer, q_commutator,
                          sharp_adjoint, theta_op, thetabar_op)
from grassq.scalars import Scalar
from grassq.suq2 import (check_closure, closure_prefactors,
                         factorial_exponential, make_squeeze,
                         make_squeezed_state, make_suq2, squeeze_argument,
                         squeeze_closed_form, squeeze_defect,
                         squeeze_tilde_exponential_defect,
                         squeezed_closed_form, squeezed_state_defect,
                         verify_suq2_relations)


def test_closure_at_cube_root():
    verdict = check_closure(3)
    assert verdict.closes
    assert verdict.defect_first.is_zero and verdict.defect_second.is_zero


def test_closure_with_equal_rho_at_other_root():
    assert check_closure(4, equal_rho=True).closes
    assert check_closure(5, equal_rho=True).closes


def test_closure_fails_off_the_cube_root():
    verdict = check_closure(4)
    assert not verdict.closes
    # the obstruction is (1+q+q^2)(rho_2-rho_1) sqrt(rho_2) |psi_1><phi_2|
    sys4 = make_suq2(4)
    q, q2 = Scalar.q(4), Scalar.q(4, 2)
    r1, r2 = sys4.rho
    factor = (Scalar.one(4) + q + q2) * (r2 - r1) * sys4.sqrt_rho[1]
    assert verdict.defect_first == OpExpr(
        4, {((), outer(PSI, 1, PHI, 2)): factor})


def test_relations_hold_at_cube_root():
    relations = verify_suq2_relations(make_suq2(3))
    assert relations.all_hold


def test_relations_need_cube_root():
    with pytest.raises(EngineError):
        verify_suq2_relations(make_suq2(4))


def test_prefactor_identity():
    # the two prefactors differ by (1+q+q^2)(rho_1-rho_2)
    sys4 = make_suq2(4)
    p1, p2 = closure_prefactors(sys4)
    q, q2 = Scalar.q(4), Scalar.q(4, 2)
    r1, r2 = sys4.rho
    assert p1 - p2 == (Scalar.one(4) + q + q2) * (r1 - r2)
    sys3 = make_suq2(3)
    p1, p2 = closure_prefactors(sys3)
    assert (p1 - p2).is_zero


def test_unit_rho_reduced_form():
    # with rho_1 = rho_2 = 1 the bracket reduces to (1 - q + q^2) b
    one = Scalar.one(3)
    b = OpExpr(3, {((), outer(PSI, 0, PHI, 1)): one,
                   ((), outer(PSI, 1, PHI, 2)): one})
    bs = sharp_adjoint(b)
    bz = q_commutator(b, bs)
    prefactor = one - Scalar.q(3) + Scalar.q(3, 2)
    assert q_commutator(bz, b) == b.scale(prefactor)


@pytest.mark.parametrize("equal_rho", [False, True])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_suq2_ladder_pair_is_the_three_level_defining_sum(r, equal_rho):
    # b = sum_i s_(i+1) |psi_i><phi_(i+1)| and b# = sum_i s_(i+1)
    # |psi_(i+1)><phi_i| over three levels, at any root order r
    s1 = Scalar.s(r, 1)
    s2 = s1 if equal_rho else Scalar.s(r, 2)
    sys = make_suq2(r, equal_rho)
    assert sys.b == OpExpr(r, {((), outer(PSI, 0, PHI, 1)): s1,
                               ((), outer(PSI, 1, PHI, 2)): s2})
    assert sys.b_sharp == OpExpr(r, {((), outer(PSI, 1, PHI, 0)): s1,
                                     ((), outer(PSI, 2, PHI, 1)): s2})


def test_nilpotency_of_all_four():
    sys3 = make_suq2(3)
    assert sys3.b.power(3).is_zero
    assert sys3.b_sharp.power(3).is_zero
    assert eta_conjugate(sys3.b).power(3).is_zero
    assert op_dagger(sys3.b).power(3).is_zero


def _argument_powers(sys3):
    """Frozen hand expansion of Y = (theta b#^2 - thetabar b^2)/2."""
    n = 3
    sq = sys3.sqrt_rho[0] * sys3.sqrt_rho[1]
    c2 = sq * sq * Fraction(1, 4)
    c3 = sq * sq * sq * Fraction(1, 8)
    c4 = sq * sq * sq * sq * Fraction(1, 16)
    raise_two = OpExpr(n, {((), outer(PSI, 2, PHI, 0)): Scalar.one(n)})
    lower_two = OpExpr(n, {((), outer(PSI, 0, PHI, 2)): Scalar.one(n)})
    o22 = OpExpr(n, {((), outer(PSI, 2, PHI, 2)): Scalar.one(n)})
    o00 = OpExpr(n, {((), outer(PSI, 0, PHI, 0)): Scalar.one(n)})
    th, tb = theta_op(n), thetabar_op(n)
    y2 = ((th @ tb) @ (o22.scale(Scalar.q(n, 2)) + o00)).scale(-c2)
    y3 = ((theta_op(n, 2) @ tb) @ raise_two).scale(-c3) \
        + ((th @ thetabar_op(n, 2)) @ lower_two).scale(c3)
    y4 = ((theta_op(n, 2) @ thetabar_op(n, 2)) @ o22).scale(
        c4 * Scalar.q(n, 2)) \
        + ((theta_op(n, 2) @ thetabar_op(n, 2)) @ o00).scale(c4 * Scalar.q(n))
    return y2, y3, y4


def test_squeeze_argument_powers_match_hand_expansion():
    sys3 = make_suq2(3)
    arg = squeeze_argument(sys3)
    y2, y3, y4 = _argument_powers(sys3)
    assert arg.power(2) == y2
    assert arg.power(3) == y3
    assert arg.power(4) == y4
    assert arg.power(5).is_zero


def test_squeeze_series_terminates():
    assert not make_squeeze(make_suq2(3)).is_zero


def test_factorial_exponential_guard_and_zero():
    assert factorial_exponential(OpExpr.zero(3)) == OpExpr.identity(3)
    with pytest.raises(NonTerminatingSeriesError):
        factorial_exponential(OpExpr.identity(3))
    with pytest.raises(NonTerminatingSeriesError):
        factorial_exponential(OpExpr.identity(3), on=ket_op(3, PSI, 0))


def test_factorial_exponential_on_a_state_matches_the_operator_applied():
    for root_order in (3, 4, 5):
        for equal_rho in (False, True):
            sys = make_suq2(root_order, equal_rho)
            arg = squeeze_argument(sys)
            squeeze = factorial_exponential(arg)
            assert factorial_exponential(
                arg, on=OpExpr.identity(root_order)) == squeeze
            for i in range(3):
                on = ket_op(root_order, PSI, i) + op_term(
                    root_order, Scalar.s(root_order, 1), ket(PSI, 2 - i),
                    left=[(Kind.THETABAR, 1, 1)])
                applied = factorial_exponential(arg, on=on)
                expected = squeeze @ on
                assert applied == expected
                assert str(applied) == str(expected)


def test_squeeze_defect_against_quadratic_closed_form():
    # frozen regression: S_mech - S_closed = -Y^2/2 + Y^3/6 + Y^4/24
    sys3 = make_suq2(3)
    y2, y3, y4 = _argument_powers(sys3)
    expected = (y2.scale(Fraction(-1, 2)) + y3.scale(Fraction(1, 6))
                + y4.scale(Fraction(1, 24)))
    assert squeeze_defect(sys3) == expected
    assert not squeeze_defect(sys3).is_zero


def test_squeeze_leading_orders_match_closed_form():
    # the closed form and the series agree through first order
    sys3 = make_suq2(3)
    defect = squeeze_defect(sys3)
    from grassq.galg import grade
    for (w, d), _ in defect.terms.items():
        assert sum(grade(w)) >= 2


def test_squeezed_state_defect_frozen():
    sys3 = make_suq2(3)
    sq = sys3.sqrt_rho[0] * sys3.sqrt_rho[1]
    c2 = sq * sq * Fraction(1, 4)
    c3 = sq * sq * sq * Fraction(1, 8)
    c4 = sq * sq * sq * sq * Fraction(1, 16)
    expected = (
        op_term(3, c2 * Fraction(1, 2), ket(PSI, 0),
                left=[(Kind.THETA, 1, 1), (Kind.THETABAR, 1, 1)])
        + op_term(3, c3 * Fraction(-1, 6), ket(PSI, 2),
                  left=[(Kind.THETA, 1, 2), (Kind.THETABAR, 1, 1)])
        + op_term(3, c4 * Scalar.q(3) * Fraction(1, 24), ket(PSI, 0),
                  left=[(Kind.THETA, 1, 2), (Kind.THETABAR, 1, 2)]))
    assert squeezed_state_defect(sys3, PSI) == expected


def test_squeezed_state_first_order_matches_closed_form():
    # S|psi_0> = |psi_0> + sqrt(rho1 rho2)/2 theta |psi_2> + higher Grassmann
    sys3 = make_suq2(3)
    state = make_squeezed_state(sys3, PSI)
    closed = squeezed_closed_form(sys3, PSI)
    assert state.terms[((), ket(PSI, 0))] == Scalar.one(3)
    key = (((Kind.THETA, 1, 1),), ket(PSI, 2))
    assert state.terms[key] == closed.terms[key]


def test_tilde_state_is_metric_image():
    sys3 = make_suq2(3)
    assert make_squeezed_state(sys3, PHI) == \
        eta_conjugate(make_squeezed_state(sys3, PSI))
    assert squeezed_closed_form(sys3, PHI) == \
        eta_conjugate(squeezed_closed_form(sys3, PSI))
    assert squeezed_state_defect(sys3, PHI) == \
        eta_conjugate(squeezed_state_defect(sys3, PSI))


@pytest.mark.parametrize("family", ["Phi", "psi_", "", "chi"])
def test_squeezed_state_builders_refuse_an_unknown_family(family):
    sys3 = make_suq2(3)
    for build in (make_squeezed_state, squeezed_closed_form,
                  squeezed_state_defect):
        with pytest.raises(EngineError, match="unknown family"):
            build(sys3, family)


def test_eta_channel_consistency():
    # eta (S |psi_0>) equals (eta S eta^-1) |phi_0> exactly
    sys3 = make_suq2(3)
    left = eta_conjugate(make_squeezed_state(sys3, PSI))
    right = eta_conjugate(make_squeeze(sys3)) @ ket_op(3, PHI, 0)
    assert left == right


def test_tilde_squeeze_exponential_form_exact():
    assert squeeze_tilde_exponential_defect(make_suq2(3)).is_zero


def test_three_level_weight_resolves_for_the_coherent_pair():
    from grassq.resolution import (MIXED_PAIRS, closed_form_weight,
                                   verify_resolution)
    weight = closed_form_weight(3)
    for pair in MIXED_PAIRS:
        assert verify_resolution(weight, pair).is_zero


def test_closed_form_comparison_target_shape():
    # the quadratic closed form has exactly the identity, two first-order
    # and two second-order terms
    closed = squeeze_closed_form(make_suq2(3))
    assert ((), IDENT) in closed.terms
    assert len(closed.terms) == 5
