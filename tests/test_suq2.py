from fractions import Fraction
from importlib import import_module

import pytest

from grassq.errors import EngineError, NonTerminatingSeriesError
from grassq import suq2
from grassq.galg import Kind
from grassq.opalg import (IDENT, OpExpr, PHI, PSI, eta_conjugate, ket,
                          ket_op, op_dagger, op_term, outer, q_commutator,
                          sharp_adjoint, theta_op, thetabar_op)
from grassq.scalars import Scalar
from grassq.suq2 import (closure_prefactors, factorial_exponential,
                         make_squeezed_state, make_suq2, squeeze_closed_form,
                         squeeze_defect, squeeze_tilde_exponential_defect,
                         squeezed_closed_form, squeezed_state_defect)

from conftest import shifted_weight


def test_closure_at_cube_root():
    verdict = make_suq2(3).closure
    assert verdict.closes
    assert verdict.defect_first.is_zero and verdict.defect_second.is_zero


def test_closure_with_equal_rho_at_other_root():
    assert make_suq2(4, equal_rho=True).closure.closes
    assert make_suq2(5, equal_rho=True).closure.closes


def test_closure_fails_off_the_cube_root():
    sys4 = make_suq2(4)
    verdict = sys4.closure
    assert not verdict.closes
    # the obstruction is (1+q+q^2)(rho_2-rho_1) sqrt(rho_2) |psi_1><phi_2|
    q, q2 = Scalar.q(4), Scalar.q(4, 2)
    r1, r2 = sys4.rho
    factor = (Scalar.one(4) + q + q2) * (r2 - r1) * sys4.sqrt_rho[1]
    assert verdict.defect_first == OpExpr(
        4, {((), outer(PSI, 1, PHI, 2)): factor})


def test_relations_hold_at_cube_root():
    relations = make_suq2(3).relations
    assert relations.bracket_defines_bz.is_zero
    assert relations.bz_with_b.is_zero
    assert relations.bsharp_with_bz.is_zero
    assert relations.prefactor_difference.is_zero


def test_bracket_defines_bz_fails_on_a_q_less_commutator(monkeypatch,
                                                         fresh_caches):
    # b_z is checked against its defining sum, not against the commutator
    # it is built from, so a wrong commutator shows in the defect
    monkeypatch.setattr(suq2, "q_commutator", lambda a, b: a @ b - b @ a)
    assert not make_suq2(3).relations.bracket_defines_bz.is_zero


@pytest.mark.parametrize("equal_rho", [False, True])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_bz_is_its_defining_sum(r, equal_rho):
    sys = make_suq2(r, equal_rho)
    assert suq2._bz_defining_sum(sys) == sys.b_z


def test_relations_need_cube_root():
    with pytest.raises(EngineError):
        make_suq2(4).relations


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
    th2, tb2 = th.power(2), tb.power(2)
    y3 = ((th2 @ tb) @ raise_two).scale(-c3) \
        + ((th @ tb2) @ lower_two).scale(c3)
    y4 = ((th2 @ tb2) @ o22).scale(c4 * Scalar.q(n, 2)) \
        + ((th2 @ tb2) @ o00).scale(c4 * Scalar.q(n))
    return y2, y3, y4


def test_squeeze_argument_powers_match_hand_expansion():
    sys3 = make_suq2(3)
    arg = sys3.squeeze_argument
    y2, y3, y4 = _argument_powers(sys3)
    assert arg.power(2) == y2
    assert arg.power(3) == y3
    assert arg.power(4) == y4
    assert arg.power(5).is_zero


def test_squeeze_series_terminates():
    assert not make_suq2(3).squeeze.is_zero


def test_a_system_and_its_squeeze_series_are_built_once(monkeypatch,
                                                        fresh_caches):
    from grassq.suites import run_suite

    calls, products, powers = [], [], []
    plain = suq2.factorial_exponential
    plain_matmul, plain_power = OpExpr.__matmul__, OpExpr.power

    def counting(arg, on=None):
        calls.append((arg, on))
        return plain(arg, on)

    def counting_matmul(a, b):
        products.append(a)
        return plain_matmul(a, b)

    def counting_power(a, k):
        powers.append(k)
        return plain_power(a, k)

    monkeypatch.setattr(suq2, "factorial_exponential", counting)
    monkeypatch.setattr(OpExpr, "__matmul__", counting_matmul)
    monkeypatch.setattr(OpExpr, "power", counting_power)
    run_suite("suq2", (3, 3), max_n=3)
    sys3 = make_suq2(3)
    assert make_suq2(3) is sys3 and make_suq2(root_order=3) is sys3
    shared = [on for arg, on in calls if arg is sys3.squeeze_argument]
    # S once and S|psi_0> once; the tilde form sums its own argument
    assert shared.count(None) == 1
    assert [on for on in shared if on is not None] == [ket_op(3, PSI, 0)]
    assert len(calls) == 3
    # the squares, the closure verdicts and the relations are formed once
    # per system, so a second run forms only what no system owns
    assert len(products) <= 63
    calls.clear()
    products.clear()
    run_suite("suq2", (3, 3), max_n=3)
    assert len(calls) == 1 and calls[0][0] is not sys3.squeeze_argument
    assert len(products) <= 33
    for root_order, equal_rho in ((3, False), (4, False), (4, True)):
        system = make_suq2(root_order, equal_rho)
        assert system.closure is system.closure
        assert system.rho is system.rho
    relations = sys3.relations
    assert relations is sys3.relations
    assert relations.bz_with_b is sys3.closure.defect_first
    powers.clear()
    squeeze_closed_form(sys3)
    assert powers == []
    monkeypatch.undo()
    # the cached values against the series summed on an unshared system
    fresh = suq2._build_suq2.__wrapped__(3, False)
    assert fresh is not sys3 and fresh == sys3
    squares = (fresh.b_sharp.power(2), fresh.b.power(2))
    assert sys3.squares == squares
    arg = suq2._squeeze_term(*squares)
    assert sys3.squeeze == factorial_exponential(arg)
    assert sys3.squeezed_vacuum == factorial_exponential(
        arg, on=ket_op(3, PSI, 0))
    assert make_squeezed_state(sys3, PSI) is sys3.squeezed_vacuum


class _SameS:
    """``Scalar`` as suq2 sees it, except that s_i ignores its index, so
    every system gets rho_2 = rho_1."""

    def __init__(self, scalar):
        self._scalar = scalar

    def __getattr__(self, name):
        return getattr(self._scalar, name)

    def s(self, level, index, power=1):
        return self._scalar.s(level, 1, power)


# One row per mutant: the replacement, built from the plain value, and the
# suq2 checks it must fail.  A bare name is a suq2 name; "module.name"
# names one in another grassq module, for the checks whose rule lives
# there.  The reported-discrepancy checks have no row: a wrong engine
# moves their recorded defect, it never fails them.
SUQ2_MUTANTS = {
    "_bz_defining_sum": (lambda plain: lambda sys: plain(sys).scale(2),
                         {"relations/bracket-defines-bz"}),
    "closure_prefactors": (
        lambda plain: lambda sys: (plain(sys)[0] * 2, plain(sys)[1]),
        {"closure/cube-root-free-rho", "closure/equal-rho-any-root",
         "relations/bz-b", "relations/bsharp-bz",
         "relations/prefactor-equality"}),
    "q_commutator": (lambda plain: lambda a, b: a @ b - b @ a,
                     {"closure/cube-root-free-rho",
                      "closure/equal-rho-any-root",
                      "relations/bracket-defines-bz", "relations/bz-b",
                      "relations/bsharp-bz"}),
    "Scalar": (_SameS, {"closure/distinct-rho-other-root-fails"}),
    # b# returns b + b#, which is not nilpotent
    "sharp_adjoint": (lambda plain: lambda e: plain(e) + e, {"nilpotency"}),
    # the squeeze argument loses its Grassmann factors, so the ordinary
    # operator (b#^2 - b^2)/2 is not nilpotent within the series bound
    "_squeeze_term": (
        lambda plain: lambda up, down: (up - down).scale(Fraction(1, 2)),
        {"squeeze/terminates"}),
    # b~#' = b^dag taken for b~ = eta b eta^-1 in the tilde exponential
    "op_dagger": (lambda plain: eta_conjugate,
                  {"squeeze/tilde-exponential-form"}),
    # S applied to |psi_1> in place of the vacuum
    "ket_op": (lambda plain: lambda level, family, index: plain(
        level, family, index + 1), {"squeezed-state/eta-channel"}),
    "resolution._weight": (shifted_weight,
                           {"weight/three-level-resolution"}),
    # the evolved state compared without theta -> u theta
    "coherent.theta_time_shift": (lambda plain: lambda e: e,
                                  {"stability/three-level"}),
}

@pytest.mark.parametrize("name", sorted(SUQ2_MUTANTS))
def test_each_closure_and_relation_check_fails_under_a_named_mutant(
        name, monkeypatch, fresh_caches):
    # every pass/fail suq2 check has a row; the checks read values the
    # shared system forms once, so each must still fail when the rule
    # behind it is wrong; other checks may move
    from grassq.suites import run_suite

    def checks():
        return {c.id: c for c in run_suite("suq2", (3, 3), max_n=3).checks}

    clean = {i: c.status for i, c in checks().items()}
    table = {i for i in clean if clean[i] != "reported-discrepancy"}
    assert {f"suq2/{i}" for _, flips in SUQ2_MUTANTS.values()
            for i in flips} == table
    assert {clean[i] for i in table} == {"pass"}
    mutant, flips = SUQ2_MUTANTS[name]
    module, _, attr = name.rpartition(".")
    owner = import_module(f"grassq.{module or 'suq2'}")
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    suq2._build_suq2.cache_clear()
    mutated = checks()
    for i in flips:
        check = mutated[f"suq2/{i}"]
        assert check.status == "fail", check


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
            arg = sys.squeeze_argument
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
    right = eta_conjugate(sys3.squeeze) @ ket_op(3, PHI, 0)
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
