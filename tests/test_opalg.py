import random
from fractions import Fraction

import pytest

from grassq.errors import (DyadShapeError, EngineError, EtaUnexpressibleError,
                           GramUnknownError)
from grassq.galg import Kind, d_theta, d_thetabar
from grassq.opalg import (IDENT, OpExpr, PHI, PSI, berezin_op,
                          dual_identity_sum,
                          eta_conjugate, ket, ket_op, make_ladder, op_dagger,
                          op_term, outer, q_commutator, sharp_adjoint,
                          theta_op, thetabar_op)
from grassq import opalg
from grassq.scalars import Scalar

from conftest import (bra, random_any_dyad_opexpr, random_gexpr,
                      random_scalar, random_single_pair_word,
                      random_standard_opexpr, word_operator)
from rewrite_oracle import compose_by_pairs

TH = (Kind.THETA, 1, 1)
TB = (Kind.THETABAR, 1, 1)


def _one(n):
    return Scalar.one(n)


def test_quantization_phase_examples():
    # a variable right of a ket or bra, placed by a single-term product
    n = 3
    # |psi_0> theta = q theta |psi_0>
    assert ket_op(n, PSI, 0) @ theta_op(n) == \
        op_term(n, Scalar.q(n), ket(PSI, 0), left=[TH])
    # |psi_1> theta = theta |psi_1>
    assert ket_op(n, PSI, 1) @ theta_op(n) == \
        op_term(n, _one(n), ket(PSI, 1), left=[TH])
    # <phi_2| thetabar = qbar thetabar <phi_2|
    assert op_term(n, _one(n), bra(PHI, 2)) @ thetabar_op(n) == \
        op_term(n, Scalar.q(n, -1), bra(PHI, 2), left=[TB])


def test_three_level_table():
    # the full three-level quantization table, both variables, kets and bras
    n = 3
    th, tb = theta_op(n), thetabar_op(n)
    phases_ket_theta = {0: -1, 1: 0, 2: 1}
    for i, e in phases_ket_theta.items():
        for fam in (PSI, PHI):
            k, b = ket(fam, i), bra(fam, i)
            ket_i, bra_i = op_term(n, _one(n), k), op_term(n, _one(n), b)
            assert ket_i @ th == op_term(n, Scalar.q(n, -e), k, left=[TH])
            assert ket_i @ tb == op_term(n, Scalar.q(n, e), k, left=[TB])
            assert bra_i @ th == op_term(n, Scalar.q(n, e), b, left=[TH])
            assert bra_i @ tb == op_term(n, Scalar.q(n, -e), b, left=[TB])


def test_dyad_contraction():
    n = 3
    a = OpExpr(n, {((), outer(PSI, 0, PHI, 1)): _one(n)})
    b = OpExpr(n, {((), outer(PSI, 1, PHI, 2)): _one(n)})
    assert a @ b == OpExpr(n, {((), outer(PSI, 0, PHI, 2)): _one(n)})
    assert (b @ a).is_zero  # delta mismatch
    # bra against dual ket contracts to a scalar multiple of the identity
    left = OpExpr(n, {((), bra(PHI, 1)): _one(n)})
    assert left @ ket_op(n, PSI, 1) == OpExpr.identity(n)
    assert (left @ ket_op(n, PSI, 0)).is_zero


def test_gram_and_shape_errors():
    n = 3
    with pytest.raises(GramUnknownError):
        OpExpr(n, {((), bra(PSI, 0)): _one(n)}) @ ket_op(n, PSI, 0)
    with pytest.raises(GramUnknownError):
        OpExpr(n, {((), outer(PSI, 0, PHI, 1)): _one(n)}) @ \
            OpExpr(n, {((), outer(PHI, 1, PSI, 0)): _one(n)})
    with pytest.raises(DyadShapeError):
        ket_op(n, PSI, 0) @ ket_op(n, PSI, 1)
    with pytest.raises(DyadShapeError):
        OpExpr(n, {((), bra(PHI, 0)): _one(n)}) @ \
            OpExpr(n, {((), bra(PHI, 1)): _one(n)})


# the bra and the outer on the left end in <phi_1|; the ket and the outer
# on the right start with |F_i>, over a dual (psi) or same (phi) family F
# and an equal (1) or unequal (2) index i
LEFT = {"1": IDENT, "K": ket(PSI, 0), "B": bra(PHI, 1),
        "O": outer(PSI, 0, PHI, 1)}
RIGHT = {"1": lambda f, i: IDENT, "K": lambda f, i: ket(f, i),
         "B": lambda f, i: bra(PSI, 2), "O": lambda f, i: outer(f, i, PSI, 2)}
RIGHT_SIDES = ((PSI, 1), (PSI, 2), (PHI, 1), (PHI, 2))
ZERO, SHAPE, GRAM = None, DyadShapeError, GramUnknownError
COMPOSITION_TABLE = {
    ("1", "1"): (IDENT,) * 4,
    ("1", "K"): (ket(PSI, 1), ket(PSI, 2), ket(PHI, 1), ket(PHI, 2)),
    ("1", "B"): (bra(PSI, 2),) * 4,
    ("1", "O"): (outer(PSI, 1, PSI, 2), outer(PSI, 2, PSI, 2),
                 outer(PHI, 1, PSI, 2), outer(PHI, 2, PSI, 2)),
    ("K", "1"): (ket(PSI, 0),) * 4,
    ("K", "K"): (SHAPE,) * 4,
    ("K", "B"): (outer(PSI, 0, PSI, 2),) * 4,
    ("K", "O"): (SHAPE,) * 4,
    ("B", "1"): (bra(PHI, 1),) * 4,
    ("B", "K"): (IDENT, ZERO, GRAM, GRAM),
    ("B", "B"): (SHAPE,) * 4,
    ("B", "O"): (bra(PSI, 2), ZERO, GRAM, GRAM),
    ("O", "1"): (outer(PSI, 0, PHI, 1),) * 4,
    ("O", "K"): (ket(PSI, 0), ZERO, GRAM, GRAM),
    ("O", "B"): (SHAPE,) * 4,
    ("O", "O"): (outer(PSI, 0, PSI, 2), ZERO, GRAM, GRAM),
}


def test_composition_table_of_every_shape_pair():
    n = 3
    for (left, right), outcomes in COMPOSITION_TABLE.items():
        a = OpExpr(n, {((), LEFT[left]): _one(n)})
        for (f, i), expected in zip(RIGHT_SIDES, outcomes):
            b = OpExpr(n, {((), RIGHT[right](f, i)): _one(n)})
            case = (left, right, f, i)
            if expected in (SHAPE, GRAM):
                with pytest.raises(expected):
                    a @ b
            elif expected is ZERO:
                assert (a @ b).is_zero, case
            else:
                assert a @ b == OpExpr(n, {((), expected): _one(n)}), case


# Shapes of one operand's dyads: "1" identity, "K" ket, "B" bra, "O" outer.
# Left bras meet right kets, and left kets meet right bras, so the first
# two mixes give products that mostly survive; the last, any shape on
# either side, mostly refuses.
PRODUCT_MIXES = (("1BO", "1KO"), ("1K", "1B"), ("1KBO", "1KBO"))
# a family outside psi/phi, which _contract pairs like any other family
CHI = "chi"
FAMILIES = ((PSI,), (PHI,)) * 3 + ((PSI, PHI), (CHI,), (PSI, CHI))


def _random_operand(rng, n, shapes):
    """1-12 terms over ``shapes``, with a theta/thetabar word and a unit or
    dense coefficient.  The ket sides draw their families from one of
    ``FAMILIES``, and so do the bra sides, so that the sides that meet
    often share one family and the product survives.  Half the operands
    keep their indices below 2, so that sides often meet."""
    acc = OpExpr.zero(n)
    indices = n if rng.random() < 0.5 else min(n, 2)
    ket_families, bra_families = rng.choice(FAMILIES), rng.choice(FAMILIES)
    for _ in range(rng.randrange(1, 13)):
        shape = rng.choice(shapes)
        k = ((rng.choice(ket_families), rng.randrange(indices))
             if shape in "KO" else ())
        b = ((rng.choice(bra_families), rng.randrange(indices))
             if shape in "BO" else ())
        coeff = (Scalar.q(n, rng.randrange(n)) * Fraction(rng.choice((1, -2)))
                 if rng.random() < 0.7 else random_scalar(rng, n) + _one(n))
        acc = acc + op_term(n, coeff, (k, b),
                            left=random_single_pair_word(rng, n, 3))
    return acc


def _outcome(product):
    """(result, its term order) or (error type, message) of a product."""
    try:
        result = product()
    except (DyadShapeError, GramUnknownError) as exc:
        return type(exc), str(exc)
    return result, list(result.terms)


def test_product_matches_the_plain_pair_walk():
    # the join visits only contracting pairs; its result, term order and
    # refusal (type and message) are those of the |L| x |R| loop, for
    # products that survive or refuse, with and without a family chi
    seen = set()
    rng = random.Random(20261019)
    for _ in range(600):
        n = rng.randrange(2, 9)
        left_shapes, right_shapes = rng.choice(PRODUCT_MIXES)
        a = _random_operand(rng, n, left_shapes)
        b = _random_operand(rng, n, right_shapes)
        got = _outcome(lambda: a @ b)
        assert got == _outcome(lambda: compose_by_pairs(a, b)), (a, b)
        seen.add((isinstance(got[0], OpExpr), CHI in str(a) + str(b)))
    assert seen == {(True, False), (False, False), (True, True),
                    (False, True)}


def test_product_refuses_exactly_the_pairs_contract_refuses():
    # every filed category (a left bra) against every facing one (a right
    # ket), with a term of another index first on the left side or on the
    # right side, after an identity term on both, so the first refused
    # pair is not the first pair
    n = 3
    categories = ((), PSI, PHI, CHI)

    def side(category, i):
        return (category, i) if category else ()
    for filed in categories:
        for facing in categories:
            try:
                opalg._contract(((PSI, 0), side(filed, 1)),
                                (side(facing, 1), (PSI, 2)))
                raises = False
            except (DyadShapeError, GramUnknownError):
                raises = True
            for bras, kets in (((2, 1), (1,)), ((1,), (2, 1))):
                a = OpExpr(n, {((), d): _one(n) for d in [IDENT] + [
                    ((PSI, 0), side(filed, i)) for i in bras]})
                b = OpExpr(n, {((), d): _one(n) for d in [IDENT] + [
                    (side(facing, i), (PSI, 2)) for i in kets]})
                got = _outcome(lambda: a @ b)
                case = (filed, facing, bras, kets)
                assert got == _outcome(lambda: compose_by_pairs(a, b)), case
                assert isinstance(got[0], OpExpr) != raises, case


def test_product_matches_the_plain_pair_walk_on_the_series_shapes():
    # the exponential form's one-term state against its n-1 term argument,
    # with the argument filed already or not, and the one-term x many-term
    # shapes
    for n in range(2, 9):
        arg = sharp_adjoint(make_ladder(n)) @ theta_op(n)
        plain = compose_by_pairs(sharp_adjoint(make_ladder(n)), theta_op(n))
        assert arg == plain and list(arg.terms) == list(plain.terms)
        vacuum = ket_op(n, PSI, 0)
        one_term = (vacuum, theta_op(n), op_dagger(ket_op(n, PHI, n - 1)))
        for filed in (False, True):
            power = vacuum
            for _ in range(n):
                for x, y in [(arg, power)] + [(t, arg) for t in one_term] + [
                        (arg, t) for t in one_term]:
                    if not filed:
                        x, y = OpExpr(n, x.terms), OpExpr(n, y.terms)
                    assert _outcome(lambda: x @ y) == _outcome(
                        lambda: compose_by_pairs(x, y)), (n, x, y)
                power = arg @ power


def test_display_order_of_mixed_shapes():
    # bras, then the identity, then kets, then outers, each group in
    # family and index order, whatever order the terms were added in
    n = 3
    e = OpExpr(n, {((), d): _one(n) for d in (
        outer(PSI, 1, PHI, 0), ket(PSI, 2), IDENT, ket(PHI, 0),
        bra(PHI, 1))})
    assert str(e) == ("(1) 1 <phi_1| + (1) 1 1 + (1) 1 |phi_0> + "
                      "(1) 1 |psi_2> + (1) 1 |psi_1><phi_0|")


def test_ladder_forms():
    # b and the three ladders defined from it, against their written sums
    n = 3
    s1, s2 = Scalar.s(n, 1), Scalar.s(n, 2)
    b = make_ladder(n)
    assert b == OpExpr(n, {
        ((), outer(PSI, 0, PHI, 1)): s1, ((), outer(PSI, 1, PHI, 2)): s2})
    assert sharp_adjoint(b) == OpExpr(n, {
        ((), outer(PSI, 1, PHI, 0)): s1, ((), outer(PSI, 2, PHI, 1)): s2})
    assert eta_conjugate(b) == OpExpr(n, {
        ((), outer(PHI, 0, PSI, 1)): s1, ((), outer(PHI, 1, PSI, 2)): s2})
    assert op_dagger(b) == OpExpr(n, {
        ((), outer(PHI, 1, PSI, 0)): s1, ((), outer(PHI, 2, PSI, 1)): s2})
    # two-level truncation keeps the single surviving term
    assert make_ladder(2) == OpExpr(2, {((), outer(PSI, 0, PHI, 1)):
                                        Scalar.s(2, 1)})


def test_ladder_action_laws():
    for n in (2, 3, 4):
        b = make_ladder(n)
        bs = sharp_adjoint(b)
        assert (b @ ket_op(n, PSI, 0)).is_zero  # the vacuum
        for i in range(1, n):
            assert b @ ket_op(n, PSI, i) == OpExpr(
                n, {((), ket(PSI, i - 1)): Scalar.s(n, i)})
        for i in range(n - 1):
            assert bs @ ket_op(n, PSI, i) == OpExpr(
                n, {((), ket(PSI, i + 1)): Scalar.s(n, i + 1)})


def test_ladder_nilpotency():
    for n in (2, 3, 4, 5):
        assert make_ladder(n).power(n).is_zero
        assert sharp_adjoint(make_ladder(n)).power(n).is_zero
        assert not make_ladder(n).power(n - 1).is_zero


def test_power_makes_one_product_fewer_than_its_exponent(monkeypatch):
    # counts products, not time: A^k takes k - 1 products of A, and A^0
    # is the identity without any
    n = 4
    a = make_ladder(n) + theta_op(n)
    plain, calls = OpExpr.__matmul__, []

    def counting(self, other):
        calls.append(1)
        return plain(self, other)

    expected = OpExpr.identity(n)
    for k in range(5):
        monkeypatch.setattr(OpExpr, "__matmul__", counting)
        calls.clear()
        got = a.power(k)
        assert len(calls) == max(k - 1, 0), k
        monkeypatch.setattr(OpExpr, "__matmul__", plain)
        assert got == expected
        expected = expected @ a


def test_power_files_its_base_once(monkeypatch):
    # counts filings, not time: every product of A^k has A on the left,
    # so A's terms are filed by bra side once, and no partial power is
    n = 8
    plain, calls = opalg._file_bras, []

    def counting(terms):
        calls.append(len(terms))
        return plain(terms)

    monkeypatch.setattr(opalg, "_file_bras", counting)
    for k in range(n + 1):
        a = sharp_adjoint(make_ladder(n))  # a fresh operator, not yet filed
        calls.clear()
        a.power(k)
        assert calls == ([len(a.terms)] if k > 1 else []), k


def test_q_commutator_relations():
    # all four single-variable relations plus the tilde-primed one
    for n in range(2, 7):
        b = make_ladder(n)
        bs = sharp_adjoint(b)
        btsp = op_dagger(b)
        th, tb = theta_op(n), thetabar_op(n)
        assert q_commutator(th, bs).is_zero
        assert q_commutator(b, th).is_zero
        assert q_commutator(bs, tb).is_zero
        assert q_commutator(tb, b).is_zero
        assert q_commutator(th, btsp).is_zero


def test_compose_bracket_example():
    # b b# - q b# b at n=3, written out in dyads
    n = 3
    b = make_ladder(n)
    bs = sharp_adjoint(b)
    r1 = Scalar.s(n, 1) * Scalar.s(n, 1)
    r2 = Scalar.s(n, 2) * Scalar.s(n, 2)
    expected = OpExpr(n, {
        ((), outer(PSI, 0, PHI, 0)): r1,
        ((), outer(PSI, 1, PHI, 1)): r2 - Scalar.q(n) * r1,
        ((), outer(PSI, 2, PHI, 2)): -(Scalar.q(n) * r2)})
    assert q_commutator(b, bs) == expected


def test_nilpotent_chain():
    n = 4
    b = make_ladder(n)
    chain = OpExpr.identity(n)
    for _ in range(n):
        chain = chain @ b
    assert chain.is_zero


def test_dagger_examples_and_involution():
    assert op_dagger(make_ladder(2)) == OpExpr(
        2, {((), outer(PHI, 1, PSI, 0)): Scalar.s(2, 1)})
    # dagger(theta |psi_1>) = <psi_1| thetabar, already canonical
    n = 3
    x = op_term(n, _one(n), ket(PSI, 1), left=[TH])
    assert op_dagger(x) == op_term(n, _one(n), bra(PSI, 1), left=[TB])
    rng = random.Random(3)
    for _ in range(200):
        level = rng.choice([2, 3, 4])
        expr = random_any_dyad_opexpr(rng, level)
        assert op_dagger(op_dagger(expr)) == expr


def test_eta_examples_and_roundtrip():
    n = 3
    x = op_term(n, _one(n), ket(PSI, 0), left=[TH])
    assert eta_conjugate(x) == op_term(n, _one(n), ket(PHI, 0), left=[TH])
    rng = random.Random(9)
    for _ in range(100):
        level = rng.choice([2, 3, 4])
        expr = random_standard_opexpr(rng, level)
        assert eta_conjugate(eta_conjugate(expr), inverse=True) == expr


def test_eta_commutes_with_variables():
    # the metric commutes with theta and thetabar
    rng = random.Random(29)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        x = random_standard_opexpr(rng, n)
        for op in (theta_op(n), thetabar_op(n)):
            assert eta_conjugate(op @ x) == op @ eta_conjugate(x)


def test_eta_unexpressible():
    n = 3
    with pytest.raises(EtaUnexpressibleError):
        eta_conjugate(ket_op(n, PHI, 0))
    with pytest.raises(EtaUnexpressibleError):
        eta_conjugate(OpExpr(n, {((), bra(PSI, 0)): _one(n)}))


def test_sharp_adjoint():
    for n in (2, 3, 4):
        b = make_ladder(n)
        assert sharp_adjoint(b) == OpExpr(n, {
            ((), outer(PSI, i + 1, PHI, i)): Scalar.s(n, i + 1)
            for i in range(n - 1)})
        assert sharp_adjoint(sharp_adjoint(b)) == b
        assert sharp_adjoint(OpExpr.identity(n)) == OpExpr.identity(n)
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        x = random_standard_opexpr(rng, n)
        assert sharp_adjoint(sharp_adjoint(x)) == x


def test_completeness_two_sided_identity():
    # the resolved sum acts as the identity on kets, bras and outers;
    # against a term carrying the abstract identity dyad it yields the
    # resolved form of that term (equal as operators, distinct as forms)
    rng = random.Random(37)
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        resolved = dual_identity_sum(n, PSI)
        x = random_standard_opexpr(rng, n)
        left_composable = OpExpr(n, {k: v for k, v in x.terms.items()
                                     if k[1][0]})
        assert resolved @ left_composable == left_composable
        right_composable = OpExpr(n, {k: v for k, v in x.terms.items()
                                      if k[1][1]})
        assert right_composable @ resolved == right_composable
        word_times_identity = OpExpr(n, {k: v for k, v in x.terms.items()
                                         if k[1] == IDENT})
        assert resolved @ word_times_identity == \
            word_times_identity @ resolved


def test_berezin_op_validates_its_measure():
    # the same measure rules as galg.berezin: only distinct dtheta and
    # dthetabar symbols, checked before any term is integrated
    with pytest.raises(EngineError, match="dtheta or dthetabar"):
        berezin_op(theta_op(3).power(2), [(Kind.THETA, 1)])
    with pytest.raises(EngineError, match="distinct"):
        berezin_op(theta_op(3).power(2), [d_theta(), d_theta()])
    with pytest.raises(EngineError, match="distinct"):
        berezin_op(OpExpr.zero(3), [d_thetabar(), d_thetabar()])
    assert berezin_op(theta_op(3).power(2), [d_theta()]) == OpExpr.identity(3)


@pytest.mark.parametrize("factor", [3, -1, Fraction(-2, 5), 0])
def test_rational_scale_matches_the_lifted_scalar(factor):
    # an int or Fraction scales each coefficient in place; the value and
    # its printed form equal scaling by the same rational as a Scalar
    rng = random.Random(11)
    seen = 0
    for n in (2, 3, 5, 6):
        lifted = Scalar.from_rational(n, factor)
        for _ in range(5):
            for e in (random_any_dyad_opexpr(rng, n),
                      word_operator(random_gexpr(rng, n))):
                if e.is_zero:
                    continue
                seen += 1
                direct, via = e.scale(factor), e.scale(lifted)
                assert direct == via and str(direct) == str(via)
                assert direct.is_zero == (factor == 0)
    assert seen >= 20
