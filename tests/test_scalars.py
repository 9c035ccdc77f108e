import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassq.coherent import make_coherent
from grassq.errors import EngineError, LevelMismatchError
from grassq.galg import GExpr
from grassq.opalg import OpExpr, make_ladder
from grassq.resolution import closed_form_weight
from grassq.scalars import (_EXP_LIMIT, Cyclo, Scalar, _SparseSum,
                            cyclotomic_polynomial, rho_factorial)

import rewrite_oracle as oracle
from conftest import (random_any_dyad_opexpr, random_gexpr, random_scalar,
                      random_standard_opexpr)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1),) * 3
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    # degree is Euler's totient
    assert len(cyclotomic_polynomial(8)) - 1 == 4
    assert len(cyclotomic_polynomial(7)) - 1 == 6


def test_root_of_unity_reductions():
    # 1 + q + q^2 vanishes at n=3
    total = Cyclo.one(3) + Cyclo.q_power(3, 1) + Cyclo.q_power(3, 2)
    assert not total
    # n=2: q reduces to -1
    assert Cyclo.q_power(2, 1) == Cyclo.from_rational(2, -1)
    # n=3: qbar = q^2 reduces to -1 - q
    assert Cyclo.q_power(3, -1) == Cyclo(3, [-1, -1])
    # exponents are taken mod n first
    assert Cyclo.q_power(5, 12) == Cyclo.q_power(5, 2)


def test_conjugation_is_involution_and_inverse_power():
    assert Cyclo.q_power(4, 1).conj() == Cyclo.q_power(4, 3)
    x = Cyclo(5, [1, Fraction(-2, 3), 4, 1])
    assert x.conj().conj() == x
    # q * conj(q) = 1
    q = Cyclo.q_power(7, 1)
    assert q * q.conj() == Cyclo.one(7)


def test_field_inverse():
    x = Cyclo(5, [2, 1, 0, Fraction(1, 2)])
    assert x * x.inverse() == Cyclo.one(5)
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(3).inverse()


def test_scalar_symbol_rules():
    # s_i squares to the rho exponent vector
    s1 = Scalar.s(4, 1)
    assert s1 * s1 == Scalar(4, {(2, 0, 0, 0): Cyclo.one(4)})
    # unimodularity of u
    assert Scalar.u(4) * Scalar.u(4, -1) == Scalar.one(4)
    # q qbar = 1 across terms
    a = Scalar.q(4) * Scalar.s(4, 1)
    b = Scalar.q(4, -1) * Scalar.s(4, 2)
    assert a * b == Scalar.s(4, 1) * Scalar.s(4, 2)


def test_scalar_conjugation_rules():
    assert Scalar.q(4).conj() == Scalar.q(4, 3)
    assert (Scalar.s(3, 1) * Scalar.u(3)).conj() == \
        Scalar.s(3, 1) * Scalar.u(3, -1)
    rng = random.Random(5)
    for _ in range(50):
        x = random_scalar(rng, rng.choice([2, 3, 4, 5]))
        assert x.conj().conj() == x


def _gexpr_one(level):
    return GExpr.from_raw(level, [(Scalar.one(level), [])])


def test_level_mismatch_raises():
    cases = [
        (Scalar.one, lambda a, b: a * b),
        (Scalar.one, lambda a, b: a + b),
        (Scalar.one, lambda a, b: a - b),
        (_gexpr_one, lambda a, b: a + b),
        (_gexpr_one, lambda a, b: a - b),
        (OpExpr.identity, lambda a, b: a + b),
        (OpExpr.identity, lambda a, b: a - b),
        (OpExpr.identity, lambda a, b: a @ b),
    ]
    for build, combine in cases:
        with pytest.raises(LevelMismatchError,
                           match="cannot mix levels 2 and 3"):
            combine(build(2), build(3))


def test_sum_types_stay_apart_and_need_two_levels():
    assert Scalar.zero(3) != GExpr.zero(3)
    assert GExpr.zero(3) != OpExpr.zero(3)
    assert not Scalar.zero(3) == OpExpr.zero(3)
    for sum_type in (Scalar, GExpr, OpExpr):
        with pytest.raises(ValueError, match="at least 2"):
            sum_type(1)


def test_sums_of_different_types_are_refused_when_combined():
    # +, -, *, @ and Cyclo arithmetic refuse another type at once, naming
    # both operand types, rather than build a malformed sum that fails
    # later or crash inside a kernel
    cases = [
        (lambda: OpExpr.zero(3) - Scalar.one(3), "OpExpr", "Scalar"),
        (lambda: GExpr.zero(3) + OpExpr.identity(3), "GExpr", "OpExpr"),
        (lambda: Scalar.one(3) + 1, "Scalar", "int"),
        (lambda: Scalar.one(3) - Fraction(1, 2), "Scalar", "Fraction"),
        (lambda: 1 + Scalar.one(3), "int", "Scalar"),
        (lambda: OpExpr.identity(3) + _gexpr_one(3), "OpExpr", "GExpr"),
        (lambda: Scalar.one(3) * 0.5, "Scalar", "float"),
        (lambda: make_ladder(3).scale(0.5), "Scalar", "float"),
        (lambda: make_ladder(3) @ Scalar.one(3), "OpExpr", "Scalar"),
        (lambda: Cyclo.one(3) + 1, "Cyclo", "int"),
        (lambda: Cyclo.one(3) * 2, "Cyclo", "int"),
        (lambda: Cyclo.one(3) * Scalar.one(3), "Cyclo", "Scalar"),
        (lambda: Scalar.one(3) * make_ladder(3), "Scalar", "OpExpr"),
        (lambda: Scalar.one(3) * Cyclo.one(3), "Scalar", "Cyclo"),
        (lambda: Cyclo.one(3) - Fraction(1, 2), "Cyclo", "Fraction"),
        (lambda: Scalar.one(3)._mul_q(Cyclo.one(3), 1), "Scalar", "Cyclo"),
    ]
    for case, *names in cases:
        with pytest.raises(TypeError, match="unsupported operand") as err:
            case()
        assert all(name in str(err.value) for name in names), err.value


@st.composite
def scalars(draw, levels=(2, 3, 4, 5)):
    level = draw(st.sampled_from(levels))
    seed = draw(st.integers(0, 2 ** 20))
    return random_scalar(random.Random(seed), level)


@st.composite
def scalar_triples(draw):
    level = draw(st.sampled_from((2, 3, 4, 5)))
    seeds = draw(st.tuples(*[st.integers(0, 2 ** 20)] * 3))
    rngs = [random.Random(s) for s in seeds]
    return tuple(random_scalar(r, level) for r in rngs)


@settings(max_examples=80, deadline=None)
@given(scalar_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = Scalar.zero(a.level)
    one = Scalar.one(a.level)
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@settings(max_examples=80, deadline=None)
@given(scalar_triples())
def test_conj_is_ring_homomorphism(triple):
    a, b, _ = triple
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


def _at_u_one(a):
    """``a`` with u = 1: each term's u exponent dropped, equal keys added."""
    out = Scalar.zero(a.level)
    for key, c in a.monomials():
        out = out + Scalar(a.level, {key[:-1] + (0,): c})
    return out


@settings(max_examples=60, deadline=None)
@given(scalar_triples())
def test_eval_is_ring_homomorphism(triple):
    # eval reads the s_i alone, so the scalars are taken at u = 1 first
    a, b = map(_at_u_one, triple[:2])
    rho = [2.0, 3.0, 0.5, 1.25][:a.level - 1]
    lhs = (a * b).eval(rho)
    rhs = a.eval(rho) * b.eval(rho)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale
    lhs = (a + b).eval(rho)
    rhs = a.eval(rho) + b.eval(rho)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale


def _ordered(x):
    """The terms of a sum in their order, nested sums in theirs too."""
    if not isinstance(x, _SparseSum):
        return x
    return [(key, _ordered(value)) for key, value in x.terms.items()]


def _assert_subtraction_laws(a, b):
    # ``-`` is a merge of its own: it must give what adding the negation
    # gives, down to the term order of every nested sum
    difference, negated = a - b, a + (-b)
    assert difference == negated
    assert _ordered(difference) == _ordered(negated)
    assert all(difference.terms.values())
    assert (a - a).is_zero
    assert difference + b == a


@settings(max_examples=80, deadline=None)
@given(scalar_triples())
def test_scalar_subtraction_adds_the_negation(triple):
    # c added to both sides gives keys whose two values are equal, and
    # a + b against a gives keys whose values differ
    a, b, c = triple
    for x, y in ((a, b), (a + c, b + c), (a + b, a), (a, a + b)):
        _assert_subtraction_laws(x, y)


def test_word_and_operator_subtraction_adds_the_negation():
    rng = random.Random(27)
    for _ in range(150):
        level = rng.choice((2, 3, 4, 5))
        for build in (random_gexpr, random_standard_opexpr,
                      random_any_dyad_opexpr):
            a, b, c = (build(rng, level) for _ in range(3))
            for x, y in ((a, b), (a + c, b + c), (a + b, a), (a, a + b)):
                _assert_subtraction_laws(x, y)


def test_eval_examples():
    assert abs(Scalar.q(4).eval([1, 1, 1]) - 1j) < 1e-12
    # rho_1! / rho_2 at rho = (2, 8) is 0.25
    expr = rho_factorial(3, 1) * Scalar.s(3, 2, -2)
    assert abs(expr.eval([2, 8]) - 0.25) < 1e-12
    assert Scalar.zero(3).eval([1, 1]) == 0


def test_eval_input_validation():
    with pytest.raises(ValueError):
        Scalar.s(3, 1).eval([-1, 2])
    # no value is supplied for u, as none is for rho_2 below
    with pytest.raises(ValueError, match="no value supplied for u"):
        Scalar.u(3).eval([1.0, 1.0])
    with pytest.raises(ValueError, match="no value supplied for u"):
        (Scalar.one(3) + Scalar.u(3, -1)).eval([1.0, 1.0])
    with pytest.raises(ValueError, match="no value supplied for rho_2"):
        Scalar.s(3, 2).eval([2])
    # rho must convert to a finite float > 0
    for bad in (float("inf"), float("nan"), Fraction(10**400),
                Fraction(1, 10**400), 0):
        with pytest.raises(ValueError):
            Scalar.s(3, 1).eval([bad, 2])


def test_rho_factorial():
    assert rho_factorial(4, 0) == Scalar.one(4)
    expected = Scalar(4, {(2, 2, 0, 0): Cyclo.one(4)})
    assert rho_factorial(4, 2) == expected
    inverse = rho_factorial(4, 2).monomial_inverse()
    assert rho_factorial(4, 2) * inverse == Scalar.one(4)
    with pytest.raises(ValueError):
        rho_factorial(3, 3)


def test_monomial_inverse_only_for_monomials():
    x = Scalar.q(3) * Scalar.s(3, 1, 2) * Scalar.u(3, -1)
    assert x * x.monomial_inverse() == Scalar.one(3)
    with pytest.raises(EngineError):
        (Scalar.one(3) + Scalar.s(3, 1)).monomial_inverse()


def _one_term(rng, level, dense):
    """One term with s_i and u exponents of either sign; the coefficient is
    a unit +-c*q^k or a dense element of Q(q)."""
    key = tuple(rng.randrange(-3, 4) for _ in range(level))
    if dense:
        coeff = Cyclo(level, [rng.choice((1, 3)), rng.choice((2, -5))])
        assert coeff._k is None
    else:
        coeff = Cyclo.q_power(level, rng.randrange(level)).scaled(
            Fraction(rng.choice((-3, -1, 1, 2)), rng.randrange(1, 4)))
        assert coeff._k is not None
    return Scalar(level, {key: coeff})


def _merged_product(a, b):
    """Every term pair multiplied and merged by hand: the general product."""
    acc = {}
    for k1, c1 in a.monomials():
        for k2, c2 in b.monomials():
            key = tuple(x + y for x, y in zip(k1, k2))
            acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    return Scalar(a.level, acc)


def test_monomial_product_matches_the_general_product():
    rng = random.Random(20261018)
    for _ in range(300):
        level = rng.randrange(3, 8)
        a = _one_term(rng, level, dense=rng.random() < 0.5)
        b = _one_term(rng, level, dense=rng.random() < 0.5)
        longer = random_scalar(rng, level, max_terms=4) + _one_term(
            rng, level, dense=rng.random() < 0.5)
        for x, y in ((a, b), (b, a), (a, longer), (longer, a),
                     (longer, longer), (a, Scalar.zero(level))):
            product = x * y
            assert product == _merged_product(x, y)
            assert all(product.terms.values())
    with pytest.raises(LevelMismatchError, match="cannot mix levels 3 and 4"):
        _one_term(rng, 3, dense=False) * _one_term(rng, 4, dense=True)
    with pytest.raises(LevelMismatchError, match="cannot mix levels 4 and 3"):
        (_one_term(rng, 4, dense=True) + Scalar.one(4)) * _one_term(
            rng, 3, dense=False)


def test_a_phased_unit_product_builds_one_unit(monkeypatch, fresh_caches):
    # counts calls: the Cyclo product takes the phase, so a unit times a
    # unit times q**k builds one unit at every k; every mix of unit and
    # dense factors gives the product turned by mul_q_power
    from grassq import scalars
    rng = random.Random(20261020)
    built = []

    def counting_unit(*args, plain=scalars._unit):
        built.append(args)
        return plain(*args)
    for level in (3, 5, 6, 8):
        for k in range(-level, 2 * level):
            for dense in ((False, False), (False, True), (True, False),
                          (True, True)):
                a, b = (_one_term(rng, level, d) for d in dense)
                expected = (a * b).mul_q_power(k)
                with monkeypatch.context() as counted:
                    counted.setattr(scalars, "_unit", counting_unit)
                    built.clear()
                    assert a._mul_q(b, k) == expected, (a, b, k)
                if not any(dense):
                    assert len(built) == 1, (a, b, k, built)


def test_rational_factors_take_the_scaled_path(monkeypatch, fresh_caches):
    rng = random.Random(7)
    operands = (_one_term(rng, 5, dense=False), _one_term(rng, 5, dense=True),
                _one_term(rng, 5, dense=True) + Scalar.s(5, 2))
    scaled = []
    plain_scaled = Cyclo.scaled

    def counting_scaled(c, factor):
        scaled.append(factor)
        return plain_scaled(c, factor)

    monkeypatch.setattr(Cyclo, "scaled", counting_scaled)
    for x in operands:
        for factor in (3, Fraction(-2, 5)):
            for product in (x * factor, factor * x):
                assert product == _merged_product(
                    x, Scalar.from_rational(5, factor))
        assert len(scaled) == 4 * len(x.terms)
        scaled.clear()


# ---------------------------------------------------------------------------
# the packed key against the tuple-key oracle, its guard and its refusals
# ---------------------------------------------------------------------------

def _seeded_scalar(rng, level):
    """0-3 terms; exponents of either sign, u often absent; unit and
    dense coefficients."""
    terms = {}
    for _ in range(rng.randrange(4)):
        key = [rng.randrange(-3, 4) if rng.random() < 0.6 else 0
               for _ in range(level - 1)]
        key.append(rng.choice((0, 0, rng.randrange(-3, 4))))
        terms[tuple(key)] = Cyclo(level, [Fraction(rng.randrange(-3, 4),
                                                   rng.randrange(1, 4))
                                          for _ in range(rng.randrange(1, 3))])
    return Scalar(level, terms)


def _outcome(f, *args):
    """f's value, or its error's type and message."""
    try:
        return f(*args)
    except (EngineError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("level", list(range(2, 13)) + [64])
def test_the_packed_key_matches_the_tuple_key_oracle(level):
    # every result is compared term by term in its term order, and the
    # floats of eval bit for bit
    rng = random.Random(20261020 + level)
    rho = [Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
           for _ in range(level - 1)]
    for _ in range(40):
        x, y = _seeded_scalar(rng, level), _seeded_scalar(rng, level)
        a, b = dict(x.monomials()), dict(y.monomials())
        assert Scalar(level, a) == x and str(x) == oracle.tuple_str(a)
        assert _outcome(x.eval, rho) == _outcome(oracle.tuple_eval, a, rho)
        assert _outcome(x.eval, rho[:-1]) == _outcome(oracle.tuple_eval, a,
                                                      rho[:-1])
        assert x.conj().monomials() == list(oracle.tuple_conj(a).items())
        assert (x * y).monomials() == list(oracle.tuple_mul(a, b).items())
        k = rng.randrange(-level, 2 * level)
        assert x._mul_q(y, k).monomials() == list(
            oracle.tuple_mul_q(a, b, k).items())
        if len(a) == 1:
            assert x.monomial_inverse().monomials() == list(
                oracle.tuple_monomial_inverse(a).items())


@pytest.mark.parametrize("level", list(range(2, 13)) + [64])
def test_a_u_power_shift_equals_the_product_with_u(level):
    # the same terms in the same order as the product, so a u phase needs
    # no coefficient product
    rng = random.Random(20261021 + level)
    for _ in range(40):
        x = _seeded_scalar(rng, level)
        for k in (0, 1, -1, rng.randrange(-9, 10)):
            shifted, product = x.mul_u_power(k), x * Scalar.u(level, k)
            assert shifted.monomials() == product.monomials()
    assert x.mul_u_power(0) is x


LIMIT = _EXP_LIMIT


@pytest.mark.parametrize("slot", range(4))
def test_an_exponent_that_leaves_its_field_is_refused(slot):
    # the neighbours sit at both ends of the range, where a carry or a
    # borrow that reached them would show
    n, one = 4, Cyclo.one(4)
    around = (LIMIT - 1, -LIMIT, LIMIT - 1, -LIMIT)

    def term(e, others=around):
        return Scalar(n, {others[:slot] + (e,) + others[slot + 1:]: one})

    def step(e):
        return term(e, (0,) * n)

    def products(x, e):
        """x * step(e) by every path that forms it: the u field, the last,
        also moves by ``mul_u_power``, which adds e to each key."""
        paths = [lambda: x * step(e), lambda: step(e) * x,
                 lambda: x._mul_q(step(e), 3),
                 lambda: (x + Scalar.q(n)) * step(e)]
        if slot == n - 1:
            paths += [lambda: x.mul_u_power(e),
                      lambda: (x + Scalar.q(n)).mul_u_power(e)]
        return paths

    # up to each end of the range, no neighbouring exponent changes
    for x, e, reached in ((term(LIMIT - 2), 1, LIMIT - 1),
                          (term(-LIMIT + 1), -1, -LIMIT),
                          (term(0), -LIMIT, -LIMIT)):
        for product in products(x, e):
            key, _ = product().monomials()[0]
            assert key == term(reached).monomials()[0][0]
    # one past the top overflows its field, one below the bottom borrows
    for x, e in ((term(LIMIT - 1), 1), (term(LIMIT - 1), LIMIT - 1),
                 (term(-LIMIT), -1), (term(-LIMIT), -LIMIT)):
        for product in products(x, e):
            with pytest.raises(EngineError, match="exponent left"):
                product()
    # the inverse and conjugation (of u) negate, and -(-LIMIT) is out of
    # range
    with pytest.raises(EngineError, match="exponent left"):
        step(-LIMIT).monomial_inverse()
    assert step(-LIMIT + 1).monomial_inverse() == step(LIMIT - 1)
    if slot == n - 1:
        with pytest.raises(EngineError, match="exponent left"):
            step(-LIMIT).conj()
        assert step(-LIMIT + 1).conj() == step(LIMIT - 1)
    else:
        assert step(-LIMIT).conj() == step(-LIMIT)
    # an exponent out of range is refused when it is written
    for e in (LIMIT, -LIMIT - 1):
        with pytest.raises(ValueError, match="must lie in"):
            term(e)
        with pytest.raises(ValueError, match="must lie in"):
            Scalar.s(n, 2, e)
        with pytest.raises(ValueError, match="must lie in"):
            term(0).mul_u_power(e)


def test_a_key_of_the_wrong_length_is_refused():
    # (1,) at level 3 once rendered as u, and its product with s_1 as u^2
    one = Cyclo.one(3)
    for key in ((1,), (1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="holds 3 exponents"):
            Scalar(3, {key: one})
    s1 = Scalar(3, {(1, 0, 0): one})
    assert str(s1) == "s1" and str(s1 * Scalar.s(3, 1)) == "s1^2"


def test_a_key_that_is_not_a_tuple_is_refused():
    for key in (7, "100", frozenset({1})):
        with pytest.raises(TypeError, match="must be a tuple"):
            Scalar(3, {key: Cyclo.one(3)})


def test_an_exponent_that_is_not_an_int_is_refused():
    # a float exponent once rendered as s1^1.5
    for e in (1.5, 1.0, Fraction(3, 2), "1", None):
        with pytest.raises(TypeError, match="exponent must be an int"):
            Scalar(3, {(e, 0, 0): Cyclo.one(3)})
        with pytest.raises(TypeError, match="exponent must be an int"):
            Scalar.s(3, 1, e)
        with pytest.raises(TypeError, match="exponent must be an int"):
            (Scalar.s(3, 1) + Scalar.one(3)).mul_u_power(e)


def test_a_power_of_q_is_an_int_of_any_size():
    # a float power was once stored as the unit's k, and a Scalar holding
    # it could not be printed; an int has no range bound, since phases
    # such as q**(i(i+1)) grow with the level
    for k in (1.5, 1.0, Fraction(3, 2), np.int64(1), "1", None):
        with pytest.raises(TypeError, match="power of q must be an int"):
            Cyclo.q_power(3, k)
        with pytest.raises(TypeError, match="power of q must be an int"):
            Scalar.q(3, k)
        with pytest.raises(TypeError, match="power of q must be an int"):
            Scalar.one(3).mul_q_power(k)
    for n in (3, 2048):
        for k in (n * (n + 1), -(10 ** 30) - 1, 2 ** 70):
            assert Cyclo.q_power(n, k) == Cyclo.q_power(n, k % n)
            assert (Scalar.s(n, 1).mul_q_power(k)
                    == Scalar.s(n, 1).mul_q_power(k % n))


def test_a_coefficient_that_is_not_a_cyclo_is_refused():
    # an int coefficient was once stored as is; a zero one is refused too
    for c in (1, 0, Fraction(1, 2), 1.0, Scalar.one(3)):
        with pytest.raises(TypeError, match="coefficient must be a Cyclo"):
            Scalar(3, {(0, 0, 0): c})


def test_a_coefficient_of_another_level_is_refused():
    for c in (Cyclo.one(4), Cyclo.zero(2)):
        with pytest.raises(ValueError, match="level"):
            Scalar(3, {(0, 0, 0): c})


# ---------------------------------------------------------------------------
# differential test against sympy's reduction modulo cyclotomic_poly(n)
# ---------------------------------------------------------------------------

def _random_coeffs(rng, length):
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(length)]
    cs[0] = cs[0] or Fraction(1)
    return cs


def _residue(sympy, x, n, poly):
    """Coefficients of poly mod Phi_n as Fractions, lowest degree first."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    rem = sympy.Poly(poly, x, domain="QQ").rem(phi)
    cs = [Fraction(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
    return tuple(cs + [Fraction(0)] * (phi.degree() - len(cs)))


def _as_poly(sympy, x, coeffs):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                          for k, c in enumerate(coeffs)), x, domain="QQ")


def _is_unit(c):
    """Whether c is held in unit form, the fast path's private tag."""
    return c._k is not None


@pytest.mark.parametrize("n", range(2, 13))
def test_field_operations_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    degree = len(cyclotomic_polynomial(n)) - 1
    rng = random.Random(1000 + n)

    def check(value, poly):
        assert value.coeffs == _residue(sympy, x, n, poly)

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def power(k):
        return sympy.Poly(x ** (k % n), x, domain="QQ")

    # units c*q^k below phi(n), at and past it (dense basis rows at
    # n = 10, 11, 12), and past the half-turn q^(n/2) = -1 at even n
    units = []
    for k, c in ((0, Fraction(-3, 7)), (1, Fraction(5, 2)),
                 (degree, Fraction(1)), (n - 1, Fraction(-2)),
                 (n // 2 + 1, Fraction(4, 9))):
        poly = power(k) * rational(c)
        units.append((Cyclo.q_power(n, k).scaled(c), poly))
        units.append((Cyclo(n, [0] * k + [c]), poly))
    dense = []
    for _ in range(2):
        cs = _random_coeffs(rng, degree)
        dense.append((Cyclo(n, cs), _as_poly(sympy, x, cs)))
    assert all(_is_unit(u) for u, _ in units)
    # at n = 2 every nonzero element is rational, so a unit
    assert all(_is_unit(a) == (n == 2) for a, _ in dense)

    operands = units[::2] + dense
    for a, pa in operands:
        derived = [a.inverse(), a.conj(), a.scaled(Fraction(-5, 3)), -a]
        check(derived[0], pa.invert(phi))
        check(derived[1], pa.compose(power(n - 1)))
        check(derived[2], pa * sympy.Rational(-5, 3))
        check(derived[3], -pa)
        for j in (1, n // 2, n - 1):
            derived.append(a._times_q(j))
            check(derived[-1], pa * power(j))
        assert all(_is_unit(d) == _is_unit(a) for d in derived)
        for b, pb in operands:
            check(a * b, pa * pb)
            check(a + b, pa + pb)
            check(a - b, pa - pb)
            if _is_unit(a) != _is_unit(b):
                assert not _is_unit(a * b)

    # products and sums that cancel to a unit or to zero
    for u, pu in units:
        check(u, pu)
        for a, pa in dense:
            b = u * a.inverse()
            check(a * b, pu)
            check(a + (u - a), pu)
            assert _is_unit(a * b) and _is_unit(a + (u - a))
        for zero in (u - u, u + (-u), u + u.scaled(-1)):
            assert not zero and zero == Cyclo.zero(n)
        assert _is_unit(u + u) and u + u == u.scaled(2)
    # with p the least prime factor of n and m = n/p, the units q^(j*m),
    # j < p, sum to zero: 1 + q = -q^2 at n = 3
    p = min(f for f in range(2, n + 1) if n % f == 0)
    m = n // p
    partial = Cyclo.zero(n)
    for j in range(p - 1):
        partial = partial + Cyclo.q_power(n, j * m)
    check(partial, -power((p - 1) * m))
    assert _is_unit(partial)
    assert partial == -Cyclo.q_power(n, (p - 1) * m)
    assert not partial + Cyclo.q_power(n, (p - 1) * m)

    # construction from more coefficients than phi(n)
    for _ in range(3):
        long = _random_coeffs(rng, degree + rng.randint(1, 3 * n))
        check(Cyclo(n, long), _as_poly(sympy, x, long))
    for k in (-1, -n - 2, 2 * n + 1, 10 * n + 3, 1):
        check(Cyclo.q_power(n, k), power(k) if k >= 0
              else power(-k).invert(phi))


def test_coeffs_are_fractions_and_display_is_stable():
    x = Cyclo(5, [1, Fraction(-2, 3), 0, 1])
    assert isinstance(x.coeffs, tuple)
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == (1, Fraction(-2, 3), 0, 1)
    assert str(x) == "1 - 2/3*q + q^3"
    assert repr(x) == "Cyclo(5, 1 - 2/3*q + q^3)"
    assert repr(Cyclo(3, [-1, -1])) == "Cyclo(3, -1 - q)"
    assert repr(Cyclo.zero(4)) == "Cyclo(4, 0)"
    assert Cyclo.zero(4).coeffs == (Fraction(0), Fraction(0))
    assert str(Cyclo(7, [0, 1, 0, 0, 0, 0, 0, 5])) == "5 + q"
    assert str(Cyclo(6, [Fraction(3, 4), -1])) == "3/4 - q"
    assert repr(Cyclo.q_power(12, -5)) == "Cyclo(12, -q)"
    assert repr((Scalar.q(4) + Scalar.one(4)) * Scalar.s(4, 1)
                * Scalar.u(4, -2)) == "Scalar(4, (1 + q)*s1*u^-2)"
    y = (Scalar.s(3, 2, -2) * Scalar(3, {(0, 0, 0): Cyclo(3, [Fraction(1, 2)])})
         - Scalar.q(3, 2) * Scalar.s(3, 1))
    assert str(y) == "1/2*s2^-2 + (1 + q)*s1"


def test_canonical_form_gives_exact_equality_and_hash():
    pairs = [
        (Cyclo(3, [1, 1, 1]), Cyclo.zero(3)),
        (Cyclo(4, [Fraction(2, 4), 0, Fraction(1, 2)]), Cyclo.zero(4)),
        (Cyclo(6, [Fraction(6, 4), Fraction(3, 9)]),
         Cyclo(6, [Fraction(3, 2), Fraction(1, 3)])),
        (Cyclo(5, [2, 4]) * Cyclo.from_rational(5, Fraction(1, 2)),
         Cyclo(5, [1, 2])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert Cyclo(5, [1, 2]) != Cyclo(5, [Fraction(1, 2), 1])


def _oracle_str(coeffs):
    """``Cyclo.__str__`` as it was when every element was stored dense,
    read from Fraction coefficients: the bytes every report pins."""
    parts = []
    for k, a in enumerate(coeffs):
        if not a:
            continue
        if k == 0:
            parts.append(str(a))
        else:
            base = "q" if k == 1 else f"q^{k}"
            if a == 1:
                parts.append(base)
            elif a == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{a}*{base}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _same(values):
    first = values[0]
    text = _oracle_str(first.coeffs)
    for v in values:
        assert v == first and hash(v) == hash(first)
        assert v.coeffs == first.coeffs
        assert str(v) == text
        assert repr(v) == f"Cyclo({first.level}, {text})"


@pytest.mark.parametrize("n", range(2, 17))
def test_every_route_to_a_unit_gives_one_canonical_form(n):
    degree = len(cyclotomic_polynomial(n)) - 1
    dense = Cyclo(n, [2, 1]) if degree > 1 else None
    if dense is not None:
        assert not _is_unit(dense)
        dense_inverse = dense.inverse()
        _same([dense, Cyclo(n, [2, 1] + [0] * 3 * n), -(-dense),
               dense.inverse().inverse(), dense.conj().conj(),
               dense.scaled(-1).scaled(-1), dense * Cyclo.one(n)])
    for k in range(n):
        for c in (1, -1, Fraction(-3, 4), 5):
            q = Cyclo.q_power(n, k)
            unit = q.scaled(c)
            routes = [
                unit,
                Cyclo(n, [0] * k + [c]),
                Cyclo(n, [0] * (k + 2 * n) + [c, 0, 0]),
                Cyclo.q_power(n, k - n).scaled(c),
                Cyclo.q_power(n, k + 7 * n).scaled(c),
                Cyclo.q_power(n, k // 2) * Cyclo.q_power(n, k - k // 2)
                .scaled(c),
                Cyclo.one(n).scaled(c)._times_q(k),
                (unit + unit) - unit,
                unit.scaled(2) - unit,
                unit.inverse().inverse(),
                unit.scaled(-1).scaled(-1),
                (-unit).scaled(-1),
                -(-unit),
                unit.conj().conj(),
                Cyclo.q_power(n, -k).scaled(c).conj(),
            ]
            if k == 0:
                routes.append(Cyclo.from_rational(n, c))
            if dense is not None:
                routes += [(unit + dense) - dense,
                           (unit * dense) * dense_inverse,
                           dense_inverse * (dense * unit)]
                assert not _is_unit(unit * dense)
                assert str(unit + dense) == _oracle_str((unit + dense).coeffs)
            assert all(_is_unit(r) for r in routes)
            _same(routes)
        # denominators that cancel or add, from odd and even n and every
        # k, also those at or above the fold: a product of two scaled units,
        # a sum of equal powers, and a rescale back to the plain power
        half, third = (Cyclo.q_power(n, k).scaled(Fraction(1, c))
                       for c in (2, 3))
        _same([half, Cyclo.q_power(n, k + 1).scaled(Fraction(2, 3))
               * Cyclo.q_power(n, n - 1).scaled(Fraction(3, 4))])
        _same([Cyclo.q_power(n, k).scaled(Fraction(5, 6)), half + third])
        _same([Cyclo.q_power(n, k),
               Cyclo.q_power(n, k).scaled(Fraction(2, 3))
               .scaled(Fraction(3, 2))])
        _same([unit - unit, Cyclo.zero(n), Cyclo(n, [0] * (k + 1)),
               unit.scaled(0), unit * Cyclo.zero(n), half - half,
               third.scaled(0)])


def test_even_levels_fold_the_half_turn_into_the_sign():
    for n in (2, 4, 6, 10, 12):
        half = n // 2
        for k in range(n):
            folded = Cyclo.q_power(n, k)
            assert folded == Cyclo.q_power(n, k - half).scaled(-1)
            assert folded._k == k % half
            assert folded._num == (-1 if k >= half else 1)
    # at n = 2, q = -1 is rational
    assert Cyclo.q_power(2, 1) == Cyclo.from_rational(2, -1)
    assert Cyclo.q_power(2, 1)._k == 0


def test_unit_products_never_reach_the_dense_convolution(monkeypatch,
                                                          fresh_caches):
    # counts calls, not time: every coefficient of these suites is a unit,
    # and a unit times a dense element only rotates and rescales it
    from grassq import scalars
    from grassq.suites import run_suite

    calls = []
    plain_product = scalars._product

    def counting_product(t, a, b):
        calls.append(t.n)
        return plain_product(t, a, b)

    monkeypatch.setattr(scalars, "_product", counting_product)
    dense = Cyclo(5, [1, 2])
    assert dense * dense == Cyclo(5, [1, 4, 4]) and calls == [5]
    calls.clear()
    unit = Cyclo.q_power(5, 3).scaled(Fraction(-2, 3))
    assert unit * dense == dense * unit == Cyclo(5, [0, 0, 0, -2, -4]).scaled(
        Fraction(1, 3))
    assert calls == []
    run_suite("coherent", (31, 31), max_n=31)
    for n in (8, 11):
        run_suite("all", (n, n), max_n=n)
    assert calls == []


def test_q_power_checks_the_level_like_the_constructor():
    for level in (1, 0, -3):
        for build in (lambda: Cyclo.q_power(level, 1),
                      lambda: Cyclo.q_power(level, 0),
                      lambda: Cyclo(level, [1]),
                      lambda: OpExpr(level, {}),
                      lambda: make_coherent(level),
                      lambda: make_ladder(level)):
            with pytest.raises(ValueError, match="^level must be at least 2$"):
                build()


# Every constructor reads its level through the field table, so a numpy
# integer level never reaches the key arithmetic, a second table or a
# stored level.

def test_a_numpy_level_builds_the_key_its_int_builds():
    s1 = Scalar.s(np.int64(3), 1)
    assert s1 == Scalar.s(3, 1) and str(s1) == "s1"
    assert Scalar.s(np.int64(40), 1) == Scalar.s(40, 1)


def test_a_numpy_level_shares_its_int_table():
    from grassq import scalars
    Cyclo(5, [1, 2])
    tables = scalars._table.cache_info().currsize
    assert Cyclo(np.int64(5), [1, 2]) == Cyclo(5, [1, 2])
    assert scalars._table.cache_info().currsize == tables


def test_a_numpy_level_is_stored_as_an_int():
    three = np.int64(3)
    for built in (Cyclo(three, [1, 2]), Scalar.s(three, 2),
                  Scalar(three, {(0, 1, 0): Cyclo.one(3)}),
                  OpExpr(three, {}), closed_form_weight(three)):
        assert type(built.level) is int, type(built).__name__


def test_floats_are_refused_on_the_symbolic_path():
    unit, dense = Cyclo.q_power(5, 2), Cyclo(5, [1, 2])
    for bad in (0.1, 1.0, 1j, complex(2, 0)):
        with pytest.raises(TypeError, match="int or Fraction"):
            Cyclo(5, [1, bad])
        with pytest.raises(TypeError, match="int or Fraction"):
            Cyclo.from_rational(5, bad)
        for value in (unit, dense):
            with pytest.raises(TypeError, match="int or Fraction"):
                value.scaled(bad)
    assert Cyclo(5, [Fraction(1, 10), 3]) == Cyclo(5, [1, 30]).scaled(
        Fraction(1, 10))
    assert unit.scaled(3) == unit.scaled(Fraction(6, 2))
