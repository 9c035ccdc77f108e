import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grassq.errors import EngineError, LevelMismatchError
from grassq.galg import GExpr
from grassq.opalg import OpExpr
from grassq.scalars import (Cyclo, Scalar, cyclotomic_polynomial,
                            rho_factorial, rho_factorial_inverse)

from conftest import random_scalar


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


def test_level_mismatch_raises():
    cases = [
        (Scalar.one, lambda a, b: a * b),
        (Scalar.one, lambda a, b: a + b),
        (Scalar.one, lambda a, b: a - b),
        (GExpr.one, lambda a, b: a + b),
        (GExpr.one, lambda a, b: a - b),
        (GExpr.one, lambda a, b: a * b),
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


@settings(max_examples=60, deadline=None)
@given(scalar_triples(), st.floats(0, 6.28))
def test_eval_is_ring_homomorphism(triple, angle):
    a, b, _ = triple
    rho = [2.0, 3.0, 0.5, 1.25][:a.level - 1]
    u = cmath.exp(1j * angle)
    lhs = (a * b).eval(rho, u)
    rhs = a.eval(rho, u) * b.eval(rho, u)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale
    lhs = (a + b).eval(rho, u)
    rhs = a.eval(rho, u) + b.eval(rho, u)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_eval_examples():
    assert abs(Scalar.q(4).eval([1, 1, 1]) - 1j) < 1e-12
    # rho_1! / rho_2 at rho = (2, 8) is 0.25
    expr = rho_factorial(3, 1) * Scalar.s(3, 2, -2)
    assert abs(expr.eval([2, 8]) - 0.25) < 1e-12
    assert Scalar.zero(3).eval([1, 1]) == 0


def test_eval_input_validation():
    with pytest.raises(ValueError):
        Scalar.s(3, 1).eval([-1, 2])
    with pytest.raises(ValueError):
        Scalar.s(3, 1).eval([1, 2], u_value=1.1)
    with pytest.raises(ValueError):
        Scalar.s(3, 2).eval([2])  # missing value for rho_2
    # rho must convert to a finite float > 0
    for bad in (float("inf"), float("nan"), Fraction(10**400),
                Fraction(1, 10**400), 0):
        with pytest.raises(ValueError):
            Scalar.s(3, 1).eval([bad, 2])


def test_rho_factorial():
    assert rho_factorial(4, 0) == Scalar.one(4)
    expected = Scalar(4, {(2, 2, 0, 0): Cyclo.one(4)})
    assert rho_factorial(4, 2) == expected
    assert rho_factorial(4, 2) * rho_factorial_inverse(4, 2) == Scalar.one(4)
    with pytest.raises(ValueError):
        rho_factorial(3, 3)


def test_monomial_inverse_only_for_monomials():
    x = Scalar.q(3) * Scalar.s(3, 1, 2) * Scalar.u(3, -1)
    assert x * x.monomial_inverse() == Scalar.one(3)
    with pytest.raises(EngineError):
        (Scalar.one(3) + Scalar.s(3, 1)).monomial_inverse()


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
        _same([unit - unit, Cyclo.zero(n), Cyclo(n, [0] * (k + 1)),
               unit.scaled(0), unit * Cyclo.zero(n)])


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


def test_unit_products_never_reach_the_dense_convolution(monkeypatch):
    # counts calls, not time: every coefficient of these suites is a unit,
    # and a unit times a dense element only rotates and rescales it
    from grassq import coherent, scalars
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
    coherent._build_coherent.cache_clear()
    run_suite("coherent", (31, 31), max_n=31)
    for n in (8, 11):
        run_suite("all", (n, n), max_n=n)
    assert calls == []


def test_q_power_checks_the_level_like_the_constructor():
    for level in (1, 0, -3):
        for build in (lambda: Cyclo.q_power(level, 1),
                      lambda: Cyclo.q_power(level, 0),
                      lambda: Cyclo(level, [1])):
            with pytest.raises(ValueError, match="^level must be at least 2$"):
                build()


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
