"""Exact coefficient arithmetic for the graded engine.

Every symbolic coefficient lives in the ring

    Q(q)[s_1, 1/s_1, ..., s_{n-1}, 1/s_{n-1}, u, 1/u]

where ``q`` is a primitive n-th root of unity represented exactly in
Q[x]/Phi_n(x) (Phi_n the n-th cyclotomic polynomial), ``s_i`` stands for
sqrt(rho_i) with rho_i a positive real parameter, and ``u`` is a
unimodular evolution phase.  Conjugation fixes the s_i, sends q to
q^(n-1) and u to 1/u.

Working modulo the cyclotomic polynomial (rather than x^n - 1) keeps the
coefficient domain a field in q, so equality with zero is decidable and
exact.  Floats appear only in :meth:`Scalar.eval`.

An element of Q(q) is held in one of two forms, and a unit is always in
unit form.  A unit +-c*q^k, c rational, is (k, signed int numerator,
positive int denominator), with k taken mod n and, for even n, below n/2:
q^(n/2) = -1 folds each half-turn into the sign, and at n = 2, q = -1 is
rational.  Every other element is dense: integer numerators over one
positive integer denominator, the coordinates of its residue modulo Phi_n
in the basis 1, q, ..., q^(phi(n)-1), with the denominator coprime to the
numerators together.  Both forms are canonical, so ``==`` and ``hash`` are
exact.  One table per level, built once from the monic integer Phi_n,
holds x^k mod Phi_n for k < phi(n) + n and the vectors of +-q^k.

On units, a product, a phase multiply, conjugation, the inverse, a
rescale and a sum of two equal powers are integer arithmetic in O(1).  A
unit times a dense element is one rotation through the table and a
rescale; units form a group, so it is dense, as are the conjugate,
inverse, phase multiple and rescale of a dense element.  Only the
constructor, the other sums and products of two dense elements can land
on a unit, and each looks its result up in the table once.  A dense
product is an integer convolution whose high degrees fold back through
the table; a dense element is inverted through the product of its other
Galois conjugates, which times the element is its rational norm.  The
dense numerators of a unit are formed only for a sum with a dense
element or another power, and for ``coeffs``; ``str`` and ``eval`` read
the unit's table row with ints.  The constructor and ``Cyclo.scaled``
refuse float and complex values.

Every symbolic quantity above the field is a sparse formal sum: a
:class:`Scalar` maps symbol exponents to ``Cyclo`` coefficients, a
``galg.GExpr`` maps words to Scalars and an ``opalg.OpExpr`` maps
(word, dyad) pairs to Scalars.  All three share one core here: the
constructor that drops zero values (and a private one, ``_wrap``, for
dicts already known to hold none), the level check, ``+``, ``-``,
``is_zero`` and ``==``, and one merge that adds (key, value) pairs into a
dict and drops each sum that vanishes.  Every product and integral in
the engine accumulates its terms through that merge.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from operator import add
from typing import Iterable, Sequence, Union

from .errors import EngineError, LevelMismatchError

Rational = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first.

    Computed from x^n - 1 by exact division through the polynomials of
    the proper divisors of n.
    """
    if n < 1:
        raise ValueError("cyclotomic level must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _divide_monic(num, [int(c) for c in cyclotomic_polynomial(d)])
    return tuple(Fraction(c) for c in num)


def _divide_monic(a: list[int], b: list[int]) -> list[int]:
    """The exact quotient a / b of integer polynomials, b monic."""
    a = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(quot))):
        f = quot[shift] = a[shift + len(b) - 1]
        if f:
            for i, bi in enumerate(b):
                a[shift + i] -= f * bi
    if any(a):
        raise EngineError("cyclotomic division left a remainder")
    return quot


# ---------------------------------------------------------------------------
# the per-level table and the integer kernel
# ---------------------------------------------------------------------------

class _Table:
    """x^k mod Phi_n for one level n.

    ``powers[k]`` is the coordinate vector of x^k for k < phi(n) + n and
    ``rows[k]`` its nonzero (index, value) pairs.  A unit +-c*q^k keeps k
    below ``period``: n/2 for even n, where q^(n/2) = -1 and ``fold`` = -1
    turns each half-turn into a sign, else n, with ``fold`` = 1.
    ``phases`` maps the vector of +-q^k, k < period, to (sign, k).  Those
    vectors are primitive (q^k is a unit of Z[q]), so a vector divided by
    the gcd of its entries is a key exactly when it is +-c*q^k.
    """

    __slots__ = ("n", "degree", "powers", "rows", "period", "fold", "phases",
                 "zero")

    def __init__(self, n: int):
        phi = [int(c) for c in cyclotomic_polynomial(n)]
        d = len(phi) - 1
        vec = [1] + [0] * (d - 1)
        powers = []
        for _ in range(d + n):
            powers.append(tuple(vec))
            # x * vec, with x^d replaced by -(phi_0 + ... + phi_{d-1} x^(d-1))
            top = vec[-1]
            vec = [0] + vec[:-1]
            if top:
                vec = [v - top * p for v, p in zip(vec, phi)]
        self.n = n
        self.degree = d
        self.powers = powers
        self.rows = [tuple((i, c) for i, c in enumerate(p) if c)
                     for p in powers]
        self.period, self.fold = (n // 2, -1) if n % 2 == 0 else (n, 1)
        self.phases: dict[tuple[int, ...], tuple[int, int]] = {}
        for k in range(self.period):
            self.phases[powers[k]] = (1, k)
            self.phases[tuple(-c for c in powers[k])] = (-1, k)
        self.zero = (0,) * d


_table = lru_cache(maxsize=None)(_Table)


def _field(level: int) -> _Table:
    if level < 2:
        raise ValueError("level must be at least 2")
    return _table(level)


def _reduce(t: _Table, raw: Sequence[int]) -> list[int]:
    """Integer coefficients of any length reduced modulo Phi_n."""
    d, n, rows = t.degree, t.n, t.rows
    out = list(raw[:d]) + [0] * (d - len(raw))
    for m in range(d, len(raw)):
        c = raw[m]
        if c:
            for i, r in rows[m % n]:
                out[i] += c * r
    return out


def _product(t: _Table, a: Sequence[int], b: Sequence[int]) -> list[int]:
    d, rows = t.degree, t.rows
    out = [0] * (2 * d - 1)
    bnz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bnz:
                out[i + j] += x * y
    for m in range(d, 2 * d - 1):
        c = out[m]
        if c:
            for i, r in rows[m]:
                out[i] += c * r
    del out[d:]
    return out


def _rotate(t: _Table, a: Sequence[int], k: int) -> tuple[int, ...]:
    """a * q^k for 0 <= k < n."""
    d, rows = t.degree, t.rows
    out = [0] * d
    for j, x in enumerate(a):
        if x:
            m = j + k
            if m < d:
                out[m] += x
            else:
                for i, r in rows[m]:
                    out[i] += x * r
    return tuple(out)


def _substitute(t: _Table, a: Sequence[int], j: int) -> list[int]:
    """The Galois image q -> q^j of a, for j coprime to n."""
    n, rows = t.n, t.rows
    out = [0] * t.degree
    for i, x in enumerate(a):
        if x:
            for p, r in rows[i * j % n]:
                out[p] += x * r
    return out


def _new(t: _Table, k: int | None, num, den: int) -> "Cyclo":
    """Wrap a canonical form without checks: ``k`` is None and ``num`` a
    tuple for a dense element, else 0 <= k < t.period and ``num`` an int."""
    c = object.__new__(Cyclo)
    c.level, c._t, c._k, c._num, c._den = t.n, t, k, num, den
    return c


def _unit(t: _Table, k: int, a: int, den: int) -> "Cyclo":
    """a/den * q^k for any integer k, with a != 0 and a/den in lowest terms."""
    k %= t.n
    if k >= t.period:
        k -= t.period
        a *= t.fold
    return _new(t, k, a, den)


def _scaled_unit(t: _Table, k: int, a: int, den: int) -> "Cyclo":
    """a/den * q^k for 0 <= k < t.period and any a, den > 0."""
    if not a:
        return _new(t, None, t.zero, 1)
    if den != 1:
        g = gcd(a, den)
        if g != 1:
            return _new(t, k, a // g, den // g)
    return _new(t, k, a, den)


def _lowest(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """num / den for any den > 0, with the common factor divided out."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(a // g for a in num), den // g
    return tuple(num), den


def _classify(t: _Table, num: tuple[int, ...], den: int) -> tuple:
    """The canonical form (k, num, den) of num / den in lowest terms: one
    lookup in ``t.phases`` sends a unit to unit form."""
    g = gcd(*num)
    if g:
        hit = t.phases.get(num if g == 1 else tuple(a // g for a in num))
        if hit is not None:
            sign, k = hit
            return k, sign * g, den
    return None, num, den


def _looked_up(t: _Table, num: Sequence[int], den: int) -> "Cyclo":
    """num / den for any den > 0, in unit form when it is a unit."""
    return _new(t, *_classify(t, *_lowest(num, den)))


def _dense(t: _Table, num: Sequence[int], den: int) -> "Cyclo":
    """num / den for any den > 0, known to be zero or not a unit."""
    return _new(t, None, *_lowest(num, den))


def _exact(c):
    """c as an int or a Fraction: a float has no place on a symbolic path."""
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, (float, complex)):
        raise TypeError(f"cyclotomic coefficients must be int or Fraction, "
                        f"got {type(c).__name__} {c!r}")
    return Fraction(c)


# ---------------------------------------------------------------------------
# elements of Q(q)
# ---------------------------------------------------------------------------

class Cyclo:
    """An element of Q(q) with q a primitive ``level``-th root of unity.

    A unit +-c*q^k is stored as (k, signed int numerator, positive int
    denominator), k below ``_Table.period``; ``_k`` is None for every other
    element, which is stored as the unique residue modulo Phi_level of
    degree below phi(level), as integer numerators over one denominator.
    ``coeffs`` gives the residue's coefficients as Fractions in both forms.
    Supports field arithmetic, conjugation (q -> q^(level-1)) and numeric
    evaluation at q = exp(2*pi*i/level).
    """

    __slots__ = ("level", "_t", "_k", "_num", "_den")

    def __init__(self, level: int, coeffs: Sequence[Rational]):
        t = _field(level)
        cs = [_exact(c) for c in coeffs]
        self.level, self._t = level, t
        if len(cs) == 1 and cs[0]:
            # a nonzero rational is c*q^0, and already in lowest terms
            c, = cs
            self._k, self._num, self._den = 0, c.numerator, c.denominator
            return
        den = lcm(*(c.denominator for c in cs))
        num = _reduce(t, [c.numerator * (den // c.denominator) for c in cs])
        self._k, self._num, self._den = _classify(t, *_lowest(num, den))

    def _coords(self) -> tuple[int, ...]:
        """The residue's numerators over ``_den``, in both forms."""
        if self._k is None:
            return self._num
        a, p = self._num, self._t.powers[self._k]
        return p if a == 1 else tuple(a * x for x in p)

    def _pairs(self) -> Iterable[tuple[int, int]]:
        """(index, numerator) of the residue's nonzero coefficients."""
        if self._k is None:
            return ((i, a) for i, a in enumerate(self._num) if a)
        a = self._num
        return ((i, a * r) for i, r in self._t.rows[self._k])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._coords())

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "Cyclo":
        return cls(level, [])

    @classmethod
    def one(cls, level: int) -> "Cyclo":
        return cls(level, [1])

    @classmethod
    def from_rational(cls, level: int, value: Rational) -> "Cyclo":
        return cls(level, [value])

    @classmethod
    def q_power(cls, level: int, k: int) -> "Cyclo":
        """q**k reduced to canonical form; k may be any integer."""
        return _unit(_field(level), k, 1, 1)

    # -- ring/field operations ---------------------------------------------

    def _check(self, other: "Cyclo") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"cannot mix levels {self.level} and {other.level}")

    def _sum(self, other: "Cyclo", sign: int) -> "Cyclo":
        self._check(other)
        t, k = self._t, self._k
        da, db = self._den, other._den
        if k is not None and k == other._k:
            if da == db:
                return _scaled_unit(t, k, self._num + sign * other._num, da)
            return _scaled_unit(t, k, self._num * db + sign * other._num * da,
                                da * db)
        x, y = self._coords(), other._coords()
        if da == db:
            return _looked_up(t, [u + sign * v for u, v in zip(x, y)], da)
        return _looked_up(t, [u * db + sign * v * da for u, v in zip(x, y)],
                          da * db)

    def __add__(self, other: "Cyclo") -> "Cyclo":
        return self._sum(other, 1)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self._sum(other, -1)

    def __neg__(self) -> "Cyclo":
        if self._k is None:
            return _new(self._t, None, tuple(-a for a in self._num), self._den)
        return _new(self._t, self._k, -self._num, self._den)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        t, k, j = self._t, self._k, other._k
        if k is None:
            if j is None:
                return _looked_up(t, _product(t, self._num, other._num),
                                  self._den * other._den)
            return other._times_dense(self)
        if j is None:
            return self._times_dense(other)
        k += j
        a = self._num * other._num
        if k >= t.period:
            k -= t.period
            a *= t.fold
        return _scaled_unit(t, k, a, self._den * other._den)

    def _times_dense(self, x: "Cyclo") -> "Cyclo":
        """The unit self times the dense x: one rotation and a rescale.
        Units form a group, so the product is dense and needs no lookup."""
        num = _rotate(x._t, x._num, self._k)
        if self._num != 1:
            num = [self._num * v for v in num]
        return _dense(x._t, num, self._den * x._den)

    def _times_q(self, k: int) -> "Cyclo":
        """self * q**k for 0 <= k < level, in the form of self."""
        t = self._t
        if self._k is None:
            return _new(t, None, _rotate(t, self._num, k), self._den)
        return _unit(t, self._k + k, self._num, self._den)

    def scaled(self, factor: Rational) -> "Cyclo":
        f = _exact(factor)
        p, q = f.numerator, f.denominator
        if self._k is None:
            return _dense(self._t, [a * p for a in self._num], self._den * q)
        return _scaled_unit(self._t, self._k, self._num * p, self._den * q)

    def inverse(self) -> "Cyclo":
        t, num, den = self._t, self._num, self._den
        if self._k is not None:
            # (a/den * q^k)^-1 = den/a * q^-k
            return _unit(t, -self._k, den if num > 0 else -den, abs(num))
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # a^-1 = (product of the other Galois conjugates of a) / norm(a)
        rest = [1] + [0] * (t.degree - 1)
        for j in range(2, t.n):
            if gcd(j, t.n) == 1:
                rest = _product(t, rest, _substitute(t, num, j))
        norm = _product(t, num, rest)
        if any(norm[1:]):
            raise EngineError("norm of a cyclotomic element is not rational")
        # built by the constructor, which random-algebra's MUST_HIT list in
        # perfbench/workloads.py traces as Cyclo.new
        return Cyclo(self.level, rest).scaled(Fraction(den, norm[0]))

    def conj(self) -> "Cyclo":
        """The field automorphism q -> q^(level-1), an involution."""
        t = self._t
        if self._k is None:
            return _new(t, None, tuple(_substitute(t, self._num, t.n - 1)),
                        self._den)
        return _unit(t, -self._k, self._num, self._den)

    # -- predicates, hashing, display ---------------------------------------

    def __bool__(self) -> bool:
        return self._k is not None or any(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self.level == other.level and self._k == other._k
                and self._num == other._num and self._den == other._den)

    def __hash__(self) -> int:
        return hash((self.level, self._k, self._num, self._den))

    def eval(self) -> complex:
        # term by term over the residue, so a unit sums the same floats in
        # the same order as its dense form would
        root = cmath.exp(2j * cmath.pi / self.level)
        acc = 0j
        for k, a in self._pairs():
            acc += complex(a / self._den) * root ** k
        return acc

    def __str__(self) -> str:
        den, parts = self._den, []
        for k, a in self._pairs():
            g = gcd(a, den)
            c = f"{a // g}" if g == den else f"{a // g}/{den // g}"
            if k == 0:
                parts.append(c)
            else:
                base = "q" if k == 1 else f"q^{k}"
                if c == "1":
                    parts.append(base)
                elif c == "-1":
                    parts.append(f"-{base}")
                else:
                    parts.append(f"{c}*{base}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Cyclo({self.level}, {self})"


# ---------------------------------------------------------------------------
# the sparse-sum core shared by Scalar, GExpr and OpExpr
# ---------------------------------------------------------------------------

def _accumulate(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, value) pairs into ``acc``, dropping each sum that vanishes."""
    for key, value in pairs:
        prev = acc.get(key)
        if prev is not None:
            value = prev + value
        if value:
            acc[key] = value
        elif prev is not None:
            del acc[key]
    return acc


class _SparseSum:
    """A formal sum at one level: ``terms`` maps keys to nonzero values.

    The empty map is zero.  Operations return new values; instances are
    never mutated after construction.  Sums of different types never
    compare equal.
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: dict | None = None):
        if level < 2:
            raise ValueError("level must be at least 2")
        self.level = level
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _wrap(cls, level: int, terms: dict):
        """``terms`` as is, unfiltered and unchecked: for a dict whose values
        are all known to be nonzero, such as a result of ``_accumulate``."""
        s = object.__new__(cls)
        s.level, s.terms = level, terms
        return s

    @classmethod
    def zero(cls, level: int):
        return cls(level)

    def _check(self, other: "_SparseSum") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"cannot mix levels {self.level} and {other.level}")

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.level,
                          _accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap(self.level, {k: -v for k, v in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.level == other.level and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.level}, {self})"


# ---------------------------------------------------------------------------
# Laurent ring over Q(q)
# ---------------------------------------------------------------------------

class Scalar(_SparseSum):
    """Exact coefficient: Laurent polynomial in s_1..s_{n-1}, u over Q(q).

    ``terms`` maps an exponent tuple (e_1, ..., e_{n-1}, e_u) to a nonzero
    Cyclo coefficient.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, level: int) -> "Scalar":
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value: Rational) -> "Scalar":
        return cls.from_cyclo(Cyclo.from_rational(level, value))

    @classmethod
    def from_cyclo(cls, c: Cyclo) -> "Scalar":
        return cls(c.level, {(0,) * c.level: c})

    @classmethod
    def q(cls, level: int, power: int = 1) -> "Scalar":
        return cls.from_cyclo(Cyclo.q_power(level, power))

    @classmethod
    def s(cls, level: int, index: int, power: int = 1) -> "Scalar":
        """The symbol s_index, standing for sqrt(rho_index)."""
        if not 1 <= index <= level - 1:
            raise ValueError(f"s_{index} does not exist at level {level}")
        return cls._monomial(level, (index - 1,), power)

    @classmethod
    def u(cls, level: int, power: int = 1) -> "Scalar":
        """The unimodular evolution phase symbol."""
        return cls._monomial(level, (level - 1,), power)

    @classmethod
    def _monomial(cls, level: int, slots: Iterable[int], power: int) -> "Scalar":
        """Each symbol at ``slots`` (s_i at i - 1, u at level - 1) to ``power``."""
        key = [0] * level
        for i in slots:
            key[i] = power
        return cls(level, {tuple(key): Cyclo.one(level)})

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "Scalar | Rational") -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar(self.level,
                          {k: v.scaled(other) for k, v in self.terms.items()})
        self._check(other)
        return Scalar._wrap(self.level, _accumulate({}, (
            (tuple(map(add, k1, k2)), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def mul_q_power(self, k: int) -> "Scalar":
        """Multiply by q**k; the common fast path for exchange phases."""
        k %= self.level
        if not k:
            return self
        return Scalar._wrap(self.level, {key: c._times_q(k)
                                         for key, c in self.terms.items()})

    def conj(self) -> "Scalar":
        """Conjugation: q -> q^(n-1), s_i fixed, u -> 1/u."""
        return Scalar(self.level, {key[:-1] + (-key[-1],): c.conj()
                                   for key, c in self.terms.items()})

    def monomial_inverse(self) -> "Scalar":
        """Inverse of a single-term Scalar; raises on anything else.

        Laurent monomials are the only units this ring exposes, which is
        all the exact solver ever needs.
        """
        if len(self.terms) != 1:
            raise EngineError("only single-term scalars are invertible here")
        (key, c), = self.terms.items()
        return Scalar(self.level, {tuple(-e for e in key): c.inverse()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- evaluation -----------------------------------------------------------

    def eval(self, rho_values: Sequence[Rational | float],
             u_value: complex = 1.0) -> complex:
        """Numeric value with s_i = sqrt(rho_values[i-1]) and u = u_value.

        Each rho value must convert to a finite float > 0, and u must sit
        on the unit circle to within 1e-9.
        """
        for i, r in enumerate(rho_values, start=1):
            if not finite_positive(r):
                raise ValueError(f"rho_{i} must be a finite float > 0, got {r}")
        if abs(abs(complex(u_value)) - 1.0) > 1e-9:
            raise ValueError(f"u must be unimodular, got |u| = {abs(u_value)}")
        sqrt_rho = [float(r) ** 0.5 for r in rho_values]
        acc = 0j
        for key, c in self.terms.items():
            val = c.eval()
            for i, e in enumerate(key[:-1]):
                if e:
                    if i >= len(sqrt_rho):
                        raise ValueError(f"no value supplied for rho_{i + 1}")
                    val *= sqrt_rho[i] ** e
            if key[-1]:
                val *= complex(u_value) ** key[-1]
            acc += val
        return acc

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            syms = []
            for i, e in enumerate(key[:-1], start=1):
                if e == 1:
                    syms.append(f"s{i}")
                elif e:
                    syms.append(f"s{i}^{e}")
            if key[-1] == 1:
                syms.append("u")
            elif key[-1]:
                syms.append(f"u^{key[-1]}")
            cs = str(c)
            if syms:
                if cs == "1":
                    parts.append("*".join(syms))
                    continue
                if cs == "-1":
                    parts.append("-" + "*".join(syms))
                    continue
                if "+" in cs or "-" in cs[1:]:
                    cs = f"({cs})"
            parts.append("*".join([cs] + syms) if syms else cs)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# rho helpers
# ---------------------------------------------------------------------------

def finite_positive(rho: Rational | float) -> bool:
    """Whether ``rho`` converts to a finite float > 0, as every rho must."""
    try:
        return 0.0 < float(rho) < inf
    except OverflowError:
        return False


def rho_factorial(level: int, k: int) -> Scalar:
    """rho_k! = rho_1 * rho_2 * ... * rho_k with rho_0! = 1, as s squares."""
    if k < 0 or k > level - 1:
        raise ValueError(f"rho_{k}! is outside the symbol range of level {level}")
    return Scalar._monomial(level, range(k), 2)


def rho_factorial_inverse(level: int, k: int) -> Scalar:
    return rho_factorial(level, k).monomial_inverse()
