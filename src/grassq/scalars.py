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
rescale and a sum of two equal powers are integer arithmetic in O(1),
and each ends in the one constructor of a unit, ``_unit``, which folds
the power and the half-turn and divides out the common factor.  A
unit times a dense element is one rotation through the table and a
rescale; units form a group, so it is dense, as are the conjugate,
inverse, phase multiple and rescale of a dense element.  Only the
constructor, the other sums and products of two dense elements can land
on a unit, and each looks its result up in the table once.  A dense
product is an integer convolution whose high degrees fold back through
``_reduce``, the same reduction the constructor applies to its input; a
dense element is inverted through the product of its other Galois
conjugates, which times the element is its rational norm.  The
dense numerators of a unit are formed only for a sum with a dense
element or another power, and for ``coeffs``; ``str`` and ``eval`` read
the unit's table row with ints.  The constructor and ``Cyclo.scaled``
refuse float and complex values.

``grassq verify all`` never reaches a dense x dense product, a dense
inverse or a dense conjugate: its coefficients are units, and only unit x
dense rotations occur.  Those paths are kept so that ``Scalar`` stays a
field for any caller; the perfbench ``random-algebra`` workload and the
sympy oracle in the tests exercise them.

Every symbolic quantity above the field is a sparse formal sum: a
:class:`Scalar` maps packed symbol exponents to ``Cyclo`` coefficients, a
``galg.GExpr`` maps words to Scalars and an ``opalg.OpExpr`` maps
(word, dyad) pairs to Scalars.  All three share one core here: the
constructor that drops zero values (and a private one, ``_wrap``, for
dicts already known to hold none), the operand check (``_same_level``:
the same type and the same level, which every binary operation of
``Cyclo`` and the sums runs), ``+``, ``-``, ``is_zero`` and ``==``, and
one merge that adds (key, value) pairs into a dict and drops each sum
that vanishes.  Every product and integral in the engine, and the
coherent-state and series builders, which grow a sum term by term,
accumulate their terms through that merge.  ``-`` is
its own merge: the values are canonical, so a key on both sides with
equal values is dropped by one comparison, and only a key whose values
differ forms a difference.  An exact check of ``lhs - rhs`` that holds
thus compares each term once and builds nothing.

A Scalar key is one non-negative int.  The exponents of s_1, ...,
s_{n-1} and u sit in 16-bit fields, s_1 most significant, each holding
e + 2^14 below its top bit, the guard bit, so int order is the order of
the exponent tuples and ``str`` lists terms as those sort.  A product of
two keys is their sum less the key of 1: one int addition for all n
exponents.  A field that leaves [0, 2^15) sets its guard bit, and a
borrow out of a field sets the guard bit of every field it passes
through, so one mask test after each product, inverse or conjugation
refuses an exponent outside [-2^14, 2^14) with ``EngineError`` before a
carry can reach its neighbour.  The layout lives on the per-level table,
which also names each field's symbol, ``s1`` to ``s{n-1}`` and ``u``, so
``str`` renders every field by one rule and ``eval`` reads every field in
one loop.  Only ``Scalar`` and the key helpers beside it read the layout;
the constructor packs exponent tuples and ``Scalar.monomials`` unpacks
them.

Every Scalar product is ``Scalar.__mul__(other, k=0)``, self * other *
q**k: ``*`` is its case k = 0, and an operator product calls it by name
to pass a term pair's phase.  Each pair of terms adds its keys and
multiplies its two coefficients with ``Cyclo``'s own product, which
takes the phase, so two units times q**k build one unit.  So every unit
product goes through ``Cyclo``: only ``Cyclo`` and the field helpers
above it read a unit's stored form or build one.  Two phases take no
product at all: ``mul_q_power`` rotates each coefficient by q**k, and
its twin ``mul_u_power``, the time evolution's u**k, adds k to each key,
since u is the least significant field, and keeps each coefficient as it
is.  ``Cyclo`` and ``Scalar`` write a coefficient times its symbols by
one rule, ``_times``.
"""

from __future__ import annotations

import cmath
import operator
import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
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

# A Scalar key holds one 16-bit field per symbol, the exponent e stored as
# e + _EXP_LIMIT below the field's top bit, its guard bit.
_FIELD_BITS = 16
_EXP_LIMIT = 1 << (_FIELD_BITS - 2)


class _Table:
    """x^k mod Phi_n for one level n.

    ``powers[k]`` is the coordinate vector of x^k for k < phi(n) + n and
    ``rows[k]`` its nonzero (index, value) pairs.  A unit +-c*q^k keeps k
    below ``period``: n/2 for even n, where q^(n/2) = -1 and ``fold`` = -1
    turns each half-turn into a sign, else n, with ``fold`` = 1.
    ``phases`` maps the vector of +-q^k, k < period, to (sign, k).  Those
    vectors are primitive (q^k is a unit of Z[q]), so a vector divided by
    the gcd of its entries is a key exactly when it is +-c*q^k.

    The ``key_*`` slots hold the layout of a Scalar key at this level
    (see :class:`Scalar`), and ``key_names`` names each field's symbol,
    ``("s1", ..., "s{n-1}", "u")``.
    """

    __slots__ = ("n", "degree", "powers", "rows", "period", "fold", "phases",
                 "zero", "key_ones", "key_bias", "key_guard", "key_fields",
                 "key_names")

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
        # the packed layout of a Scalar key at this level (see Scalar):
        # a 1 in each field, every exponent 0, every field's guard bit,
        # the reader of the fields, s_1 first, and each field's symbol
        self.key_ones = int.from_bytes(b"\0\1" * n, "big")
        self.key_bias = self.key_ones * _EXP_LIMIT
        self.key_guard = self.key_ones * (2 * _EXP_LIMIT)
        self.key_fields = struct.Struct(f">{n}H")
        self.key_names = tuple(f"s{i}" for i in range(1, n)) + ("u",)


_table = lru_cache(maxsize=None)(_Table)


def _field(level: int) -> _Table:
    """The table of ``level``: the one reader of a level a caller gives.

    Every constructor at a level (``Cyclo``, ``Scalar``, the sparse sums
    and the per-level caches of ``coherent``, ``opalg`` and ``suq2``)
    takes its level from here and stores the table's ``n``, a plain int.
    A numpy integer is read as its int, so it shares the int's table; a
    float is refused with ``TypeError`` and a level below 2 with
    ``ValueError``.
    """
    level = operator.index(level)
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
    """a * b: the integer convolution, folded back by ``_reduce``."""
    out = [0] * (2 * t.degree - 1)
    bnz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bnz:
                out[i + j] += x * y
    return _reduce(t, out)


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
    """a/den * q^k for any integer k, any int a and any den > 0: the one
    constructor of a unit, and zero when a is 0."""
    if not a:
        return _new(t, None, t.zero, 1)
    k %= t.n
    if k >= t.period:
        k -= t.period
        a *= t.fold
    if den != 1:
        g = gcd(a, den)
        if g != 1:
            a, den = a // g, den // g
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


def _q_exponent(k) -> int:
    """``k`` checked as a power of q: an int of any size, since a phase
    such as q**(i(i+1)) grows with the level."""
    if not isinstance(k, int):
        raise TypeError(f"a power of q must be an int, got "
                        f"{type(k).__name__} {k!r}")
    return k


def _same_level(a: Cyclo | _SparseSum, b: Cyclo | _SparseSum) -> None:
    """The operand check of every binary operation of ``Cyclo`` and the
    sparse sums, each of which binds it as ``_check``: an operand of
    another type is refused with ``TypeError`` and one of another level
    with ``LevelMismatchError``."""
    if type(a) is not type(b):
        raise TypeError(f"unsupported operand types: {type(a).__name__} "
                        f"and {type(b).__name__}")
    if a.level != b.level:
        raise LevelMismatchError(f"cannot mix levels {a.level} and {b.level}")


def _times(c: str, symbols: str) -> str:
    """The rendered coefficient ``c`` times ``symbols``, as ``Cyclo`` and
    ``Scalar`` write a term: a coefficient of 1 leaves the symbols, one of
    -1 their negation, and any other is written ``c*symbols``, bracketed
    when it holds a sum."""
    if c == "1":
        return symbols
    if c == "-1":
        return "-" + symbols
    if "+" in c or "-" in c[1:]:
        c = f"({c})"
    return f"{c}*{symbols}"


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
        self.level, self._t = t.n, t
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
        return _unit(_field(level), 0, 1, 1)

    @classmethod
    def from_rational(cls, level: int, value: Rational) -> "Cyclo":
        return cls(level, [value])

    @classmethod
    def q_power(cls, level: int, k: int) -> "Cyclo":
        """q**k reduced to canonical form; k may be any integer."""
        return _unit(_field(level), _q_exponent(k), 1, 1)

    # -- ring/field operations ---------------------------------------------

    _check = _same_level

    def _sum(self, other: "Cyclo", sign: int) -> "Cyclo":
        self._check(other)
        t, k = self._t, self._k
        da, db = self._den, other._den
        if k is not None and k == other._k:
            return _unit(t, k, self._num * db + sign * other._num * da,
                         da * db)
        x, y = self._coords(), other._coords()
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

    def __mul__(self, other: "Cyclo", phase: int = 0) -> "Cyclo":
        """self * other, turned by q**phase for 0 <= phase < level: two
        units make one unit, whatever the phase."""
        self._check(other)
        t, k, j = self._t, self._k, other._k
        if k is not None and j is not None:
            return _unit(t, k + j + phase, self._num * other._num,
                         self._den * other._den)
        if k is not None:
            c = self._times_dense(other)
        elif j is not None:
            c = other._times_dense(self)
        else:
            c = _looked_up(t, _product(t, self._num, other._num),
                           self._den * other._den)
        return c._times_q(phase) if phase else c

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
        return _unit(self._t, self._k, self._num * p, self._den * q)

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
            parts.append(_times(c, "q" if k == 1 else f"q^{k}") if k else c)
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
    compare equal, and every binary operation refuses them (``TypeError``,
    from ``_check``).
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: dict | None = None):
        self.level = _field(level).n
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

    _check = _same_level

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.level,
                          _accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        """``self + (-other)`` in one pass, in its term order.  Both sides
        are canonical, so a key whose two values are equal cancels
        exactly: it is dropped after one comparison, and no difference
        or negation is formed for it."""
        self._check(other)
        acc = dict(self.terms)
        for key, value in other.terms.items():
            prev = acc.get(key)
            if prev is None:
                acc[key] = -value
            elif prev == value:
                del acc[key]
            else:
                acc[key] = prev - value
        return self._wrap(self.level, acc)

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

def _exponent(e) -> int:
    """``e`` checked as a Scalar exponent: an int in [-_EXP_LIMIT, _EXP_LIMIT)."""
    if not isinstance(e, int):
        raise TypeError(f"a Scalar exponent must be an int, got "
                        f"{type(e).__name__} {e!r}")
    if not -_EXP_LIMIT <= e < _EXP_LIMIT:
        raise ValueError(f"a Scalar exponent must lie in [{-_EXP_LIMIT}, "
                         f"{_EXP_LIMIT}), got {e}")
    return e


def _pack(t: _Table, key) -> int:
    """The packed form of an exponent tuple (e_1, ..., e_{n-1}, e_u):
    ``_exponent`` checks each exponent, and its bound keeps each field
    below its guard bit."""
    if not isinstance(key, tuple):
        raise TypeError(f"a Scalar key must be a tuple of exponents, got "
                        f"{type(key).__name__} {key!r}")
    if len(key) != t.n:
        raise ValueError(f"a Scalar key at level {t.n} holds {t.n} "
                         f"exponents, got {len(key)}: {key!r}")
    return int.from_bytes(
        t.key_fields.pack(*[_exponent(e) + _EXP_LIMIT for e in key]), "big")


def _unpack(t: _Table, key: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key, read in one pass."""
    return tuple(f - _EXP_LIMIT for f in t.key_fields.unpack(
        key.to_bytes(t.key_fields.size, "big")))


def _guarded(t: _Table, key: int) -> int:
    """``key`` after a sum of keys, refused if an exponent left its field.

    A field that overflows sets its guard bit, and one that borrows below
    zero sets it too, as do the fields the borrow passes through; so no
    carry or borrow reaches a neighbouring exponent unseen."""
    if key & t.key_guard:
        raise EngineError(f"a Scalar exponent left [{-_EXP_LIMIT}, "
                          f"{_EXP_LIMIT})")
    return key


class Scalar(_SparseSum):
    """Exact coefficient: Laurent polynomial in s_1..s_{n-1}, u over Q(q).

    ``terms`` maps a packed key to a nonzero Cyclo coefficient.  The key
    of s_1^e_1 ... s_{n-1}^e_{n-1} u^e_u is one non-negative int: a
    16-bit field per symbol, s_1 most significant and u least, each
    holding e + 2^14 below its top bit, the guard bit.  Every exponent
    lies in [-2^14, 2^14), and int order is the order of the exponent
    tuples.  A product of two keys is their sum less the key of 1, an
    inverse is twice that key less the key, ``mul_u_power(k)`` adds k
    and ``conj`` negates the u field; each result whose guard bits are
    not all clear is refused with ``EngineError``.  The constructor
    takes exponent tuples, checks them and packs them; ``monomials``
    reads them back.
    """

    __slots__ = ()

    def __init__(self, level: int, terms: dict | None = None):
        """``terms`` maps exponent tuples (e_1, ..., e_{n-1}, e_u) of ints
        to Cyclo values at ``level``; zero values are dropped."""
        t = _field(level)
        packed = {}
        for key, c in (terms or {}).items():
            if not isinstance(c, Cyclo):
                raise TypeError(f"a Scalar coefficient must be a Cyclo, got "
                                f"{type(c).__name__} {c!r}")
            if c.level != t.n:
                raise ValueError(f"a Cyclo of level {c.level} in a Scalar of "
                                 f"level {t.n}")
            key = _pack(t, key)
            if c:
                packed[key] = c
        self.level, self.terms = t.n, packed

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, level: int) -> "Scalar":
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value: Rational) -> "Scalar":
        return cls.from_cyclo(Cyclo.from_rational(level, value))

    @classmethod
    def from_cyclo(cls, c: Cyclo) -> "Scalar":
        return cls._wrap(c.level, {_table(c.level).key_bias: c} if c else {})

    @classmethod
    def q(cls, level: int, power: int = 1) -> "Scalar":
        return cls.from_cyclo(Cyclo.q_power(level, power))

    @classmethod
    def s(cls, level: int, index: int, power: int = 1) -> "Scalar":
        """The symbol s_index, standing for sqrt(rho_index)."""
        if not 1 <= index <= level - 1:
            raise ValueError(f"s_{index} does not exist at level {level}")
        return cls._monomial(level, range(index - 1, index), power)

    @classmethod
    def u(cls, level: int, power: int = 1) -> "Scalar":
        """The unimodular evolution phase symbol."""
        return cls._monomial(level, range(level - 1, level), power)

    @classmethod
    def _monomial(cls, level: int, slots: range, power: int) -> "Scalar":
        """Each symbol at ``slots`` (s_i at i - 1, u at level - 1), a range
        of step 1, to ``power``: the key of 1 plus ``power`` in each of
        those fields."""
        t = _field(level)
        fields = (t.key_ones >> _FIELD_BITS * (t.n - len(slots))
                  << _FIELD_BITS * (t.n - slots.stop))
        return cls._wrap(t.n, {t.key_bias + _exponent(power) * fields:
                               Cyclo.one(t.n)})

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "Scalar | Rational", k: int = 0) -> "Scalar":
        """self * other * q**k: ``*`` is its case k = 0, and an operator
        product calls it by name to pass a term pair's phase.

        A rational factor rescales each coefficient.  Each pair of terms
        adds its keys and forms one ``Cyclo`` product, which takes the
        phase, so two units build one unit.  Two single-term factors, the
        commonest product since every ladder, state and weight coefficient
        is one term, make one term with no merge.
        """
        # plain loops, no comprehension: a local that a nested scope reads
        # becomes a cell, which every call, the single-term one included,
        # would pay for
        k = _q_exponent(k) % self.level
        terms = {}
        if type(other) is not Scalar and isinstance(other, (int, Fraction)):
            for key, v in self.terms.items():
                if c := v.scaled(other):
                    terms[key] = c._times_q(k) if k else c
            return Scalar._wrap(self.level, terms)
        self._check(other)
        t = _table(self.level)
        one = t.key_bias
        if len(self.terms) == 1 == len(other.terms):
            (k1, c1), = self.terms.items()
            (k2, c2), = other.terms.items()
            # Q(q) has no zero divisors, so the product stays nonzero
            terms[_guarded(t, k1 + k2 - one)] = c1.__mul__(c2, k)
            return Scalar._wrap(self.level, terms)
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate(terms, ((_guarded(t, k1 + k2 - one),
                                     c1.__mul__(c2, k)),))
        return Scalar._wrap(self.level, terms)

    __rmul__ = __mul__

    def mul_q_power(self, k: int) -> "Scalar":
        """Multiply by q**k; the common fast path for exchange phases."""
        k = _q_exponent(k) % self.level
        if not k:
            return self
        return Scalar._wrap(self.level, {key: c._times_q(k)
                                         for key, c in self.terms.items()})

    def mul_u_power(self, k: int) -> "Scalar":
        """Multiply by u**k: u is the least significant field, so each key
        gains k and each coefficient is kept, with no product formed."""
        if not _exponent(k):
            return self
        t = _table(self.level)
        return Scalar._wrap(self.level, {_guarded(t, key + k): c
                                         for key, c in self.terms.items()})

    def conj(self) -> "Scalar":
        """Conjugation: q -> q^(n-1), s_i fixed, u -> 1/u."""
        t, low = _table(self.level), (1 << _FIELD_BITS) - 1
        # the u field f = e_u + _EXP_LIMIT becomes -e_u + _EXP_LIMIT
        return Scalar._wrap(self.level, {
            _guarded(t, key + 2 * (_EXP_LIMIT - (key & low))): c.conj()
            for key, c in self.terms.items()})

    def monomial_inverse(self) -> "Scalar":
        """Inverse of a single-term Scalar; raises on anything else.

        Laurent monomials are the only units this ring exposes, which is
        all the exact solver ever needs.
        """
        if len(self.terms) != 1:
            raise EngineError("only single-term scalars are invertible here")
        (key, c), = self.terms.items()
        t = _table(self.level)
        return Scalar._wrap(self.level,
                            {_guarded(t, 2 * t.key_bias - key): c.inverse()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def monomials(self) -> list[tuple[tuple[int, ...], Cyclo]]:
        """(exponent tuple (e_1, ..., e_{n-1}, e_u), coefficient) of each
        term, in term order: what the constructor takes."""
        t = _table(self.level)
        return [(_unpack(t, key), c) for key, c in self.terms.items()]

    # -- evaluation -----------------------------------------------------------

    def eval(self, rho_values: Sequence[Rational | float]) -> complex:
        """Numeric value with s_i = sqrt(rho_values[i-1]).

        Each rho value must convert to a finite float > 0.  No value is
        supplied for u, so a term holding u is refused, as a term holding
        an s_i without a rho value is.
        """
        for i, r in enumerate(rho_values, start=1):
            if not finite_positive(r):
                raise ValueError(f"rho_{i} must be a finite float > 0, got {r}")
        # a value for each s_i supplied, none for u, the last field
        roots = [float(r) ** 0.5 for r in rho_values[:self.level - 1]]
        acc = 0j
        for key, c in self.monomials():
            val = c.eval()
            for i, e in enumerate(key):
                if e:
                    if i >= len(roots):
                        raise ValueError("no value supplied for " + (
                            f"rho_{i + 1}" if i < self.level - 1 else "u"))
                    val *= roots[i] ** e
            acc += val
        return acc

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        t, parts = _table(self.level), []
        # packed keys sort as their exponent tuples do
        for packed in sorted(self.terms):
            syms = "*".join([name if e == 1 else f"{name}^{e}" for name, e
                             in zip(t.key_names, _unpack(t, packed)) if e])
            cs = str(self.terms[packed])
            parts.append(_times(cs, syms) if syms else cs)
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
