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
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import EngineError, LevelMismatchError

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# dense rational polynomials, lowest degree first
# ---------------------------------------------------------------------------

def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    r = _trim(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1] / lead
        q[shift] = factor
        for i, bi in enumerate(b):
            r[shift + i] -= factor * bi
        r = _trim(r)
    return _trim(q), r


def _poly_xgcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Return (g, s, t) with s*a + t*b = g over Q[x]."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r2 = _poly_divmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, _trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1))])
    return r0, s0, t0


def _zip_pad(a: Sequence[Fraction], b: Sequence[Fraction]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else Fraction(0),
               b[i] if i < len(b) else Fraction(0))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first.

    Computed from x^n - 1 by exact division through the polynomials of
    the proper divisors of n.
    """
    if n < 1:
        raise ValueError("cyclotomic level must be positive")
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise EngineError("cyclotomic division left a remainder")
    return tuple(num)


# ---------------------------------------------------------------------------
# elements of Q(q)
# ---------------------------------------------------------------------------

class Cyclo:
    """An element of Q(q) with q a primitive ``level``-th root of unity.

    Stored as the unique residue modulo Phi_level of degree below
    phi(level).  Supports field arithmetic, conjugation (q -> q^(level-1))
    and numeric evaluation at q = exp(2*pi*i/level).
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Sequence[Rational]):
        if level < 2:
            raise ValueError("level must be at least 2")
        phi = cyclotomic_polynomial(level)
        degree = len(phi) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > degree:
            _, cs = _poly_divmod(cs, list(phi))
        cs += [Fraction(0)] * (degree - len(cs))
        self.level = level
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "Cyclo":
        return cls(level, [])

    @classmethod
    def one(cls, level: int) -> "Cyclo":
        return cls(level, [Fraction(1)])

    @classmethod
    def from_rational(cls, level: int, value: Rational) -> "Cyclo":
        return cls(level, [Fraction(value)])

    @classmethod
    def q_power(cls, level: int, k: int) -> "Cyclo":
        """q**k reduced to canonical form; k may be any integer."""
        k %= level
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        return cls(level, coeffs)

    # -- ring/field operations ---------------------------------------------

    def _check(self, other: "Cyclo") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"cannot mix levels {self.level} and {other.level}")

    def __add__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.level, [-a for a in self.coeffs])

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.level, _poly_mul(self.coeffs, other.coeffs))

    def scaled(self, factor: Rational) -> "Cyclo":
        f = Fraction(factor)
        return Cyclo(self.level, [a * f for a in self.coeffs])

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        g, s, _ = _poly_xgcd(self.coeffs, cyclotomic_polynomial(self.level))
        if len(g) != 1:
            raise EngineError("cyclotomic polynomial not coprime with element")
        return Cyclo(self.level, [c / g[0] for c in s])

    def conj(self) -> "Cyclo":
        """The field automorphism q -> q^(level-1), an involution."""
        n = self.level
        raw = [Fraction(0)] * n
        for k, a in enumerate(self.coeffs):
            raw[(-k) % n] += a
        return Cyclo(n, raw)

    # -- predicates, hashing, display ---------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.level, self.coeffs))

    def eval(self) -> complex:
        root = cmath.exp(2j * cmath.pi / self.level)
        acc = 0j
        for k, a in enumerate(self.coeffs):
            if a:
                acc += complex(a) * root ** k
        return acc

    def __str__(self) -> str:
        parts = []
        for k, a in enumerate(self.coeffs):
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

    def __repr__(self) -> str:
        return f"Cyclo({self.level}, {self})"


# ---------------------------------------------------------------------------
# Laurent ring over Q(q)
# ---------------------------------------------------------------------------

class Scalar:
    """Exact coefficient: Laurent polynomial in s_1..s_{n-1}, u over Q(q).

    ``terms`` maps an exponent tuple (e_1, ..., e_{n-1}, e_u) to a nonzero
    Cyclo coefficient.  The empty map is zero.  All operations return new
    values; instances are never mutated after construction.
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: dict[tuple[int, ...], Cyclo] | None = None):
        if level < 2:
            raise ValueError("level must be at least 2")
        self.level = level
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "Scalar":
        return cls(level)

    @classmethod
    def one(cls, level: int) -> "Scalar":
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value: Rational) -> "Scalar":
        c = Cyclo.from_rational(level, value)
        return cls(level, {cls._unit_key(level): c} if c else {})

    @classmethod
    def from_cyclo(cls, c: Cyclo) -> "Scalar":
        return cls(c.level, {cls._unit_key(c.level): c} if c else {})

    @classmethod
    def q(cls, level: int, power: int = 1) -> "Scalar":
        return cls.from_cyclo(Cyclo.q_power(level, power))

    @classmethod
    def s(cls, level: int, index: int, power: int = 1) -> "Scalar":
        """The symbol s_index, standing for sqrt(rho_index)."""
        if not 1 <= index <= level - 1:
            raise ValueError(f"s_{index} does not exist at level {level}")
        key = [0] * level
        key[index - 1] = power
        return cls(level, {tuple(key): Cyclo.one(level)})

    @classmethod
    def u(cls, level: int, power: int = 1) -> "Scalar":
        """The unimodular evolution phase symbol."""
        key = [0] * level
        key[-1] = power
        return cls(level, {tuple(key): Cyclo.one(level)})

    @staticmethod
    def _unit_key(level: int) -> tuple[int, ...]:
        return (0,) * level

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"cannot mix levels {self.level} and {other.level}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            prev = acc.get(key)
            s = prev + c if prev is not None else c
            if s:
                acc[key] = s
            elif prev is not None:
                del acc[key]
        return Scalar(self.level, acc)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(self.level, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "Scalar | Rational") -> "Scalar":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Scalar.zero(self.level)
            return Scalar(self.level,
                          {k: v.scaled(other) for k, v in self.terms.items()})
        self._check(other)
        acc: dict[tuple[int, ...], Cyclo] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                prod = c1 * c2
                prev = acc.get(key)
                s = prev + prod if prev is not None else prod
                if s:
                    acc[key] = s
                elif prev is not None:
                    del acc[key]
        return Scalar(self.level, acc)

    __rmul__ = __mul__

    def mul_q_power(self, k: int) -> "Scalar":
        """Multiply by q**k; the common fast path for exchange phases."""
        if k % self.level == 0:
            return self
        qk = Cyclo.q_power(self.level, k)
        return Scalar(self.level, {key: c * qk for key, c in self.terms.items()})

    def conj(self) -> "Scalar":
        """Conjugation: q -> q^(n-1), s_i fixed, u -> 1/u."""
        acc = {}
        for key, c in self.terms.items():
            nk = key[:-1] + (-key[-1],)
            acc[nk] = c.conj()
        return Scalar(self.level, acc)

    def monomial_inverse(self) -> "Scalar":
        """Inverse of a single-term Scalar; raises on anything else.

        Laurent monomials are the only units this ring exposes, which is
        all the exact solver ever needs.
        """
        if len(self.terms) != 1:
            raise EngineError("only single-term scalars are invertible here")
        (key, c), = self.terms.items()
        return Scalar(self.level, {tuple(-e for e in key): c.inverse()})

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.level == other.level and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation -----------------------------------------------------------

    def eval(self, rho_values: Sequence[Rational | float],
             u_value: complex = 1.0, unit_tol: float = 1e-9) -> complex:
        """Numeric value with s_i = sqrt(rho_values[i-1]) and u = u_value.

        rho values must be positive and u must sit on the unit circle to
        within ``unit_tol``.
        """
        for i, r in enumerate(rho_values, start=1):
            if not float(r) > 0.0:
                raise ValueError(f"rho_{i} must be positive, got {r}")
        if abs(abs(complex(u_value)) - 1.0) > unit_tol:
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

    def __repr__(self) -> str:
        return f"Scalar({self.level}, {self})"


# ---------------------------------------------------------------------------
# rho factorial helpers
# ---------------------------------------------------------------------------

def rho_factorial(level: int, k: int) -> Scalar:
    """rho_k! = rho_1 * rho_2 * ... * rho_k with rho_0! = 1, as s squares."""
    if k < 0 or k > level - 1:
        raise ValueError(f"rho_{k}! is outside the symbol range of level {level}")
    key = [0] * level
    for j in range(1, k + 1):
        key[j - 1] = 2
    return Scalar(level, {tuple(key): Cyclo.one(level)})


def rho_factorial_inverse(level: int, k: int) -> Scalar:
    return rho_factorial(level, k).monomial_inverse()
