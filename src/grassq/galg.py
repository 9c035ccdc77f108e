"""Z_n-graded Grassmann words, normal ordering and Berezin integration.

Generators come in four kinds per index i: the variables theta_i and
thetabar_i and the measure symbols dtheta_i and dthetabar_i.  With q the
primitive n-th root of unity, the defining exchange rules are

    theta_i theta_j       = q theta_j theta_i          (i < j)
    thetabar_i thetabar_j = q thetabar_j thetabar_i    (i < j)
    theta thetabar        = qbar thetabar theta        (same index)
    theta dthetabar       = q dthetabar theta          (same index)
    thetabar dtheta       = q dtheta thetabar          (same index)
    theta dtheta          = qbar dtheta theta          (same index)
    thetabar dthetabar    = qbar dthetabar thetabar    (same index)
    dtheta dthetabar      = qbar dthetabar dtheta      (same index)

together with nilpotency theta_i^n = thetabar_i^n = 0.

The canonical order is: all dthetabar, then all dtheta, then all theta,
then all thetabar, each kind sorted by index.  Normal ordering is in
closed form: the swap phase is bilinear in the exponents and any
sequence of adjacent swaps exchanges each out-of-order pair of factors
exactly once, so a raw product equals q**e times its sorted, merged
word, with e the sum over out-of-order pairs of their exchange exponent
times both exponents.  An out-of-order pair that the rules do not cover
(for instance thetabar_2 before theta_1) raises
:class:`UnspecifiedRelationError` rather than guessing a phase; that is
checked before nilpotency, so whether a word raises never depends on
the order in which it is rewritten.  Integration follows the rule
`int dtheta theta^k = delta(k, n-1)`, applied innermost first in one
pass: a measure symbol picks up the exchange phase of each variable
block before its own, then removes its own block.

This module is the one owner of the word's layout, a tuple of
(kind, index, exponent) factors: no other module names a kind or writes
a factor.  The other layers read and build words through it:
:func:`grade` reads a word's degrees, ``_monomial`` builds the raw word
theta^k thetabar^l, ``_dagger_word`` reverses a word for the dagger, and
:func:`normalize_word` and :func:`integrate_word` order and integrate it.
A word stores its kinds as plain ints (:func:`normalize_word` stores
``int(kind)``, so a :class:`Kind` member such as a measure symbol's
leaves no trace), and every loop over factors compares them with the
module ints ``_DTHETABAR`` .. ``_THETABAR`` and reads the int-keyed
exchange table: an IntEnum member lookup costs several times a module
int.  A refusal names a kind through ``_KIND_NAMES``, which an int looks
up as its member does.

A :class:`GExpr` stores a sum of words, such as a weight, normal ordered
by :meth:`GExpr.from_raw`.  The variables and their product live in the
operator layer: ``opalg.theta_op``, ``opalg.thetabar_op`` and ``@``.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import IntEnum
from typing import Iterable, Optional, Sequence

from .errors import EngineError, UnspecifiedRelationError
from .scalars import Scalar, _SparseSum, _accumulate, _field


class Kind(IntEnum):
    """Generator kinds; numeric order equals the canonical word order."""

    DTHETABAR = 0
    DTHETA = 1
    THETA = 2
    THETABAR = 3


_KIND_NAMES = {
    Kind.DTHETABAR: "dthb",
    Kind.DTHETA: "dth",
    Kind.THETA: "th",
    Kind.THETABAR: "thb",
}

# The kinds as plain ints, which the loops over factors compare.
_DTHETABAR, _DTHETA, _THETA, _THETABAR = map(int, Kind)

# A factor is (kind, index, exponent); a word is a tuple of factors.
Factor = tuple[int, int, int]
Word = tuple[Factor, ...]

# The dagger's swap: theta <-> thetabar and dtheta <-> dthetabar.
_DAGGER_KIND = {_THETA: _THETABAR, _THETABAR: _THETA,
                _DTHETA: _DTHETABAR, _DTHETABAR: _DTHETA}

# q exponent for swapping an out-of-order adjacent pair of distinct kinds
# at a common index: left*right -> q**e * right*left, keyed by the kinds.
_MIXED_SWAP = {
    (_THETABAR, _THETA): 1,
    (_THETA, _DTHETA): -1,
    (_THETA, _DTHETABAR): 1,
    (_THETABAR, _DTHETA): 1,
    (_THETABAR, _DTHETABAR): -1,
    (_DTHETA, _DTHETABAR): -1,
}


def _swap_qexp(left: tuple[int, int], right: tuple[int, int]) -> int:
    """Exponent e with left*right = q**e * right*left for unit generators.

    ``right`` precedes ``left`` canonically; raises when no rule applies.
    """
    (lk, li), (rk, ri) = left, right
    if lk == rk:
        if lk == _THETA or lk == _THETABAR:
            return -1
    elif li == ri and (lk, rk) in _MIXED_SWAP:
        return _MIXED_SWAP[(lk, rk)]
    raise UnspecifiedRelationError(
        f"no exchange rule for {_KIND_NAMES[lk]}{li} and "
        f"{_KIND_NAMES[rk]}{ri}")


def normalize_word(level: int, factors: Iterable[Factor]) -> tuple[int, Optional[Word]]:
    """Bring a raw product into canonical order.

    Returns ``(e, word)`` where the input equals q**e times the canonical
    word, or ``(0, None)`` when a merged exponent reaches ``level``.  One
    left-to-right insertion pass: each factor moves left past the blocks
    with a larger (kind, index), picking up their exchange phase, then
    merges into an equal block or is inserted.  Every out-of-order pair
    is met, so an uncovered one raises even when the product vanishes.
    """
    word: list[Factor] = []
    qexp = 0
    for kind, index, exp in factors:
        if exp <= 0:
            if exp:
                raise EngineError("negative generator exponent")
            continue
        p = len(word)
        while p:
            k, i, e = word[p - 1]
            if k == kind and i == index:
                word[p - 1] = (k, i, e + exp)
                break
            if k < kind or (k == kind and i < index):
                word.insert(p, (int(kind), index, exp))
                break
            qexp += _swap_qexp((k, i), (kind, index)) * e * exp
            p -= 1
        else:
            word.insert(0, (int(kind), index, exp))
    for _, _, e in word:
        if e >= level:
            return 0, None
    return qexp, tuple(word)


def grade(word: Word) -> tuple[int, int]:
    """Total theta degree and thetabar degree of a word; a measure
    symbol, which has neither, is refused."""
    dt = db = 0
    for kind, _, e in word:
        if kind == _THETA:
            dt += e
        elif kind == _THETABAR:
            db += e
        else:
            raise EngineError("a measure symbol has no theta or thetabar degree")
    return dt, db


def _monomial(k: int, l: int) -> Word:
    """The raw word theta^k thetabar^l; a zero exponent is left for
    :func:`normalize_word` to drop."""
    return ((_THETA, 1, k), (_THETABAR, 1, l))


def _dagger_word(word: Word) -> Word:
    """The raw word of the dagger: reversed, with theta <-> thetabar and
    dtheta <-> dthetabar."""
    return tuple((_DAGGER_KIND[k], i, e) for k, i, e in reversed(word))


def _word_str(word: Word) -> str:
    if not word:
        return "1"
    bits = []
    for kind, index, exp in word:
        name = _KIND_NAMES[kind]
        if index != 1:
            name += str(index)
        bits.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(bits)


class GExpr(_SparseSum):
    """Formal sum of graded words with Scalar coefficients.

    Instances are always in canonical form: every word normal ordered,
    no zero coefficients stored.  Equality is plain map equality.
    """

    __slots__ = ()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_raw(cls, level: int,
                 items: Iterable[tuple[Scalar, Iterable[Factor]]]) -> "GExpr":
        """Normal order a sum given as (coefficient, raw factor list) pairs."""
        ordered = ((normalize_word(level, raw), coeff)
                   for coeff, raw in items if not coeff.is_zero)
        return cls._wrap(_field(level).n, _accumulate({}, (
            (w, coeff.mul_q_power(qe))
            for (qe, w), coeff in ordered if w is not None)))

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[w]}) {_word_str(w)}"
                          for w in sorted(self.terms))


# ---------------------------------------------------------------------------
# measure symbols
# ---------------------------------------------------------------------------

def d_theta() -> tuple[int, int]:
    """Measure symbol for integration over theta_1."""
    return (Kind.DTHETA, 1)


def d_thetabar() -> tuple[int, int]:
    """Measure symbol for integration over thetabar_1."""
    return (Kind.DTHETABAR, 1)


# ---------------------------------------------------------------------------
# Berezin integration
# ---------------------------------------------------------------------------

def _variable_kind(measure_kind: int) -> int:
    return _THETA if measure_kind == _DTHETA else _THETABAR


def integrate_word(level: int, word: Word,
                   measure: Sequence[tuple[int, int]]) -> tuple[int, Optional[Word]]:
    """Integrate a single word against the given measure.

    ``word`` may be any raw factor list: the measure factors are
    prepended in the written order and the whole product is normal
    ordered, which leaves the measure blocks followed by the variable
    blocks.  The measure symbols are consumed innermost (rightmost)
    first, in one pass: a symbol's phase is minus the sum of
    ``_swap_qexp(block, symbol) * exp`` over the remaining variable
    blocks before its own, and its own block must hold degree exactly
    level - 1 for the term to survive; it is then dropped.  Returns
    (q exponent, remaining word or None).
    """
    raw = [(k, i, 1) for k, i in measure]
    raw += word
    qexp, fs = normalize_word(level, raw)
    if fs is None:
        return 0, None
    # the measure blocks, the kinds below THETA, lead the canonical word
    split = bisect_left(fs, (_THETA,))
    rest = list(fs[split:])
    for dkind, didx, dexp in reversed(fs[:split]):
        if dexp != 1:
            raise EngineError("repeated measure symbol")
        want = _variable_kind(dkind)
        for p, (k, i, e) in enumerate(rest):
            if k == want and i == didx:
                break
            qexp -= _swap_qexp((k, i), (dkind, didx)) * e
        else:
            return 0, None  # no matching variable: degree 0 < level - 1
        if e != level - 1:
            return 0, None
        del rest[p]
    return qexp, tuple(rest)


def _integrate_terms(level: int,
                     terms: Iterable[tuple[tuple[Word, object], Scalar]],
                     measure: Sequence[tuple[int, int]]):
    """Integrate ``((word, tag), coefficient)`` terms against ``measure``.

    Checks that the measure symbols are distinct dtheta or dthetabar
    symbols and that no integrand word already holds one, then yields
    ``((remaining word, tag), coefficient)`` for every term that
    survives; the tag rides along unchanged.
    """
    seen = set()
    for k, i in measure:
        if k != _DTHETA and k != _DTHETABAR:
            raise EngineError("measure entries must be dtheta or dthetabar symbols")
        if (k, i) in seen:
            raise EngineError("measure symbols must be distinct")
        seen.add((k, i))
    for (w, tag), c in terms:
        if any(f[0] < _THETA for f in w):
            raise EngineError("integrand already contains measure symbols")
        qe, rest = integrate_word(level, w, measure)
        if rest is not None:
            yield (rest, tag), c.mul_q_power(qe)


def berezin(e: GExpr, measure: Sequence[tuple[int, int]]) -> GExpr:
    """Berezin integral of ``e`` against an ordered list of measure symbols.

    ``measure`` is written outermost first, e.g. ``[d_thetabar(), d_theta()]``
    integrates `int dthetabar dtheta (...)`.  The integrand must not
    already contain measure symbols, and the measure symbols must be
    distinct.
    """
    integrals = _integrate_terms(
        e.level, (((w, None), c) for w, c in e.terms.items()), measure)
    return GExpr._wrap(e.level, _accumulate(
        {}, ((w, c) for (w, _), c in integrals)))
