"""Kets, bras and operators over the graded algebra.

An :class:`OpExpr` is a formal sum of terms ``coefficient * word * dyad``
where the word is a canonical Grassmann word and the dyad is the pair
(ket side, bra side), each side either () or (family, index):

    ((), ())          1            the abstract identity operator
    ((F, i), ())      |F_i>        a ket of family F in {psi, phi}
    ((), (G, j))      <G_j|        a bra
    ((F, i), (G, j))  |F_i><G_j|   an outer product

Composing d1 with d2 is one rule: the identity passes the other dyad
through; otherwise d1's bra side meets d2's ket side, where both must be
absent or both present (else :class:`DyadShapeError`), a present pair
contracts to delta_ij, and the result is (d1's ket side, d2's bra side).

Moving a variable across a ket or bra picks up the quantization phases

    theta |F_i>  = q^(i-1)  |F_i> theta        thetabar |F_i>  = qbar^(i-1) |F_i> thetabar
    theta <F_j|  = qbar^(j-1) <F_j| theta      thetabar <F_j|  = q^(j-1)  <F_j| thetabar

with the same phase for both families, so the canonical form keeps every
word to the left of its dyad.  A word w crossing |F_i><G_j| leftward thus
picks up q^((theta degree - thetabar degree) of w * ((j-1) - (i-1))), an
absent side counting 0.  One rule, ``_place``, places a word: a word
right of a dyad crosses it with these phases, its degrees read by
``galg.grade``, then the whole word is normal ordered.  Products,
``op_term``, the dagger and the resolution walk all place their words by
that one rule, and build and read words only through ``galg``.
Composition contracts dyads through the dual pairings
<phi_i|psi_j> = <psi_i|phi_j> = delta_ij only; same-family overlaps raise
:class:`GramUnknownError` because biorthonormality does not determine
them.

A product visits only the term pairs whose dyads contract.  Its right
operand's terms are walked, and each probes the left operand's terms
filed by bra side: the identity terms, and the bras of its ket's index
(``_meets_at``, which ``_contract`` reads too), or the terms without a
bra for a term without a ket.  The filing is built once per operator,
when it is first a left factor, and kept on it, which is sound because
an operator never changes after construction; a series ``arg @ power``
thus files ``arg`` once and probes it once per term of each power.  A
product raises the error of its first refused pair in (left term, right
term) order (``_joined``), and its surviving pairs come out in that
order too, so every result keeps its term order.  Each surviving pair
takes one coefficient step, c1 * c2 * q**e (``Scalar._mul_q``).

The distinguished ladder operators are

    b            = sum_i sqrt(rho_{i+1}) |psi_i><phi_{i+1}|
    b_sharp      = eta^-1 b^dag eta = sum_i sqrt(rho_{i+1}) |psi_{i+1}><phi_i|
    b_tilde      = eta b eta^-1     = sum_i sqrt(rho_{i+1}) |phi_i><psi_{i+1}|
    b_tilde_sharp_prime = b^dag     = sum_i sqrt(rho_{i+1}) |phi_{i+1}><psi_i|

:func:`make_ladder` builds b from its defining sum; the other three are
defined from it, and are written as those definitions:
``sharp_adjoint(b)``, ``eta_conjugate(b)`` and ``op_dagger(b)``.  The
metric eta acts purely by relabeling families (it commutes with the
Grassmann variables).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (DyadShapeError, EngineError, EtaUnexpressibleError,
                     GramUnknownError, NonTerminatingSeriesError)
from .galg import (Word, _dagger_word, _integrate_terms, _monomial, _word_str,
                   grade, normalize_word)
from .scalars import Scalar, _SparseSum, _accumulate, _field

PSI = "psi"
PHI = "phi"

IDENT = ((), ())

Dyad = tuple


def ket(family: str, index: int) -> Dyad:
    return ((family, index), ())


def outer(ket_family: str, i: int, bra_family: str, j: int) -> Dyad:
    return ((ket_family, i), (bra_family, j))


def _known_family(family: str) -> None:
    if family not in (PSI, PHI):
        raise EngineError(f"unknown family {family!r}")


def _dual(family: str) -> str:
    return PHI if family == PSI else PSI


def _dyad_str(d: Dyad) -> str:
    k, b = d
    if not (k or b):
        return "1"
    return ((f"|{k[0]}_{k[1]}>" if k else "")
            + (f"<{b[0]}_{b[1]}|" if b else ""))


# ---------------------------------------------------------------------------
# crossing phases and contraction
# ---------------------------------------------------------------------------

def _meets_at(side) -> int:
    """The index under which a present ket or bra side meets the other
    side: a bra meets a ket of its own index.  ``_contract`` and the
    product's filing (``_file_bras``) both read it."""
    return side[1]


def _contract(d1: Dyad, d2: Dyad) -> Dyad | None:
    """Compose two dyads; None when the pairing <d1 bra|d2 ket> vanishes.

    Mixed-family pairings contract with delta on the indices; pairings
    inside one family are refused.
    """
    if d1 == IDENT:
        return d2
    if d2 == IDENT:
        return d1
    b, k = d1[1], d2[0]
    if bool(b) != bool(k):
        raise DyadShapeError(f"cannot compose {_dyad_str(d1)} with {_dyad_str(d2)}")
    if b and b[0] == k[0]:
        raise GramUnknownError(
            f"<{b[0]}|{k[0]}> overlaps are not determined by biorthonormality")
    if b and _meets_at(b) != _meets_at(k):
        return None
    return (d1[0], d2[1])


def _place(level: int, left, dyad: Dyad, right) -> tuple[int, Word | None]:
    """``left * dyad * right`` as (q exponent, canonical word or None).

    The one crossing rule: the right word crosses the dyad leftward,
    picking up (theta degree - thetabar degree) * ((j-1) - (i-1)) for a
    dyad |F_i><G_j|, an absent side counting 0 (a theta picks up q^(j-1)
    crossing <G_j| and qbar^(i-1) crossing |F_i>, a thetabar the inverse
    phases), and then the whole word is normal ordered.  A measure
    symbol in a right word that crosses a side is refused (``grade``).
    """
    right = tuple(right)
    cross = 0
    if right and dyad != IDENT:
        dt, db = grade(right)
        k, b = dyad
        cross = (dt - db) * ((b[1] - 1 if b else 0) - (k[1] - 1 if k else 0))
    qe, w = normalize_word(level, tuple(left) + right)
    return cross + qe, w


def _file_bras(terms: dict) -> tuple[dict, list]:
    """An operator's terms filed by bra side, each entry
    ``(position, (key, coefficient))``.  Returns ``(buckets, firsts)``:
    ``buckets`` maps IDENT to the identity terms, () to the terms without
    a bra, and a bra's index (``_meets_at``) to the terms with a bra of
    that index, each in position order; ``firsts`` lists the dyad of the
    first term of each bra family, an absent bra counting as one, in
    position order."""
    buckets: dict = {}
    firsts: dict = {}
    for entry in enumerate(terms.items()):
        d = entry[1][0][1]
        if d == IDENT:
            key = IDENT
        else:
            b = d[1]
            key = _meets_at(b) if b else ()
            firsts.setdefault(b[0] if b else (), d)
        buckets.setdefault(key, []).append(entry)
    return buckets, list(firsts.values())


def _joined(left: "OpExpr", right: "OpExpr") -> list:
    """``(left item, right item)`` for each pair of terms whose dyads
    contract, in (left position, right position) order.

    Each right term probes ``left``'s terms filed by bra side
    (:func:`_file_bras`, built on first use and kept on ``left``, which
    never changes after construction): an identity term on either side
    meets every term; a ket side meets the bras of its index, and an
    absent ket side the terms without a bra.  A refusal depends only on
    the two families facing each other, so before probing, the first
    left term of each bra family is contracted with each right term, in
    (left, right) order: the first refused pair raises through
    ``_contract`` before any pair is placed.  Without one, every probed
    pair contracts.
    """
    filed = getattr(left, "_bras", None)
    if filed is None:
        filed = left._bras = _file_bras(left.terms)
    buckets, firsts = filed
    for first in firsts:
        for _, d in right.terms:
            if d != IDENT:
                _contract(first, d)
    ident = buckets.get(IDENT, [])
    found: list = []
    for at, item in enumerate(right.terms.items()):
        d = item[0][1]
        if d == IDENT:
            hit = enumerate(left.terms.items())
        else:
            k = d[0]
            hit = buckets.get(_meets_at(k) if k else (), []) + ident
        found += [(o, at, other, item) for o, other in hit]
    # a (left, right) position pair is never repeated, so tuple order is
    # pair order and never compares two terms
    found.sort()
    return [pair[2:] for pair in found]


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

class OpExpr(_SparseSum):
    """Formal sum of (word, dyad) terms with Scalar coefficients."""

    # ``_bras``, unset until the operator is first a left factor, keeps
    # its terms filed by bra side (``_joined``)
    __slots__ = ("_bras",)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, level: int) -> "OpExpr":
        return cls(level, {((), IDENT): Scalar.one(level)})

    # -- linear structure -------------------------------------------------------

    def scale(self, factor: Scalar | int | Fraction) -> "OpExpr":
        return OpExpr(self.level, {k: c * factor for k, c in self.terms.items()})

    # -- composition -------------------------------------------------------------

    def __matmul__(self, other: "OpExpr") -> "OpExpr":
        """The product: each pair of terms whose dyads contract
        (:func:`_joined`) and whose word does not vanish adds
        c1 c2 q**e word dyad, in (left term, right term) order."""
        self._check(other)

        def products():
            for ((w1, d1), c1), ((w2, d2), c2) in _joined(self, other):
                qe, w = _place(self.level, w1, d1, w2)
                if w is not None:
                    dyad = (d2 if d1 == IDENT else d1 if d2 == IDENT
                            else (d1[0], d2[1]))
                    yield (w, dyad), c1._mul_q(c2, qe)
        return OpExpr._wrap(self.level, _accumulate({}, products()))

    def power(self, k: int) -> "OpExpr":
        if k < 0:
            raise EngineError("negative operator powers are undefined")
        if not k:
            return OpExpr.identity(self.level)
        out = self
        for _ in range(k - 1):
            out = self @ out  # self stays the left factor, filed once
        return out

    # -- display -----------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Word, Dyad, Scalar]]:
        # bras, identity, kets, outers: plain pair order would mix the four
        keys = sorted(self.terms, key=lambda k: (
            bool(k[1][0]), bool(k[1][0]) == bool(k[1][1]), k[1], k[0]))
        return [(w, d, self.terms[(w, d)]) for w, d in keys]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {_word_str(w)} {_dyad_str(d)}"
                          for w, d, c in self.sorted_terms())


# ---------------------------------------------------------------------------
# canonical term construction and the basic operations
# ---------------------------------------------------------------------------

def op_term(level: int, coeff: Scalar, dyad: Dyad = IDENT,
            left: Sequence = ()) -> OpExpr:
    """Canonicalize ``coeff * left * dyad``; ``left`` is a raw factor list.

    A word right of a dyad is placed by a product with it, ``@``, which
    crosses it leftward with the quantization phases.
    """
    qe, w = _place(level, left, dyad, ())
    if w is None or coeff.is_zero:
        return OpExpr.zero(level)
    return OpExpr(level, {(w, dyad): coeff.mul_q_power(qe)})


def op_dagger(e: OpExpr) -> OpExpr:
    """Hermitian conjugate: anti-linear, reverses products, swaps bars.

    Dyads flip ket/bra roles keeping family tags, words reverse with
    theta <-> thetabar (``galg._dagger_word``), and the result is
    re-canonicalized.
    """
    def flipped():
        for (w, d), c in e.terms.items():
            nd = (d[1], d[0])
            # the reversed word stands right of the new dyad and crosses it
            qe, nw = _place(e.level, (), nd, _dagger_word(w))
            if nw is not None:
                yield (nw, nd), c.conj().mul_q_power(qe)
    return OpExpr._wrap(e.level, _accumulate({}, flipped()))


def eta_conjugate(e: OpExpr, inverse: bool = False) -> OpExpr:
    """Conjugation by the metric: eta X eta^-1 (or eta^-1 X eta).

    Acts only on family tags; Grassmann words pass through unchanged
    because the metric commutes with the variables.  Kets of the wrong
    family for the chosen direction raise, since their image would need
    the metric squared.
    """
    ket_family = PHI if inverse else PSI
    bra_family = _dual(ket_family)

    def relabel(side, role: str, family: str):
        if side and side[0] != family:
            raise EtaUnexpressibleError(
                f"metric action on a {side[0]} {role} is not expressible")
        return (_dual(family), side[1]) if side else side

    return OpExpr(e.level, {
        (w, (relabel(k, "ket", ket_family), relabel(b, "bra", bra_family))): c
        for (w, (k, b)), c in e.terms.items()})


def sharp_adjoint(e: OpExpr) -> OpExpr:
    """The adjoint with respect to the metric inner product: eta^-1 X^dag eta."""
    return eta_conjugate(op_dagger(e), inverse=True)


def q_commutator(a: OpExpr, b: OpExpr) -> OpExpr:
    """[A, B]_q = A B - q B A."""
    a._check(b)
    return (a @ b) - (b @ a).scale(Scalar.q(a.level))


def _nilpotent_series(arg: OpExpr, bound: int,
                      weights: Iterator[Scalar | Fraction],
                      on: OpExpr | None = None) -> OpExpr:
    """sum_k w_k arg^k on (w_0 = 1) up to the first vanishing arg^k on.

    ``on`` defaults to the identity, giving the operator series itself;
    any other ``on`` (a state, say) gets the same sum applied to it term
    by term, sum_k w_k (arg^k on), without forming the operator.
    ``weights`` yields w_1, w_2, ... and is read only for nonzero terms;
    a term arg^k on past ``bound`` that is still nonzero raises.  Each
    term is merged into one dict (``_accumulate``), which is wrapped once
    at the end, so no partial sum is copied.  Each step ``arg @ power``
    walks the terms of ``power``: ``arg`` is filed on the first step and
    kept filed, so a step costs a probe per term of ``power``, not a
    pass over ``arg``.
    """
    power = OpExpr.identity(arg.level) if on is None else on
    acc = dict(power.terms)
    for k in range(1, bound + 2):
        power = arg @ power
        if power.is_zero:
            break
        if k > bound:
            raise NonTerminatingSeriesError(
                f"argument power {k} is still nonzero")
        _accumulate(acc, power.scale(next(weights)).terms.items())
    return OpExpr._wrap(arg.level, acc)


# ---------------------------------------------------------------------------
# distinguished operators and states
# ---------------------------------------------------------------------------

def make_ladder(level: int) -> OpExpr:
    """The lowering operator b from its defining sum.

    The ladder connects all ``level`` levels with the symbols s_i as its
    sqrt(rho_i) coefficients.  The other three ladder operators are
    defined from b (see the module docstring).  The 32 most recently
    built ladders are kept, one per level, and every caller shares the
    same operator, with the bra filing its first product kept on it:
    an operator never changes after construction.
    """
    return _build_ladder(_field(level).n)


@lru_cache(maxsize=32)
def _build_ladder(level: int) -> OpExpr:
    return OpExpr(level, {((), outer(PSI, i, PHI, i + 1)):
                          Scalar.s(level, i + 1) for i in range(level - 1)})


def theta_op(level: int) -> OpExpr:
    return op_term(level, Scalar.one(level), left=_monomial(1, 0))


def thetabar_op(level: int) -> OpExpr:
    return op_term(level, Scalar.one(level), left=_monomial(0, 1))


def ket_op(level: int, family: str, index: int) -> OpExpr:
    return OpExpr(level, {((), ket(family, index)): Scalar.one(level)})


def dual_identity_sum(level: int, ket_family: str = PSI) -> OpExpr:
    """sum_i |F_i><F'_i| over the dual pair, the resolved identity."""
    return OpExpr(level, {((), outer(ket_family, i, _dual(ket_family), i)):
                          Scalar.one(level) for i in range(level)})


def berezin_op(e: OpExpr, measure: Sequence[tuple[int, int]]) -> OpExpr:
    """Berezin integration term by term; dyads ride along unchanged.

    Valid because every canonical term keeps its word strictly left of
    the dyad, so the measure never has to cross a ket or bra.  A
    resolution check adds every term pair its weight reads into one
    integrand and integrates it here in one call; the weight solve
    integrates its one placed word per level with ``integrate_word``.
    """
    return OpExpr._wrap(e.level, _accumulate(
        {}, _integrate_terms(e.level, e.terms.items(), measure)))
