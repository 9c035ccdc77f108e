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
word to the left of its dyad.  Composition contracts dyads through the
dual pairings <phi_i|psi_j> = <psi_i|phi_j> = delta_ij only; same-family
overlaps raise :class:`GramUnknownError` because biorthonormality does
not determine them.

The distinguished ladder operators are

    b            = sum_i sqrt(rho_{i+1}) |psi_i><phi_{i+1}|
    b_sharp      = eta^-1 b^dag eta = sum_i sqrt(rho_{i+1}) |psi_{i+1}><phi_i|
    b_tilde      = eta b eta^-1     = sum_i sqrt(rho_{i+1}) |phi_i><psi_{i+1}|
    b_tilde_sharp_prime = b^dag     = sum_i sqrt(rho_{i+1}) |phi_{i+1}><psi_i|

and the metric eta acts purely by relabeling families (it commutes with
the Grassmann variables).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (DyadShapeError, EngineError, EtaUnexpressibleError,
                     GramUnknownError, NonTerminatingSeriesError)
from .galg import (GExpr, Kind, Word, _integrate_terms, _word_str,
                   normalize_word)
from .scalars import Scalar, _SparseSum, _accumulate

PSI = "psi"
PHI = "phi"

IDENT = ((), ())

Dyad = tuple


def ket(family: str, index: int) -> Dyad:
    return ((family, index), ())


def bra(family: str, index: int) -> Dyad:
    return ((), (family, index))


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

def _cross_single(kind: int, d: Dyad) -> int:
    """q exponent for moving one unit generator from right of d to left."""
    if d == IDENT:
        return 0
    if kind not in (Kind.THETA, Kind.THETABAR):
        raise EngineError("measure symbols cannot cross kets or bras")
    sign = 1 if kind == Kind.THETA else -1
    k, b = d
    return sign * ((b[1] - 1 if b else 0) - (k[1] - 1 if k else 0))


def _cross_word(word: Word, d: Dyad) -> int:
    if d == IDENT or not word:
        return 0
    return sum(_cross_single(k, d) * e for k, _, e in word)


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
    if b and b[1] != k[1]:
        return None
    return (d1[0], d2[1])


def _term_pairs(level: int, left: dict, right: dict):
    """The surviving term pairs of a product, before any coefficient product.

    For each term of ``left`` times each term of ``right`` whose dyads
    contract and whose word does not vanish, yields
    ``((word, dyad), e, c1, c2)``: the pair contributes
    c1 c2 q**e word dyad.  ``OpExpr.__matmul__`` evaluates these tuples;
    the weight solver only inspects them.
    """
    for (w1, d1), c1 in left.items():
        for (w2, d2), c2 in right.items():
            dyad = _contract(d1, d2)
            if dyad is None:
                continue
            cross = _cross_word(w2, d1)
            qe, w = normalize_word(level, w1 + w2)
            if w is not None:
                yield (w, dyad), cross + qe, c1, c2


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

class OpExpr(_SparseSum):
    """Formal sum of (word, dyad) terms with Scalar coefficients."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, level: int) -> "OpExpr":
        return cls(level, {((), IDENT): Scalar.one(level)})

    @classmethod
    def from_gexpr(cls, g: GExpr) -> "OpExpr":
        return cls(g.level, {(w, IDENT): c for w, c in g.terms.items()})

    # -- linear structure -------------------------------------------------------

    def scale(self, factor: Scalar | int | Fraction) -> "OpExpr":
        return OpExpr(self.level, {k: c * factor for k, c in self.terms.items()})

    # -- composition -------------------------------------------------------------

    def __matmul__(self, other: "OpExpr") -> "OpExpr":
        self._check(other)
        return OpExpr._wrap(self.level, _accumulate({}, (
            (key, (c1 * c2).mul_q_power(qe)) for key, qe, c1, c2
            in _term_pairs(self.level, self.terms, other.terms))))

    def power(self, k: int) -> "OpExpr":
        if k < 0:
            raise EngineError("negative operator powers are undefined")
        out = OpExpr.identity(self.level)
        for _ in range(k):
            out = out @ self
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
            left: Sequence = (), right: Sequence = ()) -> OpExpr:
    """Canonicalize ``coeff * left * dyad * right``.

    ``left`` and ``right`` are raw factor lists; the right word crosses
    the dyad leftward and picks up the quantization phases.
    """
    right = tuple(right)
    cross = _cross_word(right, dyad)
    qe, w = normalize_word(level, tuple(left) + right)
    if w is None or coeff.is_zero:
        return OpExpr.zero(level)
    return OpExpr(level, {(w, dyad): coeff.mul_q_power(cross + qe)})


def op_dagger(e: OpExpr) -> OpExpr:
    """Hermitian conjugate: anti-linear, reverses products, swaps bars.

    Dyads flip ket/bra roles keeping family tags, words reverse with
    theta <-> thetabar, and the result is re-canonicalized.
    """
    swap = {Kind.THETA: Kind.THETABAR, Kind.THETABAR: Kind.THETA,
            Kind.DTHETA: Kind.DTHETABAR, Kind.DTHETABAR: Kind.DTHETA}

    def flipped():
        for (w, d), c in e.terms.items():
            nd = (d[1], d[0])
            # the reversed word stands right of the new dyad and crosses it
            nw = tuple((swap[Kind(k)], i, x) for k, i, x in reversed(w))
            cross = _cross_word(nw, nd)
            qe, nw = normalize_word(e.level, nw)
            if nw is not None:
                yield (nw, nd), c.conj().mul_q_power(cross + qe)
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
    a term arg^k on past ``bound`` that is still nonzero raises.
    """
    acc = power = OpExpr.identity(arg.level) if on is None else on
    for k in range(1, bound + 2):
        power = arg @ power
        if power.is_zero:
            return acc
        if k > bound:
            raise NonTerminatingSeriesError(
                f"argument power {k} is still nonzero")
        acc = acc + power.scale(next(weights))
    return acc


# ---------------------------------------------------------------------------
# distinguished operators and states
# ---------------------------------------------------------------------------

LADDER_KINDS = ("b", "b_sharp", "b_tilde", "b_tilde_sharp_prime")


def make_ladder(kind: str, level: int) -> OpExpr:
    """One of the four ladder operators as an operator expression.

    The ladder connects all ``level`` levels with the symbols s_i as its
    sqrt(rho_i) coefficients.  The lowering operator is built from its
    defining sum; the other three are derived through dagger and the
    metric, which is exactly how they are defined.
    """
    if level < 2:
        raise EngineError("need at least two levels")
    if kind not in LADDER_KINDS:
        raise EngineError(f"unknown ladder kind {kind!r}")
    b = OpExpr(level, {((), outer(PSI, i, PHI, i + 1)): Scalar.s(level, i + 1)
                       for i in range(level - 1)})
    if kind == "b":
        return b
    if kind == "b_sharp":
        return sharp_adjoint(b)
    if kind == "b_tilde":
        return eta_conjugate(b)
    return op_dagger(b)


def theta_op(level: int, power: int = 1) -> OpExpr:
    return op_term(level, Scalar.one(level), IDENT,
                   left=[(Kind.THETA, 1, power)])


def thetabar_op(level: int, power: int = 1) -> OpExpr:
    return op_term(level, Scalar.one(level), IDENT,
                   left=[(Kind.THETABAR, 1, power)])


def ket_op(level: int, family: str, index: int) -> OpExpr:
    return OpExpr(level, {((), ket(family, index)): Scalar.one(level)})


def dual_identity_sum(level: int, ket_family: str = PSI) -> OpExpr:
    """sum_i |F_i><F'_i| over the dual pair, the resolved identity."""
    return OpExpr(level, {((), outer(ket_family, i, _dual(ket_family), i)):
                          Scalar.one(level) for i in range(level)})


def berezin_op(e: OpExpr, measure: Sequence[tuple[int, int]]) -> OpExpr:
    """Berezin integration term by term; dyads ride along unchanged.

    Valid because every canonical term keeps its word strictly left of
    the dyad, so the measure never has to cross a ket or bra.
    """
    return OpExpr._wrap(e.level, _accumulate(
        {}, _integrate_terms(e.level, e.terms.items(), measure)))
