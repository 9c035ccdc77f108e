"""Step-by-step rewrite systems for normal ordering and Berezin
integration, and the plain pair walk of an operator product, kept as test
oracles.

Each step of :func:`rewrite` applies one rule to one adjacent pair: merge
two factors of the same generator, or swap an out-of-order pair of
distinct generators with its exchange phase.  A raw factor, or a merge,
that reaches the level makes the product zero at once.  With ``rng``
given, the rule to apply is chosen at random among those that apply, so
different orders of rewriting can be compared with each other and with
``galg.normalize_word``.

:func:`integrate_by_swaps` moves each measure symbol rightward one
adjacent swap at a time until it meets its own variable block; it is
compared with the one-pass ``galg.integrate_word``.

:func:`compose_by_pairs` forms ``left @ right`` by testing every one of
the |left| * |right| term pairs with ``opalg._contract``; it is compared
with ``OpExpr.__matmul__``, which visits only the pairs that contract.

The ``tuple_*`` functions are ``Scalar`` arithmetic as it was written on
dense exponent tuples (e_1, ..., e_{n-1}, e_u), one slot per symbol: a
product adds the two tuples slot by slot.  Each takes and returns terms
as ``Scalar.monomials`` gives them, a dict from exponent tuple to Cyclo
in term order, and is compared with the packed-key ``Scalar``.
"""

from __future__ import annotations

import random
from operator import add, neg
from typing import Optional

from grassq.errors import EngineError, UnspecifiedRelationError
from grassq.galg import (GExpr, Kind, _swap_qexp, _variable_kind,
                         normalize_word)
from grassq import opalg
from grassq.opalg import OpExpr
from grassq.scalars import Cyclo, Scalar, _accumulate


def rewrite(level: int, factors, rng: Optional[random.Random] = None):
    """``(e, word)`` or ``(0, None)``, as ``normalize_word`` returns them."""
    fs = []
    for kind, index, exp in factors:
        if exp < 0:
            raise EngineError("negative generator exponent")
        if exp == 0:
            continue
        if exp >= level:
            return 0, None
        fs.append((int(kind), index, exp))
    qexp = 0
    while True:
        actions = []
        for p in range(len(fs) - 1):
            k1, i1, _ = fs[p]
            k2, i2, _ = fs[p + 1]
            if (k1, i1) == (k2, i2):
                actions.append((p, True))
            elif (k1, i1) > (k2, i2):
                actions.append((p, False))
        if not actions:
            return qexp, tuple(fs)
        p, merge = actions[0] if rng is None else rng.choice(actions)
        k1, i1, e1 = fs[p]
        k2, i2, e2 = fs[p + 1]
        if merge:
            e = e1 + e2
            if e >= level:
                return 0, None
            fs[p] = (k1, i1, e)
            del fs[p + 1]
        else:
            qexp += _swap_qexp((k1, i1), (k2, i2)) * e1 * e2
            fs[p], fs[p + 1] = fs[p + 1], fs[p]


def rewrite_gexpr(level: int, factors, rng: Optional[random.Random] = None) -> GExpr:
    """The single word ``factors`` normal ordered by :func:`rewrite`."""
    qe, word = rewrite(level, factors, rng)
    if word is None:
        return GExpr.zero(level)
    return GExpr(level, {word: Scalar.q(level, qe)})


def has_uncovered_inversion(factors) -> bool:
    """Whether some out-of-order pair of distinct generators has no rule."""
    keys = [(int(k), i) for k, i, e in factors if e]
    for a, left in enumerate(keys):
        for right in keys[a + 1:]:
            if left > right:
                try:
                    _swap_qexp(left, right)
                except UnspecifiedRelationError:
                    return True
    return False


def integrate_by_swaps(level: int, word, measure):
    """``(e, word)`` or ``(0, None)``, as ``integrate_word`` returns them."""
    raw = [(k, i, 1) for k, i in measure] + list(word)
    qexp, fs = normalize_word(level, raw)
    if fs is None:
        return 0, None
    fs = list(fs)
    while True:
        pos = None
        for p in range(len(fs) - 1, -1, -1):
            if fs[p][0] in (Kind.DTHETA, Kind.DTHETABAR):
                pos = p
                break
        if pos is None:
            return qexp, tuple(fs)
        dkind, didx, dexp = fs[pos]
        if dexp != 1:
            raise EngineError("repeated measure symbol")
        want = (_variable_kind(dkind), didx)
        p = pos
        while p + 1 < len(fs) and (fs[p + 1][0], fs[p + 1][1]) != want:
            nk, ni, ne = fs[p + 1]
            qexp -= _swap_qexp((nk, ni), (dkind, didx)) * ne
            fs[p], fs[p + 1] = fs[p + 1], fs[p]
            p += 1
        if p + 1 == len(fs):
            return 0, None  # no matching variable: degree 0 < level - 1
        if fs[p + 1][2] != level - 1:
            return 0, None
        del fs[p:p + 2]


def compose_by_pairs(left: OpExpr, right: OpExpr) -> OpExpr:
    """``left @ right`` by the plain |left| x |right| loop: each pair of
    terms is contracted, and a surviving one is placed and multiplied.
    ``opalg._contract`` and ``opalg._place`` are read at each call, so a
    test that wraps them counts the oracle's calls too."""
    left._check(right)
    acc: dict = {}
    for (w1, d1), c1 in left.terms.items():
        for (w2, d2), c2 in right.terms.items():
            dyad = opalg._contract(d1, d2)
            if dyad is None:
                continue
            qe, w = opalg._place(left.level, w1, d1, w2)
            if w is not None:
                _accumulate(acc, [((w, dyad), (c1 * c2).mul_q_power(qe))])
    return OpExpr._wrap(left.level, acc)


# ---------------------------------------------------------------------------
# Scalar arithmetic on exponent tuples
# ---------------------------------------------------------------------------

def tuple_mul(a: dict, b: dict) -> dict:
    """``a * b``: every pair of terms, keys added slot by slot."""
    if len(a) == 1 == len(b):
        return tuple_mul_q(a, b, 0)
    return _accumulate({}, ((tuple(map(add, k1, k2)), c1 * c2)
                            for k1, c1 in a.items() for k2, c2 in b.items()))


def tuple_mul_q(a: dict, b: dict, k: int) -> dict:
    """``a * b * q**k``; two single terms make one term."""
    if len(a) != 1 or len(b) != 1:
        return {key: c * Cyclo.q_power(c.level, k)
                for key, c in tuple_mul(a, b).items()}
    (k1, c1), = a.items()
    (k2, c2), = b.items()
    return {tuple(map(add, k1, k2)): c1 * c2 * Cyclo.q_power(c1.level, k)}


def tuple_conj(a: dict) -> dict:
    """q -> q^(n-1), s_i fixed, u -> 1/u."""
    return {key[:-1] + (-key[-1],): c.conj() for key, c in a.items()}


def tuple_monomial_inverse(a: dict) -> dict:
    """The inverse of one term: every exponent negated."""
    (key, c), = a.items()
    return {tuple(map(neg, key)): c.inverse()}


def tuple_str(a: dict) -> str:
    """The rendering of ``Scalar.__str__``, terms in exponent-tuple order."""
    if not a:
        return "0"
    parts = []
    for key in sorted(a):
        c = a[key]
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


def tuple_eval(a: dict, rho_values) -> complex:
    """The value at s_i = sqrt(rho_values[i-1]), summed in term order;
    a term holding u, or an s_i with no rho value, is refused."""
    sqrt_rho = [float(r) ** 0.5 for r in rho_values]
    acc = 0j
    for key, c in a.items():
        val = c.eval()
        for i, e in enumerate(key[:-1]):
            if e:
                if i >= len(sqrt_rho):
                    raise ValueError(f"no value supplied for rho_{i + 1}")
                val *= sqrt_rho[i] ** e
        if key[-1]:
            raise ValueError("no value supplied for u")
        acc += val
    return acc
