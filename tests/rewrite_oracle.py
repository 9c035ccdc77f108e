"""Step-by-step rewrite system for normal ordering, kept as a test oracle.

Each step applies one rule to one adjacent pair: merge two factors of the
same generator, or swap an out-of-order pair of distinct generators with
its exchange phase.  A raw factor, or a merge, that reaches the level
makes the product zero at once.  With ``rng`` given, the rule to apply is
chosen at random among those that apply, so different orders of rewriting
can be compared with each other and with ``galg.normalize_word``.
"""

from __future__ import annotations

import random
from typing import Optional

from grassq.errors import EngineError, UnspecifiedRelationError
from grassq.galg import GExpr, _swap_qexp
from grassq.scalars import Scalar


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
