"""An independent Fock model of the exchange rules.

The generators q-commute, so left multiplication acts on the canonical
monomials |k> = x_1^k_1 ... x_m^k_m (x_1 < ... < x_m in canonical order)
as

    x_a |k> = q^(sum_{b<a} M_ab k_b) |k + e_a>,

where x_a x_b = q^M_ab x_b x_a, and the state is zero once some k_a
reaches n.  M and the canonical order are written out below from the
``galg`` module docstring, not imported, so a wrong rule in the engine
cannot agree with the model by construction.  A raw word applied to the
vacuum, rightmost factor first, gives one phase and one basis state; the
engine's q exponent and canonical word must match them mod n, or both
must vanish.
"""

import random

import pytest

from grassq.errors import UnspecifiedRelationError
from grassq.galg import Kind, normalize_word

# The canonical order: all dthetabar, then all dtheta, then all theta,
# then all thetabar, each kind sorted by index.
KINDS = ("dthb", "dth", "th", "thb")
ENGINE_KIND = {"dthb": Kind.DTHETABAR, "dth": Kind.DTHETA,
               "th": Kind.THETA, "thb": Kind.THETABAR}
INDICES = (1, 2, 3)
GENERATORS = [(kind, i) for kind in KINDS for i in INDICES]

# X_i Y_j = q^e Y_j X_i, for the indices the condition allows.
RELATIONS = (
    ("th", "th", 1, lambda i, j: i < j),
    ("thb", "thb", 1, lambda i, j: i < j),
    ("th", "thb", -1, lambda i, j: i == j),
    ("th", "dthb", 1, lambda i, j: i == j),
    ("thb", "dth", 1, lambda i, j: i == j),
    ("th", "dth", -1, lambda i, j: i == j),
    ("thb", "dthb", -1, lambda i, j: i == j),
    ("dth", "dthb", -1, lambda i, j: i == j),
)


def _exchange(a, b):
    """(e, relation row) with x_a x_b = q^e x_b x_a, or None if no rule
    covers the pair."""
    for row, (x, y, e, allowed) in enumerate(RELATIONS):
        if (a[0], b[0]) == (x, y) and allowed(a[1], b[1]):
            return e, row
        if (b[0], a[0]) == (x, y) and allowed(b[1], a[1]):
            return -e, row
    return None


M = {(a, b): _exchange(a, b) for p, a in enumerate(GENERATORS)
     for b in GENERATORS[:p]}


def fock_apply(level, factors):
    """The raw word applied to the vacuum: (phase, word, uncovered, rows).

    ``word`` is the basis state as a canonical word, or None when the
    state is zero.  A factor records every pair it moves past even on a
    state that is already zero, because the engine refuses an uncovered
    pair before it tests nilpotency; ``uncovered`` says whether the word
    needs a pair that no rule covers, and ``rows`` lists the relation
    rows that contributed a phase."""
    k = {g: 0 for g in GENERATORS}
    phase, uncovered, rows = 0, False, set()
    for name, i, exp in reversed(factors):
        a = (name, i)
        for b in GENERATORS[:GENERATORS.index(a)]:
            if k[b]:
                rule = M[(a, b)]
                if rule is None:
                    uncovered = True
                else:
                    phase += rule[0] * k[b] * exp
                    rows.add(rule[1])
        k[a] += exp
    if any(e >= level for e in k.values()):
        return 0, None, uncovered, rows
    word = tuple((int(ENGINE_KIND[g[0]]), g[1], k[g])
                 for g in GENERATORS if k[g])
    return phase % level, word, uncovered, rows


def _random_word(rng, level):
    return [(*rng.choice(GENERATORS), rng.randrange(1, level + 1))
            for _ in range(rng.randrange(0, 9))]


def _covered_shuffle(rng, level):
    """A canonical word scrambled by adjacent swaps of covered pairs only,
    so every pair it leaves out of order has a rule."""
    gens = sorted(rng.choices(range(len(GENERATORS)), k=rng.randrange(2, 9)))
    for _ in range(4 * len(gens)):
        p = rng.randrange(len(gens) - 1)
        lo, hi = sorted(gens[p:p + 2])
        if lo != hi and M[(GENERATORS[hi], GENERATORS[lo])] is not None:
            gens[p], gens[p + 1] = gens[p + 1], gens[p]
    return [(*GENERATORS[g], rng.randrange(1, level)) for g in gens]


def test_fock_model_matches_normal_ordering():
    rng = random.Random(20261018)
    for n in range(2, 9):
        accepted = refused = vanished = 0
        rows_seen = set()
        for w in range(800):
            factors = (_random_word if w % 2 else _covered_shuffle)(rng, n)
            phase, word, uncovered, rows = fock_apply(n, factors)
            raw = [(ENGINE_KIND[name], i, e) for name, i, e in factors]
            if uncovered:
                with pytest.raises(UnspecifiedRelationError):
                    normalize_word(n, raw)
                refused += 1
                continue
            qexp, got = normalize_word(n, raw)
            assert got == word, (n, factors)
            if word is None:
                vanished += 1
                continue
            assert qexp % n == phase, (n, factors, qexp, phase)
            accepted += 1
            rows_seen |= rows
        # every rule is exercised on surviving words, and all three
        # outcomes occur at every level
        assert rows_seen == set(range(len(RELATIONS))), n
        assert min(accepted, refused, vanished) >= 50, (
            n, accepted, refused, vanished)
