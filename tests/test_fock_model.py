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

A raw word may also hold dyads: a ket |F_i>, a bra <G_j|, an outer
product or the identity, written as the engine writes them, (ket side,
bra side).  The model state then carries a dyad label next to the
monomial.  Meeting a dyad, the monomial built so far, which stands right
of it, crosses it leftward with the quantization phases written out
below from the ``opalg`` module docstring, and the label becomes the
dyad composed with the old label.  So ``left * dyad * right`` and
single-term products, which carry every crossing, are checked against
phases the engine does not supply.  The engine places a word right of a
dyad by a product, so ``left * dyad`` times ``right`` is a single-term
``@`` product; it normal orders each factor on its own first, so a
factor that vanishes or is refused alone decides the product.

The model also integrates.  The measure symbols, written before the
word, are applied to the vacuum with it, which files them first.
Innermost first, each symbol then moves right past the blocks before
its variable's block, by the model's own exchange table, and keeps the
term only when that block is x^(n-1): int dx x^k = delta(k, n-1).  So
int dthetabar dtheta reads the coefficient of theta^(n-1) thetabar^(n-1),
and ``galg.integrate_word`` must give the same phase and remaining word
on single-index words under each measure order.
"""

import random

import pytest

from grassq.errors import EngineError, UnspecifiedRelationError
from grassq.galg import Kind, integrate_word, normalize_word
from grassq.opalg import IDENT, OpExpr, op_dagger, op_term
from grassq.scalars import Scalar

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

# x D = q^(e (i-1)) D x for a variable x and one side D of a dyad, i the
# index of that ket or bra, the same for both families F:
#     theta |F_i>    = q^(i-1)    |F_i> theta
#     thetabar |F_i> = qbar^(i-1) |F_i> thetabar
#     theta <F_j|    = qbar^(j-1) <F_j| theta
#     thetabar <F_j| = q^(j-1)    <F_j| thetabar
SIDE_PHASE = {("th", "ket"): 1, ("thb", "ket"): -1,
              ("th", "bra"): -1, ("thb", "bra"): 1}
VARIABLES = [g for g in GENERATORS if g[0] in ("th", "thb")]
IDENTITY = ((), ())
# the dagger swaps theta <-> thetabar and dtheta <-> dthetabar
DAGGER_NAME = {ENGINE_KIND[a]: b for a, b in (
    ("th", "thb"), ("thb", "th"), ("dth", "dthb"), ("dthb", "dth"))}
FAMILIES = ("psi", "phi")
# engine kind -> model name, to read an engine word back into the model
MODEL_NAME = {int(kind): name for name, kind in ENGINE_KIND.items()}
# the variable a measure symbol integrates out
VARIABLE_OF = {"dth": "th", "dthb": "thb"}
# int dthetabar dtheta, int dtheta dthetabar, int dtheta, int dthetabar:
# the measure orders, outermost first, that the benchmark's Berezin
# cases draw
MEASURES = (("dthb", "dth"), ("dth", "dthb"), ("dth",), ("dthb",))


def compose(d1, d2):
    """d1 d2 for dyads that compose: the identity passes the other one
    through, a present bra-ket pair of dual families is delta_ij, and
    None stands for zero."""
    if d1 == IDENTITY:
        return d2
    if d2 == IDENTITY:
        return d1
    bra_side, ket_side = d1[1], d2[0]
    if bra_side and bra_side[1] != ket_side[1]:
        return None
    return (d1[0], d2[1])


def composable(d1, d2):
    """Whether d1 d2 composes: bra of d1 and ket of d2 both absent, or
    both present and of dual families."""
    if IDENTITY in (d1, d2):
        return True
    bra_side, ket_side = d1[1], d2[0]
    return (bool(bra_side) == bool(ket_side)
            and (not bra_side or bra_side[0] != ket_side[0]))


def fock_apply(level, factors):
    """The raw word applied to the vacuum: (phase, word, uncovered, rows,
    label).

    ``word`` is the basis state as a canonical word, or None when the
    state is zero.  A factor records every pair it moves past even on a
    state that is already zero, because the engine refuses an uncovered
    pair before it tests nilpotency; ``uncovered`` says whether the word
    needs a pair that no rule covers, and ``rows`` lists the relation
    rows, and the ``SIDE_PHASE`` keys, that contributed a phase.
    ``factors`` may hold dyads, which only variables may cross; ``label``
    is their composition, None when it vanishes."""
    k = {g: 0 for g in GENERATORS}
    phase, uncovered, rows, label = 0, False, set(), IDENTITY
    for factor in reversed(factors):
        if len(factor) == 2:
            # the monomial right of the dyad crosses it leftward
            for role, side in zip(("ket", "bra"), factor):
                for g, e in k.items():
                    if side and e:
                        step = SIDE_PHASE[g[0], role] * (side[1] - 1) * e
                        phase -= step
                        if step % level:
                            rows.add((g[0], role))
            label = None if label is None else compose(factor, label)
            continue
        name, i, exp = factor
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
    if label is None or any(e >= level for e in k.values()):
        return 0, None, uncovered, rows, label
    word = tuple((int(ENGINE_KIND[g[0]]), g[1], k[g])
                 for g in GENERATORS if k[g])
    return phase % level, word, uncovered, rows, label


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
            phase, word, uncovered, rows, _ = fock_apply(n, factors)
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


def _short_words(rng, level):
    """A left word in any generators and a right word in theta and
    thetabar alone, the factors that may cross a dyad.  Half the cases
    use one index, where every pair is covered, so that words survive."""
    i = rng.choice((None, None, None) + INDICES)
    pool = [g for g in GENERATORS if i in (None, g[1])]
    return [[(*rng.choice(gens), rng.randrange(1, level))
             for _ in range(rng.randrange(4))]
            for gens in (pool, [g for g in pool if g in VARIABLES])]


def _dyad(rng, level):
    """The identity, a ket, a bra or an outer product, any families."""
    sides = [(), ()]
    for s in rng.sample(range(2), rng.randrange(3)):
        sides[s] = (rng.choice(FAMILIES), rng.randrange(level))
    return tuple(sides)


def _engine(factors):
    return [(ENGINE_KIND[name], i, e) for name, i, e in factors]


def _expected(level, phase, word, label):
    if word is None:
        return OpExpr.zero(level)
    return OpExpr(level, {(word, label): Scalar.q(level, phase)})


def _dagger_of(level, phase, word, label):
    """The model's dagger of q^phase word label: the flipped dyad, then
    the word reversed with theta <-> thetabar and dtheta <-> dthetabar,
    which crosses it; the coefficient is conjugated."""
    flipped = [(label[1], label[0])] + [(DAGGER_NAME[kind], i, e)
                                        for kind, i, e in reversed(word)]
    p, w, uncovered, _, d = fock_apply(level, flipped)
    if uncovered:
        return None
    return _expected(level, (p - phase) % level, w, d)


def test_fock_model_matches_ket_and_bra_crossings():
    # (left * dyad) @ right, and its dagger, which reverses the word to
    # the right of the flipped dyad
    rng = random.Random(20261019)
    for n in range(2, 9):
        one = Scalar.one(n)
        accepted = refused = vanished = daggers = 0
        rows_seen = set()
        for _ in range(400):
            (left, right), dyad = _short_words(rng, n), _dyad(rng, n)
            phase, word, uncovered, rows, label = fock_apply(
                n, left + [dyad] + right)
            assert label == dyad

            def product():
                return (op_term(n, one, dyad, _engine(left))
                        @ op_term(n, one, IDENT, _engine(right)))

            # each factor is normal ordered on its own before the product
            alone = [fock_apply(n, part)[1:3] for part in (left, right)]
            factor_vanishes = any(w is None for w, _ in alone)
            if any(u for _, u in alone) or (uncovered and not factor_vanishes):
                with pytest.raises(UnspecifiedRelationError):
                    product()
                refused += 1
                continue
            if factor_vanishes:
                word = None
            got = product()
            assert got == _expected(n, phase, word, label), (
                n, left, dyad, right)
            if word is None:
                vanished += 1
                continue
            accepted += 1
            rows_seen |= rows
            if dyad == IDENTITY or all(
                    kind in (Kind.THETA, Kind.THETABAR) for kind, _, _ in word):
                want = _dagger_of(n, phase, word, label)
                if want is None:
                    with pytest.raises(UnspecifiedRelationError):
                        op_dagger(got)
                else:
                    assert op_dagger(got) == want
                    daggers += 1
        # both variables cross both sides with a phase on surviving words
        assert set(SIDE_PHASE) <= rows_seen, (n, rows_seen)
        assert min(accepted, refused, vanished) >= 50, (
            n, accepted, refused, vanished)
        assert daggers >= 100, (n, daggers)
    # measure symbols cannot cross a ket or bra
    with pytest.raises(EngineError, match="measure"):
        op_term(3, Scalar.one(3), ((), ("psi", 1))) @ op_term(
            3, Scalar.one(3), IDENT, [(Kind.DTHETA, 1, 1)])


def fock_integrate(level, measure, factors):
    """int measure * factors in the model, every symbol at index 1:
    (phase, remaining word) or None when the integral vanishes."""
    phase, word, uncovered, _, _ = fock_apply(
        level, [(symbol, 1, 1) for symbol in measure] + factors)
    assert not uncovered
    if word is None:
        return None
    k = {(MODEL_NAME[kind], i): e for kind, i, e in word}
    # the innermost symbol is the one filed last
    for symbol in sorted(measure, key=KINDS.index, reverse=True):
        own, variable = (symbol, 1), (VARIABLE_OF[symbol], 1)
        for g in GENERATORS[GENERATORS.index(own) + 1:
                            GENERATORS.index(variable)]:
            # g own = q^e own g, so own g^k = q^(-e k) g^k own
            if k.get(g):
                phase -= M[(g, own)][0] * k[g]
        if k.get(variable) != level - 1:
            return None
        del k[own], k[variable]
    rest = tuple((int(ENGINE_KIND[g[0]]), g[1], k[g])
                 for g in GENERATORS if k.get(g))
    return phase % level, rest


def _single_index_word(rng, level):
    """theta_1 and thetabar_1 factors in random order.  Most total
    degrees are level - 1, so that integrals survive; a total of level
    makes the word vanish."""
    factors = []
    for name in ("th", "thb"):
        total = (level - 1 if rng.random() < 0.7
                 else rng.randrange(level + 1))
        while total:
            e = rng.randint(1, total)
            factors.append((name, 1, e))
            total -= e
    rng.shuffle(factors)
    return factors


def test_fock_model_matches_integration():
    rng = random.Random(20261021)
    for n in range(2, 9):
        for measure in MEASURES:
            survived = phased = 0
            for _ in range(150):
                factors = _single_index_word(rng, n)
                want = fock_integrate(n, measure, factors)
                qe, rest = integrate_word(
                    n, _engine(factors),
                    [(ENGINE_KIND[symbol], 1) for symbol in measure])
                if want is None:
                    assert rest is None, (n, measure, factors)
                    continue
                assert (qe % n, rest) == want, (n, measure, factors)
                survived += 1
                phased += bool(want[0])
            # every order keeps terms, and most of them carry a phase
            assert survived >= 40 and phased >= 20, (
                n, measure, survived, phased)


def test_fock_model_matches_single_term_products():
    # (w1 d1)(w2 d2): w2 crosses d1, the dyads compose, and the word is
    # normal ordered, the same as the model's raw word w1 d1 w2 d2
    rng = random.Random(20261020)
    for n in range(2, 9):
        one = Scalar.one(n)
        accepted = zero = 0
        for _ in range(400):
            d2 = _dyad(rng, n)
            d1 = _dyad(rng, n)
            while not composable(d1, d2):
                d1 = _dyad(rng, n)
            w1, w2 = _short_words(rng, n)
            phase, word, uncovered, _, label = fock_apply(
                n, w1 + [d1] + w2 + [d2])
            if uncovered:
                continue
            a = op_term(n, one, d1, _engine(w1))
            b = op_term(n, one, d2, _engine(w2))
            assert a @ b == _expected(n, phase, word, label), (
                n, w1, d1, w2, d2)
            if word is None:
                zero += 1
            else:
                accepted += 1
        assert min(accepted, zero) >= 100, (n, accepted, zero)
