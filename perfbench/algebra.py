"""Seeded inputs and an independent reference for the random-algebra workload.

Inputs are plain Python data drawn from ``random.Random(seed)``; the
grassq objects are built from them during set-up.  Each case is checked
against a reference that does not share code with grassq's rewriting:

* a normal-ordering phase is the sum, over every inverted pair of
  factors, of the exchange exponent given by the defining relations
  (quoted from the paper, below) times both exponents, instead of
  grassq's step-by-step bubble sort;
* a Berezin integral of a single-index word follows the rule
  ``int dtheta theta^(n-1) = 1`` on that reference order;
* operator sums must obey (xy)z = x(yz) and dagger involution, and
  dense ``Cyclo`` elements must obey a a^-1 = 1 and conjugation laws;
  a sample of those field results is also compared with sympy outside
  the timed region (see ``oracle.py``).

About one case in ten must be refused: a word whose reordering needs an
exchange rule the algebra does not define, or a composition that needs a
same-family overlap.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# Mixes primes (5, 7, 11) with composites (6, 8, 9, 10, 12), so both full
# degree and reduced-degree cyclotomic fields are exercised.
LEVELS = (5, 6, 7, 8, 9, 10, 11, 12)

# Generator kinds, numbered as grassq.galg.Kind (canonical order).
DTHB, DTH, TH, THB = 0, 1, 2, 3

# "X Y = q^f Y X" for distinct kinds at one index, from the relations
#   theta thetabar = qbar thetabar theta, theta dthetabar = q dthetabar theta,
#   thetabar dtheta = q dtheta thetabar,  theta dtheta = qbar dtheta theta,
#   thetabar dthetabar = qbar dthetabar thetabar,
#   dtheta dthetabar = qbar dthetabar dtheta.
_RELATION = {(TH, THB): -1, (TH, DTHB): 1, (THB, DTH): 1, (TH, DTH): -1,
             (THB, DTHB): -1, (DTH, DTHB): -1}

MEASURES = (((DTHB, 1), (DTH, 1)), ((DTH, 1), (DTHB, 1)),
            ((DTH, 1),), ((DTHB, 1),))

# Cases per level and round; the two refusal kinds make one case in ten.
CASE_MIX = (("word", 8), ("berezin", 5), ("operators", 2), ("cyclo", 3),
            ("word-refused", 1), ("gram-refused", 1))


class Unspecified(Exception):
    """The reference found a pair no defining relation covers."""


def exchange(x: tuple[int, int], y: tuple[int, int]) -> int:
    """f with X Y = q^f Y X for unit generators X = x, Y = y."""
    (xk, xi), (yk, yi) = x, y
    if xk == yk:
        if xk in (TH, THB) and xi != yi:
            # theta_i theta_j = q theta_j theta_i for i < j (same for bars)
            return 1 if xi < yi else -1
        raise Unspecified(x, y)
    if xi != yi:
        raise Unspecified(x, y)
    if (xk, yk) in _RELATION:
        return _RELATION[(xk, yk)]
    return -_RELATION[(yk, xk)]


def reference_order(level: int, raw) -> tuple[int, tuple | None]:
    """(phase, canonical word) of a raw product, or (0, None) when zero.

    Raises :class:`Unspecified` only when the product does not vanish by
    nilpotency, since grassq may stop at the vanishing before it meets
    the undefined pair.
    """
    fs = [(k, i, e) for k, i, e in raw if e]
    if any(e >= level for _, _, e in fs):
        return 0, None
    totals: dict[tuple[int, int], int] = {}
    for k, i, e in fs:
        totals[(k, i)] = totals.get((k, i), 0) + e
    if any(t >= level for t in totals.values()):
        return 0, None
    phase = 0
    for a in range(len(fs)):
        ka, ia, ea = fs[a]
        for b in range(a + 1, len(fs)):
            kb, ib, eb = fs[b]
            if (ka, ia) > (kb, ib):
                phase += exchange((ka, ia), (kb, ib)) * ea * eb
    return phase, tuple((k, i, totals[(k, i)]) for k, i in sorted(totals))


def reference_integral(level: int, raw, measure) -> tuple[int, tuple | None]:
    """int measure * raw for a single-index word: (phase, rest) or (0, None)."""
    phase, fs = reference_order(level, [(k, i, 1) for k, i in measure]
                                + list(raw))
    if fs is None:
        return 0, None
    fs = list(fs)
    while True:
        measures = [p for p, f in enumerate(fs) if f[0] in (DTH, DTHB)]
        if not measures:
            return phase, tuple(fs)
        p = measures[-1]
        mk, mi, _ = fs[p]
        want = (TH if mk == DTH else THB, mi)
        rest = fs[p + 1:]
        block = next((j for j, f in enumerate(rest) if (f[0], f[1]) == want),
                     None)
        if block is None or rest[block][2] != level - 1:
            return 0, None
        for k, i, e in rest[:block]:
            phase += exchange((mk, mi), (k, i)) * e
        del fs[p + 1 + block]
        del fs[p]


# ---------------------------------------------------------------------------
# seeded input generation (plain data; no grassq objects)
# ---------------------------------------------------------------------------

def _rational(rng: random.Random, span: int = 9, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _scalar_data(rng: random.Random, level: int, max_terms: int = 2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(-1, 1) for _ in range(level))
        coeffs = [_rational(rng) for _ in range(rng.randint(1, 3))]
        coeffs[0] = coeffs[0] or Fraction(1)
        terms.append((key, coeffs))
    return terms


def _valid_word(rng: random.Random, level: int, indices: int):
    """Word over theta/thetabar of several indices that needs only defined
    exchanges: a thetabar_j never precedes a theta of another index.

    In one word out of five a generator's total degree reaches the level,
    so the word vanishes by nilpotency; the rest are fully reordered.
    """
    factors = {TH: [], THB: []}
    overflow = ((rng.choice((TH, THB)), rng.randint(1, indices))
                if rng.random() < 0.2 else None)
    for kind in (TH, THB):
        for index in range(1, indices + 1):
            total = (rng.randint(level, level + 2) if (kind, index) == overflow
                     else rng.randint(1, level - 1))
            while total:
                e = min(total, rng.choice((1, 1, 1, 2)))
                factors[kind].append((kind, index, e))
                total -= e
        rng.shuffle(factors[kind])
    ths, bars = factors[TH], factors[THB]
    word = []
    while ths or bars:
        take_bar = bars and (not ths or rng.random() < 0.5)
        if take_bar and all(i == bars[0][1] for _, i, _ in ths):
            word.append(bars.pop(0))
        elif ths:
            word.append(ths.pop(0))
        else:
            word.append(bars.pop(0))
    return word


def _refused_word(rng: random.Random, level: int):
    """A non-vanishing word that needs the undefined thetabar_j theta_i swap."""
    word = [(TH, 1 + (k % 3), 1) for k in range(rng.randint(3, 5))]
    word += [(THB, 1 + (k % 3), 1) for k in range(rng.randint(3, 5))]
    rng.shuffle(word)
    first = next(f for f in word if f[0] == THB)
    word.remove(first)
    return [first] + word


def _single_index_word(rng: random.Random, level: int):
    a = level - 1 if rng.random() < 0.8 else rng.randint(1, level - 2)
    b = level - 1 if rng.random() < 0.8 else rng.randint(1, level - 2)
    word = [(TH, 1, 1)] * a + [(THB, 1, 1)] * b
    rng.shuffle(word)
    return word


def _operator_data(rng: random.Random, level: int, terms: int):
    out = []
    for _ in range(terms):
        dyad = None if rng.random() < 0.25 else (
            rng.randrange(level), rng.randrange(level))
        word = [(rng.choice((TH, THB)), 1, rng.randint(1, level - 1))
                for _ in range(rng.randint(0, 2))]
        out.append((_scalar_data(rng, level, 1), dyad, word))
    return out


def totient(n: int) -> int:
    """Euler's phi, the degree of the n-th cyclotomic polynomial."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _dense_cyclo(rng: random.Random, degree: int):
    coeffs = [_rational(rng, 20, 12) for _ in range(degree)]
    coeffs[-1] = coeffs[-1] or Fraction(1)
    return coeffs


def generate(seed: int, rounds: int) -> list[dict]:
    """Case descriptions, reproducible from ``seed``.

    Each round adds the whole :data:`CASE_MIX` at every level, so the
    number of cases of each kind per level is fixed and only their
    contents depend on the seed.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(rounds):
        for level in LEVELS:
            for kind, weight in CASE_MIX:
                for _ in range(weight):
                    cases.append(_case(rng, kind, level))
    return cases


def _case(rng: random.Random, kind: str, level: int) -> dict:
    case = {"kind": kind, "level": level}
    if kind == "word":
        case["word"] = _valid_word(rng, level, rng.randint(3, 4))
    elif kind == "word-refused":
        case["word"] = _refused_word(rng, level)
    elif kind == "berezin":
        case["items"] = [(_scalar_data(rng, level),
                          _single_index_word(rng, level))
                         for _ in range(rng.randint(2, 4))]
        case["measure"] = rng.choice(MEASURES)
    elif kind in ("operators", "gram-refused"):
        case["ops"] = [_operator_data(rng, level, 4) for _ in range(3)]
    else:
        case["pair"] = [_dense_cyclo(rng, totient(level)) for _ in range(2)]
    return case
