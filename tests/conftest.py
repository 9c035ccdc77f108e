"""Shared builders for randomized property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from grassq import coherent, opalg, scalars, suq2
from grassq.galg import GExpr, Kind, normalize_word
from grassq.opalg import IDENT, OpExpr, PHI, PSI, ket, op_term, outer
from grassq.scalars import Cyclo, Scalar

# The process-wide caches that ``fresh_caches`` empties, and the two that it
# keeps: the field tables are pure functions of the level, which no engine
# mutant in the tests reaches.
CONSTRUCTION_CACHES = (coherent._build_coherent, opalg._build_ladder,
                       suq2._build_suq2)
FIELD_TABLES = (scalars._table, scalars.cyclotomic_polynomial)


def clear_construction_caches() -> None:
    for cache in CONSTRUCTION_CACHES:
        cache.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty the process-wide construction caches before and after the test.

    A test that counts engine calls then sees every build, and one that
    monkeypatches engine internals neither reads an object the unpatched
    engine built nor leaves a patched build behind for later tests.
    """
    clear_construction_caches()
    yield
    clear_construction_caches()


def bra(family: str, index: int) -> tuple:
    """The dyad <F_i|, written out as ``grassq.opalg`` defines a bra."""
    return ((), (family, index))


def random_scalar(rng: random.Random, level: int, max_terms: int = 3) -> Scalar:
    acc = Scalar.zero(level)
    for _ in range(rng.randrange(0, max_terms + 1)):
        key = tuple(rng.randrange(-2, 3) for _ in range(level))
        coeff = Cyclo(level, [Fraction(rng.randrange(-3, 4),
                                       rng.randrange(1, 4))
                              for _ in range(rng.randrange(1, 3))])
        acc = acc + Scalar(level, {key: coeff} if coeff else {})
    return acc


def random_single_pair_word(rng: random.Random, level: int,
                            max_factors: int = 5,
                            with_measures: bool = False) -> list:
    kinds = [Kind.THETA, Kind.THETABAR]
    if with_measures:
        kinds += [Kind.DTHETA, Kind.DTHETABAR]
    return [(rng.choice(kinds), 1, rng.randrange(1, level))
            for _ in range(rng.randrange(0, max_factors + 1))]


def random_two_index_word(rng: random.Random, level: int,
                          max_factors: int = 6) -> list:
    """Raw word over all four kinds at indices 1 and 2; exponents may
    reach the level, so raw nilpotency and uncovered pairs both occur."""
    return [(rng.choice(list(Kind)), rng.choice((1, 2)), rng.randrange(1, level + 1))
            for _ in range(rng.randrange(0, max_factors + 1))]


def random_gexpr(rng: random.Random, level: int, max_terms: int = 3) -> GExpr:
    items = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        coeff = Scalar.q(level, rng.randrange(level)) * Fraction(
            rng.randrange(-2, 3), rng.randrange(1, 3))
        items.append((coeff, random_single_pair_word(rng, level)))
    return GExpr.from_raw(level, items)


def word_operator(g: GExpr) -> OpExpr:
    """The word sum ``g`` as an operator: each word on the identity dyad."""
    return OpExpr(g.level, {(w, IDENT): c for w, c in g.terms.items()})


def diagonal_differences(a, b) -> list:
    """``(i, c_ii of a - c_ii of b)`` for each diagonal slot i of two weights,
    read off ``a - b``, which must hold no other word."""
    level = a.level
    diff = (a - b).terms
    words = [normalize_word(level, [(Kind.THETA, 1, i),
                                    (Kind.THETABAR, 1, i)])[1]
             for i in range(level)]
    assert set(diff) <= set(words), f"off-diagonal difference: {diff}"
    return [(i, diff.get(w, Scalar.zero(level))) for i, w in enumerate(words)]


def shifted_weight(plain):
    """A mutant of ``resolution._weight``: each c_kl filed under
    (k, l+1 mod n)."""
    return lambda level, coefficients: plain(level, {
        (k, (l + 1) % level): c for (k, l), c in coefficients.items()})


def random_standard_opexpr(rng: random.Random, level: int,
                           max_terms: int = 3) -> OpExpr:
    """Random operator in the standard orientation: psi kets, phi bras."""
    acc = OpExpr.zero(level)
    for _ in range(rng.randrange(1, max_terms + 1)):
        choice = rng.randrange(4)
        if choice == 0:
            dyad = IDENT
        elif choice == 1:
            dyad = ket(PSI, rng.randrange(level))
        elif choice == 2:
            dyad = bra(PHI, rng.randrange(level))
        else:
            dyad = outer(PSI, rng.randrange(level), PHI, rng.randrange(level))
        coeff = random_scalar(rng, level) + Scalar.one(level)
        acc = acc + op_term(level, coeff, dyad,
                            left=random_single_pair_word(rng, level, 3))
    return acc


def random_any_dyad_opexpr(rng: random.Random, level: int,
                           max_terms: int = 3) -> OpExpr:
    """Random expression with unrestricted family tags (for involutions)."""
    fams = (PSI, PHI)
    acc = OpExpr.zero(level)
    for _ in range(rng.randrange(1, max_terms + 1)):
        choice = rng.randrange(4)
        if choice == 0:
            dyad = IDENT
        elif choice == 1:
            dyad = ket(rng.choice(fams), rng.randrange(level))
        elif choice == 2:
            dyad = bra(rng.choice(fams), rng.randrange(level))
        else:
            dyad = outer(rng.choice(fams), rng.randrange(level),
                         rng.choice(fams), rng.randrange(level))
        coeff = random_scalar(rng, level) + Scalar.one(level)
        acc = acc + op_term(level, coeff, dyad,
                            left=random_single_pair_word(rng, level, 3))
    return acc


def random_real_spectrum_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    """Well-conditioned similarity transform of a distinct real diagonal."""
    energies = np.sort(rng.uniform(-2.0, 2.0, size=size))
    while np.min(np.diff(energies)) < 0.3:
        energies = np.sort(rng.uniform(-2.0 * size, 2.0 * size, size=size))
    while True:
        S = np.eye(size) + 0.35 * rng.standard_normal((size, size))
        if np.linalg.cond(S) < 50:
            break
    return S @ np.diag(energies) @ np.linalg.inv(S)
