import random

import pytest

from grassq.errors import EngineError, UnspecifiedRelationError
from grassq.galg import (GExpr, Kind, berezin, d_theta, d_thetabar, grade,
                         integrate_word, normalize_word)
from grassq.scalars import Scalar

from conftest import (random_gexpr, random_single_pair_word,
                      random_two_index_word, word_operator)
from rewrite_oracle import (has_uncovered_inversion, integrate_by_swaps,
                            rewrite, rewrite_gexpr)


def th(index=1, power=1):
    return (Kind.THETA, index, power)


def tb(index=1, power=1):
    return (Kind.THETABAR, index, power)


def g(level, *factors, coeff=None):
    """``coeff`` (default 1) times the raw product of ``factors``."""
    one = Scalar.one(level)
    return GExpr.from_raw(level, [(one if coeff is None else coeff, factors)])


def test_exchange_rule_examples():
    n = 3
    # thetabar theta reorders to q theta thetabar (single pair)
    assert g(n, tb(), th()) == g(n, th(), tb(), coeff=Scalar.q(n))
    # nilpotency at n=2
    assert g(2, th(), th()).is_zero
    # theta_2 theta_1 reorders to qbar theta_1 theta_2
    assert g(3, th(2), th(1)) == g(3, th(1), th(2), coeff=Scalar.q(3, -1))
    # mixed-kind exchange applies at any common index
    assert g(3, tb(2), th(2)) == g(3, th(2), tb(2), coeff=Scalar.q(3))


def test_mul_examples():
    for n in (2, 3, 4, 5):
        assert g(n, th(), th(power=n - 2)) == g(n, th(power=n - 1))
        assert g(n, th(), th(power=n - 1)).is_zero


def test_square_of_theta_plus_thetabar():
    # exhaustive rule application: (th + thb)^2 = th^2 + (1+q) th thb + thb^2
    n = 3
    one = Scalar.one(n)
    square = GExpr.from_raw(n, [(one, [a, b]) for a in (th(), tb())
                                for b in (th(), tb())])
    expected = (g(n, th(power=2))
                + g(n, th(), tb(), coeff=one + Scalar.q(n))
                + g(n, tb(power=2)))
    assert square == expected


def test_fermionic_limit():
    # n=2 is the ordinary Grassmann algebra: q = -1, anticommuting pair
    assert g(2, th(), tb()) == g(2, tb(), th(), coeff=-Scalar.one(2))
    assert g(2, tb(), tb()).is_zero
    assert berezin(g(2, th()), [d_theta()]) == g(2)


def test_unspecified_relations_refused():
    with pytest.raises(UnspecifiedRelationError):
        g(3, tb(2), th(1))
    with pytest.raises(UnspecifiedRelationError):
        GExpr.from_raw(3, [(Scalar.one(3),
                            [(Kind.DTHETA, 2, 1), (Kind.DTHETA, 1, 1)])])
    with pytest.raises(UnspecifiedRelationError):
        GExpr.from_raw(3, [(Scalar.one(3),
                            [(Kind.THETA, 1, 1), (Kind.DTHETA, 2, 1)])])
    # in-order cross-index products need no rule and stay legal
    assert not g(3, th(1), tb(2)).is_zero


def test_normal_order_idempotent_and_confluent():
    rng = random.Random(11)
    for trial in range(400):
        n = rng.choice([2, 3, 4])
        raw = random_single_pair_word(rng, n, 6)
        reference = GExpr.from_raw(n, [(Scalar.one(n), raw)])
        # normal ordering the canonical terms again changes nothing
        assert GExpr.from_raw(n, ((c, w) for w, c in reference.terms.items())) \
            == reference
        shuffled = rewrite_gexpr(n, raw, random.Random(trial))
        assert shuffled == reference, raw


def test_multi_index_same_kind_confluence():
    rng = random.Random(13)
    for trial in range(200):
        n = rng.choice([2, 3, 4])
        raw = [(Kind.THETA, rng.randrange(1, 4), rng.randrange(1, n))
               for _ in range(rng.randrange(1, 6))]
        a = GExpr.from_raw(n, [(Scalar.one(n), raw)])
        b = rewrite_gexpr(n, raw, random.Random(trial))
        assert a == b, raw


def test_uncovered_pair_raises_before_nilpotency():
    # dth1^2 ... dth1^3 vanishes, but dthb2 must pass thb1 and dth1, which
    # no rule covers: the result may not depend on what is met first
    word = [(Kind.DTHETA, 1, 2), (Kind.THETABAR, 1, 1), (Kind.DTHETA, 1, 3),
            (Kind.DTHETABAR, 2, 4), (Kind.THETABAR, 2, 4)]
    with pytest.raises(UnspecifiedRelationError):
        normalize_word(5, word)
    # a raw factor at the level vanishes only if no uncovered pair is out
    # of order
    with pytest.raises(UnspecifiedRelationError):
        normalize_word(3, [(Kind.THETABAR, 2, 1), (Kind.THETA, 1, 3)])
    assert normalize_word(3, [(Kind.THETA, 1, 3), (Kind.THETABAR, 2, 1)]) \
        == (0, None)


def test_two_index_words_against_the_rewrite_oracle():
    rng = random.Random(29)
    seen = {"agree": 0, "raise": 0, "vanish": 0}
    for n in range(2, 7):
        for trial in range(300):
            raw = random_two_index_word(rng, n)
            outcomes = set()
            for order in range(8):
                try:
                    qe, word = rewrite(n, raw, random.Random(8 * trial + order))
                    outcomes.add((qe % n, word))
                except UnspecifiedRelationError:
                    outcomes.add("raise")
            if (0, None) in outcomes:
                seen["vanish"] += 1
                if has_uncovered_inversion(raw):
                    with pytest.raises(UnspecifiedRelationError):
                        normalize_word(n, raw)
                else:
                    assert normalize_word(n, raw) == (0, None), raw
            elif outcomes == {"raise"}:
                seen["raise"] += 1
                with pytest.raises(UnspecifiedRelationError):
                    normalize_word(n, raw)
            else:
                seen["agree"] += 1
                (want_qe, want_word), = outcomes
                qe, word = normalize_word(n, raw)
                assert word == want_word and qe % n == want_qe, raw
    assert min(seen.values()) > 0, seen


def _outcome(integrate, level, word, measure):
    try:
        return integrate(level, word, measure)
    except EngineError as exc:
        return type(exc), str(exc)


def test_closed_form_integration_matches_the_swap_oracle():
    # raw words over all four kinds at indices 1..3, exponents up to the
    # level; half of them also hold the degree n-1 block of each measure
    # symbol, so that integrals survive as well as vanish and raise
    rng = random.Random(31)
    symbols = [(kind, index) for kind in (Kind.DTHETA, Kind.DTHETABAR)
               for index in (1, 2, 3)]
    seen = {"survive": 0, "vanish": 0, "raise": 0}
    for trial in range(4000):
        n = rng.choice([2, 3, 4, 5])
        measure = rng.sample(symbols, rng.randrange(4))
        word = [(rng.choice(list(Kind)), rng.randrange(1, 4),
                 rng.randrange(1, n + 1))
                for _ in range(rng.randrange(4))]
        if trial % 2:
            word += [(Kind.THETA if kind == Kind.DTHETA else Kind.THETABAR,
                      index, n - 1) for kind, index in measure]
            rng.shuffle(word)
        want = _outcome(integrate_by_swaps, n, word, measure)
        assert _outcome(integrate_word, n, word, measure) == want, \
            (n, word, measure)
        seen["raise" if isinstance(want[0], type) else
             "vanish" if want[1] is None else "survive"] += 1
    assert min(seen.values()) > 100, seen


def test_mul_associative():
    # the graded product of word sums is the operator product on the
    # identity dyad
    rng = random.Random(17)
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        a, b, c = (word_operator(random_gexpr(rng, n)) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_berezin_degree_selection():
    for n in (2, 3, 4, 5):
        assert berezin(g(n, th(power=n - 1)), [d_theta()]) == g(n)
        for k in range(1, n - 1):
            assert berezin(g(n, th(power=k)), [d_theta()]).is_zero
        assert berezin(g(n), [d_theta()]).is_zero
        assert berezin(g(n, tb(power=n - 1)), [d_thetabar()]) == g(n)


def test_berezin_double_integral_regression_constant():
    # the fixed strategy leaves no residual phase: the value is 1 per n
    for n in (2, 3, 4, 5, 6):
        top = g(n, th(power=n - 1), tb(power=n - 1))
        assert berezin(top, [d_thetabar(), d_theta()]) == g(n)


def test_berezin_full_delta_law():
    for n in (2, 3, 4):
        for a in range(n):
            for b in range(n):
                word = g(n, th(power=a), tb(power=b))
                result = berezin(word, [d_thetabar(), d_theta()])
                if a == n - 1 and b == n - 1:
                    assert result == g(n)
                else:
                    assert result.is_zero, (n, a, b)


def test_berezin_is_linear():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        a, b = random_gexpr(rng, n), random_gexpr(rng, n)
        measure = [d_thetabar(), d_theta()]
        assert berezin(a + b, measure) == berezin(a, measure) + berezin(b, measure)
        c = Scalar.q(n) * Scalar.s(n, 1)
        scaled = [(x * c, w) for w, x in a.terms.items()]
        assert berezin(GExpr.from_raw(n, scaled), measure) == \
            GExpr.from_raw(n, [(x * c, w) for w, x in
                               berezin(a, measure).terms.items()])


def test_berezin_input_validation():
    with pytest.raises(EngineError):
        berezin(g(3, th()), [d_theta(), d_theta()])
    with pytest.raises(EngineError):
        berezin(g(3, th()), [(Kind.THETA, 1)])
    integrand = GExpr.from_raw(3, [(Scalar.one(3), [(Kind.DTHETA, 1, 1)])])
    with pytest.raises(EngineError):
        berezin(integrand, [d_thetabar()])


def test_grade():
    word = list(g(3, th(power=2), tb()).terms)[0]
    assert grade(word) == (2, 1)
    assert grade(()) == (0, 0)
    for n in (2, 3, 4):
        word = list(g(n, tb(power=n - 1)).terms)[0]
        assert grade(word) == (0, n - 1)
    # degrees add over indices
    word = list(g(4, th(1, 2), th(2), tb(2)).terms)[0]
    assert grade(word) == (3, 1)
    # a measure symbol has no degree, wherever it stands
    for raw in ([(Kind.DTHETA, 1, 1)], [th(), (Kind.DTHETABAR, 1, 1)],
                [(Kind.DTHETA, 2, 1), tb(power=2)]):
        word = list(g(3, *raw).terms)[0]
        with pytest.raises(EngineError, match="measure symbol"):
            grade(word)


def test_nilpotency_every_generator():
    for n in (2, 3, 4):
        for build in (th, tb):
            assert g(n, build(power=n - 1), build()).is_zero


# The exchange rules as the galg module docstring states them, written
# here as data and not read from the engine: (A, B, r) is A B = q^r B A at
# a common index.  Two variables of one kind at indices i < j follow
# theta_i theta_j = q theta_j theta_i (thetabar alike); nothing else has a
# rule.
_DOC_RULES = [(Kind.THETA, Kind.THETABAR, -1), (Kind.THETA, Kind.DTHETABAR, 1),
              (Kind.THETABAR, Kind.DTHETA, 1), (Kind.THETA, Kind.DTHETA, -1),
              (Kind.THETABAR, Kind.DTHETABAR, -1),
              (Kind.DTHETA, Kind.DTHETABAR, -1)]


def _doc_exponent(left, right):
    """The q exponent of left*right = q^e right*left for unit generators
    (kind, index) with right canonically first; None when no rule applies."""
    (lk, li), (rk, ri) = left, right
    if lk == rk:
        return -1 if lk in (Kind.THETA, Kind.THETABAR) else None
    if li != ri:
        return None
    for a, b, r in _DOC_RULES:
        if (lk, rk) == (a, b):
            return r
        if (lk, rk) == (b, a):
            return -r
    return None


def _normal_outcome(normalize, level, raw):
    try:
        return normalize(level, raw)
    except UnspecifiedRelationError as exc:
        return "raise", str(exc)


def test_every_ordered_kind_pair_against_the_rules_and_the_oracle():
    # each ordered pair of kinds, at one index and at two, in both index
    # orders: the phase (or refusal) follows the docstring's rules, and the
    # refusal text is the step-by-step oracle's
    n = 5
    seen = {"ordered": 0, "swap": 0, "merge": 0, "raise": 0}
    for lk in Kind:
        for rk in Kind:
            for li, ri in ((1, 1), (1, 2), (2, 1)):
                for e1, e2 in ((1, 1), (2, 3), (3, 1)):
                    raw = [(lk, li, e1), (rk, ri, e2)]
                    got = _normal_outcome(normalize_word, n, raw)
                    assert got == _normal_outcome(rewrite, n, raw), raw
                    if (lk, li) == (rk, ri):
                        want = ((0, None) if e1 + e2 >= n
                                else (0, ((int(lk), li, e1 + e2),)))
                        seen["merge"] += 1
                    elif (lk, li) < (rk, ri):
                        want = (0, ((int(lk), li, e1), (int(rk), ri, e2)))
                        seen["ordered"] += 1
                    elif (e := _doc_exponent((lk, li), (rk, ri))) is None:
                        assert got[0] == "raise", raw
                        seen["raise"] += 1
                        continue
                    else:
                        want = (e * e1 * e2,
                                ((int(rk), ri, e2), (int(lk), li, e1)))
                        seen["swap"] += 1
                    assert got == want, raw
                    # the word stores plain ints, whatever the input held
                    assert all(type(k) is int for k, _, _ in got[1] or ())
    assert min(seen.values()) > 0, seen


def test_a_vanishing_word_holding_an_uncovered_pair_still_raises():
    # an uncovered out-of-order pair raises, naming that pair, even when
    # either of its factors already reaches the level
    n = 3
    generators = [(kind, index) for kind in Kind for index in (1, 2)]
    uncovered = [(left, right) for left in generators for right in generators
                 if left > right and _doc_exponent(left, right) is None]
    assert len(uncovered) > 10
    for (lk, li), (rk, ri) in uncovered:
        for raw in ([(lk, li, n), (rk, ri, 1)], [(lk, li, 1), (rk, ri, n)]):
            want = _normal_outcome(rewrite, n, raw)
            assert want[0] == "raise" or want == (0, None)
            got = _normal_outcome(normalize_word, n, raw)
            assert got[0] == "raise", raw
            assert got[1] == f"no exchange rule for {_name(lk, li)} and " \
                f"{_name(rk, ri)}"


def _name(kind, index):
    return {Kind.DTHETABAR: "dthb", Kind.DTHETA: "dth", Kind.THETA: "th",
            Kind.THETABAR: "thb"}[kind] + str(index)


# The four measure orders of the random-algebra benchmark workload.
_BENCH_MEASURES = (((Kind.DTHETABAR, 1), (Kind.DTHETA, 1)),
                   ((Kind.DTHETA, 1), (Kind.DTHETABAR, 1)),
                   ((Kind.DTHETA, 1),), ((Kind.DTHETABAR, 1),))


def test_integrate_word_matches_the_oracle_under_the_benchmark_measures():
    # every single-index word theta^a thetabar^b, in both orders and with a
    # theta split around the thetabar block, under each measure order
    survived = 0
    for n in range(2, 7):
        for a in range(n):
            for b in range(n):
                words = [[th(power=a), tb(power=b)], [tb(power=b), th(power=a)],
                         [th(power=a), tb(power=b), th()]]
                for word in words:
                    for measure in _BENCH_MEASURES:
                        want = _outcome(integrate_by_swaps, n, word, measure)
                        got = _outcome(integrate_word, n, word, measure)
                        assert got == want, (n, word, measure)
                        survived += isinstance(got[1], tuple)
    assert survived > 100
