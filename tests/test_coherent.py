import random
from collections import Counter
from importlib import import_module

import pytest

from conftest import (clear_construction_caches, random_scalar,
                      random_single_pair_word)
from rewrite_oracle import compose_by_pairs
from grassq import coherent, opalg
from grassq.coherent import (CoherentState, check_stability, evolve_state,
                             exponential_form, exponential_form_defect,
                             make_coherent, q_exponential, theta_time_shift,
                             verify_eigen)
from grassq.errors import NonTerminatingSeriesError
from grassq.galg import Kind, grade
from grassq.opalg import (IDENT, OpExpr, PHI, PSI, eta_conjugate, ket,
                          ket_op, make_ladder, op_dagger, op_term,
                          sharp_adjoint, theta_op)
from grassq.scalars import Cyclo, Scalar, _SparseSum, rho_factorial

TH = (Kind.THETA, 1, 1)


def test_closed_form_three_levels():
    n = 3
    state = make_coherent(n, PSI)
    inv_s1 = Scalar.s(n, 1, -1)
    inv_s1s2 = inv_s1 * Scalar.s(n, 2, -1)
    expected = (ket_op(n, PSI, 0)
                + op_term(n, Scalar.q(n, -1) * inv_s1, ket(PSI, 1), left=[TH])
                + op_term(n, inv_s1s2, ket(PSI, 2),
                          left=[(Kind.THETA, 1, 2)]))
    assert state.body == expected
    # the dual family has the same coefficients over phi kets
    assert make_coherent(n, PHI).body == eta_conjugate(expected)


def test_closed_form_two_levels():
    # at n=2 the i=1 phase qbar^1 = -1
    state = make_coherent(2, PSI)
    expected = ket_op(2, PSI, 0) + op_term(
        2, Scalar.from_rational(2, -1) * Scalar.s(2, 1, -1),
        ket(PSI, 1), left=[TH])
    assert state.body == expected


def test_default_state_is_built_once_per_level_and_family():
    assert make_coherent(5, PSI) is make_coherent(5, PSI)
    assert make_coherent(5) is make_coherent(5, PSI)
    keys = [(3, PSI), (4, PSI), (3, PHI)]
    states = [make_coherent(n, family) for n, family in keys]
    assert len({id(state) for state in states}) == len(keys)
    for (n, family), state in zip(keys, states):
        assert (state.level, state.family) == (n, family)
        assert {d[0][0] for _, d in state.body.terms} == {family}
        assert len(state.body.terms) == n


def test_leading_coefficient_is_one():
    for n in range(2, 7):
        body = make_coherent(n, PSI).body
        assert body.terms[((), ket(PSI, 0))] == Scalar.one(n)


def test_eigen_identities():
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = verify_eigen(make_coherent(n, family))
            assert defect.is_zero, (n, family, str(defect))


def test_corrupted_state_has_defect():
    n = 3
    good = make_coherent(n, PSI)
    bad_body = good.body + op_term(n, Scalar.one(n), ket(PSI, 1), left=[TH])
    bad = CoherentState(n, PSI, bad_body)
    defect = verify_eigen(bad)
    assert not defect.is_zero
    assert any(d == ket(PSI, 0) and grade(w) == (1, 0)
               for (w, d) in defect.terms)


def test_exponential_form_equivalence():
    for n in range(2, 17):
        for family in (PSI, PHI):
            defect = exponential_form_defect(make_coherent(n, family))
            assert defect.is_zero, (n, family, str(defect))


def test_q_exponential_of_zero():
    assert q_exponential(OpExpr.zero(3)) == OpExpr.identity(3)


def test_q_exponential_nontermination_guard():
    with pytest.raises(NonTerminatingSeriesError):
        q_exponential(OpExpr.identity(3))
    # on a state the rule is the same: arg^k |psi_0> never vanishes
    with pytest.raises(NonTerminatingSeriesError):
        q_exponential(OpExpr.identity(3), on=ket_op(3, PSI, 0))


def test_q_exponential_weights_are_the_inverse_factorials():
    # each weight is the one before times s_k^-2: 1/rho_k! to the byte
    for n in range(2, 13):
        weights = list(coherent._inverse_factorials(n))
        expected = [rho_factorial(n, k).monomial_inverse() for k in range(1, n)]
        assert weights == expected
        assert [str(w) for w in weights] == [str(w) for w in expected]


def _random_ket_sum(rng: random.Random, n: int, family: str) -> OpExpr:
    acc = OpExpr.zero(n)
    for _ in range(rng.randrange(1, 4)):
        acc = acc + op_term(n, random_scalar(rng, n) + Scalar.one(n),
                            ket(family, rng.randrange(n)),
                            left=random_single_pair_word(rng, n, 3))
    return acc


def test_q_exponential_on_a_state_matches_the_operator_applied():
    # e_q^arg on == (e_q^arg) @ on, to the byte; the identity is the default
    rng = random.Random(8)
    for n in range(2, 11):
        for family, raising in ((PSI, sharp_adjoint), (PHI, op_dagger)):
            arg = raising(make_ladder(n)) @ theta_op(n)
            series = q_exponential(arg)
            on_identity = q_exponential(arg, on=OpExpr.identity(n))
            assert on_identity == series
            assert str(on_identity) == str(series)
            for on in (ket_op(n, family, 0), _random_ket_sum(rng, n, family)):
                applied = q_exponential(arg, on=on)
                expected = series @ on
                assert applied == expected, (n, family)
                assert str(applied) == str(expected)


def test_eta_maps_between_families():
    for n in range(2, 7):
        psi = make_coherent(n, PSI)
        phi = make_coherent(n, PHI)
        assert eta_conjugate(psi.body) == phi.body


def test_evolution_default_spectrum():
    n = 3
    state = make_coherent(n, PSI)
    evolved = evolve_state(state)
    # E_k = -(n-k-2) E, so (E_0, E_1, E_2) = (-E, 0, E) at n=3
    for (w, d), c in evolved.terms.items():
        k = d[0][1]
        assert c == state.body.terms[(w, d)] * Scalar.u(n, -(n - k - 2))


def test_evolution_two_levels():
    # at n=2 the rule gives (E_0, E_1) = (0, E)
    state = make_coherent(2, PSI)
    evolved = evolve_state(state)
    for (w, d), c in evolved.terms.items():
        expected = state.body.terms[(w, d)] * Scalar.u(2, -(2 - d[0][1] - 2))
        assert c == expected
    assert evolved.terms[((), ket(PSI, 0))] == Scalar.one(2)


def test_evolution_at_time_zero():
    # u = 1 recovers the original state exactly, term by term: each
    # coefficient is one term, whose u exponent is dropped
    state = make_coherent(3, PSI)
    evolved = evolve_state(state)
    assert evolved.terms.keys() == state.body.terms.keys()
    for key, c in evolved.terms.items():
        (exponents, value), = c.monomials()
        at_u_one = Scalar(3, {exponents[:-1] + (0,): value})
        assert at_u_one == state.body.terms[key]


def test_stability():
    for n in range(2, 7):
        for family in (PSI, PHI):
            defect = check_stability(n, family)
            assert defect.is_zero, (n, family, str(defect))


def test_wrong_spectrum_breaks_stability():
    # E_k = k E instead of the stable -(n-k-2) E
    n = 3
    state = make_coherent(n, PSI)
    evolved = OpExpr(n, {(w, d): c * Scalar.u(n, d[0][1])
                         for (w, d), c in state.body.terms.items()})
    target = theta_time_shift(state.body).scale(Scalar.u(n, -(n - 2)))
    assert not (evolved - target).is_zero


def test_exponential_form_uses_the_right_vacuum():
    # the dual-family series is seeded on |phi_0>
    n = 3
    state = make_coherent(n, PHI)
    form = exponential_form(state)
    assert ((), ket(PHI, 0)) in form.terms
    assert all(d[0][0] == PHI for (_, d) in form.terms)


def test_coherent_products_contract_only_the_pairs_that_survive(
        monkeypatch, fresh_caches):
    # counts, not times: the plain pair walk contracts about n^2 pairs in
    # each check, the join at most n, and both place the same survivors
    n = 64
    counts = Counter()
    for name in ("_contract", "_place"):
        def counted(*args, plain=getattr(opalg, name), name=name):
            counts[name] += 1
            return plain(*args)
        monkeypatch.setattr(opalg, name, counted)
    state = make_coherent(n, PSI)
    for check in (verify_eigen, exponential_form_defect):
        counts.clear()
        defect = check(state)
        joined = dict(counts)
        with monkeypatch.context() as plain_walk:
            plain_walk.setattr(OpExpr, "__matmul__", compose_by_pairs)
            counts.clear()
            assert check(state) == defect
        assert joined.get("_contract", 0) <= n, (check, joined)
        assert counts["_contract"] >= (n - 1) ** 2, (check, counts)
        assert joined["_place"] == counts["_place"], (check, joined, counts)


def _counting_calls(monkeypatch, targets):
    """Count the calls of each ``(owner, attribute)`` in ``targets``."""
    calls = Counter()
    for owner, attr in targets:
        def counted(*args, plain=getattr(owner, attr), attr=attr):
            calls[attr] += 1
            return plain(*args)
        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_a_defect_that_holds_cancels_by_comparison_alone(
        monkeypatch, fresh_caches):
    # both sides of each exact check are formed first; the subtraction
    # then meets every term on both sides with equal values, so it forms
    # no Cyclo sum and negates no coefficient
    n = 8
    psi, phi = make_coherent(n, PSI), make_coherent(n, PHI)
    b, theta = make_ladder(n), theta_op(n)
    sides = {"eigen-psi": (b @ psi.body, theta @ psi.body),
             "eigen-phi": (eta_conjugate(b) @ phi.body, theta @ phi.body),
             "eta-map": (eta_conjugate(psi.body), phi.body)}
    for state in (psi, phi):
        sides[f"exp-form-{state.family}"] = (state.body,
                                             exponential_form(state))
        sides[f"stability-{state.family}"] = (
            evolve_state(state),
            theta_time_shift(state.body).scale(Scalar.u(n, -(n - 2))))
    calls = _counting_calls(monkeypatch, [(Cyclo, "_sum"),
                                          (_SparseSum, "__neg__")])
    for name, (lhs, rhs) in sides.items():
        assert (lhs - rhs).is_zero, name
        assert not calls, (name, calls)
    # the counters see a subtraction that does form sums and negations
    lhs, rhs = sides["eigen-psi"]
    assert not (lhs - rhs.scale(2)).is_zero
    assert calls["_sum"] == len(lhs.terms) > 0
    assert (OpExpr.zero(n) - rhs).terms
    assert calls["__neg__"] == len(rhs.terms)


def test_the_builders_merge_into_one_sum(monkeypatch, fresh_caches):
    # a state and an exponential series grow one dict term by term; no
    # partial sum is added, so none is copied
    n = 8
    adds = _counting_calls(monkeypatch, [(OpExpr, "__add__")])
    body = coherent._build_coherent.__wrapped__(n, PSI).body
    series = exponential_form(make_coherent(n, PHI))
    assert not adds
    # the terms in the order they were built, theta^i |psi_i> by i
    assert [(grade(w)[0], d) for w, d in body.terms] == [
        (i, ket(PSI, i)) for i in range(n)]
    assert body == make_coherent(n, PSI).body
    assert series == make_coherent(n, PHI).body


EIGEN_AND_EXP = {f"coherent/n=3/{c}" for c in (
    "eigen-psi", "eigen-phi", "exp-form-psi", "exp-form-phi")}

# One named engine mutant per rule, keyed "module.name" (a class attribute
# as "module.Class.name"), with the checks at n = 3 it must turn to fail.
COHERENT_MUTANTS = {
    # the crossing phase with its sign flipped: the placed word's theta
    # and thetabar degrees read the other way round
    "opalg.grade": (lambda plain: lambda word: plain(word)[::-1],
                    EIGEN_AND_EXP),
    # the index rule lost, so <phi_j|psi_i> = 1 for i != j, in the
    # contraction and in the product's filing alike
    "opalg._meets_at": (lambda plain: lambda side: 0, EIGEN_AND_EXP),
    # the fused coefficient step of a term pair without its q^e
    "scalars.Scalar.__mul__": (
        lambda plain: lambda self, other, k=0: plain(self, other, 0),
        EIGEN_AND_EXP),
    # the metric maps each family to itself
    "opalg._dual": (lambda plain: lambda family: family,
                    {"coherent/n=3/eta-map"}),
    # the spectrum one level off, E_k - E: a global u^-1 the check pins
    "coherent.evolve_state": (
        lambda plain: lambda state: plain(state).scale(
            Scalar.u(state.level, -1)),
        {"dynamics/n=3/stability-psi", "dynamics/n=3/stability-phi"}),
}


@pytest.mark.parametrize("name", sorted(COHERENT_MUTANTS))
def test_each_coherent_check_fails_under_a_named_mutant(
        name, monkeypatch, fresh_caches):
    # every coherent check and both stability checks have a row; other
    # checks may move.  fresh_caches keeps a state, and the terms it has
    # filed, from crossing between engines
    from grassq.suites import run_suite

    def statuses():
        return {c.id: c.status for selector in ("coherent", "dynamics")
                for c in run_suite(selector, (3, 3), max_n=3).checks}

    clean = statuses()
    table = {i for i in clean if not i.endswith("evolved-resolution")}
    assert set().union(*(flips for _, flips in
                         COHERENT_MUTANTS.values())) == table
    assert {clean[i] for i in table} == {"pass"}
    mutant, flips = COHERENT_MUTANTS[name]
    module, *path, attr = name.split(".")
    owner = import_module(f"grassq.{module}")
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    clear_construction_caches()
    mutated = statuses()
    assert {i: mutated[i] for i in flips} == {i: "fail" for i in flips}


def test_the_index_rule_mutant_fails_the_eigen_and_exp_checks_at_every_n(
        monkeypatch, fresh_caches):
    # the product files its left operand by the rule _contract reads, so
    # the mutant reaches every product, not only the small ones
    from grassq.suites import run_suite
    mutant, flips = COHERENT_MUTANTS["opalg._meets_at"]
    monkeypatch.setattr(opalg, "_meets_at", mutant(opalg._meets_at))
    clear_construction_caches()
    for n in (3, 8):
        checks = {c.id: c.status
                  for c in run_suite("coherent", (n, n), max_n=n).checks}
        at_n = {i.replace("n=3", f"n={n}") for i in flips}
        assert {i: checks[i] for i in at_n} == {i: "fail" for i in at_n}


def test_the_series_files_its_argument_once_and_probes_once_per_term(
        monkeypatch, fresh_caches):
    # counts, not times: each product files its left operand once and
    # probes it once per non-identity right term, so arg @ power walks
    # the one term of each power; walking arg's n-1 terms instead would
    # make about n^2 probes and file every power
    n = 64
    filed, lefts = [], []
    probes = right_terms = 0

    class Probed(dict):
        def get(self, key, default=None):
            nonlocal probes
            probes += key != IDENT
            return super().get(key, default)

    def file_bras(terms, plain=opalg._file_bras):
        filed.append(terms)
        buckets, firsts = plain(terms)
        return Probed(buckets), firsts

    def matmul(self, other, plain=OpExpr.__matmul__):
        nonlocal right_terms
        lefts.append(self)
        right_terms += sum(d != IDENT for _, d in other.terms)
        return plain(self, other)
    state = make_coherent(n, PSI)
    monkeypatch.setattr(opalg, "_file_bras", file_bras)
    monkeypatch.setattr(OpExpr, "__matmul__", matmul)
    assert exponential_form(state) == state.body
    # raising @ theta, then the n products arg @ power, the last one zero
    raising, arg = lefts[0], lefts[1]
    assert len(lefts) == n + 1 and all(x is arg for x in lefts[1:])
    assert [id(terms) for terms in filed] == [id(raising.terms),
                                              id(arg.terms)]
    assert probes == right_terms == n
