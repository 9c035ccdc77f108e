"""Orders of growth pinned by counting calls, never by timing.

Each test runs a suite under a counting wrapper, installed with
monkeypatch, and asserts the count as a stated function of n.  A change
that makes a layer do more work per level fails here, whatever the
machine's speed.
"""

import pytest

from grassq import opalg, resolution
from grassq.coherent import check_stability, make_coherent
from grassq.opalg import PHI, PSI
from grassq.resolution import (MIXED_PAIRS, SAME_PAIRS, closed_form_weight,
                               solve_weight, verify_resolution)
from grassq.scalars import Cyclo, Scalar
from grassq.suites import run_suite


def _count(monkeypatch, owner, name):
    """A list that grows by one on each call of ``owner.name``."""
    plain, calls = getattr(owner, name), []

    def counting(*args):
        calls.append(None)
        return plain(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("n", (16, 32, 64))
def test_the_coherent_suite_makes_ten_single_term_products_per_symbol(
        n, monkeypatch, fresh_caches):
    # every coefficient product of the coherent suite goes through
    # Scalar.__mul__: 10 per symbol s_1..s_(n-1), so a faster suite has
    # cheaper products, not fewer
    plain, calls = Scalar.__mul__, []

    def counting(self, other, k=0):
        calls.append(k)
        return plain(self, other, k)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    report = run_suite("coherent", (n, n), max_n=n)
    assert {c.status for c in report.checks} == {"pass"}
    assert len(calls) == 10 * (n - 1)


@pytest.mark.parametrize("n", (16, 32, 64))
def test_the_coherent_suite_places_files_and_multiplies_linearly(
        n, monkeypatch, fresh_caches):
    # ordering, filing, the coefficient field and the ladder, each counted
    # over a fresh coherent run: 12n - 4 words placed, 8 right operands
    # filed whatever n, one Cyclo product per Scalar.__mul__, and b's n - 1
    # symbols as the only Scalar.s calls, since both eigen checks and both
    # exponential forms share one ladder per level
    placed = _count(monkeypatch, opalg, "_place")
    filed = _count(monkeypatch, opalg, "_file_bras")
    products = _count(monkeypatch, Cyclo, "__mul__")
    symbols = _count(monkeypatch, Scalar, "s")
    report = run_suite("coherent", (n, n), max_n=n)
    assert {c.status for c in report.checks} == {"pass"}
    assert len(placed) == 12 * n - 4
    assert len(filed) == 8
    assert len(products) == 10 * (n - 1)
    assert len(symbols) == n - 1


@pytest.mark.parametrize("n", (16, 32, 64))
def test_a_stability_check_forms_no_coefficient_product(
        n, monkeypatch, fresh_caches):
    # with its state already built, each u phase is a shift of the key's
    # u field, so neither a Scalar nor a Cyclo product is formed
    for family in (PSI, PHI):
        make_coherent(n, family)
    products = _count(monkeypatch, Scalar, "__mul__")
    field_products = _count(monkeypatch, Cyclo, "__mul__")
    for family in (PSI, PHI):
        assert check_stability(n, family).is_zero
    assert len(products) == 0
    assert len(field_products) == 0


@pytest.mark.parametrize("n", (16, 32, 64))
def test_the_weight_solve_makes_one_product_and_one_inverse_per_entry(
        n, monkeypatch, fresh_caches):
    # with the coherent states already built, each of the n diagonal
    # entries is one Scalar.__mul__ and one monomial_inverse
    solve_weight(n)
    products = _count(monkeypatch, Scalar, "__mul__")
    inverses = _count(monkeypatch, Scalar, "monomial_inverse")
    solve_weight(n)
    assert len(products) == n
    assert len(inverses) == n


@pytest.mark.parametrize("n", (16, 32, 64))
def test_a_resolution_check_visits_only_the_degrees_its_weight_holds(
        n, monkeypatch, fresh_caches):
    # each of the five resolution checks looks up the pairs its diagonal
    # weight reads: the weight degrees it iterates and tests for
    # membership come to at most 2n, where a walk over every (ket term,
    # bra term) pair makes n^2 membership tests
    visits = []

    class Counted(dict):
        def __iter__(self):
            for key in super().__iter__():
                visits.append(key)
                yield key

        def __contains__(self, key):
            visits.append(key)
            return super().__contains__(key)

    plain = resolution._coefficients
    monkeypatch.setattr(resolution, "_coefficients",
                        lambda weight: Counted(plain(weight)))
    weight = closed_form_weight(n)
    checks = ([(pair, False) for pair in MIXED_PAIRS + SAME_PAIRS]
              + [((PSI, PHI), True)])
    for pair, evolved in checks:
        visits.clear()
        defect = verify_resolution(weight, pair, evolved)
        assert defect.is_zero == (pair in MIXED_PAIRS), (pair, evolved)
        assert len(visits) <= 2 * n, (pair, evolved, len(visits))
