"""Orders of growth pinned by counting calls, never by timing.

Each test runs a suite under a counting wrapper, installed with
monkeypatch, and asserts the count as a stated function of n.  A change
that makes a layer do more work per level fails here, whatever the
machine's speed.
"""

import pytest

from grassq.scalars import Scalar
from grassq.suites import run_suite


@pytest.mark.parametrize("n", (16, 32, 64))
def test_the_coherent_suite_makes_ten_single_term_products_per_symbol(
        n, monkeypatch, fresh_caches):
    # every coefficient product of the coherent suite goes through
    # Scalar._mul_q: 10 per symbol s_1..s_(n-1), so a faster suite has
    # cheaper products, not fewer
    plain, calls = Scalar._mul_q, []

    def counting(self, other, k):
        calls.append(k)
        return plain(self, other, k)

    monkeypatch.setattr(Scalar, "_mul_q", counting)
    report = run_suite("coherent", (n, n), max_n=n)
    assert {c.status for c in report.checks} == {"pass"}
    assert len(calls) == 10 * (n - 1)
