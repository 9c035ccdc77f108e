"""The three benchmark workloads.

``setup(name, seed)`` imports grassq, builds the inputs and returns the
list of operations of one pass.  Each operation is a ``(label, fn)`` pair;
``fn()`` does the work, judges its own outcome and returns ``(attempted,
failed)``.  An operation fails when its verdict differs from the expected
one, or when it raises where no refusal was expected.
"""

from __future__ import annotations

import json
from typing import Callable

import algebra
import verdicts

WORKLOADS = ("verify-all", "coherent-high-n", "random-algebra")

VERIFY_LEVELS = (8, 10, 11)
COHERENT_LEVELS = (24, 31, 32)
# 12 rounds of 20 cases at each of 8 levels: 1920 cases per pass.
RANDOM_ROUNDS = 12
# The Cyclo results of the first cyclo case at each level go to the
# sympy oracle, so every field (prime, prime power, composite) is checked.

Op = tuple[str, Callable[[], tuple[int, int]]]


class Pass:
    """One pass of a workload: its operations, the sympy sample and the
    labels of failed cases inside batched operations."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.samples: list[dict] = []
        self.failures: list[str] = []


# Wrappers each workload must hit in a traced pass; a name that grassq
# rebinds out of the tracer's reach then fails the run instead of
# silently dropping out of the trace.
MUST_HIT = {
    "verify-all": (
        "suites.run_suite", "suites.emit_report", "resolution.solve_weight",
        "resolution.resolution_integral", "coherent.make_coherent",
        "coherent.q_exponential", "opalg.OpExpr.matmul", "opalg.op_dagger",
        "opalg.berezin_op", "galg.normalize_word", "galg.integrate_word",
        "suq2.factorial_exponential", "biortho.instantiate_numeric",
        "scalars.Cyclo.new", "scalars.Cyclo.mul", "scalars.Cyclo.inverse",
        "scalars.Scalar.mul", "scalars.Scalar.mul_q_power"),
    "coherent-high-n": (
        "suites.run_suite", "coherent.check_stability",
        "coherent.make_coherent", "coherent.q_exponential",
        "opalg.OpExpr.matmul", "galg.normalize_word", "scalars.Cyclo.new",
        "scalars.Cyclo.mul", "scalars.Scalar.mul",
        "scalars.Scalar.mul_q_power"),
    "random-algebra": (
        "galg.normalize_word", "galg.integrate_word", "galg.berezin",
        "galg.GExpr.from_raw", "opalg.OpExpr.matmul", "opalg.op_dagger",
        "scalars.Cyclo.new", "scalars.Cyclo.mul", "scalars.Cyclo.inverse",
        "scalars.Cyclo.conj", "scalars.Scalar.mul",
        "scalars.Scalar.mul_q_power"),
}


def plain_glue(name: str, fn):
    return fn()


def setup(name: str, seed: int, glue=plain_glue) -> Pass:
    """Build one pass; ``glue(name, fn)`` runs the benchmark's own checking
    work inside the timed region, so a traced pass can name it."""
    if name == "verify-all":
        return _verify_all(glue)
    if name == "coherent-high-n":
        return _coherent_high_n()
    if name == "random-algebra":
        return _random_algebra(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# verify-all: what `grassq verify all --format json` does, level by level
# ---------------------------------------------------------------------------

def _verify_all(glue) -> Pass:
    from grassq.suites import emit_report, run_suite

    def level(n: int) -> tuple[int, int]:
        expected = verdicts.expected_for(n)
        try:
            text = emit_report(run_suite("all", (n, n), max_n=n), "json")
        except Exception:
            return len(expected), len(expected)

        def judge():
            got = {c["id"]: c["status"] for c in json.loads(text)["checks"]}
            return (len(expected.keys() | got.keys()),
                    verdicts.count_mismatches(expected, got))
        return glue("verdicts", judge)

    return Pass([(f"all/n={n}", lambda n=n: level(n)) for n in VERIFY_LEVELS])


# ---------------------------------------------------------------------------
# coherent-high-n: coherent-state identities far up in n, no weight solve
# ---------------------------------------------------------------------------

def _coherent_high_n() -> Pass:
    from grassq.coherent import check_stability
    from grassq.opalg import PHI, PSI
    from grassq.suites import run_suite

    def suite(n: int) -> tuple[int, int]:
        # five identities per level; each must pass
        try:
            statuses = [c.status for c in
                        run_suite("coherent", (n, n), max_n=n).checks]
        except Exception:
            statuses = []
        missing = max(5 - len(statuses), 0)
        return (len(statuses) + missing,
                missing + sum(s != "pass" for s in statuses))

    def stability(n: int, family: str) -> tuple[int, int]:
        try:
            return 1, int(not check_stability(n, family).is_zero)
        except Exception:
            return 1, 1

    ops: list[Op] = []
    for n in COHERENT_LEVELS:
        ops.append((f"coherent/n={n}", lambda n=n: suite(n)))
        for fam in (PSI, PHI):
            ops.append((f"stability-{fam}/n={n}",
                        lambda n=n, fam=fam: stability(n, fam)))
    return Pass(ops)


# ---------------------------------------------------------------------------
# random-algebra: seeded words, operator sums and dense field elements
# ---------------------------------------------------------------------------

def _random_algebra(seed: int) -> Pass:
    from grassq.errors import GramUnknownError, UnspecifiedRelationError
    from grassq.galg import GExpr, berezin, normalize_word
    from grassq.opalg import IDENT, OpExpr, PHI, PSI, op_dagger, op_term, outer
    from grassq.scalars import Cyclo, Scalar

    def scalar(level, data) -> Scalar:
        acc = Scalar.zero(level)
        for key, coeffs in data:
            acc = acc + Scalar(level, {key: Cyclo(level, coeffs)})
        return acc

    def operator(level, data) -> OpExpr:
        acc = OpExpr.zero(level)
        for coeff, dyad, word in data:
            d = outer(PSI, dyad[0], PHI, dyad[1]) if dyad else IDENT
            acc = acc + op_term(level, scalar(level, coeff), d, left=word)
        return acc

    def refused(fn, error):
        def run():
            try:
                fn()
            except error:
                return True
            return False
        return run

    def word_case(level, word):
        want = algebra.reference_order(level, word)

        def run():
            got = normalize_word(level, word)
            return got[1] == want[1] and (
                got[1] is None or (got[0] - want[0]) % level == 0)
        return run

    def berezin_case(level, items, measure):
        integrand = [(scalar(level, c), w) for c, w in items]
        expected = []
        for coeff, w in integrand:
            phase, rest = algebra.reference_integral(level, w, measure)
            if rest is not None:
                expected.append((coeff * Scalar.q(level, phase), rest))

        def run():
            got = berezin(GExpr.from_raw(level, integrand), list(measure))
            return got == GExpr.from_raw(level, expected)
        return run

    def operator_case(x, y, z):
        def run():
            return ((x @ y) @ z == x @ (y @ z)
                    and op_dagger(op_dagger(x)) == x)
        return run

    def cyclo_case(level, a, b, sample):
        one = Cyclo.one(level)

        def run():
            product, inverse, conj = a * b, a.inverse(), a.conj()
            if sample is not None:
                sample.update(a=a, b=b, product=product, inverse=inverse,
                              conj=conj)
            return (a * inverse == one and conj.conj() == a
                    and product.conj() == conj * b.conj())
        return run

    work = Pass([])
    by_level: dict[int, list] = {}
    oracle_levels: set[int] = set()
    for k, case in enumerate(algebra.generate(seed, RANDOM_ROUNDS)):
        level, kind = case["level"], case["kind"]
        if kind == "word":
            fn = word_case(level, case["word"])
        elif kind == "word-refused":
            fn = refused(lambda level=level, word=case["word"]:
                         normalize_word(level, word), UnspecifiedRelationError)
        elif kind == "berezin":
            fn = berezin_case(level, case["items"], case["measure"])
        elif kind == "operators":
            fn = operator_case(*(operator(level, d) for d in case["ops"]))
        elif kind == "gram-refused":
            x, y, _ = (operator(level, d) for d in case["ops"])
            # x gains a same-family dyad that must meet one of y's kets
            x = x + OpExpr(level, {((), outer(PSI, 0, PSI, 1)):
                                   Scalar.one(level)})
            y = y + OpExpr(level, {((), outer(PSI, 1, PHI, 0)):
                                   Scalar.one(level)})
            fn = refused(lambda x=x, y=y: x @ y, GramUnknownError)
        else:
            sample = None
            if level not in oracle_levels:
                oracle_levels.add(level)
                sample = {}
                work.samples.append(sample)
            fn = cyclo_case(level, *(Cyclo(level, c) for c in case["pair"]),
                            sample)
        by_level.setdefault(level, []).append((f"case {k} ({kind})", fn))
    # One operation per level: the slowest single case depends on the
    # seed, the slowest level of a few hundred cases hardly does.
    for level in sorted(by_level):
        work.ops.append((f"n={level}",
                         lambda batch=by_level[level]: _run_cases(batch, work)))
    return work


def _run_cases(batch, work: Pass) -> tuple[int, int]:
    """Run one level's cases; a case fails when it returns False or raises."""
    failed = 0
    for label, fn in batch:
        try:
            ok = fn()
        except Exception as exc:
            ok = False
            label += f" raised {type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            work.failures.append(label)
    return len(batch), failed


def sample_payload(samples: list[dict]) -> list[dict]:
    """The sampled Cyclo results as JSON data: level plus coefficient lists,
    lowest degree first, each coefficient a "p/q" string."""
    return [{"level": s["a"].level,
             **{k: [str(x) for x in v.coeffs] for k, v in s.items()}}
            for s in samples if s]
