"""Named verification suites and their machine-readable reports.

Every check certifies one identity and carries a short rendering of that
identity, a status, and the canonical defect (a term-ordered string for
symbolic checks, a residual for numeric ones).  Statuses:

    pass                  exact zero defect, or residual within tolerance
    fail                  an identity that must hold does not
    reported-discrepancy  a comparison against a quoted closed form that
                          the mechanical expansion contradicts; recorded
                          verbatim, never silently reconciled
    error                 the check raised; the defect is
                          "<ExceptionType>: <message>", the run goes on
                          and the check counts as failed

Reports are deterministic: checks are sorted by id and timings are only
included on request, so the default output is byte-identical across runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .coherent import (check_stability, exponential_form_defect,
                       make_coherent, verify_eigen)
from .errors import EngineError
from .opalg import PHI, PSI, eta_conjugate, ket_op, op_dagger
from .galg import GExpr
from .resolution import (closed_form_weight, is_diagonal, mirror_weight,
                         solve_weight, verify_resolution)
from .suq2 import (make_squeezed_state, make_suq2, squeeze_defect,
                   squeeze_tilde_exponential_defect, squeezed_state_defect)

# numpy and the numeric toolkit load last, so that compiling the exact
# layers does not peak on top of numpy's heap
import numpy as np

from . import biortho as nb

SELECTORS = ("coherent", "resolution", "suq2", "dynamics", "biortho", "all")

DEFAULT_H = ((1.0, 4.0), (1.0, 1.0))


def _default_matrix(n: int) -> np.ndarray:
    """The matrix the numeric suite grounds on when the problem gives
    none: the reference two-level system DEFAULT_H, or a seeded
    real-spectrum similarity otherwise."""
    if n == 2:
        return np.array(DEFAULT_H, dtype=complex)
    rng = np.random.default_rng(12345)
    diag = np.diag(np.arange(1.0, n + 1.0))
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return np.asarray(S @ diag @ np.linalg.inv(S), dtype=complex)


@dataclass(frozen=True)
class Problem:
    """Concrete parameters for numeric grounding; without ``H`` the
    numeric suite uses ``_default_matrix(n)``."""

    n: int
    rho: tuple[Fraction, ...]
    H: Optional[np.ndarray] = None


def default_problem() -> Problem:
    return Problem(n=2, rho=(Fraction(2),))


@dataclass
class CheckResult:
    id: str
    ref: str
    status: str
    defect: str | float
    runtime_ms: Optional[float] = None


@dataclass
class SuiteReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status in ("fail", "error"))

    @property
    def discrepancies(self) -> int:
        return sum(1 for c in self.checks if c.status == "reported-discrepancy")

    def sorted(self) -> "SuiteReport":
        return SuiteReport(sorted(self.checks, key=lambda c: c.id))


class _Runner:
    def __init__(self, timings: bool):
        self.timings = timings
        self.checks: list[CheckResult] = []

    def _run(self, check_id: str, ref: str, fn: Callable,
             judge: Callable, bad: str = "fail") -> None:
        """Time ``fn``, let ``judge`` turn its value into (ok, defect) and
        record the check as pass, as ``bad`` when not ok, or as error when
        either raises."""
        t0 = time.perf_counter()
        try:
            ok, defect = judge(fn())
            status = "pass" if ok else bad
        except Exception as exc:
            status, defect = "error", f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - t0) * 1000.0 if self.timings else None
        self.checks.append(CheckResult(check_id, ref, status, defect, elapsed))

    def zero(self, check_id: str, ref: str, fn: Callable) -> None:
        """Identity that must hold exactly."""
        self._run(check_id, ref, fn, lambda d: (d.is_zero, str(d)))

    def nonzero(self, check_id: str, ref: str, fn: Callable) -> None:
        """Structural obstruction that must NOT vanish."""
        self._run(check_id, ref, fn, lambda d: (not d.is_zero, str(d)))

    def discrepancy(self, check_id: str, ref: str, fn: Callable) -> None:
        """Comparison against a quoted form; mismatches are reported, not failed."""
        self._run(check_id, ref, fn, lambda d: (d.is_zero, str(d)),
                  bad="reported-discrepancy")

    def residual(self, check_id: str, ref: str, fn: Callable, tol: float) -> None:
        self._run(check_id, ref, lambda: float(fn()), lambda v: (v <= tol, v))

    def gap(self, check_id: str, ref: str, fn: Callable, threshold: float) -> None:
        self._run(check_id, ref, lambda: float(fn()), lambda v: (v > threshold, v))

    def condition(self, check_id: str, ref: str, fn: Callable,
                  detail: Callable[[], str] = lambda: "") -> None:
        """Truth of ``fn``'s value; ``detail()`` is formed inside the check,
        so a raise there is an error of this check alone."""
        self._run(check_id, ref, fn, lambda ok: (bool(ok), detail()))


def _once(fn: Callable) -> Callable:
    """``fn`` memoised on its arguments for one run, a raise included: a
    call that raised re-raises to every later reader without running
    ``fn`` again, so a failing weight solve costs one solve, not one per
    check that reads it.  Each re-raise starts from the first traceback,
    so the stored exception does not grow by every reader's frames."""
    outcomes: dict[tuple, tuple] = {}

    def call(*args):
        if args not in outcomes:
            try:
                outcomes[args] = (fn(*args), None, None)
            except Exception as exc:
                outcomes[args] = (None, exc, exc.__traceback__)
        value, exc, first_tb = outcomes[args]
        if exc is not None:
            raise exc.with_traceback(first_tb)
        return value
    return call


# ---------------------------------------------------------------------------
# suite builders
# ---------------------------------------------------------------------------

def _coherent_checks(r: _Runner, n: int) -> None:
    # each check asks make_coherent, which builds a state once, inside its
    # own call, so a build that raises is an error of its readers alone
    r.zero(f"coherent/n={n}/eigen-psi", "b|theta> = theta |theta>",
           lambda: verify_eigen(make_coherent(n, PSI)))
    r.zero(f"coherent/n={n}/eigen-phi", "b~|theta~> = theta |theta~>",
           lambda: verify_eigen(make_coherent(n, PHI)))
    r.zero(f"coherent/n={n}/exp-form-psi", "|theta> = e_q^(b# theta) |psi_0>",
           lambda: exponential_form_defect(make_coherent(n, PSI)))
    r.zero(f"coherent/n={n}/exp-form-phi",
           "|theta~> = e_q^(b~#' theta) |phi_0>",
           lambda: exponential_form_defect(make_coherent(n, PHI)))
    r.zero(f"coherent/n={n}/eta-map", "eta |theta> = |theta~>",
           lambda: eta_conjugate(make_coherent(n, PSI).body)
           - make_coherent(n, PHI).body)


def _dynamics_checks(r: _Runner, n: int,
                     weight_of: Callable[[int], GExpr]) -> None:
    r.zero(f"dynamics/n={n}/stability-psi", "|theta,t> = u^-(n-2) |theta(t)>",
           lambda: check_stability(n, PSI))
    r.zero(f"dynamics/n={n}/stability-phi",
           "|theta~,t> = u^-(n-2) |theta~(t)>",
           lambda: check_stability(n, PHI))
    r.zero(f"dynamics/n={n}/evolved-resolution",
           "int w |theta,t><theta~,t| = I",
           lambda: verify_resolution(weight_of(n), (PSI, PHI), evolved=True))


def _resolution_checks(r: _Runner, n: int,
                       weight_of: Callable[[int], GExpr]) -> None:
    r.condition(f"resolution/n={n}/solver-diagonal",
                "derived weight is diagonal and unique",
                lambda: is_diagonal(weight_of(n)),
                detail=lambda: str(weight_of(n)))
    r.zero(f"resolution/n={n}/mixed-psi-phi", "int w |theta><theta~| = I",
           lambda: verify_resolution(weight_of(n), (PSI, PHI)))
    r.zero(f"resolution/n={n}/mixed-phi-psi", "int w |theta~><theta| = I",
           lambda: verify_resolution(weight_of(n), (PHI, PSI)))
    r.nonzero(f"resolution/n={n}/same-psi-psi", "int w |theta><theta| != I",
              lambda: verify_resolution(weight_of(n), (PSI, PSI)))
    r.nonzero(f"resolution/n={n}/same-phi-phi", "int w |theta~><theta~| != I",
              lambda: verify_resolution(weight_of(n), (PHI, PHI)))
    r.discrepancy(f"resolution/n={n}/weight-reversed-factorial",
                  "w = sum q^i(i+1) rho_(n-1-i)! theta^i thetabar^i",
                  lambda: weight_of(n) - closed_form_weight(n))
    r.discrepancy(f"resolution/n={n}/weight-plain-factorial",
                  "c_ii = rho_i! q^i(i+1)",
                  lambda: weight_of(n) - mirror_weight(n))
    if n == 3:
        r.discrepancy("resolution/n=3/weight-three-level",
                      "w = rho1 rho2 + rho1/q theta thetabar "
                      "+ theta^2 thetabar^2",
                      lambda: weight_of(3) - closed_form_weight(3))


def _suq2_checks(r: _Runner, weight_of: Callable[[int], GExpr]) -> None:
    # each check reads the shared system's values inside its own call, so
    # a raise is an error of its readers alone; a system forms each value
    # once (see grassq.suq2), so no verdict is memoised here
    sys3 = partial(make_suq2, 3)
    r.condition("suq2/closure/cube-root-free-rho",
                "[b_z,b]_q closes at q = primitive cube root",
                lambda: sys3().closure.closes)
    r.condition("suq2/closure/equal-rho-any-root",
                "[b_z,b]_q closes when rho_1 = rho_2",
                lambda: make_suq2(4, equal_rho=True).closure.closes)
    r.condition("suq2/closure/distinct-rho-other-root-fails",
                "(1+q+q^2)(rho_1-rho_2) obstruction at a fourth root",
                lambda: not make_suq2(4).closure.closes,
                detail=lambda: str(make_suq2(4).closure.defect_first))
    r.zero("suq2/relations/bracket-defines-bz", "[b,b#]_q = b_z",
           lambda: sys3().relations.bracket_defines_bz)
    r.zero("suq2/relations/bz-b", "[b_z,b]_q = (rho1 - q rho2 + q^2 rho1) b",
           lambda: sys3().relations.bz_with_b)
    r.zero("suq2/relations/bsharp-bz",
           "[b#,b_z]_q = (rho1 - q rho2 + q^2 rho1) b#",
           lambda: sys3().relations.bsharp_with_bz)
    r.zero("suq2/relations/prefactor-equality",
           "rho1 - q rho2 + q^2 rho1 = rho2 - q rho1 + q^2 rho2",
           lambda: sys3().relations.prefactor_difference)
    r.condition("suq2/nilpotency", "b^3 = b#^3 = b~^3 = b~#'^3 = 0",
                lambda: sys3().b.power(3).is_zero
                and sys3().b_sharp.power(3).is_zero
                and eta_conjugate(sys3().b).power(3).is_zero
                and op_dagger(sys3().b).power(3).is_zero)
    r.condition("suq2/squeeze/terminates",
                "exp[(theta b#^2 - thetabar b^2)/2] terminates",
                lambda: sys3().squeeze_terminates)
    r.discrepancy("suq2/squeeze/quadratic-closed-form",
                  "S = I + (theta b#^2 - thetabar b^2)/2 "
                  "- qbar/4 theta thetabar (b#^2 b^2 + q b^2 b#^2)",
                  lambda: squeeze_defect(sys3()))
    r.discrepancy("suq2/squeezed-state/closed-form",
                  "S|psi_0> = (1 - rho1 rho2/4 theta thetabar)|psi_0> "
                  "+ sqrt(rho1 rho2)/2 theta |psi_2>",
                  lambda: squeezed_state_defect(sys3(), PSI))
    r.discrepancy("suq2/squeezed-state/tilde-closed-form",
                  "eta S|psi_0> over the phi family",
                  lambda: squeezed_state_defect(sys3(), PHI))
    r.zero("suq2/squeezed-state/eta-channel",
           "eta (S|psi_0>) = (eta S eta^-1)|phi_0>",
           lambda: eta_conjugate(make_squeezed_state(sys3(), PSI))
           - (eta_conjugate(sys3().squeeze) @ ket_op(3, PHI, 0)))
    r.zero("suq2/squeeze/tilde-exponential-form",
           "eta S eta^-1 = exp[(theta b~#'^2 - thetabar b~^2)/2]",
           lambda: squeeze_tilde_exponential_defect(sys3()))
    r.zero("suq2/weight/three-level-resolution",
           "int w |theta><theta~| = I at n=3",
           lambda: verify_resolution(weight_of(3), (PSI, PHI)))
    r.zero("suq2/stability/three-level", "|theta,t> = u |theta(t)> at n=3",
           lambda: check_stability(3, PSI))


def _biortho_checks(r: _Runner, problem: Problem, tol: float,
                    weight_of: Callable[[int], GExpr]) -> None:
    H = _default_matrix(problem.n) if problem.H is None else problem.H
    decomp = nb.biortho_decompose(H, tol=tol)
    n = decomp.size
    rho_values = [float(x) for x in problem.rho[:n - 1]]
    residuals = decomp.residuals
    for name in sorted(residuals):
        r.residual(f"biortho/decomp/{name}",
                   "biorthonormal eigendata residual",
                   lambda name=name: residuals[name], tol=1e-9)
    ph = nb.check_pseudo_hermiticity(decomp)
    r.residual("biortho/pseudo-hermiticity", "eta H eta^-1 = H^dag",
               lambda: ph.residual, tol=1e-9)
    r.gap("biortho/metric-positive", "eta > 0",
          lambda: ph.eta_min_eigenvalue, threshold=0.0)
    ladders = nb.numeric_ladder(decomp, rho_values)
    r.residual("biortho/ladder/nilpotency", "b^n = 0",
               lambda: ladders.nilpotency_residual, tol=1e-12)
    r.residual("biortho/ladder/sharp-form",
               "eta^-1 b^dag eta = sum sqrt(rho) |psi_{i+1}><phi_i|",
               lambda: ladders.sharp_form_residual, tol=1e-10)
    r.residual("biortho/ladder/dagger", "b~#' = b^dag",
               lambda: ladders.dagger_residual, tol=1e-12)
    r.residual("biortho/instantiate/eigen-defect",
               "symbolic eigen defect grounds to zero",
               lambda: nb.instantiate_numeric(
                   verify_eigen(make_coherent(n, PSI)), decomp, rho_values),
               tol=1e-10)
    r.residual("biortho/instantiate/mixed-resolution",
               "symbolic resolution defect grounds to zero",
               lambda: nb.instantiate_numeric(
                   verify_resolution(weight_of(n), (PSI, PHI)), decomp,
                   rho_values),
               tol=1e-10)

    def same_gap() -> float:
        return nb.instantiate_numeric(
            verify_resolution(weight_of(n), (PSI, PSI)), decomp, rho_values)

    hermitian = bool(nb._spectral_norm(decomp.H - decomp.H.conj().T)
                     <= tol * decomp.scale)
    if hermitian:
        r.residual("biortho/instantiate/same-family-gap",
                   "same-family integral coincides with I for Hermitian input",
                   same_gap, tol=1e-10)
    else:
        r.gap("biortho/instantiate/same-family-gap",
              "int w |theta><theta| lands measurably away from I",
              same_gap, threshold=0.01)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_suite(selector: str, n_range: tuple[int, int] = (2, 4), *,
              problem: Problem | None = None, tol: float = nb.DEFAULT_TOL,
              max_n: int = 8, timings: bool = False) -> SuiteReport:
    """Run one named suite over the requested levels.

    ``n_range`` bounds the symbolic levels (inclusive); the numeric suite
    takes its size from the problem matrix instead.
    """
    if selector not in SELECTORS:
        raise EngineError(f"unknown selector {selector!r}; choose from {SELECTORS}")
    lo, hi = n_range
    if not (2 <= lo <= hi <= max_n):
        raise EngineError(
            f"level range {lo}..{hi} must satisfy 2 <= lo <= hi <= {max_n}")
    problem = problem or default_problem()
    r = _Runner(timings)
    # Each level's weight is solved once per run, by the first check that
    # needs it; a solve that raises is an error of each check that reads it.
    weight_of = _once(solve_weight)
    # one level at a time, so a level's states are read while still cached
    for n in range(lo, hi + 1):
        if selector in ("coherent", "all"):
            _coherent_checks(r, n)
        if selector in ("dynamics", "all"):
            _dynamics_checks(r, n, weight_of)
        if selector in ("resolution", "all"):
            _resolution_checks(r, n, weight_of)
    if selector in ("suq2", "all"):
        _suq2_checks(r, weight_of)
    if selector in ("biortho", "all"):
        _biortho_checks(r, problem, tol, weight_of)
    return SuiteReport(r.checks).sorted()


def emit_report(report: SuiteReport, fmt: str = "text") -> str:
    """Serialize a report; json output is stable-keyed and diffable."""
    if fmt == "json":
        return json.dumps({"checks": [vars(c) for c in report.checks]},
                          indent=2, sort_keys=True)
    if fmt != "text":
        raise EngineError(f"unknown report format {fmt!r}")
    lines = []
    for c in report.checks:
        defect = c.defect if isinstance(c.defect, str) else repr(c.defect)
        line = f"{c.status:<22} {c.id}  [{c.ref}]"
        if defect and (c.defect != "0" or c.status != "pass"):
            line += f"  defect={defect}"
        if c.runtime_ms is not None:
            line += f"  ({c.runtime_ms:.1f} ms)"
        lines.append(line)
    n_errors = sum(1 for c in report.checks if c.status == "error")
    errors = f" ({n_errors} error)" if n_errors else ""
    lines.append(f"{len(report.checks)} checks: "
                 f"{len(report.checks) - report.failed - report.discrepancies} pass, "
                 f"{report.failed} fail{errors}, "
                 f"{report.discrepancies} reported-discrepancy")
    return "\n".join(lines)
