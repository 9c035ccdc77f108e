"""Command-line front end.

    grassq verify <selector> [--n a..b] [--rho r1,r2,...] [--input problem.json]
                  [--format text|json] [--tol 1e-10] [--max-n 8] [--timings]

Exit codes: 0 when every check passes (reported discrepancies do not
fail a run), 1 when any check fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import EngineError, ProblemFormatError
from .scalars import finite_positive
from .suites import Problem, SELECTORS, emit_report, run_suite


# The exact decimal of any double has at most 1,075 digits.
_MAX_RHO_DIGITS = 1100


def _rho_value(text: str, name: str) -> Fraction:
    """One rho: a rational that the numeric suite can read as a float > 0.

    The text is bounded before ``Fraction`` reads it, because ``Fraction``
    expands a decimal exponent into an exact integer first.  A mantissa of
    D digits times 10^e lies between 10^(e-D) and 10^(e+D), so e - D > 308
    or e + D < -324 cannot give a finite float > 0 (1.8e308 .. 4.9e-324).
    """
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(ch.isdigit() for ch in mantissa)
    if digits > _MAX_RHO_DIGITS:
        raise ProblemFormatError(f"{name} has more than {_MAX_RHO_DIGITS} digits")
    try:
        shift = int(exponent) if exponent else 0
    except ValueError:
        shift = 0  # malformed: Fraction refuses it without expanding it
    if shift - digits > 308 or shift + digits < -324:
        raise ProblemFormatError(f"{name} must convert to a finite float > 0")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ProblemFormatError(f"{name} is not a valid rational") from None
    if not finite_positive(value):
        raise ProblemFormatError(f"{name} must convert to a finite float > 0")
    return value


def load_problem(path: str) -> Problem:
    """Parse and validate a problem description.

    Schema: {"n": int >= 2, "rho": ["p/q", ...] with n-1 positive
    rationals, "H": optional n x n matrix of finite [re, im] pairs}.
    Without "H" the numeric suite grounds on the same seeded matrix that
    ``--rho`` alone gives.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}: "
                                 f"{exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid UTF-8 at byte "
                                 f"{exc.start}") from None
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")
    n = raw.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ProblemFormatError(f"{path}: field 'n' must be an integer >= 2")
    rho_raw = raw.get("rho", [])
    if not isinstance(rho_raw, list):
        raise ProblemFormatError(f"{path}: field 'rho' must be a list of strings")
    rho = []
    for k, item in enumerate(rho_raw):
        if not isinstance(item, str):
            raise ProblemFormatError(
                f"{path}: rho[{k}] must be a rational encoded as a string")
        rho.append(_rho_value(item, f"{path}: rho[{k}] = {item!r}"))
    if len(rho) != n - 1:
        raise ProblemFormatError(
            f"{path}: expected {n - 1} rho values for n = {n}, got {len(rho)}")
    H = None
    if "H" in raw:
        rows = raw["H"]
        if (not isinstance(rows, list) or len(rows) != n
                or any(not isinstance(row, list) or len(row) != n for row in rows)):
            raise ProblemFormatError(f"{path}: field 'H' must be an {n}x{n} matrix")
        H = np.zeros((n, n), dtype=complex)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if (not isinstance(entry, list) or len(entry) != 2
                        or any(not isinstance(x, (int, float)) or isinstance(x, bool)
                               for x in entry)):
                    raise ProblemFormatError(
                        f"{path}: H[{i}][{j}] must be a [re, im] pair")
                try:
                    real, imag = float(entry[0]), float(entry[1])
                except OverflowError:
                    real = imag = math.inf
                if not (math.isfinite(real) and math.isfinite(imag)):
                    raise ProblemFormatError(
                        f"{path}: H[{i}][{j}] must be finite")
                H[i, j] = complex(real, imag)
    return Problem(n=n, rho=tuple(rho), H=H)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise EngineError(f"invalid level range {text!r}; use e.g. 2..4") from None
    return lo, hi


def _parse_rho(text: str) -> tuple[Fraction, ...]:
    pieces = [piece.strip() for piece in text.split(",")]
    return tuple(_rho_value(piece, f"rho value {piece!r}") for piece in pieces)


def _check_size(n: int, flag: str, max_n: int) -> None:
    if n > max_n:
        raise EngineError(f"problem size n = {n} from {flag} exceeds --max-n {max_n}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassq",
        description="Verify graded coherent-state and ladder-operator identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("selector", choices=SELECTORS)
    verify.add_argument("--n", default="2..4", metavar="A..B",
                        help="level range for the symbolic suites (default 2..4)")
    verify.add_argument("--rho", default=None, metavar="R1,R2,...",
                        help="positive rationals for numeric grounding")
    verify.add_argument("--input", default=None, metavar="PROBLEM.JSON",
                        help="problem file with n, rho and an optional matrix")
    verify.add_argument("--format", default="text", choices=("text", "json"))
    verify.add_argument("--tol", type=float, default=1e-10)
    verify.add_argument("--max-n", type=int, default=8,
                        help="hard cap on the level range and the problem "
                        "size (default 8)")
    verify.add_argument("--timings", action="store_true",
                        help="include per-check runtimes (breaks byte-stability)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise EngineError(f"--tol must be finite and > 0, got {args.tol}")
        n_range = _parse_range(args.n)
        problem = None
        if args.input is not None:
            problem = load_problem(args.input)
            _check_size(problem.n, "--input", args.max_n)
        if args.rho is not None:
            rho = _parse_rho(args.rho)
            if problem is not None:
                if len(rho) != problem.n - 1:
                    raise EngineError(
                        f"--rho needs {problem.n - 1} values for the --input "
                        f"problem's n = {problem.n}, got {len(rho)}")
                problem = Problem(n=problem.n, rho=rho, H=problem.H)
            else:
                n = len(rho) + 1
                _check_size(n, "--rho", args.max_n)
                problem = Problem(n=n, rho=rho)
        report = run_suite(args.selector, n_range, problem=problem,
                           tol=args.tol, max_n=args.max_n,
                           timings=args.timings)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit_report(report, args.format))
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
