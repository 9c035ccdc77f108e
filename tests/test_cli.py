import hashlib
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from grassq.cli import load_problem, main
from grassq.errors import EngineError, ProblemFormatError
from grassq.suites import emit_report, run_suite


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_problem_symbolic(tmp_path):
    path = write(tmp_path, "p.json", {"n": 3, "rho": ["2", "3"]})
    problem = load_problem(path)
    assert problem.n == 3
    assert [str(r) for r in problem.rho] == ["2", "3"]
    assert problem.H is None


def test_load_problem_with_matrix(tmp_path):
    path = write(tmp_path, "p.json", {
        "n": 2, "rho": ["2"],
        "H": [[[1, 0], [4, 0]], [[1, 0], [1, 0]]]})
    problem = load_problem(path)
    assert problem.H is not None
    assert problem.H[0][1] == 4 + 0j


def test_load_problem_rejects_bad_input(tmp_path):
    with pytest.raises(ProblemFormatError):
        load_problem(write(tmp_path, "a.json", {"n": 1}))
    with pytest.raises(ProblemFormatError):
        load_problem(write(tmp_path, "b.json", {"n": 2, "rho": ["-2"]}))
    with pytest.raises(ProblemFormatError):
        load_problem(write(tmp_path, "c.json", {"n": 2, "rho": ["2", "3"]}))
    with pytest.raises(ProblemFormatError):
        load_problem(write(tmp_path, "d.json", {"n": 2, "rho": [2]}))
    with pytest.raises(ProblemFormatError):
        load_problem(write(tmp_path, "e.json",
                           {"n": 2, "rho": ["2"], "H": [[1, 2], [3, 4]]}))
    bad = tmp_path / "f.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        load_problem(str(bad))


def test_exit_codes(tmp_path, capsys):
    assert main(["verify", "coherent", "--n", "2..3"]) == 0
    capsys.readouterr()
    # range above the cap is a usage error
    assert main(["verify", "all", "--n", "7..9"]) == 2
    capsys.readouterr()
    # unknown selector is rejected by the parser
    assert main(["verify", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["verify", "coherent", "--n", "x..y"]) == 2
    capsys.readouterr()
    # missing input file is an IO error
    assert main(["verify", "biortho", "--input",
                 str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_problem_driven_biortho(tmp_path, capsys):
    path = write(tmp_path, "p.json", {
        "n": 2, "rho": ["2"],
        "H": [[[1, 0], [4, 0]], [[1, 0], [1, 0]]]})
    assert main(["verify", "biortho", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "biortho/pseudo-hermiticity" in out


def test_problem_without_a_matrix_grounds_on_the_rho_fallback(tmp_path, capsys):
    # a problem file may leave H out; the numeric suite then runs on the
    # same seeded matrix that --rho alone gives, to the byte
    path = write(tmp_path, "p.json", {"n": 3, "rho": ["2", "3"]})
    assert main(["verify", "biortho", "--input", path]) == 0
    from_file = capsys.readouterr().out
    assert "biortho/pseudo-hermiticity" in from_file
    assert main(["verify", "biortho", "--rho", "2,3"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(["verify", "all", "--input", path]) == 0


def test_exit_code_one_on_failing_check(tmp_path, capsys):
    # a barely non-Hermitian matrix: eigenvectors nearly orthonormal, so
    # the same-family integral sits close to I and the gap check fails
    path = write(tmp_path, "edge.json", {
        "n": 2, "rho": ["2"],
        "H": [[[1, 0], [1e-6, 0]], [[0, 0], [2, 0]]]})
    assert main(["verify", "biortho", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    assert "same-family-gap" in out


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("rho", ["1e88,1e-86,1e-204,1e199",
                                 "1e-300,1e-300", "1e300,1e300"])
def test_extreme_rho_gives_a_finite_ladder_report(rho, capsys):
    # b**n over- or underflows unless b is scaled to unit norm first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "biortho", "--rho", rho,
                     "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "Warning" not in err, err
    assert not caught, [str(w.message) for w in caught]
    checks = json.loads(out, parse_constant=_reject_constant)["checks"]
    assert {c["status"] for c in checks} == {"pass"}


def test_json_report_shape_and_determinism(capsys):
    assert main(["verify", "suq2", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "suq2", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"checks"}
    for check in payload["checks"]:
        assert set(check) == {"id", "ref", "status", "defect", "runtime_ms"}
        assert check["status"] in ("pass", "fail", "reported-discrepancy")
        assert check["runtime_ms"] is None
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)


def test_text_report_mentions_identities(capsys):
    assert main(["verify", "coherent", "--n", "2..2"]) == 0
    out = capsys.readouterr().out
    assert "b|theta> = theta |theta>" in out
    assert "pass" in out


def test_discrepancies_do_not_fail_the_run(capsys):
    code = main(["verify", "suq2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reported-discrepancy" in out
    # the canonical defect appears verbatim in the report
    assert "th thb |psi_0><phi_0|" in out


def test_timings_flag(capsys):
    assert main(["verify", "coherent", "--n", "2..2", "--timings"]) == 0
    out = capsys.readouterr().out
    assert " ms)" in out


def test_run_suite_rejects_unknown_selector():
    from grassq.errors import EngineError
    with pytest.raises(EngineError):
        run_suite("everything")


def test_emit_report_empty():
    from grassq.suites import SuiteReport
    assert json.loads(emit_report(SuiteReport(), "json")) == {"checks": []}


def test_boundary_flags_are_checked_before_any_solve(tmp_path, monkeypatch,
                                                     capsys):
    import grassq.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("run_suite reached")

    monkeypatch.setattr(cli, "run_suite", no_run)
    for tol in ("nan", "inf", "-1", "0"):
        assert main(["verify", "biortho", "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err
    rho = ",".join(["2"] * 40)
    assert main(["verify", "biortho", "--rho", rho]) == 2
    err = capsys.readouterr().err
    assert "--rho" in err and "--max-n" in err
    path = write(tmp_path, "p.json", {"n": 3, "rho": ["2", "3"]})
    assert main(["verify", "biortho", "--input", path, "--max-n", "2"]) == 2
    err = capsys.readouterr().err
    assert "--input" in err and "--max-n" in err


def test_rho_must_match_the_input_problem_size(tmp_path, monkeypatch, capsys):
    # --rho replaces the file's rho, so it must hold n - 1 values for the
    # file's n; a mismatch is a usage error found before any solve
    import grassq.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("run_suite reached")

    path = write(tmp_path, "p.json", {
        "n": 3, "rho": ["2", "3"],
        "H": [[[1, 0], [1, 0], [0, 0]], [[0, 0], [2, 0], [1, 0]],
              [[0, 0], [0, 0], [3, 0]]]})
    monkeypatch.setattr(cli, "run_suite", no_run)
    for rho, count in (("2,3,4", 3), ("2", 1)):
        assert main(["verify", "biortho", "--input", path, "--rho", rho]) == 2
        err = capsys.readouterr().err
        assert f"--rho needs 2 values for the --input problem's n = 3, " \
               f"got {count}" in err
    monkeypatch.undo()
    assert main(["verify", "biortho", "--input", path, "--rho", "5,7"]) == 0


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"n": 2, "rho": ["2"]}\xff')
    assert main(["verify", "biortho", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


def test_non_finite_matrix_entries_are_input_errors(tmp_path, capsys):
    for k, bad in enumerate(("NaN", "Infinity", "-Infinity", "1e400")):
        path = tmp_path / f"h{k}.json"
        path.write_text('{"n": 2, "rho": ["2"], "H": [[[1, 0], [4, %s]], '
                        '[[1, 0], [1, 0]]]}' % bad)
        assert main(["verify", "biortho", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "H[0][1] must be finite" in err and "Traceback" not in err
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, "rho": ["2"], "H": [[[1, 0], [4, 0]], '
                    '[[%d, 0], [1, 0]]]}' % 10 ** 400)
    with pytest.raises(ProblemFormatError, match=r"H\[1\]\[0\] must be finite"):
        load_problem(str(path))


def test_a_matrix_that_overflows_is_an_input_error(tmp_path, capsys):
    # each entry is finite, so the file loads, but the matrix's norm and
    # an eigenvalue overflow: the run refuses it rather than report NaN
    path = write(tmp_path, "overflow.json", {
        "n": 2, "rho": ["2"], "H": [[[1e308, 0]] * 2] * 2})
    for fmt in ("text", "json"):
        assert main(["verify", "biortho", "--input", path,
                     "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err, err


def test_rho_outside_the_float_range_is_a_usage_error(capsys):
    # the numeric suite reads rho as a float: 1e400 overflows it and
    # 1e-400 rounds to zero, though both are positive rationals
    for bad in ("1e400", "1e-400"):
        assert main(["verify", "biortho", "--rho", bad]) == 2
        err = capsys.readouterr().err
        assert "rho value '%s' must convert to a finite float > 0" % bad in err
        assert "Traceback" not in err


def test_problem_rho_outside_the_float_range_is_an_input_error(tmp_path,
                                                                capsys):
    for k, bad in enumerate(("1e400", "1e-400")):
        path = write(tmp_path, f"r{k}.json", {
            "n": 2, "rho": [bad], "H": [[[1, 0], [4, 0]], [[1, 0], [1, 0]]]})
        assert main(["verify", "biortho", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "rho[0] = '%s' must convert to a finite float > 0" % bad in err
        assert "Traceback" not in err


def test_rho_exponent_is_bounded_before_fraction_reads_it(tmp_path,
                                                          monkeypatch, capsys):
    # Fraction("1e100000000") builds a 10^8-digit integer before any range
    # check; both parsers must refuse such text without handing it over
    import grassq.cli as cli
    huge = ("1e100000000", "1e-100000000")

    def guarded(*args):
        if args and args[0] in huge:
            raise AssertionError(f"Fraction({args[0]!r}) reached")
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", guarded)
    assert main(["verify", "biortho", "--rho", huge[0]]) == 2
    err = capsys.readouterr().err
    assert f"rho value '{huge[0]}'" in err and "Traceback" not in err
    path = write(tmp_path, "p.json", {"n": 2, "rho": [huge[1]]})
    assert main(["verify", "biortho", "--input", path]) == 2
    err = capsys.readouterr().err
    assert f"rho[0] = '{huge[1]}'" in err and "Traceback" not in err
    path = write(tmp_path, "long.json", {"n": 2, "rho": ["1" * 1101]})
    assert main(["verify", "biortho", "--input", path]) == 2
    assert "more than 1100 digits" in capsys.readouterr().err
    for text in ("2", "3/2", "1e-300", " 7 ", "2.5E3"):
        assert cli._rho_value(text, "rho") == Fraction(text)


def test_a_raising_check_is_an_error_and_the_run_goes_on(monkeypatch, capsys,
                                                         fresh_caches):
    import grassq.suites as suites

    def broken(level, family):
        raise ValueError(f"broken at n={level}")

    monkeypatch.setattr(suites, "check_stability", broken)
    report = run_suite("dynamics", (2, 3))
    by_id = {c.id: c for c in report.checks}
    for n in (2, 3):
        for family in ("psi", "phi"):
            check = by_id[f"dynamics/n={n}/stability-{family}"]
            assert check.status == "error"
            assert check.defect == f"ValueError: broken at n={n}"
        assert by_id[f"dynamics/n={n}/evolved-resolution"].status == "pass"
    assert report.failed == 4
    assert emit_report(report).endswith(
        "6 checks: 2 pass, 4 fail (4 error), 0 reported-discrepancy")
    assert main(["verify", "dynamics", "--n", "2..2"]) == 1
    out, err = capsys.readouterr()
    assert "error " in out and "ValueError: broken at n=2" in out
    assert "Traceback" not in err


def test_an_exact_check_value_that_is_not_a_sparse_sum_is_an_error(
        monkeypatch, fresh_caches):
    # a falsy 0 is not an exact zero: only a sparse sum can vanish
    import grassq.suites as suites

    monkeypatch.setattr(suites, "check_stability", lambda level, family: 0)
    by_id = {c.id: c for c in run_suite("dynamics", (2, 2)).checks}
    for family in ("psi", "phi"):
        check = by_id[f"dynamics/n=2/stability-{family}"]
        assert check.status == "error"
        assert check.defect.startswith("AttributeError")


def _statuses(report):
    return {c.id: c.status for c in report.checks}


# The ids of the checks that read a weight: every resolution check, and one
# check each of dynamics, suq2 and biortho per level.
WEIGHT_READERS = ("resolution/", "/evolved-resolution",
                  "suq2/weight/three-level-resolution",
                  "biortho/instantiate/mixed-resolution",
                  "biortho/instantiate/same-family-gap")


@pytest.mark.parametrize("selector", ["resolution", "suq2", "biortho", "all"])
def test_a_raising_weight_solve_is_an_error_of_each_check_that_reads_it(
        selector, monkeypatch, fresh_caches, capsys):
    import grassq.suites as suites

    clean = _statuses(run_suite(selector, (2, 3)))
    calls = []

    def broken(n):
        calls.append(n)
        raise RuntimeError(f"no weight at n={n}")

    monkeypatch.setattr(suites, "solve_weight", broken)
    report = run_suite(selector, (2, 3))
    # a failed solve is re-raised to its later readers, not run again
    assert calls and len(calls) == len(set(calls))
    errors = {c.id for c in report.checks if c.status == "error"}
    assert errors == {i for i in clean if any(r in i for r in WEIGHT_READERS)}
    assert errors
    for c in report.checks:
        if c.id in errors:
            assert c.defect.startswith("RuntimeError: no weight at n=")
        else:
            assert c.status == clean[c.id]
    assert main(["verify", selector, "--n", "2..3"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_a_raising_engine_error_in_a_solve_is_not_an_input_error(
        monkeypatch, fresh_caches, capsys):
    import grassq.suites as suites

    def broken(n):
        raise EngineError("singular")

    monkeypatch.setattr(suites, "solve_weight", broken)
    assert main(["verify", "resolution", "--n", "2..2"]) == 1
    out, err = capsys.readouterr()
    assert "EngineError: singular" in out and "Traceback" not in err


def test_a_memoised_raise_keeps_one_traceback_across_reads():
    # re-raising the stored exception as it stands would add every
    # reader's frames to it, and keep them alive for the rest of the run
    import traceback
    from grassq.suites import _once

    def broken():
        raise RuntimeError("no weight")

    read = _once(broken)
    depths, raised = [], set()
    for _ in range(5):
        with pytest.raises(RuntimeError) as info:
            read()
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        raised.add(id(info.value))
    assert len(raised) == 1
    assert depths == [depths[0]] * 5


@pytest.mark.parametrize("selector", ["coherent", "all"])
def test_a_raising_state_build_is_an_error_of_the_checks_that_read_it(
        selector, monkeypatch, fresh_caches):
    import grassq.suites as suites

    clean = _statuses(run_suite(selector, (2, 3)))

    def broken(level, family):
        raise RuntimeError(f"no state at n={level}")

    monkeypatch.setattr(suites, "make_coherent", broken)
    report = run_suite(selector, (2, 3))
    errors = {c.id for c in report.checks if c.status == "error"}
    readers = {i for i in clean if i.startswith("coherent/")}
    if selector == "all":
        readers.add("biortho/instantiate/eigen-defect")
    assert errors == readers and len(readers) >= 10
    for c in report.checks:
        if c.id in errors:
            assert c.defect.startswith("RuntimeError: no state at n=")
        else:
            assert c.status == clean[c.id]


def test_a_raising_closure_verdict_is_an_error_of_its_checks(monkeypatch,
                                                             fresh_caches):
    # the shared system forms its closure verdict inside the first check
    # that reads it; the relations read the verdict's first defect, so a
    # raise there is an error of the closure and relation checks alone
    from grassq import suq2

    clean = _statuses(run_suite("suq2"))

    def broken(system):
        raise RuntimeError("no closure")

    monkeypatch.setattr(suq2.Suq2System, "closure", property(broken))
    suq2._build_suq2.cache_clear()
    report = run_suite("suq2")
    errors = {c.id for c in report.checks if c.status == "error"}
    assert errors == {i for i in clean
                      if i.startswith(("suq2/closure/", "suq2/relations/"))}
    assert len(errors) == 7
    for c in report.checks:
        if c.id in errors:
            assert c.defect == "RuntimeError: no closure"
        else:
            assert c.status == clean[c.id]


def test_each_weight_is_solved_once_per_run(monkeypatch, fresh_caches):
    import grassq.suites as suites
    calls = []

    def counting(n):
        calls.append(n)
        return solve_weight(n)

    solve_weight = suites.solve_weight
    monkeypatch.setattr(suites, "solve_weight", counting)
    report = run_suite("all", (2, 3))
    assert sorted(calls) == [2, 3]
    monkeypatch.undo()
    assert emit_report(report, "json") == emit_report(run_suite("all", (2, 3)),
                                                      "json")


GOLDEN_NAMES = ("coherent", "dynamics", "resolution", "suq2",
                "dynamics-6-11", "resolution-6-11", "coherent-24-32")


@pytest.mark.parametrize("name, fmt", [
    *(pytest.param(name, "json", id=name) for name in GOLDEN_NAMES),
    *(pytest.param(name, "text", id=f"{name}-text") for name in GOLDEN_NAMES)])
def test_report_matches_the_committed_golden_file(name, fmt):
    # exact, symbolic suites only: their reports must not change by a byte
    # under a refactor (the numeric biortho residuals may vary by platform);
    # "<selector>-<lo>-<hi>" names a level range other than 2..5, and the
    # ".txt" file holds the text report, the CLI's default output
    selector, *levels = name.split("-")
    lo, hi = map(int, levels) if levels else (2, 5)
    golden = Path(__file__).parent / "golden" / (
        f"{name}.json" if fmt == "json" else f"{name}.txt")
    assert emit_report(run_suite(selector, (lo, hi), max_n=hi),
                       fmt) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("n", [*range(2, 17), 24, 32, 64, 127, 128, *(
    pytest.param(n, marks=pytest.mark.slow) for n in (256, 512, 1024, 2048))])
def test_high_level_report_matches_its_golden_digest(n):
    # the whole "all" report at one level, numeric biortho residuals
    # included, so the digests also pin this platform's float results;
    # n = 256 to 2048 take seconds to half a minute each and run only
    # under -m slow
    digests = json.loads((Path(__file__).parent / "golden" / "digests.json")
                         .read_text(encoding="utf-8"))["sha256"]
    report = emit_report(run_suite("all", (n, n), max_n=n), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == digests[str(n)]
