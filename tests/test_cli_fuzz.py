"""Fuzz tests of the command-line contract: on any argv and any problem
file, ``main`` exits 0, 1 or 2, prints no traceback and stays bounded
under ``--max-n 3``.

Inputs are drawn near valid ones (a valid command or problem file with a
few pieces replaced), so most of them get past the parser and reach the
checks that a malformed piece must trip.
"""

import contextlib
import io
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from grassq.cli import main
from grassq.suites import SELECTORS

FUZZ = settings(derandomize=True, deadline=None, max_examples=120,
                suppress_health_check=[HealthCheck.too_slow])

# JSON tokens a user can type where a number belongs: NaN and infinities
# (Python's json reads them), huge and long numbers, and wrong types
_BAD_NUMBER = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", str(10 ** 400),
    "1" * 1200, "true", "null", '"1"', "[]", "{}"])
_RHO_ITEM = st.sampled_from([
    '"-2"', '"0"', '"1/0"', '"x"', '""', '"1e400"', '"1e-400"',
    '"1e100000000"', '"1e-100000000"', '"%s"' % ("7" * 1200), '"nan"',
    '"inf"', '"\\ud800"', "2", "NaN", "null", "[]"])
_ANY_VALUE = st.one_of(_BAD_NUMBER, _RHO_ITEM,
                       st.sampled_from(['[["2"]]', "[[1, 0]]", '"3"', "-3"]))
_BAD_ENTRY = st.one_of(
    st.tuples(_BAD_NUMBER, st.sampled_from(["0", "1"])).map(
        lambda pair: "[%s, %s]" % pair),
    st.tuples(st.sampled_from(["0", "1"]), _BAD_NUMBER).map(
        lambda pair: "[%s, %s]" % pair),
    _BAD_NUMBER, st.sampled_from(["[1]", "[1, 2, 3]", "[[1, 0], 0]"]))

_MUTATIONS = ("n", "rho", "rho item", "rho item", "rho length", "H", "H row",
              "H entry", "H entry", "H entry", "drop", "repeat", "prefix",
              "byte")


def _listed(items) -> str:
    return "[" + ", ".join(items) + "]"


@st.composite
def problem_bytes(draw) -> bytes:
    """A valid problem file for n = 2 or 3 with up to three pieces broken:
    a field's type or value, a rho or matrix entry, sizes that do not
    match n, a dropped or repeated key, a broken prefix, a non-UTF-8 byte."""
    n = draw(st.sampled_from([2, 3]))
    rho = [draw(st.sampled_from(['"2"', '"3/2"', '"5"', '"0.25"']))
           for _ in range(n - 1)]
    H = [["[%d, %d]" % (draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
          for _ in range(n)] for _ in range(n)]
    fields = {"n": str(n)}
    extra = []
    prefix, byte = "", b""
    for _ in range(draw(st.integers(0, 3))):
        what = draw(st.sampled_from(_MUTATIONS))
        if what == "n":
            fields["n"] = draw(st.sampled_from(
                ["1", "4", "9", "true", "2.0", '"2"', str(10 ** 30), "null"]))
        elif what == "rho":
            fields["rho"] = draw(_ANY_VALUE)
        elif what == "rho item" and rho:
            rho[draw(st.integers(0, len(rho) - 1))] = draw(_RHO_ITEM)
        elif what == "rho length":
            rho = rho[1:] if draw(st.booleans()) else rho + ['"2"']
        elif what == "H":
            fields["H"] = draw(_ANY_VALUE)
        elif what == "H row":
            H = H[1:] if draw(st.booleans()) else [row[1:] for row in H]
        elif what == "H entry" and H and H[0]:
            i = draw(st.integers(0, len(H) - 1))
            H[i][draw(st.integers(0, len(H[i]) - 1))] = draw(_BAD_ENTRY)
        elif what == "drop":
            fields[draw(st.sampled_from(["n", "rho", "H"]))] = None
        elif what == "repeat":
            extra.append((draw(st.sampled_from(["n", "rho", "H", "x"])),
                          draw(_ANY_VALUE)))
        elif what == "prefix":
            prefix = draw(st.sampled_from(["[", "[]", "2", '{"n": 2,']))
        elif what == "byte":
            byte = draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"]))
    fields.setdefault("rho", _listed(rho))
    if draw(st.integers(0, 3)):
        fields.setdefault("H", _listed(_listed(row) for row in H))
    members = [(k, v) for k, v in fields.items() if v is not None] + extra
    data = (prefix + "{" + ", ".join(f'"{k}": {v}' for k, v in members)
            + "}").encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + byte + data[cut:]


_GOOD_FLAG = st.one_of(
    st.tuples(st.just("--n"), st.sampled_from(["2..3", "2", "3", "2..2"])),
    st.tuples(st.just("--rho"), st.sampled_from(["2", "2,3", "5/3,7"])),
    st.tuples(st.just("--tol"), st.sampled_from(["1e-10", "1e-6"])),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json"])),
    st.tuples(st.just("--timings")))
_BAD_FLAG = st.one_of(
    st.tuples(st.just("--n"), st.sampled_from(
        ["3..2", "1..2", "0..9", "2..9", "x..y", "2..", "", "-1"])),
    st.tuples(st.just("--rho"), st.sampled_from(
        ["2,3,4", "-1", "0", "x", "", ",", "1e400", "1e-100000000",
         "2," * 40 + "2", "7" * 1200])),
    st.tuples(st.just("--tol"), st.sampled_from(
        ["0", "-1", "nan", "inf", "x", "1e-300"])),
    st.tuples(st.just("--format"), st.just("xml")),
    st.tuples(st.just("--max-n"), st.sampled_from(["2", "-1", "x"])),
    st.tuples(st.sampled_from(["--bogus", "-h", "--", "verify", "all"])
              | st.text(max_size=6)))


@st.composite
def argv_pieces(draw) -> list:
    """``verify <selector>`` and up to three flags, one in four broken."""
    def rarely(bad, good):
        return draw(bad) if draw(st.integers(0, 3)) == 3 else draw(good)

    head = rarely(st.sampled_from([[], ["verify"], ["check", "all"]]),
                  st.sampled_from(SELECTORS).map(lambda s: ["verify", s]))
    # the default level range 2..4 exceeds --max-n 3; a drawn --n overrides
    argv = head + ["--n", "2..3"]
    for _ in range(draw(st.integers(0, 3))):
        argv += rarely(_BAD_FLAG, _GOOD_FLAG)
    return argv


def _run_main(argv) -> None:
    argv = list(argv) + ["--max-n", "3"]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - started
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    # a hang guard, far above any run at n <= 3
    assert elapsed < 30.0, (argv, elapsed)


@FUZZ
@given(argv=argv_pieces())
def test_main_keeps_its_contract_on_any_argv(argv):
    _run_main(argv)


@FUZZ
@given(selector=st.sampled_from(["biortho", "all", "coherent"]),
       rho=st.sampled_from([[], [], ["--rho", "2"], ["--rho", "2,3"],
                            ["--rho", "2,3,4"]]),
       problem=problem_bytes())
def test_main_keeps_its_contract_on_any_problem_file(tmp_path_factory,
                                                     selector, rho, problem):
    path = tmp_path_factory.getbasetemp() / "fuzz-problem.json"
    path.write_bytes(problem)
    _run_main(["verify", selector, "--n", "2", "--input", str(path)] + rho)
