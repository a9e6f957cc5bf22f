import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rkpos import adversary, cli
from rkpos.cli import main
from rkpos.errors import InputError, rational
from rkpos.gamma import SWEEP_POINT_COST
from rkpos.multilinear import GRID_POINTS
from rkpos.tableau import FAMILY_KINDS, erk22, tableau_to_json


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows(out):
    return list(csv.DictReader(io.StringIO(out)))


# sha256 of the concatenated stdout of `ssp`, `rphi` and `gamma` on every
# stencil for these methods, recorded before UniPoly held integer
# numerators; a change of number format must not move an output byte.
GOLDEN_METHODS = ["fe", "rk4", "erk22:1", "erk22:1/4", "erk22:3/2",
                  "erk33c1:1/2,3/4", "erk33c2:9/16", "erk33c2:1/2", "erk33c3:1"]
GOLDEN_STDOUT = "a5beb389af96204d8e594e8ee5583d7f42b6250c8ba5f8d191696cb5e2a4b8f5"


def test_certificate_stdout_is_pinned(capsys):
    hasher = hashlib.sha256()
    for m in GOLDEN_METHODS:
        for argv in (["ssp", "--method", m], ["rphi", "--method", m],
                     *(["gamma", "--method", m, "--stencil", s]
                       for s in ("upwind", "centered", "heat"))):
            code, out = invoke(capsys, *argv)
            assert code == 0, argv
            hasher.update(out.encode())
    assert hasher.hexdigest() == GOLDEN_STDOUT


def test_gamma_csv(capsys):
    code, out = invoke(capsys, "gamma", "--method", "erk22:3/2")
    assert code == 0
    r = rows(out)[0]
    assert r["gamma_exact"] == "2/3"
    assert r["gamma_lo"] == "2/3" and r["gamma_hi"] == "2/3"


def test_gamma_json(capsys):
    code, out = invoke(capsys, "gamma", "--method", "erk22:1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["gamma_exact"] == "1"


def test_polys_output(capsys):
    code, out = invoke(capsys, "polys", "--method", "erk22:1", "--x-labels")
    assert code == 0
    r = rows(out)
    assert [row["offset"] for row in r] == ["0", "1", "2"]
    assert r[2]["polynomial"] == "(1/2)·x_1·x_3"


def test_tableau_file_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(tableau_to_json(erk22(F(2))), encoding="utf-8")
    code, out = invoke(capsys, "gamma", "--tableau-file", str(path))
    assert code == 0
    assert rows(out)[0]["gamma_exact"] == "1/2"


def test_sweep_csv_schema(capsys):
    code, out = invoke(capsys, "sweep", "--family", "ERK22",
                       "--lo", "1/2", "--hi", "1", "--step", "1/4", "--ssp")
    assert code == 0
    r = rows(out)
    assert list(r[0]) == ["param_alpha", "param_beta", "gamma_exact",
                          "gamma_lo", "gamma_hi", "witness_poly",
                          "witness_subset", "ssp"]
    assert [row["gamma_exact"] for row in r] == ["1", "1", "1"]
    assert [row["ssp"] for row in r] == ["0", "2/3", "1"]


def test_region_csv(capsys):
    code, out = invoke(capsys, "region", "--lo", "1/2", "--hi", "1",
                       "--spacing", "1/4")
    assert code == 0
    r = {(row["alpha"], row["beta"]): row for row in rows(out)}
    assert r[("1", "1/2")]["in_bowtie"] == "true"
    assert r[("1", "1/2")]["condition_at_1"] == "true"
    assert r[("1/2", "1/2")]["condition_at_1"] == ""  # singular, skipped


def test_region_at_tiny_delta(capsys):
    code, out = invoke(capsys, "region", "--spacing", "1/2",
                       "--delta", "1/4294967296")
    assert code == 0
    r = {(row["alpha"], row["beta"]): row for row in rows(out)}
    assert r[("1", "1/2")]["condition_at_1"] == "true"
    assert r[("1/2", "1")]["condition_at_1"] == "false"


def test_ssp_and_rphi(capsys):
    code, out = invoke(capsys, "ssp", "--method", "erk33c2:9/16")
    assert code == 0 and rows(out)[0]["exact"] == "3/4"
    code, out = invoke(capsys, "rphi", "--method", "rk4")
    assert code == 0
    r = rows(out)[0]
    assert r["exact"] == "1" and "z^4" in r["phi"]


def test_adversary_json(capsys):
    code, out = invoke(capsys, "adversary", "--construction", "rk4",
                       "--eps", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["negative_value"] == "-1/384"
    assert doc["u1"][3] == "-1/384"
    assert doc["schedule"][0]["q"] == "1"


def test_adversary_negative_entry(capsys):
    code, out = invoke(capsys, "adversary", "--method", "erk33c3:1")
    assert code == 0
    doc = json.loads(out)
    assert F(doc["negative_value"]) < 0


def test_adversary_requires_method(capsys):
    code, _ = invoke(capsys, "adversary")
    assert code == 2


def test_simulate_jsonl(capsys):
    code, out = invoke(capsys, "simulate", "--method", "erk22:1",
                       "--n", "12", "--steps", "4", "--limiter", "minmod")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    step1 = json.loads(lines[0])
    assert step1["step"] == 1 and "tv" in step1
    final = json.loads(lines[-1])["final"]
    assert final["steps_run"] == 4 and final["first_violation"] is None


def test_simulate_prints_fractions_past_the_digit_limit(capsys):
    # Rational heat values pass Python's 4,300-digit int-to-str limit
    # before the run switches to float.
    with pytest.warns(RuntimeWarning, match="switching to float"):
        code, out = invoke(capsys, "simulate", "--mode", "rational",
                           "--method", "erk22:1", "--stencil", "heat",
                           "--limiter", "minmod", "--n", "8", "--steps", "10",
                           "--monitors", "interval")
    assert code == 0
    lines = out.splitlines()
    assert max(len(line) for line in lines) > 4300
    final = json.loads(lines[-1])["final"]
    assert final["steps_run"] == 10 and final["first_violation"] is None


def cli_process(*argv):
    """`python -m rkpos.cli argv` in a fresh process, with this tree's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rkpos.cli", *argv],
                          capture_output=True, text=True, timeout=10, env=env)


def test_simulate_float_switch_warns_in_one_line():
    proc = cli_process("simulate", "--method", "erk22:1", "--n", "16", "--steps", "10",
                       "--limiter", "minmod", "--stencil", "heat", "--mode", "rational")
    assert proc.returncode == 0
    assert proc.stderr == ("warning: rational state size exceeded the practical limit; "
                           "switching to float arithmetic\n"
                           "gamma=1/2 tau0=1/512 dt=1/1024\n")


def test_reproduce_ok(capsys):
    for rid in ("erk22-table", "rk4-negative", "heat-table"):
        code, out = invoke(capsys, "reproduce", rid)
        assert code == 0
        assert all(row["ok"] == "true" for row in rows(out))


def test_error_exit_code(capsys):
    code, _ = invoke(capsys, "gamma", "--method", "nope:1")
    assert code == 2


SWEEP = ["sweep", "--family", "ERK22", "--lo", "1/2", "--hi", "1", "--step", "1/4"]
SIMULATE = ["simulate", "--method", "erk22:1", "--n", "6", "--steps", "3",
            "--cfl-fraction", "3"]
# Each pair sets an option, then leaves it to its default.
ONE_PROCESS_SEQUENCE = [
    ["gamma", "--method", "erk22:1", "--stencil", "heat"],
    ["gamma", "--method", "erk22:1"],
    SWEEP + ["--ssp"],
    SWEEP,
    ["gamma", "--method", "erk22:1", "--tol", "1/0"],
    ["gamma", "--method", "erk22:3/2"],
    SIMULATE + ["--monitors", "positivity"],
    SIMULATE + ["--monitors", "interval"],
    SIMULATE,
]


def run_main(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_many_calls(capsys, monkeypatch):
    """Calls in one process share a parser; none sees another's options."""
    shared = [run_main(capsys, argv) for argv in ONE_PROCESS_SEQUENCE]
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 3, 3, 3]
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]
    assert shared[7][1] != shared[8][1]
    for argv, got in zip(ONE_PROCESS_SEQUENCE, shared):
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        assert run_main(capsys, argv) == got, argv


@pytest.mark.parametrize("text", [
    '{"m": 2, "A": ["00", "10"], "b": "01"}',
    '{"m": 2, "A": [[0, 0], [1, 0]], "b": [true, false]}',
    '{"m": true, "A": [["0"]], "b": ["1"]}',
])
def test_tableau_file_entries_must_be_strings_or_integers(tmp_path, capsys, text):
    """A string where a list belongs, or a JSON boolean, is rejected rather
    than read character by character or as 1/0."""
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    for command in ("polys", "ssp"):
        code, out, err = run_main(capsys, [command, "--tableau-file", str(path)])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


FLOAT_TABLEAU = '{"m": 2, "A": [[0, 0], [0.1, 0]], "b": ["1/2", "1/2"]}'
ZERO_DEN_TABLEAU = '{"m": 1, "A": [["0"]], "b": ["1/0"]}'
# Fraction alone would build 10**10000000 for this entry.
BIG_EXPONENT_TABLEAU = '{"m": 1, "A": [["0"]], "b": ["1e10000000"]}'
# Padding that a backtracking number pattern would scan quadratically.
SPACES = " " * 100_000
SPACES_TABLEAU = json.dumps({"m": 1, "A": [["0"]], "b": [SPACES + "x"]})
# Number text past TEXT_DIGITS (slow to build, or too long to print) or
# padded with SPACES: refused within 1 s, interpreter start included.
NUMBER_TEXT_ARGV = [
    ["gamma", "--method", "fe", "--tol", "1e-10000000"],
    ["gamma", "--method", "erk22:1", "--tol", "1e-100000"],
    ["gamma", "--tableau-file", "{big_exponent_tableau}"],
    ["gamma", "--method", "erk22:1e5000"],
    ["sweep", "--family", "ERK22", "--lo", "1e5000", "--hi", "2e5000", "--step", "1"],
    ["region", "--spacing", "1e-5000"],
    ["simulate", "--method", "fe", "--speed=-1e5000", "--dt", "1", "--steps", "1",
     "--n", "4"],
    ["gamma", "--method", "fe", "--tol", "{spaces}x"],
    ["gamma", "--method", "erk22:{spaces}x"],
    ["gamma", "--tableau-file", "{spaces_tableau}"],
]


@pytest.mark.parametrize("text, admitted", [
    ("1" + "0" * 999, True), ("1" + "0" * 1000, False),
    ("1e999", True), ("1e1000", False), ("0.5e1000", True), ("-1_0E999", False),
    ("1e-1000", True), ("1e-1001", False), ("10e-1001", False),
    ("0." + "0" * 999 + "1", True), ("0." + "0" * 1000 + "1", False),
    ("1/" + "9" * 1000, True), ("1/" + "9" * 1001, False), (" 1e-1000 ", True),
])
def test_rational_bounds_number_text_at_its_edge(text, admitted):
    """A numerator may have TEXT_DIGITS digits, an exponent's zeros counted;
    a denominator TEXT_DIGITS digits, or TEXT_DIGITS places for 10**k, as
    written (10e-1001 is charged 1001 places)."""
    if admitted:
        assert rational(text) == F(text)
    else:
        with pytest.raises(InputError, match="over 1000 digits"):
            rational(text)


def generic_tableau(m):
    """The generic m-stage tableau a_ij = 1/(2+i+j), b = 1/m, as JSON."""
    return json.dumps({"m": m, "b": [f"1/{m}"] * m,
                       "A": [[f"1/{2 + i + j}" if j < i else "0" for j in range(m)]
                             for i in range(m)]})


# Its heat-stencil vertex tables need 34 GiB, over the byte budget.
GENERIC7_TABLEAU = generic_tableau(7)
# Its negative-entry plan cancels, and the closed-vertex fallback would scan
# 9 polynomials over 2**34 closed subsets.
CONFLUENT8_TABLEAU = json.dumps({"m": 8, "A": [
    ["0"] * 8, ["1/4"] + ["0"] * 7, ["1/2", "3/4"] + ["0"] * 6,
    ["-1/2", "1/4", "3/4"] + ["0"] * 5, ["0", "0", "1/2", "1/4"] + ["0"] * 4,
    ["-1/2", "3/4", "1/2", "0", "1/4", "0", "0", "0"],
    ["0", "0", "1/2", "1/4", "1/4", "-1/2", "0", "0"],
    ["1", "1/4", "0", "1/2", "0", "1", "1", "0"]],
    "b": ["3/4", "0", "-1/2", "1/4", "-1/2", "-1", "1", "1/4"]})


@pytest.mark.parametrize("argv", [
    ["region", "--spacing", "1/1000000"],
    ["sweep", "--family", "ERK22", "--lo", "1/2", "--hi", "1000000",
     "--step", "1/1000000"],
    # 50,001 points, each charged SWEEP_POINT_COST region points.
    ["sweep", "--family", "ERK22", "--lo", "1/2", "--hi", "1", "--step", "1e-5"],
], ids=" ".join)
def test_oversized_grid_exits_2_before_building_it(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:") and "over the limit" in lines[0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--method", "erk22:1", "--n", "100000000"],
    ["simulate", "--method", "erk22:1", "--steps", "1000000000"],
    ["simulate", "--method", "erk22:1", "--n", "1", "--steps", "2000000",
     "--mode", "float"],
    ["gamma", "--tableau-file", "{dense16}"],
    ["polys", "--tableau-file", "{dense16}"],
], ids=" ".join)
def test_oversized_work_exits_2_before_doing_it(tmp_path, capsys, argv):
    """A simulation over RUN_WORK cell-stage updates (a 1-cell one charged
    STAGE_CELLS cells per stage) and a dense 16-stage tableau, 43 M terms
    over TERMS, are refused before any cell or term is built."""
    path = tmp_path / "dense16.json"
    path.write_text(generic_tableau(16), encoding="utf-8")
    start = time.perf_counter()
    assert main([a.format(dense16=path) for a in argv]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:") and "over the limit" in lines[0]


def test_nonnegative_dense_file_is_refused_before_generate(tmp_path, capsys, monkeypatch):
    """A dense 13-stage file, all entries nonnegative, has no negative
    entry to relay: `adversary` exits 2 with one error line before any
    term is generated."""
    def refuse(*args):
        raise AssertionError("generate called")

    monkeypatch.setattr(adversary, "generate", refuse)
    path = tmp_path / "dense13.json"
    path.write_text(generic_tableau(13), encoding="utf-8")
    assert main(["adversary", "--tableau-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: from-file: all tableau entries are nonnegative"]


@pytest.mark.parametrize("command", ["gamma", "polys", "ssp", "rphi", "adversary"])
def test_sparse_30_stage_file_exits_quickly(tmp_path, capsys, command):
    """A = 0 and b_j = 1/30: 31 terms, but 2**30 stage subsets.  Each command
    finishes, or refuses the file with one error line, within 5 s."""
    path = tmp_path / "sparse30.json"
    path.write_text(json.dumps({"m": 30, "A": [["0"] * 30] * 30, "b": ["1/30"] * 30}),
                    encoding="utf-8")
    start = time.perf_counter()
    code = main([command, "--tableau-file", str(path)])
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert code == 0 or code == 2 and len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["gamma", "--method", "erk22:1", "--tol", "0"],
    ["gamma", "--method", "erk22:1", "--tol", "-1"],
    ["gamma", "--method", "rk4", "--tol", "0"],
    ["ssp", "--method", "erk22:1/2", "--tol", "0"],
    ["region", "--spacing", "0"],
    ["sweep", "--family", "ERK22", "--lo", "1/2", "--hi", "1", "--step", "0"],
    ["gamma", "--method", "erk22:"],
    ["gamma", "--method", "erk22:1,2"],
    ["simulate", "--method", "erk22:1", "--n", "0"],
    ["simulate", "--method", "erk22:1", "--monitors", "bogus"],
    ["gamma", "--tableau-file", "{float_tableau}"],
    ["gamma", "--tableau-file", "{generic7_tableau}", "--stencil", "heat"],
    ["adversary"],
    ["adversary", "--construction", "first-step", "--method", "erk22:1"],
    ["gamma", "--method", "erk22:1", "--tol", "1/0"],
    ["sweep", "--family", "ERK22", "--lo", "0/0", "--hi", "1", "--step", "1/4"],
    ["gamma", "--method", "erk22:1/0"],
    ["gamma", "--method", "erk22:abc"],
    ["gamma", "--tableau-file", "{zero_den_tableau}"],
    ["gamma", "--tableau-file", "{missing}"],
    ["gamma", "--tableau-file", "{directory}"],
    ["gamma", "--tableau-file", "{binary}"],
    ["simulate", "--method", "erk22:1", "--tol", "0"],
    ["polys", "--method", "fe", "--tol", "1/2"],
    ["adversary", "--method", "erk22:1/4", "--stencil", "heat"],
    ["adversary", "--construction", "rk4", "--method", "erk22:1"],
    ["adversary", "--method", "erk33c3:1", "--eps", "5"],
    ["simulate", "--method", "erk22:1", "--dt", "1/1000", "--tol", "0"],
    ["simulate", "--method", "fe", "--dt", "0"],
    ["simulate", "--method", "fe", "--dt", "-1"],
    ["simulate", "--method", "fe", "--cfl-fraction", "0"],
    ["simulate", "--method", "fe", "--cfl-fraction", "-1"],
    ["polys", "--tableau-file", "{generic12_tableau}"],
    ["adversary", "--tableau-file", "{confluent8_tableau}"],
    *NUMBER_TEXT_ARGV,
], ids=lambda argv: " ".join(argv))
def test_rejected_input_exits_2(tmp_path, argv):
    files = {"float_tableau": FLOAT_TABLEAU, "generic7_tableau": GENERIC7_TABLEAU,
             "generic12_tableau": generic_tableau(12), "zero_den_tableau": ZERO_DEN_TABLEAU,
             "confluent8_tableau": CONFLUENT8_TABLEAU,
             "big_exponent_tableau": BIG_EXPONENT_TABLEAU,
             "spaces_tableau": SPACES_TABLEAU}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, text in files.items():
        paths[name].write_text(text, encoding="utf-8")
    paths.update(missing=tmp_path / "missing.json", directory=tmp_path,
                 binary=tmp_path / "binary.json")
    paths["binary"].write_bytes(b"\xff\xfe")
    start = time.perf_counter()
    proc = cli_process(*[a.format(**paths, spaces=SPACES) for a in argv])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert argv not in NUMBER_TEXT_ARGV or elapsed < 1, elapsed


@pytest.mark.parametrize("option", ["--dt", "--cfl-fraction"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_step_options_must_be_positive(capsys, option, value):
    # The error names the option, not the step size certificate.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--method", "fe", option, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"argument {option}: must be positive" in err


# --- simulate under drawn and hostile options -----------------------------------


# 1e5000, 1e-100000 and 1e100000000 pass TEXT_DIGITS (Fraction alone would
# build 10**100000000 for the last), and SPACES + "x" must scan in linear time.
HOSTILE = st.sampled_from(["0", "-1", "-3/2", "1e-5", "1/1000", "1", "5/2",
                           "1e30", "1e400", "1/0", "abc", "1e5000", "1e-100000",
                           "1e100000000", SPACES + "x"])


@st.composite
def simulate_argv(draw):
    """simulate argv from the parser's choices, with hostile number text."""
    argv = ["simulate", "--method", draw(st.sampled_from(
                ["erk22:1", "erk22:1/2", "erk33c2:1/2", "erk33c1:1/2,3/4", "fe", "rk4"])),
            "--limiter", draw(st.sampled_from(sorted(cli.LIMITERS))),
            "--stencil", draw(st.sampled_from(sorted(cli.BUILTIN_STENCILS))),
            "--n", str(draw(st.integers(1, 64))),
            "--steps", str(draw(st.integers(1, 20)))]
    for option in ("--speed", "--dt", "--cfl-fraction", "--mode", "--monitors"):
        if draw(st.booleans()):
            value = {"--mode": st.sampled_from(["rational", "float"]),
                     "--monitors": st.sampled_from(cli.MONITORS)}.get(option, HOSTILE)
            argv += [option, draw(value)]
    return argv


SIMULATE_BASE = ["simulate", "--method", "erk22:1", "--n", "8", "--steps", "3"]


@settings(max_examples=60, deadline=None)
@given(simulate_argv())
@example(SIMULATE_BASE + ["--dt", "1e400", "--mode", "float"])
@example(SIMULATE_BASE + ["--speed", "1e400", "--mode", "float"])
@example(SIMULATE_BASE + ["--speed", "-1", "--dt", "1/100"])
@example(["simulate", "--method", "erk22:1", "--stencil", "centered", "--n", "1",
          "--steps", "1"])  # no step certified: gamma = 0
def test_simulate_exits_0_3_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code == 2:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    else:
        assert json.loads(out.splitlines()[-1])["final"]["steps_run"] >= 1


# --- sweep, region and reproduce under drawn and hostile options ---------------


def _grid_points(lo, hi, step):
    """Points of the grid lo, lo + step, ... up to hi, or 0 when a text is
    not a number or step is not positive: such a grid is refused unbuilt."""
    try:
        lo, hi, step = (rational(x) for x in (lo, hi, step))
    except InputError:
        return 0
    return max(0, (hi - lo) // step + 1) if step > 0 else 0


def _sane_or_hostile(draw, sane):
    return draw(HOSTILE) if draw(st.integers(0, 3)) == 0 else str(draw(sane))


@st.composite
def grid_argv(draw):
    """sweep, region or reproduce argv from the parser's choices, with
    hostile number text.  A grid is admitted only when it is small (a sweep
    of at most 20 points, a region of at most 33**2), so each run is short;
    larger ones are drawn over GRID_POINTS, where they are refused."""
    command = draw(st.sampled_from(["sweep", "region", "reproduce"]))
    fmt = ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "reproduce":
        return ["reproduce", draw(st.sampled_from(sorted(cli._REPRODUCE))), *fmt]
    lo = _sane_or_hostile(draw, st.fractions(-1, 1, max_denominator=8))
    step = _sane_or_hostile(draw, st.sampled_from([F(1, 16), F(1, 8), F(1, 4), F(1)]))
    try:
        sane_hi = rational(lo) + draw(st.integers(0, 19)) * rational(step)
    except InputError:
        sane_hi = F(1)
    hi = _sane_or_hostile(draw, st.just(sane_hi))
    points = _grid_points(lo, hi, step)
    if command == "sweep":
        # Every HOSTILE tol that parses has under 40 bits of 1/tol, so a point
        # is charged SWEEP_POINT_COST at any --tol drawn here.
        assume(points <= 20 or points * SWEEP_POINT_COST > GRID_POINTS)
        argv = ["sweep", "--family", draw(st.sampled_from([*FAMILY_KINDS, "bogus"])),
                "--lo", lo, "--hi", hi, "--step", step,
                "--stencil", draw(st.sampled_from(sorted(cli.BUILTIN_STENCILS)))]
        argv += ["--ssp"] if draw(st.booleans()) else []
        argv += ["--tol", draw(HOSTILE)] if draw(st.booleans()) else []
    else:
        assume(points <= 33 or points**2 > GRID_POINTS)
        argv = ["region", "--lo", lo, "--hi", hi, "--spacing", step]
        argv += ["--delta", draw(HOSTILE)] if draw(st.booleans()) else []
    return argv + fmt


@settings(max_examples=60, deadline=None)
@given(grid_argv())
@example(["sweep", "--family", "ERK22", "--lo", "1e5000", "--hi", "2e5000", "--step", "1"])
@example(["region", "--spacing", "1e-5000"])
@example(["sweep", "--family", "ERK33_CaseII", "--lo", "3/8", "--hi", "3/4",
          "--step", "1/16", "--ssp", "--stencil", "heat", "--tol", "1/1000"])
def test_grid_commands_exit_0_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 5, argv
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, err)
    if code == 2:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


# --- certificate commands on drawn and hostile tableau files --------------------


HOSTILE_ENTRY = st.one_of(
    st.integers(-3, 3), st.fractions(-2, 2, max_denominator=9).map(str),
    st.sampled_from(["1e-5", "1_0", "1/0", "0/0", "abc", "", "9" * 5000, "1e5000",
                     "1e-100000", "1e100000000", SPACES + "x"]),
    st.booleans(), st.floats(), st.none())


@st.composite
def tableau_text(draw):
    """A tableau file with m <= 6: explicit with fraction and int entries, or
    with one flaw: a hostile entry, a ragged or nested row, a nonzero entry
    on or above the diagonal, a missing key or a wrong m."""
    m = draw(st.integers(1, 6))
    entry = st.fractions(-1, 1, max_denominator=8).map(str) | st.integers(0, 1)
    a = [[draw(entry) if j < i else "0" for j in range(m)] for i in range(m)]
    b = [draw(entry) for _ in range(m)]
    doc = {"m": m, "A": a, "b": b}
    i, j = sorted((draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))))
    flaw = draw(st.sampled_from([None, "entry", "b-entry", "ragged", "nested", "upper",
                                 "missing", "wrong-m"]))
    if flaw == "entry":
        a[j][i] = draw(HOSTILE_ENTRY)
    elif flaw == "b-entry":
        b[j] = draw(HOSTILE_ENTRY)
    elif flaw == "ragged":
        a[i] = a[i][:-1] if draw(st.booleans()) else a[i] + ["0"]
    elif flaw == "nested":
        a[j][i] = [a[j][i]]
    elif flaw == "upper":
        a[i][j] = "1/2"
    elif flaw == "missing":
        del doc[draw(st.sampled_from(["m", "A", "b"]))]
    elif flaw == "wrong-m":
        doc["m"] = draw(st.sampled_from([m + 1, m - 1, str(m), True, 0]))
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(tableau_text())
@example(json.dumps({"m": 2, "A": [["0", "0"], ["9" * 5000, "0"]], "b": ["1/2", "1/2"]}))
@example(json.dumps({"m": 2, "A": [["0", "0"], ["1", "0"]], "b": ["1e-5", "1_0"]}))
def test_tableau_file_commands_exit_0_or_2_with_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tableau.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("gamma", "ssp", "rphi", "polys", "adversary"):
            argv = [command, "--tableau-file", path]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert time.perf_counter() - start < 5, (text, command)
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 2), (text, command, err)
            if code == 2:
                lines = err.splitlines()
                assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (
                    text, command, err)
