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
from hypothesis import example, given, settings, strategies as st

from rkpos import cli
from rkpos.cli import main
from rkpos.tableau import erk22, tableau_to_json


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


def generic_tableau(m):
    """The generic m-stage tableau a_ij = 1/(2+i+j), b = 1/m, as JSON."""
    return json.dumps({"m": m, "b": [f"1/{m}"] * m,
                       "A": [[f"1/{2 + i + j}" if j < i else "0" for j in range(m)]
                             for i in range(m)]})


# Its heat-stencil vertex tables need 34 GiB, over the byte budget.
GENERIC7_TABLEAU = generic_tableau(7)


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
    ["polys", "--tableau-file", "{generic12_tableau}"],
], ids=lambda argv: " ".join(argv))
def test_rejected_input_exits_2(tmp_path, argv):
    files = {"float_tableau": FLOAT_TABLEAU, "generic7_tableau": GENERIC7_TABLEAU,
             "generic12_tableau": generic_tableau(12), "zero_den_tableau": ZERO_DEN_TABLEAU}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, text in files.items():
        paths[name].write_text(text, encoding="utf-8")
    paths.update(missing=tmp_path / "missing.json", directory=tmp_path,
                 binary=tmp_path / "binary.json")
    paths["binary"].write_bytes(b"\xff\xfe")
    argv = [a.format(**paths) for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rkpos.cli", *argv],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


# --- simulate under drawn and hostile options -----------------------------------


HOSTILE = st.sampled_from(["0", "-1", "-3/2", "1e-5", "1/1000", "1", "5/2",
                           "1e30", "1e400", "1/0", "abc"])


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


# --- certificate commands on drawn and hostile tableau files --------------------


HOSTILE_ENTRY = st.one_of(
    st.integers(-3, 3), st.fractions(-2, 2, max_denominator=9).map(str),
    st.sampled_from(["1e-5", "1_0", "1/0", "0/0", "abc", "", "9" * 5000]),
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
