import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from rkpos.cli import main
from rkpos.tableau import erk22, tableau_to_json


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows(out):
    return list(csv.DictReader(io.StringIO(out)))


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


def test_reproduce_ok(capsys):
    for rid in ("erk22-table", "rk4-negative", "heat-table"):
        code, out = invoke(capsys, "reproduce", rid)
        assert code == 0
        assert all(row["ok"] == "true" for row in rows(out))


def test_error_exit_code(capsys):
    code, _ = invoke(capsys, "gamma", "--method", "nope:1")
    assert code == 2


FLOAT_TABLEAU = '{"m": 2, "A": [[0, 0], [0.1, 0]], "b": ["1/2", "1/2"]}'


@pytest.mark.parametrize("argv", [
    ["gamma", "--method", "erk22:1", "--tol", "0"],
    ["gamma", "--method", "erk22:1", "--tol", "-1"],
    ["ssp", "--method", "erk22:1/2", "--tol", "0"],
    ["region", "--spacing", "0"],
    ["sweep", "--family", "ERK22", "--lo", "1/2", "--hi", "1", "--step", "0"],
    ["gamma", "--method", "erk22:"],
    ["gamma", "--method", "erk22:1,2"],
    ["simulate", "--method", "erk22:1", "--n", "0"],
    ["gamma", "--tableau-file", "{float_tableau}"],
], ids=lambda argv: " ".join(argv))
def test_rejected_input_exits_2(tmp_path, argv):
    path = tmp_path / "float.json"
    path.write_text(FLOAT_TABLEAU, encoding="utf-8")
    argv = [a.format(float_tableau=path) for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rkpos.cli", *argv],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
