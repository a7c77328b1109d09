import json
import math
import subprocess
import sys

import pytest


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _row(rows, key, value):
    return next(r for r in rows if r[key] == value)


def test_scan_chern_json(cli, tmp_path):
    out = tmp_path / "scan.json"
    res = cli(
        "scan-chern", "--lambda-min", 0.0, "--lambda-max", 2.0, "--steps", 21,
        "--grid", "32x32", "--n-sites", 512, "--out", out,
    )
    assert res.returncode == 0
    doc = _load(out)
    assert set(doc) == {"config", "rows", "summary"}
    assert doc["config"]["command"] == "scan-chern"
    assert doc["summary"]["skipped_critical"] == [1.0]
    assert doc["summary"]["failed"] == []
    rows = doc["rows"]
    assert len(rows) == 20
    for r in rows:
        expect = -1 if r["lambda"] < 1.0 else 0
        assert r["chern_discrete"] == expect
        assert abs(r["chern_quadrature"] - expect) < 0.02
        want = "ChernMinusOne" if expect == -1 else "ChernZero"
        assert r["label"] == want


def test_scan_chern_narrow_window(cli, tmp_path):
    out = tmp_path / "narrow.json"
    res = cli(
        "scan-chern", "--lambda-min", 1.1, "--lambda-max", 1.2, "--steps", 2,
        "--grid", "32x32", "--n-sites", 512, "--out", out,
    )
    assert res.returncode == 0
    assert [r["label"] for r in _load(out)["rows"]] == ["ChernZero", "ChernZero"]


def test_scan_chern_usage_errors(cli):
    base = ("scan-chern", "--lambda-min", 0.0, "--lambda-max", 2.0)
    assert cli(*base, "--steps", 1).returncode == 2
    assert cli(*base, "--steps", 3, "--tol", 0.5).returncode == 2
    res = cli("scan-chern", "--lambda-min", 2.0, "--lambda-max", 0.0, "--steps", 3)
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_scan_chern_partial_failure(cli, tmp_path):
    out = tmp_path / "partial.json"
    res = cli(
        "scan-chern", "--lambda-min", 0.2, "--lambda-max", 0.6, "--steps", 3,
        "--grid", "32x32", "--n-sites", 512, "--quad-limit", 1, "--out", out,
    )
    assert res.returncode == 3
    doc = _load(out)
    assert all(r["label"] == "failed" for r in doc["rows"])
    assert doc["summary"]["failed"] == [0.2, 0.4, 0.6]


def test_scan_chern_deterministic_bytes(cli, tmp_path):
    args = (
        "scan-chern", "--lambda-min", 0.0, "--lambda-max", 2.0, "--steps", 5,
        "--grid", "32x32", "--n-sites", 512,
    )
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    assert cli(*args, "--out", paths[0]).returncode == 0
    assert cli(*args, "--out", paths[1]).returncode == 0
    assert cli(*args, "--out", paths[2]).returncode == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_scan_chern_csv(cli, tmp_path):
    out = tmp_path / "scan.csv"
    res = cli(
        "scan-chern", "--lambda-min", 0.0, "--lambda-max", 2.0, "--steps", 5,
        "--grid", "32x32", "--n-sites", 512, "--format", "csv", "--out", out,
    )
    assert res.returncode == 0
    text = out.read_bytes().decode()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "lambda,chern_quadrature,chern_error,chern_discrete,label"
    assert len(lines) == 5

    piped = cli(
        "scan-chern", "--lambda-min", 1.5, "--lambda-max", 2.0, "--steps", 2,
        "--grid", "32x32", "--n-sites", 512,
    )
    assert piped.returncode == 0
    assert piped.stdout.splitlines()[0] == lines[0]


def test_gap_map_grid(cli, tmp_path):
    out = tmp_path / "gap.json"
    res = cli("gap-map", "--grid", "21x21", "--out", out)
    assert res.returncode == 0
    doc = _load(out)
    rows = doc["rows"]
    assert len(rows) == 441
    assert doc["summary"]["exact_zero_rows"] == 31
    assert _row(rows, "gamma", 0.5)["gap"] is not None
    by_point = {(r["gamma"], r["lambda"]): r["gap"] for r in rows}
    assert by_point[(0.5, 1.0)] == 0.0
    assert by_point[(0.0, 0.3)] == 0.0
    assert by_point[(1.0, 0.0)] == 1.0
    assert by_point[(0.0, 1.5)] == 0.5
    assert by_point[(0.5, 0.5)] > 0.0


def test_metric_scan_monotone_and_skip(cli, tmp_path):
    out = tmp_path / "metric.json"
    res = cli(
        "metric-scan", "--gamma", 1.0, "--lambda-min", 0.5, "--lambda-max", 1.0,
        "--steps", 3, "--n-sites", 512, "--out", out,
    )
    assert res.returncode == 0
    doc = _load(out)
    assert doc["summary"]["skipped_critical"] == [1.0]
    assert doc["summary"]["ok"] == 2
    assert doc["summary"]["g_lambda_lambda_monotone"] is True
    rows = doc["rows"]
    assert rows[2]["status"] == "skipped"
    assert 0.0 < rows[0]["g_lambda_lambda"] < rows[1]["g_lambda_lambda"]


def test_metric_scan_near_critical(cli, tmp_path):
    # the closed-form tensor has no stencil, so a gap near 4e-11 is still an ok row
    out = tmp_path / "near.json"
    res = cli(
        "metric-scan", "--gamma", 5e-11, "--lambda-min", 0.4, "--lambda-max", 0.6,
        "--steps", 2, "--n-sites", 256, "--out", out,
    )
    assert res.returncode == 0
    doc = _load(out)
    assert "near_critical" not in doc["summary"]
    assert doc["summary"]["ok"] == 2
    for row in doc["rows"]:
        assert row["status"] == "ok"
        for key in ("g_lambda_lambda", "g_gamma_gamma", "g_phi_phi"):
            assert math.isfinite(row[key]) and row[key] >= 0.0


def test_metric_scan_usage_errors(cli):
    base = ("metric-scan", "--gamma", 1.0, "--lambda-min", 0.2, "--lambda-max", 0.8)
    assert cli(*base, "--steps", 1).returncode == 2
    assert cli(*base, "--steps", 3, "--n-sites", 5).returncode == 2


_SCAN = ("scan-chern", "--lambda-min", 0.2, "--lambda-max", 0.6, "--steps", 3)


@pytest.mark.parametrize(
    "args",
    [
        (*_SCAN, "--grid", "8x8"),
        (*_SCAN, "--n-sites", 100),
        (*_SCAN, "--n-sites", 257),
        (*_SCAN, "--quad-limit", 0),
        ("metric-scan", "--gamma", -1, "--lambda-min", 0.5, "--lambda-max", 1.0, "--steps", 3),
    ],
)
def test_library_input_checks_exit_2(cli, args):
    res = cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("metric-scan", "--gamma", "nan", "--lambda-min", 0.5, "--lambda-max", 1.0, "--steps", 3),
        ("gap-map", "--gamma-max", "inf", "--grid", "3x3"),
    ],
)
def test_non_finite_arguments_exit_2(cli, args):
    res = cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "finite" in res.stderr


def test_import_defers_scipy_integrate():
    code = "import sys, artifact.cli; print('scipy.integrate' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_oracle_verify_report(cli, tmp_path):
    first = tmp_path / "r1.txt"
    second = tmp_path / "r2.txt"
    assert cli("oracle-verify", "--out", first).returncode == 0
    assert cli("oracle-verify", "--out", second).returncode == 0
    text = first.read_text()
    assert "overall: PASS" in text
    assert text.count("PASS") >= 4
    assert first.read_bytes() == second.read_bytes()


def test_oracle_verify_size_limit(cli):
    assert cli("oracle-verify", "--n-sites", 14).returncode == 2
