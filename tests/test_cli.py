import contextlib
import io
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import VortexOnPlaquette, cli as artifact_cli, model, oracle, topology


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
    assert doc["config"] == {
        "command": "scan-chern", "lambda_min": 0.0, "lambda_max": 2.0, "steps": 21,
        "grid": "32x32", "n_sites": 512,
    }
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
    res = cli("scan-chern", "--lambda-min", 2.0, "--lambda-max", 0.0, "--steps", 3)
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_scan_chern_partial_failure(monkeypatch, tmp_path):
    # no valid input makes a row fail, so the plaquette route is made to raise
    def vortex(*args):
        raise VortexOnPlaquette("forced")

    monkeypatch.setattr(topology, "chern_discrete", vortex)
    out = tmp_path / "partial.json"
    code = artifact_cli.main([
        "scan-chern", "--lambda-min", "0.2", "--lambda-max", "0.6", "--steps", "3",
        "--grid", "32x32", "--n-sites", "512", "--out", str(out),
    ])
    assert code == 3
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


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = artifact_cli.main(argv)
    return code, out.getvalue().encode()


_coupling = st.floats(0.0, 2.0, allow_subnormal=False)


@st.composite
def _closed_form_runs(draw):
    lo = draw(_coupling)
    hi = lo + draw(st.floats(0.05, 1.5))
    steps = str(draw(st.integers(2, 5)))
    fmt = draw(st.sampled_from(["csv", "json"]))
    grid = f"{draw(st.integers(16, 24))}x{draw(st.integers(16, 24))}"
    return [
        ["scan-chern", "--lambda-min", repr(lo), "--lambda-max", repr(hi), "--steps", steps,
         "--grid", grid, "--n-sites", str(draw(st.sampled_from([256, 512]))),
         "--format", fmt],
        ["gap-map", "--gamma-max", repr(hi), "--lambda-max", repr(hi),
         "--grid", f"{draw(st.integers(2, 6))}x{draw(st.integers(2, 6))}", "--format", fmt],
        ["metric-scan", "--gamma", repr(draw(_coupling)), "--lambda-min", repr(lo),
         "--lambda-max", repr(hi), "--steps", steps,
         "--n-sites", str(2 * draw(st.integers(2, 256))), "--format", fmt],
    ]


@settings(max_examples=25)
@given(_closed_form_runs())
def test_closed_form_output_is_byte_deterministic(runs):
    for argv in runs:
        first = _stdout_of(argv)
        assert first[0] in (0, 3), argv
        assert first[1]
        assert _stdout_of(argv) == first, argv


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
    assert doc["config"] == {
        "command": "gap-map", "gamma_min": 0.0, "gamma_max": 2.0, "lambda_min": 0.0,
        "lambda_max": 2.0, "grid": "21x21",
    }
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


@pytest.mark.parametrize("signed", [False, True], ids=["linspace", "signed-zero"])
def test_gap_map_bytes_match_an_independent_rendering(monkeypatch, signed):
    # np.linspace turns a -0.0 start into 0.0, so the CLI's own axes never
    # hold -0.0; the signed-zero case keeps the start's sign, and then -0.0
    # and 0.0, equal as keys, must still render as -0 and 0
    argv = ["gap-map", "--gamma-min", "-0.0", "--lambda-min", "-0.0", "--grid", "7x9"]
    gammas, lams = np.linspace(-0.0, 2.0, 7), np.linspace(-0.0, 2.0, 9)
    if signed:
        real_axis = artifact_cli._axis

        def signed_axis(lo, hi, steps, *names):
            values = real_axis(lo, hi, steps, *names)
            values[0] = lo
            return values

        monkeypatch.setattr(artifact_cli, "_axis", signed_axis)
        gammas[0] = lams[0] = -0.0
    cells = [(g, l, model.gap(g, l)) for g in gammas.tolist() for l in lams.tolist()]
    expected = "".join(
        ["gamma,lambda,gap\n"] + [f"{g:.12g},{l:.12g},{v:.12g}\n" for g, l, v in cells]
    )
    code, out = _stdout_of(argv)
    assert code == 0
    assert out.decode() == expected
    zero = "-0" if signed else "0"
    assert f"{zero},{zero},{zero}" in expected.splitlines()
    assert f"{zero},1,0" in expected.splitlines()

    code, out = _stdout_of(argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"rows_written": 63, "exact_zero_rows": 11}
    got = [tuple(row[key] for key in ("gamma", "lambda", "gap")) for row in doc["rows"]]
    want = [tuple(float(f"{v:.12g}") for v in cell) for cell in cells]
    assert got == want
    assert [math.copysign(1.0, v) for row in got for v in row] == [
        math.copysign(1.0, v) for row in want for v in row
    ]


def test_rendered_rows_keep_empty_cells():
    # a skipped metric-scan row has no components: empty CSV cells, JSON nulls
    argv = ["metric-scan", "--gamma", "1", "--lambda-min", "0.5", "--lambda-max", "1.5",
            "--steps", "3", "--n-sites", "64"]
    code, out = _stdout_of(argv)
    assert code == 0
    assert out.decode().splitlines()[2] == "1,,,,,skipped"
    code, out = _stdout_of(argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"][1] == {
        "lambda": 1.0, "g_lambda_lambda": None, "g_gamma_gamma": None, "g_phi_phi": None,
        "minus_two_im_g_phi_gamma": None, "status": "skipped",
    }
    # scan-chern leaves the critical-strip row out and lists it instead
    argv = ["scan-chern", "--lambda-min", "0.5", "--lambda-max", "1.5", "--steps", "3",
            "--grid", "16x16", "--n-sites", "256"]
    code, out = _stdout_of(argv)
    assert code == 0
    assert [line.split(",")[0] for line in out.decode().splitlines()] == [
        "lambda", "0.5", "1.5"
    ]
    code, out = _stdout_of(argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [row["lambda"] for row in doc["rows"]] == [0.5, 1.5]
    assert doc["summary"]["skipped_critical"] == [1.0]


def test_metric_scan_monotone_and_skip(cli, tmp_path):
    out = tmp_path / "metric.json"
    res = cli(
        "metric-scan", "--gamma", 1.0, "--lambda-min", 0.5, "--lambda-max", 1.0,
        "--steps", 3, "--n-sites", 512, "--out", out,
    )
    assert res.returncode == 0
    doc = _load(out)
    assert doc["config"] == {
        "command": "metric-scan", "gamma": 1.0, "lambda_min": 0.5, "lambda_max": 1.0,
        "steps": 3, "n_sites": 512,
    }
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
_STRIP = ("scan-chern", "--lambda-min", 0.9995, "--lambda-max", 1.0005, "--steps", 2)


@pytest.mark.parametrize(
    "args",
    [
        (*_SCAN, "--grid", "8x8"),
        (*_SCAN, "--n-sites", 100),
        (*_SCAN, "--n-sites", 257),
        (*_STRIP, "--grid", "8x8"),
        ("metric-scan", "--gamma", -1, "--lambda-min", 0.5, "--lambda-max", 1.0, "--steps", 3),
        (*_STRIP, "--n-sites", 257),
        ("scan-chern", "--lambda-min", -2, "--lambda-max", -0.5, "--steps", 4,
         "--grid", "32x32", "--n-sites", 512),
        ("gap-map", "--gamma-min", -1),
        ("gap-map", "--lambda-min", -1),
        ("oracle-verify", "--seed", -1),
        ("gap-map", "--gamma-min", -1, "--lambda-min", -0.5),
    ],
)
def test_library_input_checks_exit_2(cli, args):
    res = cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr
    if args[0] == "gap-map":
        # model.gap's own sign check on the first row, gamma before lam
        name = "gamma" if "--gamma-min" in args else "lam"
        assert res.stderr.splitlines() == [f"error: {name} must be >= 0, got -1.0"]


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


def test_closed_form_paths_load_no_scipy(tmp_path):
    # scipy belongs to the ED oracle's solvers alone: neither the import, the
    # three closed-form subcommands, the curvature density, Wilson loops, the
    # closed-form sector energies nor the Fock-space embedding may load it,
    # and an exact-diagonalization solve still loads it
    runs = [
        ["scan-chern", "--lambda-min", "0", "--lambda-max", "2", "--steps", "5",
         "--grid", "16x16", "--n-sites", "256"],
        ["gap-map", "--grid", "3x3"],
        ["metric-scan", "--gamma", "1", "--lambda-min", "0.5", "--lambda-max", "1.5",
         "--steps", "3", "--n-sites", "256"],
    ]
    verify = ["oracle-verify", "--n-sites", "4", "--samples", "1"]
    code = textwrap.dedent(f"""
        import sys

        def scipy_loaded():
            return any(name.split(".")[0] == "scipy" for name in sys.modules)

        import artifact
        print(scipy_loaded())
        import artifact.cli
        print(scipy_loaded())
        for i, argv in enumerate({runs!r}):
            assert artifact.cli.main(argv + ["--out", r"{tmp_path}/%d.csv" % i]) == 0
            print(scipy_loaded())
        artifact.berry_curvature_density(0.5, 0.5)
        print(scipy_loaded())
        p = artifact.ModelParams(0.3, 1.0, 1.5)
        artifact.wilson_loop_berry_phase([p, artifact.ModelParams(0.6, 1.0, 1.5)], 16)
        artifact.free_fermion_parity_spectrum(p, 8)
        artifact.embed_ground_state(artifact.build_ground_state(p, 8))
        print(scipy_loaded())
        artifact.ed_ground(p, 4)
        print(scipy_loaded())
        print(artifact.ed_ground is artifact.oracle.ed_ground)
        print(artifact.cli.main({verify!r} + ["--out", r"{tmp_path}/verify.txt"]))
    """)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] * 7 + ["True", "True", "0"]


@pytest.mark.parametrize(
    "args",
    [
        (*_SCAN, "--grid", "16x16", "--n-sites", 256),
        ("gap-map", "--grid", "3x3"),
        ("metric-scan", "--gamma", 1.0, "--lambda-min", 0.2, "--lambda-max", 0.6,
         "--steps", 3, "--n-sites", 64),
        ("oracle-verify", "--n-sites", 4, "--samples", 1),
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(cli, tmp_path, args, target):
    out = tmp_path / "no" / "such.out" if target == "missing-dir" else tmp_path
    res = cli(*args, "--out", out)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


def _no_rows(*args):
    raise AssertionError("a row was computed before --out was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-verify", "--n-sites", "12", "--samples", "5"],
        ["gap-map", "--grid", "301x301"],
        ["scan-chern", "--lambda-min", "0.2", "--lambda-max", "0.6", "--steps", "3"],
        ["metric-scan", "--gamma", "1", "--lambda-min", "0.2", "--lambda-max", "0.6",
         "--steps", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_fails_before_any_row(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(oracle, "ed_ground", _no_rows)
    monkeypatch.setattr(artifact_cli, "_map_rows", _no_rows)
    out = tmp_path / "no" / "such.out"
    assert artifact_cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {str(out)!r}") and err.count("\n") == 1


def test_out_on_a_failed_run(tmp_path):
    # a bad axis stops before --out is touched; a run that fails after the
    # check leaves an existing file as it was
    missing = tmp_path / "missing.csv"
    assert artifact_cli.main(["gap-map", "--grid", "1x3", "--out", str(missing)]) == 2
    assert not missing.exists()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier\n")
    assert artifact_cli.main(["gap-map", "--gamma-min", "-1", "--out", str(kept)]) == 2
    assert kept.read_bytes() == b"earlier\n"


def test_oracle_verify_report(cli, tmp_path):
    first = tmp_path / "r1.txt"
    second = tmp_path / "r2.txt"
    assert cli("oracle-verify", "--out", first).returncode == 0
    assert cli("oracle-verify", "--out", second).returncode == 0
    text = first.read_text()
    assert "overall: PASS" in text
    assert text.count("PASS") >= 4
    assert first.read_bytes() == second.read_bytes()


def test_config_is_the_parsed_command_line(tmp_path):
    # floats are written to 12 significant digits, the grid as AxB, and
    # --out and --format are left out
    runs = {
        "scan-chern": (
            ["--lambda-min", "0.1", "--lambda-max", "0.30000000000000004", "--steps", "3",
             "--grid", "16x32", "--n-sites", "256"],
            {"lambda_min": 0.1, "lambda_max": 0.3, "steps": 3, "grid": "16x32",
             "n_sites": 256},
        ),
        "gap-map": (
            ["--gamma-min", "0.1", "--gamma-max", "0.30000000000000004", "--grid", "2x3"],
            {"gamma_min": 0.1, "gamma_max": 0.3, "lambda_min": 0.0, "lambda_max": 2.0,
             "grid": "2x3"},
        ),
        "metric-scan": (
            ["--gamma", "0.30000000000000004", "--lambda-min", "0.1", "--lambda-max", "0.7",
             "--steps", "3", "--n-sites", "64"],
            {"gamma": 0.3, "lambda_min": 0.1, "lambda_max": 0.7, "steps": 3, "n_sites": 64},
        ),
    }
    for command, (argv, config) in runs.items():
        out = tmp_path / f"{command}.json"
        assert artifact_cli.main([command, *argv, "--out", str(out)]) == 0
        assert _load(out)["config"] == {"command": command, **config}


@pytest.mark.parametrize(
    "args", [("--n-sites", 4, "--samples", 3, "--seed", 89), ("--samples", 1, "--seed", 442)]
)
def test_oracle_verify_redraws_across_a_parity_crossing(cli, args):
    # a [qgt] draw whose stencil straddles a crossing of the 6-site ring's
    # parity levels is drawn again instead of ending the run
    res = cli("oracle-verify", *args)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert sum(line.startswith("[qgt] sample") for line in lines) == 3
    assert lines[-1] == "overall: PASS"


def test_oracle_verify_size_limit(cli):
    # the library's size checks decide: BadSize above 12 sites for exact
    # diagonalization, and for the odd and the too-small ring of the
    # closed-form energies
    for n in (14, 7, 2):
        res = cli("oracle-verify", "--n-sites", n, "--samples", 1)
        assert res.returncode == 2, n
        assert res.stdout == ""
        assert "error:" in res.stderr
