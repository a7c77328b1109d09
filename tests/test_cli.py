import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import CriticalPoint, VortexOnPlaquette, cli as artifact_cli, geometry, model
from artifact import oracle, topology


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


def _vortices(lams, *args):
    """A plaquette kernel whose every field fails, as no valid input does."""
    return [VortexOnPlaquette("forced") for _ in lams]


def test_scan_chern_partial_failure(monkeypatch, tmp_path):
    # no valid input makes a row fail, so the plaquette route is made to fail
    monkeypatch.setattr(topology, "_chern_discrete_batch", _vortices)
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


_SIGNED_GAP_MAP = ["gap-map", "--gamma-min", "-0.0", "--lambda-min", "-0.0", "--grid", "7x9"]


def _keep_signed_axis_starts(monkeypatch):
    real_axis = artifact_cli._axis

    def signed_axis(lo, hi, steps, *names):
        values = real_axis(lo, hi, steps, *names)
        values[0] = lo
        return values

    monkeypatch.setattr(artifact_cli, "_axis", signed_axis)


@pytest.mark.parametrize("signed", [False, True], ids=["linspace", "signed-zero"])
def test_gap_map_bytes_match_an_independent_rendering(monkeypatch, signed):
    # np.linspace turns a -0.0 start into 0.0, so the CLI's own axes never
    # hold -0.0; the signed-zero case keeps the start's sign, and then -0.0
    # and 0.0, equal as keys, must still render as -0 and 0
    gammas, lams = np.linspace(-0.0, 2.0, 7), np.linspace(-0.0, 2.0, 9)
    if signed:
        _keep_signed_axis_starts(monkeypatch)
        gammas[0] = lams[0] = -0.0
    cells = [(g, l, model.gap(g, l)) for g in gammas.tolist() for l in lams.tolist()]
    expected = "".join(
        ["gamma,lambda,gap\n"] + [f"{g:.12g},{l:.12g},{v:.12g}\n" for g, l, v in cells]
    )
    code, out = _stdout_of(_SIGNED_GAP_MAP)
    assert code == 0
    assert out.decode() == expected
    zero = "-0" if signed else "0"
    assert f"{zero},{zero},{zero}" in expected.splitlines()
    assert f"{zero},1,0" in expected.splitlines()

    code, out = _stdout_of(_SIGNED_GAP_MAP + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"rows_written": 63, "exact_zero_rows": 11}
    got = [tuple(row[key] for key in ("gamma", "lambda", "gap")) for row in doc["rows"]]
    want = [tuple(float(f"{v:.12g}") for v in cell) for cell in cells]
    assert got == want
    assert [math.copysign(1.0, v) for row in got for v in row] == [
        math.copysign(1.0, v) for row in want for v in row
    ]


_axis_end = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e150]),
    st.floats(0.0, 1e150),
)


@st.composite
def _axis_args(draw):
    lo, hi = sorted(draw(st.lists(_axis_end, min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        # ends a few ulps apart, down to a step that underflows to zero
        hi = min(lo + draw(st.integers(1, 1000)) * math.ulp(lo), 1e150)
    if draw(st.booleans()) and lo == 0.0:
        lo = -0.0
    return lo, hi, draw(st.integers(2, 40)), draw(st.sampled_from(["gamma", "lambda"]))


@settings(max_examples=300)
@given(_axis_args())
@example((0.0, 1.0, 1, "lambda"))  # too few steps
@example((1.0, 0.5, 5, "gamma"))  # reversed ends
@example((0.0, 5e-324, 3, "gamma"))  # the step underflows to zero
def test_axis_has_the_bits_of_linspace(args):
    # _axis computes in np.linspace's order of operations: an axis it accepts
    # holds linspace's bits, a -0.0 start included, and an axis it rejects
    # gets the error that linspace's values got; where the step underflows,
    # linspace divides differently, but only on axes with repeated cells
    lo, hi, steps, name = args
    try:
        values, error = artifact_cli._axis(lo, hi, steps, name), None
    except ValueError as exc:
        error = str(exc)
    if steps < 2:
        assert error == "--steps must be >= 2"
        return
    if not lo < hi:
        assert error == f"--{name}-min must be < --{name}-max"
        return
    expected = np.linspace(lo, hi, steps).tolist()
    cells = [artifact_cli._fmt(value) for value in expected]
    repeat = next((a for a, b in zip(cells, cells[1:]) if a == b), None)
    if repeat is None:
        assert error is None
        assert [value.hex() for value in values] == [value.hex() for value in expected]
    else:
        assert error == (
            f"--{name}-min and --{name}-max are too close for {steps} values: "
            f"two adjacent {name} values print as {repeat}"
        )


@st.composite
def _gap_axes(draw):
    ends = []
    for _ in range(2):
        lo, hi = sorted(draw(st.lists(_axis_end, min_size=2, max_size=2, unique=True)))
        ends.append((-0.0 if draw(st.booleans()) and lo == 0.0 else lo, hi))
    return ends, draw(st.integers(2, 40)), draw(st.integers(2, 40))


@settings(max_examples=60)
@given(_gap_axes())
def test_gap_map_blocks_match_a_cell_by_cell_rendering(axes):
    # gap-map fills one "%.12g" template per gamma block; the bytes must be
    # those of rendering every cell on its own, on stdout and through --out,
    # subnormal and 1e150 ends and signed-zero starts included
    ((g_lo, g_hi), (l_lo, l_hi)), g_steps, l_steps = axes
    gammas = np.linspace(g_lo, g_hi, g_steps).tolist()
    lams = np.linspace(l_lo, l_hi, l_steps).tolist()
    gammas[0], lams[0] = g_lo, l_lo  # a -0.0 start, kept by _keep_signed_axis_starts
    expected = "".join(
        ["gamma,lambda,gap\n"]
        + [f"{g:.12g},{l:.12g},{model.gap(g, l):.12g}\n" for g in gammas for l in lams]
    ).encode()
    argv = ["gap-map", "--gamma-min", repr(g_lo), "--gamma-max", repr(g_hi),
            "--lambda-min", repr(l_lo), "--lambda-max", repr(l_hi),
            "--grid", f"{g_steps}x{l_steps}", "--format", "csv"]
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        _keep_signed_axis_starts(patch)
        assert _stdout_of(argv) == (0, expected)
        out = f"{tmp}/gap.csv"
        assert _stdout_of(argv + ["--out", out]) == (0, b"")
        with open(out, "rb") as handle:
            assert handle.read() == expected


@st.composite
def _chern_axes(draw):
    # grid point j lies within 5e-4 of the critical field, so one field is
    # skipped, and 40 or more kept fields fill three or more blocks of 16
    lo = draw(st.floats(0.0, 0.5))
    j = draw(st.integers(20, 40))
    step = (1.0 + draw(st.floats(-5e-4, 5e-4)) - lo) / j
    steps = j + draw(st.integers(20, 40))
    return lo, lo + (steps - 1) * step, steps, draw(st.sampled_from([256, 512, 4096]))


@settings(max_examples=10)
@given(_chern_axes())
def test_scan_chern_bytes_match_an_independent_rendering(axes):
    # the CLI takes every plaquette result from one blocked kernel call; its
    # bytes must be those of classify_phase and chern_discrete field by field
    lo, hi, steps, n = axes
    rows, skipped = [], []
    for lam in np.linspace(lo, hi, steps).tolist():
        point = topology.classify_phase(lam)
        if point.chern is None:
            skipped.append(lam)
            continue
        disc = topology.chern_discrete(lam, (16, 128), n)
        assert disc.nearest_integer == point.chern.nearest_integer
        rows.append((lam, point.chern.value, point.chern.residual, disc.nearest_integer,
                     point.label.value))
    assert len(skipped) == 1
    argv = ["scan-chern", "--lambda-min", repr(lo), "--lambda-max", repr(hi),
            "--steps", str(steps), "--grid", "16x128", "--n-sites", str(n)]
    csv_text = "".join(
        ["lambda,chern_quadrature,chern_error,chern_discrete,label\n"]
        + [f"{l:.12g},{q:.12g},{e:.12g},{d},{label}\n" for l, q, e, d, label in rows]
    )
    assert _stdout_of(argv + ["--format", "csv"]) == (0, csv_text.encode())

    def num(x):
        return float(f"{x:.12g}")

    keys = ("lambda", "chern_quadrature", "chern_error", "chern_discrete", "label")
    doc = {
        "config": {"command": "scan-chern", "lambda_min": num(lo), "lambda_max": num(hi),
                   "steps": steps, "grid": "16x128", "n_sites": n},
        "rows": [dict(zip(keys, (num(l), num(q), num(e), d, label)))
                 for l, q, e, d, label in rows],
        "summary": {"points_requested": steps, "rows_written": len(rows),
                    "skipped_critical": [num(l) for l in skipped], "failed": []},
    }
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _stdout_of(argv + ["--format", "json"]) == (0, json_text.encode())


@st.composite
def _metric_axes(draw):
    # field axes that cross the critical field; at gamma = 0 every field
    # below it is gapless too
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.5)))
    lo, hi = draw(st.floats(0.0, 0.95)), draw(st.floats(1.05, 2.5))
    return gamma, lo, hi, draw(st.integers(2, 40)), draw(st.sampled_from([4, 6, 64, 1024, 4096]))


@settings(max_examples=10)
@given(_metric_axes())
@example((0.0, 0.5, 1.5, 3, 64))
@example((0.8, 0.5, 1.5, 21, 1024))
def test_metric_scan_bytes_match_an_independent_rendering(axes):
    # the CLI takes every tensor from one blocked kernel call; its bytes must
    # be those of qgt_product field by field, skipped rows with empty cells
    gamma, lo, hi, steps, n = axes
    rows = []
    for lam in np.linspace(lo, hi, steps).tolist():
        try:
            tensor = geometry.qgt_product(model.ModelParams(0.0, gamma, lam), n)
        except CriticalPoint:
            rows.append((lam, None, None, None, None, "skipped"))
            continue
        metric = tensor.real_metric
        rows.append((lam, float(metric[2, 2]), float(metric[1, 1]), float(metric[0, 0]),
                     float(-2.0 * tensor.matrix[0, 1].imag), "ok"))
    argv = ["metric-scan", "--gamma", repr(gamma), "--lambda-min", repr(lo),
            "--lambda-max", repr(hi), "--steps", str(steps), "--n-sites", str(n)]
    keys = ("lambda", "g_lambda_lambda", "g_gamma_gamma", "g_phi_phi",
            "minus_two_im_g_phi_gamma", "status")
    csv_text = "".join(
        [",".join(keys) + "\n"]
        + [",".join("" if x is None else x if isinstance(x, str) else f"{x:.12g}" for x in row)
           + "\n" for row in rows]
    )
    assert _stdout_of(argv + ["--format", "csv"]) == (0, csv_text.encode())

    def num(x):
        return x if x is None or isinstance(x, str) else float(f"{x:.12g}")

    ok = [row[1] for row in rows if row[-1] == "ok"]
    doc = {
        "config": {"command": "metric-scan", "gamma": num(gamma), "lambda_min": num(lo),
                   "lambda_max": num(hi), "steps": steps, "n_sites": n},
        "rows": [dict(zip(keys, map(num, row))) for row in rows],
        "summary": {
            "rows_written": steps, "ok": len(ok),
            "skipped_critical": [num(row[0]) for row in rows if row[-1] == "skipped"],
            "g_lambda_lambda_monotone": (
                all(b > a for a, b in zip(ok, ok[1:])) if len(ok) >= 2 else None
            ),
        },
    }
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _stdout_of(argv + ["--format", "json"]) == (0, json_text.encode())


def test_metric_scan_makes_one_kernel_call(monkeypatch):
    # the tensors of all 60 fields come from one blocked kernel call, and no
    # row calls qgt_product
    calls = []
    kernel = geometry._qgt_product_batch

    def counted(*args):
        calls.append("kernel")
        return kernel(*args)

    def per_row(*args):
        calls.append("qgt_product")
        raise AssertionError("metric-scan called qgt_product")

    monkeypatch.setattr(geometry, "_qgt_product_batch", counted)
    monkeypatch.setattr(geometry, "qgt_product", per_row)
    argv = ["metric-scan", "--gamma", "0.7", "--lambda-min", "0.1", "--lambda-max", "2.5",
            "--steps", "60", "--n-sites", "4096"]
    code, out = _stdout_of(argv)
    assert code == 0
    assert out.decode().count("\n") == 1 + 60
    assert calls == ["kernel"]


def test_scan_chern_makes_one_winding_pass(monkeypatch):
    # the windings of all 60 fields come from one batch call, and no row
    # calls classify_phase or chern_number
    calls = []
    batch = topology._phase_batch

    def counted(lams):
        calls.append(len(lams))
        return batch(lams)

    def per_row(*args):
        calls.append("per row")
        raise AssertionError("scan-chern called a one-field route")

    monkeypatch.setattr(topology, "_phase_batch", counted)
    monkeypatch.setattr(topology, "classify_phase", per_row)
    monkeypatch.setattr(topology, "chern_number", per_row)
    argv = ["scan-chern", "--lambda-min", "0", "--lambda-max", "2", "--steps", "60",
            "--grid", "16x16", "--n-sites", "256"]
    code, out = _stdout_of(argv)
    assert code == 0
    assert out.decode().count("\n") == 1 + 60
    assert calls == [60]


_json_cell = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e150, math.nan, math.inf, -math.inf,
                     2**53 + 1, -(2**64) - 1, 0, None, True, False]),
    st.floats(),
    st.integers(),
    st.sampled_from(["ChernMinusOne", "ChernZero", "failed", "ok", "skipped"]),
    st.text(max_size=4),
)


@st.composite
def _json_runs(draw):
    names = draw(st.lists(st.sampled_from(["lambda", "label", "gap", "gamma", "status",
                                           "chern_error", "g_phi_phi"]),
                          min_size=1, max_size=6, unique=True))
    # a row may lack a key, which renders as null
    row = st.fixed_dictionaries({}, optional={name: _json_cell for name in names})
    return names, draw(st.lists(row, max_size=5))


@settings(max_examples=200)
@given(_json_runs())
@example((["lambda", "label"], []))
@example((["lambda", "label"], [{"lambda": -0.0, "label": "ok"}]))
def test_json_row_template_writes_what_json_dumps_writes(run):
    # the per-run row template and the cell texts give the bytes of
    # json.dumps on the whole document, for every cell _jnum passes on
    names, rows = run
    args = argparse.Namespace(command="scan-chern", lambda_min=-0.0, steps=3, grid=(16, 32),
                              out=None, format="json", run=None)
    summary = {"rows_written": len(rows), "skipped_critical": [1.0], "monotone": None}
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        artifact_cli._emit(args, names, artifact_cli._rendered(args, names, rows), summary)
    doc = {
        "config": {"command": "scan-chern", "lambda_min": -0.0, "steps": 3, "grid": "16x32"},
        "rows": [{name: artifact_cli._jnum(row.get(name)) for name in names} for row in rows],
        "summary": summary,
    }
    assert stream.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("signed", [False, True], ids=["41x37", "signed-zero-7x9"])
def test_gap_map_json_bytes_are_json_dumps(monkeypatch, signed):
    # JSON gap-map rows come from the row template; the bytes must be those
    # of json.dumps on the document, -0.0 cells included
    argv = _SIGNED_GAP_MAP + ["--format", "json"] if signed else [
        "gap-map", "--gamma-min", "0.1", "--gamma-max", "1.7", "--lambda-max", "1.5",
        "--grid", "41x37", "--format", "json"]
    if signed:
        _keep_signed_axis_starts(monkeypatch)
    config = {"command": "gap-map", "gamma_min": 0.1, "gamma_max": 1.7, "lambda_min": 0.0,
              "lambda_max": 1.5, "grid": "41x37"}
    gammas, lams = np.linspace(0.1, 1.7, 41), np.linspace(0.0, 1.5, 37)
    if signed:
        config.update(gamma_min=-0.0, gamma_max=2.0, lambda_min=-0.0, lambda_max=2.0,
                      grid="7x9")
        gammas, lams = np.linspace(-0.0, 2.0, 7), np.linspace(-0.0, 2.0, 9)
        gammas[0] = lams[0] = -0.0
    num = artifact_cli._jnum
    rows = [{"gamma": num(g), "lambda": num(l), "gap": num(model.gap(g, l))}
            for g in gammas.tolist() for l in lams.tolist()]
    doc = {
        "config": config,
        "rows": rows,
        "summary": {"rows_written": len(rows),
                    "exact_zero_rows": sum(row["gap"] == 0.0 for row in rows)},
    }
    code, out = _stdout_of(argv)
    assert code == 0
    assert out.decode() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert ('"gamma": -0.0' in out.decode()) == signed


def test_percent_g_renders_as_the_format_spec():
    # the block template's "%.12g" and _fmt's f"{value:.12g}" must agree on
    # every float: signed zeros, subnormals, integers past 2**53, non-finite
    # values and a seeded sample of bit patterns over every exponent
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             float(10**16 - 1), float(10**16 + 1), float(10**16 + 2), 1e16 - 2,
             math.inf, -math.inf, math.nan, 1e150, 0.1, 1 / 3]
    sample = np.random.default_rng(27).integers(0, 2**64, 20000, dtype=np.uint64)
    for x in edges + sample.view(np.float64).tolist():
        assert "%.12g" % x == f"{x:.12g}", x


class _CountingStream(io.StringIO):
    """A text stream that counts ``write`` calls, one per ``writelines`` item."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_gap_map_writes_one_block_per_gamma():
    # a header and one write per gamma block, never one per row: 301 * 7 rows
    # written one at a time would be 2107 writes
    stream = _CountingStream()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(io.StringIO()):
        assert artifact_cli.main(["gap-map", "--grid", "301x7"]) == 0
    assert stream.getvalue().count("\n") == 1 + 301 * 7
    assert stream.writes <= 1 + 301


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


def test_csv_cells_never_need_quoting(monkeypatch):
    # CSV rows are written as comma-joined lines; that is right only while
    # no cell holds a comma, a quote or a line break, for every row kind:
    # labelled, failed and skipped rows, empty cells and signed zeros
    scan = ["scan-chern", "--lambda-min", "0.5", "--lambda-max", "1.5", "--steps", "3",
            "--grid", "16x16", "--n-sites", "256", "--format", "csv"]
    metric = ["metric-scan", "--gamma", "1", "--lambda-min", "0.5", "--lambda-max", "1.5",
              "--steps", "3", "--n-sites", "64", "--format", "csv"]
    texts = [(0, *_stdout_of(scan)), (0, *_stdout_of(metric))]
    with monkeypatch.context() as patch:
        patch.setattr(topology, "_chern_discrete_batch", _vortices)
        texts.append((3, *_stdout_of(scan)))
    with monkeypatch.context() as patch:
        _keep_signed_axis_starts(patch)
        texts.append((0, *_stdout_of(_SIGNED_GAP_MAP + ["--format", "csv"])))

    cells = set()
    for want, code, out in texts:
        assert code == want
        text = out.decode()
        assert text.endswith("\n")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [line.split(",") for line in text.split("\n")[:-1]]
        assert {len(row) for row in rows} == {len(rows[0])}
        quoted = io.StringIO()
        csv.writer(quoted, lineterminator="\n").writerows(rows)
        assert quoted.getvalue() == text
        cells.update(cell for row in rows for cell in row)
    assert {"ChernMinusOne", "ChernZero", "failed", "ok", "skipped", "-0", ""} <= cells


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
    assert doc["summary"] == {
        "rows_written": 3, "ok": 2, "skipped_critical": [1.0], "g_lambda_lambda_monotone": True,
    }
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
_GAP_AXIS_ENDS = ("--gamma-min", "--gamma-max", "--lambda-min", "--lambda-max")


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
        ("metric-scan", "--gamma", 1, "--lambda-min", -0.2, "--lambda-max", 1.0, "--steps", 3),
        ("scan-chern", "--lambda-min", -0.2, "--lambda-max", 0.6, "--steps", 3,
         "--grid", "16x16", "--n-sites", 256),
        (*_SCAN, "--n-sites", 10**30),
        ("scan-chern", "--lambda-min", 0.2, "--lambda-max", 1e300, "--steps", 3),
        ("metric-scan", "--gamma", 1, "--lambda-min", 0.2, "--lambda-max", 1e300, "--steps", 3),
        ("gap-map", "--gamma-max", 1e151),
        ("gap-map", "--lambda-max", 1e300),
        ("gap-map", "--lambda-max", 1e151, "--gamma-max", 1e300),
        ("gap-map", "--lambda-max", 1e151, "--lambda-min", -1),
    ],
)
def test_library_input_checks_exit_2(cli, tmp_path, args):
    # every input check runs before --out is touched, so no file is created
    out = tmp_path / "missing.out"
    res = cli(*args, "--out", out)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert not out.exists()
    if args[0] == "gap-map":
        # the library's coupling check on each axis end, in the order
        # --gamma-min, --gamma-max, --lambda-min, --lambda-max
        ends = dict(zip(args[1::2], args[2::2]))
        flag = next(f for f in _GAP_AXIS_ENDS if f in ends)
        name = "gamma" if flag.startswith("--gamma") else "lam"
        value = float(ends[flag])
        rule = "must be >= 0" if value < 0 else "must be <= 1e150"
        assert res.stderr.splitlines() == [f"error: {name} {rule}, got {value}"]


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
    # the library runs on numpy alone: neither the import, the three
    # closed-form subcommands, the curvature density, Wilson loops, the
    # closed-form sector energies, a dense or a Lanczos exact-diagonalization
    # solve nor oracle-verify on its widest ring may load scipy
    runs = [
        ["scan-chern", "--lambda-min", "0", "--lambda-max", "2", "--steps", "5",
         "--grid", "16x16", "--n-sites", "256"],
        ["gap-map", "--grid", "3x3"],
        ["metric-scan", "--gamma", "1", "--lambda-min", "0.5", "--lambda-max", "1.5",
         "--steps", "3", "--n-sites", "256"],
    ]
    verify = ["oracle-verify", "--n-sites", "12", "--samples", "1"]
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
        print(scipy_loaded())
        artifact.ed_ground(p, 4)
        artifact.ed_ground(p, 10)
        print(scipy_loaded())
        print(artifact.ed_ground is artifact.oracle.ed_ground)
        print(artifact.cli.main({verify!r} + ["--out", r"{tmp_path}/verify.txt"]))
        print(scipy_loaded())
    """)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] * 8 + ["True", "0", "False"]


def _fresh_process(code: str) -> list[str]:
    """The words ``code`` prints in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


_DEFERRED = ["artifact.ground_state", "artifact.geometry", "artifact.topology", "artifact.oracle"]


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ([], ["numpy", *_DEFERRED]),
        (["gap-map", "--grid", "3x3", "--format", "csv"], ["numpy", *_DEFERRED]),
        (["gap-map", "--grid", "3x3", "--format", "json"], ["numpy", *_DEFERRED]),
        (["scan-chern", "--lambda-min", "0", "--lambda-max", "2", "--steps", "5",
          "--grid", "16x16", "--n-sites", "256"], ["artifact.geometry", "artifact.oracle"]),
        (["metric-scan", "--gamma", "1", "--lambda-min", "0.5", "--lambda-max", "1.5",
          "--steps", "3", "--n-sites", "256"], ["artifact.topology", "artifact.oracle"]),
    ],
    ids=["import", "gap-map-csv", "gap-map-json", "scan-chern", "metric-scan"],
)
def test_each_run_loads_only_what_it_runs(tmp_path, argv, unloaded):
    # import artifact defers numpy and the modules past model; each
    # subcommand then loads only the modules it runs
    out = str(tmp_path / "out")
    words = _fresh_process(f"""
        import sys
        import artifact
        if {argv!r}:
            import artifact.cli
            assert artifact.cli.main({argv!r} + ["--out", {out!r}]) == 0
        print(*[name for name in {unloaded!r} if name in sys.modules], "done")
    """)
    assert words == ["done"]


def test_deferred_names_are_all_public():
    # `import *` binds all 34 names, and dir() lists them in a fresh process
    # before any attribute is read
    assert _fresh_process("""
        from artifact import *
        import artifact
        print(len(artifact.__all__), all(name in globals() for name in artifact.__all__))
    """) == ["34", "True"]
    assert _fresh_process("""
        import artifact
        listed = dir(artifact)
        print(len(artifact.__all__), set(artifact.__all__) <= set(listed))
    """) == ["34", "True"]


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


@pytest.mark.parametrize(
    "args",
    [
        ("metric-scan", "--gamma", 0.5, "--lambda-min", 0.1, "--lambda-max", 2,
         "--steps", 3, "--n-sites", 9007199254740992),
        ("scan-chern", "--lambda-min", 0.1, "--lambda-max", 2, "--steps", 3,
         "--grid", "16x9007199254740992", "--n-sites", 256),
    ],
    ids=lambda args: args[0],
)
def test_unallocatable_run_exits_2(cli, args, tmp_path):
    # sizes the checks accept but whose arrays (32 and 64 PiB) exceed any
    # 47-bit address space, so the allocation fails at once on every machine
    res = cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr
    # the allocation fails after --out is checked: a missing file is not
    # created, and an existing one keeps its bytes
    missing, existing = tmp_path / "missing.csv", tmp_path / "existing.csv"
    existing.write_bytes(b"kept\n")
    for out in (missing, existing):
        assert cli(*args, "--out", out).returncode == 2
    assert not missing.exists()
    assert existing.read_bytes() == b"kept\n"


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


@pytest.mark.parametrize(
    "argv, name",
    [
        (["scan-chern", "--lambda-min", "0.5", "--lambda-max", "0.5000000000001",
          "--steps", "3", "--grid", "16x16", "--n-sites", "256"], "lambda"),
        (["gap-map", "--gamma-min", "1", "--gamma-max", "1.0000000000000004",
          "--lambda-max", "1", "--grid", "5x2"], "gamma"),
        (["gap-map", "--lambda-min", "0", "--lambda-max", "5e-324", "--grid", "2x3"], "lambda"),
        (["metric-scan", "--gamma", "1", "--lambda-min", "0.3", "--lambda-max",
          "0.30000000000001", "--steps", "4", "--n-sites", "64"], "lambda"),
    ],
    ids=["scan-chern", "gap-map-gamma", "gap-map-lambda", "metric-scan"],
)
def test_axis_finer_than_the_output_exits_2(capsys, tmp_path, argv, name):
    # two adjacent axis values that print alike at 12 significant digits
    # would write rows no reader can tell apart: a usage error, raised
    # before --out is touched
    missing = tmp_path / "missing.out"
    assert artifact_cli.main(argv + ["--out", str(missing)]) == 2
    assert not missing.exists()
    kept = tmp_path / "kept.out"
    kept.write_bytes(b"earlier\n")
    assert artifact_cli.main(argv + ["--out", str(kept)]) == 2
    assert kept.read_bytes() == b"earlier\n"
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count(f"error: --{name}-min and --{name}-max are too close for ") == 2
    # a little more room between the ends and the same axis is fine
    lo, hi = (float(argv[argv.index(f"--{name}-{end}") + 1]) for end in ("min", "max"))
    assert len(artifact_cli._axis(lo, hi + 1e-9, 3, name)) == 3


def test_out_on_a_failed_run(tmp_path):
    # a bad axis or a bad coupling stops before --out is touched, so a
    # missing file is not created and an existing one keeps its bytes
    missing = tmp_path / "missing.csv"
    assert artifact_cli.main(["gap-map", "--grid", "1x3", "--out", str(missing)]) == 2
    assert not missing.exists()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier\n")
    assert artifact_cli.main(["gap-map", "--gamma-min", "-1", "--out", str(kept)]) == 2
    assert kept.read_bytes() == b"earlier\n"
    # an axis end above the coupling bound is judged up front too
    for flag in ("--gamma-max", "--lambda-max"):
        argv = ["gap-map", flag, "1e151", "--grid", "3x3", "--out"]
        assert artifact_cli.main(argv + [str(missing)]) == 2
        assert not missing.exists()
        assert artifact_cli.main(argv + [str(kept)]) == 2
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


def test_oracle_verify_size_limit(cli, tmp_path):
    # the library's size checks decide, before --out is touched: BadSize
    # above 12 sites for exact diagonalization, and for the odd and the
    # too-small ring of the closed-form energies
    out = tmp_path / "missing.txt"
    for n in (14, 7, 2):
        res = cli("oracle-verify", "--n-sites", n, "--samples", 1, "--out", out)
        assert res.returncode == 2, n
        assert res.stdout == ""
        assert "error:" in res.stderr
        assert not out.exists(), n


def test_oracle_verify_rejects_a_bad_seed_or_sample_count(cli, tmp_path):
    # the CLI's own checks name the flag, before --out is touched
    out = tmp_path / "missing.txt"
    for flag, value in (("--seed", -1), ("--samples", 0)):
        res = cli("oracle-verify", "--n-sites", 6, flag, value, "--out", out)
        assert res.returncode == 2, flag
        assert res.stdout == ""
        assert any(line.startswith("error:") and flag in line for line in res.stderr.splitlines())
        assert not out.exists(), flag
