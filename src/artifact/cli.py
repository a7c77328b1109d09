"""Command line interface: phase scans, gap maps, metric scans, oracle checks.

Exit codes: 0 success, 1 oracle check breach, 2 bad usage or configuration,
3 runtime failure on one or more scan rows (partial output is kept).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import geometry, model, oracle, topology
from .errors import ArtifactError, BadSize, CriticalPoint

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_TOL_RANGE = (1e-12, 1e-3)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jnum(value):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    return float(f"{float(value):.12g}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"grid must look like 64x64, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be two integers: {text!r}") from exc
    return a, b


def _map_rows(fn, tasks):
    """Serial row map shared by the scans; a named function so traces can time it."""
    return [fn(task) for task in tasks]


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    if args.out and args.out.lower().endswith(".json"):
        return "json"
    return "csv"


def _emit(args, fieldnames, rows, summary, config) -> None:
    if _resolve_format(args) == "json":
        doc = {
            "config": config,
            "rows": [
                {key: _jnum(row.get(key)) for key in fieldnames} for row in rows
            ],
            "summary": summary,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return
    if args.out:
        with open(args.out, "w", newline="") as handle:
            _write_csv(handle, fieldnames, rows)
    else:
        _write_csv(sys.stdout, fieldnames, rows)


def _write_csv(stream, fieldnames, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _chern_row(task):
    lam, grid, n_sites, tol, quad_limit = task
    row = {
        "lambda": lam,
        "chern_quadrature": None,
        "chern_error": None,
        "chern_discrete": None,
        "label": "failed",
        "error": None,
    }
    try:
        cfg = topology.QuadratureConfig(abs_tol=tol, limit=quad_limit)
        quad_res = topology.chern_number(lam, cfg)
        row["chern_quadrature"] = quad_res.value
        row["chern_error"] = quad_res.abs_error_estimate
        disc = topology.chern_discrete(lam, grid, n_sites)
        row["chern_discrete"] = disc.nearest_integer
        if quad_res.nearest_integer != disc.nearest_integer:
            row["error"] = (
                f"method disagreement: quadrature {quad_res.nearest_integer}, "
                f"discrete {disc.nearest_integer}"
            )
        elif disc.nearest_integer == -1:
            row["label"] = topology.PhaseLabel.CHERN_MINUS_ONE.value
        elif disc.nearest_integer == 0:
            row["label"] = topology.PhaseLabel.CHERN_ZERO.value
        else:
            row["error"] = f"unexpected integer {disc.nearest_integer}"
    except BadSize:
        raise
    except ArtifactError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_scan_chern(args) -> int:
    if args.steps < 2:
        return _usage_error("--steps must be >= 2")
    if not args.lambda_min < args.lambda_max:
        return _usage_error("--lambda-min must be < --lambda-max")
    if not _TOL_RANGE[0] <= args.tol <= _TOL_RANGE[1]:
        return _usage_error(
            f"--tol must lie in [{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}], got {args.tol:g}"
        )
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    skipped = [float(l) for l in lams if abs(l - 1.0) <= 1e-3]
    tasks = [
        (float(l), args.grid, args.n_sites, args.tol, args.quad_limit)
        for l in lams
        if abs(l - 1.0) > 1e-3
    ]
    rows = _map_rows(_chern_row, tasks)
    failed = [row for row in rows if row["label"] == "failed"]
    fieldnames = ["lambda", "chern_quadrature", "chern_error", "chern_discrete", "label"]
    config = {
        "command": "scan-chern",
        "lambda_min": _jnum(args.lambda_min),
        "lambda_max": _jnum(args.lambda_max),
        "steps": args.steps,
        "grid": f"{args.grid[0]}x{args.grid[1]}",
        "n_sites": args.n_sites,
        "tol": _jnum(args.tol),
        "quad_limit": args.quad_limit,
    }
    summary = {
        "points_requested": int(len(lams)),
        "rows_written": len(rows),
        "skipped_critical": [_jnum(l) for l in skipped],
        "failed": [_jnum(row["lambda"]) for row in failed],
    }
    _emit(args, fieldnames, rows, summary, config)
    print(
        f"scan-chern: {len(lams)} points requested, {len(rows)} rows written, "
        f"{len(skipped)} skipped in critical strip"
        + (f" (lambda: {', '.join(_fmt(l) for l in skipped)})" if skipped else "")
        + f", {len(failed)} failed",
        file=sys.stderr,
    )
    for row in failed:
        print(f"scan-chern: lambda={_fmt(row['lambda'])} failed: {row['error']}", file=sys.stderr)
    return EXIT_RUNTIME if failed else EXIT_OK


def _gap_row(task):
    gamma, lam = task
    return {"gamma": gamma, "lambda": lam, "gap": model.gap(gamma, lam)}


def _run_gap_map(args) -> int:
    g_steps, l_steps = args.grid
    if g_steps < 2 or l_steps < 2:
        return _usage_error("--grid sizes must be >= 2")
    if not args.gamma_min < args.gamma_max:
        return _usage_error("--gamma-min must be < --gamma-max")
    if not args.lambda_min < args.lambda_max:
        return _usage_error("--lambda-min must be < --lambda-max")
    if args.gamma_min < 0 or args.lambda_min < 0:
        return _usage_error("couplings must be >= 0")
    gammas = np.linspace(args.gamma_min, args.gamma_max, g_steps)
    lams = np.linspace(args.lambda_min, args.lambda_max, l_steps)
    tasks = [(float(g), float(l)) for g in gammas for l in lams]
    rows = _map_rows(_gap_row, tasks)
    zero_rows = sum(1 for row in rows if row["gap"] == 0.0)
    config = {
        "command": "gap-map",
        "gamma_min": _jnum(args.gamma_min),
        "gamma_max": _jnum(args.gamma_max),
        "lambda_min": _jnum(args.lambda_min),
        "lambda_max": _jnum(args.lambda_max),
        "grid": f"{g_steps}x{l_steps}",
    }
    summary = {"rows_written": len(rows), "exact_zero_rows": zero_rows}
    _emit(args, ["gamma", "lambda", "gap"], rows, summary, config)
    print(
        f"gap-map: {len(rows)} rows written, {zero_rows} exactly gapless",
        file=sys.stderr,
    )
    return EXIT_OK


def _metric_row(task):
    lam, gamma, n_sites = task
    row = {
        "lambda": lam,
        "g_lambda_lambda": None,
        "g_gamma_gamma": None,
        "g_phi_phi": None,
        "minus_two_im_g_phi_gamma": None,
        "status": "ok",
        "error": None,
    }
    try:
        params = model.ModelParams(0.0, gamma, lam, n_sites)
        tensor = geometry.qgt_product(params, n_sites)
    except BadSize:
        raise
    except CriticalPoint as exc:
        row["status"] = "skipped"
        row["error"] = str(exc)
        return row
    except ArtifactError as exc:
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    metric = tensor.real_metric
    row["g_phi_phi"] = float(metric[0, 0])
    row["g_gamma_gamma"] = float(metric[1, 1])
    row["g_lambda_lambda"] = float(metric[2, 2])
    row["minus_two_im_g_phi_gamma"] = float(-2.0 * tensor.matrix[0, 1].imag)
    return row


def _run_metric_scan(args) -> int:
    if args.steps < 2:
        return _usage_error("--steps must be >= 2")
    if not args.lambda_min < args.lambda_max:
        return _usage_error("--lambda-min must be < --lambda-max")
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    tasks = [(float(l), args.gamma, args.n_sites) for l in lams]
    rows = _map_rows(_metric_row, tasks)
    ok = [row for row in rows if row["status"] == "ok"]
    skipped = [row for row in rows if row["status"] == "skipped"]
    failed = [row for row in rows if row["status"] == "failed"]
    monotone = None
    if len(ok) >= 2:
        vals = [row["g_lambda_lambda"] for row in ok]
        monotone = all(b > a for a, b in zip(vals, vals[1:]))
    fieldnames = [
        "lambda",
        "g_lambda_lambda",
        "g_gamma_gamma",
        "g_phi_phi",
        "minus_two_im_g_phi_gamma",
        "status",
    ]
    config = {
        "command": "metric-scan",
        "gamma": _jnum(args.gamma),
        "lambda_min": _jnum(args.lambda_min),
        "lambda_max": _jnum(args.lambda_max),
        "steps": args.steps,
        "n_sites": args.n_sites,
    }
    summary = {
        "rows_written": len(rows),
        "ok": len(ok),
        "skipped_critical": [_jnum(row["lambda"]) for row in skipped],
        "failed": [_jnum(row["lambda"]) for row in failed],
        "g_lambda_lambda_monotone": monotone,
    }
    _emit(args, fieldnames, rows, summary, config)
    print(
        f"metric-scan: {len(rows)} rows, {len(ok)} ok, {len(skipped)} skipped at "
        f"critical field, {len(failed)} failed; "
        f"g_lambda_lambda strictly increasing: "
        + ("n/a" if monotone is None else ("yes" if monotone else "no")),
        file=sys.stderr,
    )
    return EXIT_RUNTIME if failed else EXIT_OK


def _run_oracle_verify(args) -> int:
    n = args.n_sites
    if n % 2 or not 4 <= n <= 12:
        return _usage_error(f"--n-sites must be even with 4 <= N <= 12, got {n}")
    if args.samples < 1:
        return _usage_error("--samples must be >= 1")
    rng = np.random.default_rng(args.seed)
    lines = [
        "oracle-verify report",
        f"seed: {args.seed}",
        f"n_sites: {n}, samples: {args.samples}",
    ]
    overall_pass = True

    worst_energy = 0.0
    for i in range(args.samples):
        phi = rng.uniform(0.0, math.pi)
        gamma = rng.uniform(0.0, 1.5)
        lam = rng.uniform(0.0, 2.5)
        params = model.ModelParams(phi, gamma, lam)
        dev = abs(
            oracle.ed_ground(params, n).ground_energy
            - oracle.free_fermion_parity_spectrum(params, n).ground_energy
        )
        worst_energy = max(worst_energy, dev)
        lines.append(
            f"[energy] sample {i:02d}: phi={phi:.6f} gamma={gamma:.6f} "
            f"lam={lam:.6f} dev {dev:.6e}"
        )
    energy_pass = worst_energy < 1e-10
    overall_pass &= energy_pass
    lines.append(
        f"[energy] worst deviation {worst_energy:.6e} (tol 1.000000e-10) "
        + ("PASS" if energy_pass else "FAIL")
    )

    worst_qgt = 0.0
    for i in range(3):
        phi = rng.uniform(0.0, math.pi)
        gamma = rng.uniform(0.3, 1.2)
        if rng.random() < 0.5:
            lam = rng.uniform(0.15, 0.8)
        else:
            lam = rng.uniform(1.25, 2.5)
        params = model.ModelParams(phi, gamma, lam, 6)
        spectral = geometry.qgt_spectral(params).matrix
        fd = geometry.qgt_finite_diff(params).matrix
        dev = float(np.max(np.abs(spectral - fd)))
        worst_qgt = max(worst_qgt, dev)
        lines.append(
            f"[qgt] sample {i}: phi={phi:.6f} gamma={gamma:.6f} lam={lam:.6f} "
            f"max component dev {dev:.6e}"
        )
    qgt_pass = worst_qgt < 1e-6
    overall_pass &= qgt_pass
    lines.append(
        f"[qgt] worst deviation {worst_qgt:.6e} (tol 1.000000e-06) "
        + ("PASS" if qgt_pass else "FAIL")
    )

    worst_wilson = 0.0
    delta = 0.01
    for i in range(2):
        phi0 = rng.uniform(0.0, math.pi - 2.0 * delta)
        gamma = rng.uniform(0.5, 1.5)
        lam = rng.uniform(1.2, 2.2)
        loop = [
            model.ModelParams(phi0, gamma, lam, 64),
            model.ModelParams(phi0 + delta, gamma, lam, 64),
            model.ModelParams(phi0 + delta, gamma + delta, lam, 64),
            model.ModelParams(phi0, gamma + delta, lam, 64),
        ]
        measured = oracle.wilson_loop_berry_phase(loop, 64)
        mid = model.ModelParams(phi0 + delta / 2, gamma + delta / 2, lam, 64)
        alphas = 2.0 * np.pi * np.arange(1, 32) / 64.0
        flux = sum(geometry.berry_curvature_mode(float(a), mid).imag for a in alphas)
        predicted = delta * delta * flux
        rel = abs(measured - predicted) / abs(predicted)
        worst_wilson = max(worst_wilson, rel)
        lines.append(
            f"[wilson] sample {i}: gamma={gamma:.6f} lam={lam:.6f} "
            f"loop phase {measured:.6e} predicted {predicted:.6e} rel dev {rel:.6e}"
        )
    wilson_pass = worst_wilson < 0.05
    overall_pass &= wilson_pass
    lines.append(
        f"[wilson] worst relative deviation {worst_wilson:.6e} (tol 5.000000e-02) "
        + ("PASS" if wilson_pass else "FAIL")
    )

    lines.append("overall: " + ("PASS" if overall_pass else "FAIL"))
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    return EXIT_OK if overall_pass else EXIT_CHECK_FAILED


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="output format (default: by --out extension, else csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Scans and cross-checks for the rotated anisotropic spin ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser(
        "scan-chern", help="tabulate the topological invariant along the field axis"
    )
    scan.add_argument("--lambda-min", type=_finite_float, required=True, dest="lambda_min")
    scan.add_argument("--lambda-max", type=_finite_float, required=True, dest="lambda_max")
    scan.add_argument("--steps", type=int, required=True)
    scan.add_argument("--grid", type=_parse_grid, default=(64, 64))
    scan.add_argument("--n-sites", type=int, default=1024, dest="n_sites")
    scan.add_argument("--tol", type=_finite_float, default=1e-6)
    scan.add_argument("--quad-limit", type=int, default=200, dest="quad_limit")
    _add_output_flags(scan)
    scan.set_defaults(run=_run_scan_chern)

    gap = sub.add_parser("gap-map", help="tabulate the spectral gap on a coupling grid")
    gap.add_argument("--gamma-min", type=_finite_float, default=0.0, dest="gamma_min")
    gap.add_argument("--gamma-max", type=_finite_float, default=2.0, dest="gamma_max")
    gap.add_argument("--lambda-min", type=_finite_float, default=0.0, dest="lambda_min")
    gap.add_argument("--lambda-max", type=_finite_float, default=2.0, dest="lambda_max")
    gap.add_argument("--grid", type=_parse_grid, default=(101, 101))
    _add_output_flags(gap)
    gap.set_defaults(run=_run_gap_map)

    metric = sub.add_parser(
        "metric-scan", help="tabulate geometric tensor components along the field axis"
    )
    metric.add_argument("--gamma", type=_finite_float, required=True)
    metric.add_argument("--lambda-min", type=_finite_float, required=True, dest="lambda_min")
    metric.add_argument("--lambda-max", type=_finite_float, required=True, dest="lambda_max")
    metric.add_argument("--steps", type=int, required=True)
    metric.add_argument("--n-sites", type=int, default=1024, dest="n_sites")
    _add_output_flags(metric)
    metric.set_defaults(run=_run_metric_scan)

    verify = sub.add_parser(
        "oracle-verify", help="cross-check fast paths against exact diagonalization"
    )
    verify.add_argument("--n-sites", type=int, default=8, dest="n_sites")
    verify.add_argument("--samples", type=int, default=20)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--out", default=None, help="report file (default: stdout)")
    verify.set_defaults(run=_run_oracle_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, BadSize) as exc:
        # a library input check; rows are gathered before output, so none is written
        return _usage_error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
