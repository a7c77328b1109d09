"""Command line interface: phase scans, gap maps, metric scans, oracle checks.

A thin shell over the library: scan-chern's labels are ``classify_phase``'s,
and every input the library can judge is judged by its own checks, once,
before ``--out`` is touched and before any row.  Exit codes: 0 success,
1 oracle check breach, 2 bad usage or configuration, or a run too large to
allocate (``main`` alone prints the ``error:`` line and nothing is written),
3 runtime failure on one or more scan-chern rows (partial output is kept).

Each runner imports the modules it runs, and numpy, itself, so ``gap-map``
loads neither numpy nor any library module but ``model``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

from . import model
from .errors import ArtifactError, BadSize, CriticalPoint

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


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


def _axis(lo: float, hi: float, steps: int, name: str, steps_flag: str = "--steps"):
    """The ``steps`` evenly spaced couplings from lo to hi; ValueError on a bad axis.

    An axis is bad also when two adjacent values print alike at the 12
    significant digits of the output, since their rows could not be told
    apart, and when an end fails the library's check of the coupling.
    The values are a list with the bits of ``np.linspace(lo, hi, steps)``,
    computed in its order of operations, so a -0.0 start becomes 0.0.
    """
    if steps < 2:
        raise ValueError(f"{steps_flag} must be >= 2")
    if not lo < hi:
        raise ValueError(f"--{name}-min must be < --{name}-max")
    # the whole list first, so a count too large to hold raises MemoryError
    # at once, as numpy's allocation did, before the loop runs
    values = [hi] * steps
    step = (hi - lo) / (steps - 1)
    for i in range(steps - 1):
        values[i] = i * step + lo
    cells = [_fmt(value) for value in values]
    repeat = next((a for a, b in zip(cells, cells[1:]) if a == b), None)
    if repeat is not None:
        raise ValueError(
            f"--{name}-min and --{name}-max are too close for {steps} values: "
            f"two adjacent {name} values print as {repeat}"
        )
    for end in (lo, hi):
        model._check_coupling("lam" if name == "lambda" else name, end)
    return values


def _jtext(value, words: dict) -> str:
    """``_jnum(value)`` as ``json.dumps`` writes it.

    A finite float is its ``float.__repr__`` and an int its ``int.__repr__``,
    as ``json`` writes them; None, a bool and a non-finite float go through
    ``json.dumps``, and so does a word, once per run: ``words`` keeps its text.
    """
    value = _jnum(value)
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return words.get(value) or words.setdefault(value, json.dumps(value))
    return json.dumps(value)


def _json_template(fieldnames) -> str:
    """One JSON row as ``_emit`` nests it, with a ``%s`` slot per cell, keys sorted.

    The text is that of ``json.dumps(indent=2, sort_keys=True)`` for an
    object in the ``rows`` list; no key holds a "%".
    """
    keys = ",\n".join(f"      {json.dumps(key)}: %s" for key in sorted(fieldnames))
    return "    {\n" + keys + "\n    }"


def _rendered(args, fieldnames, rows):
    """Dict rows rendered for ``_emit``; a missing key renders as None.

    A JSON row is the per-run ``_json_template`` filled with its ``_jtext``
    cells; a CSV row is a line, the cells joined by commas and ended by LF.
    """
    if args.format == "json":
        keys, words = sorted(fieldnames), {}
        template = _json_template(keys)
        return [template % tuple([_jtext(row.get(key), words) for key in keys]) for row in rows]
    return [",".join([_fmt(row.get(name)) for name in fieldnames]) + "\n" for row in rows]


def _open_out(args, mode: str):
    try:
        return open(args.out, mode, newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc


def _check_out(args) -> None:
    """Fail before the first row when ``--out`` cannot be opened for writing.

    Opens for append, so an existing file keeps its bytes until ``_emit``
    rewrites it; a file the probe created is removed again, so a run that
    fails later leaves a missing ``--out`` missing.
    """
    if args.out:
        existed = os.path.lexists(args.out)
        _open_out(args, "a").close()
        if not existed:
            os.remove(args.out)


@contextlib.contextmanager
def _output(args):
    """The one destination of rendered output: ``--out`` when given, else stdout.

    Yields a stream rather than taking a finished string, so CSV rows that
    arrive rendered are written as they come and the text is never held
    in memory whole.  A file that cannot be opened is a usage error
    (ValueError); the runs call ``_check_out`` before their first row, so
    that error comes before the work.
    """
    if args.out:
        with _open_out(args, "w") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(args, fieldnames, rows, summary) -> None:
    """Write the rows as CSV, or as JSON with the parsed command line as ``config``.

    ``rows`` is an iterable whose text the run has already rendered, so each
    cell is rendered once.  For JSON each item is one row object, rendered
    by ``_json_template``; the items are joined by commas into the ``rows``
    list of the document, whose ``config`` and ``summary`` ``json.dumps``
    writes, so the text is that of ``json.dumps(indent=2, sort_keys=True)``
    on the whole document.  For CSV each item is text made of whole
    LF-terminated lines, one row or a block of rows, written after the
    header as it comes.  A CSV cell is a number, an empty string or a fixed
    word, never one holding a comma, a quote or a line break, so no cell
    needs quoting and a row is its cells joined by commas.  The destination
    is complete and closed when this returns.
    """
    with _output(args) as stream:
        if args.format == "json":
            config = {
                key: "x".join(map(str, value)) if key == "grid" else _jnum(value)
                for key, value in vars(args).items()
                if key not in ("run", "out", "format")
            }
            doc = {"config": config, "rows": [], "summary": summary}
            text = json.dumps(doc, indent=2, sort_keys=True)
            body = ",\n".join(rows)
            if body:
                # the one line indented by two spaces that opens "rows": no
                # JSON string holds a line break
                text = text.replace('\n  "rows": []', '\n  "rows": [\n' + body + "\n  ]", 1)
            stream.write(text + "\n")
        else:
            stream.write(",".join(fieldnames) + "\n")
            stream.writelines(rows)


def _chern_row(task):
    """One scan-chern row from a field's phase point and its plaquette result or error."""
    point, disc = task
    row = {"lambda": point.lam, "label": "failed", "chern_quadrature": point.chern.value}
    row["chern_error"] = point.chern.residual
    if isinstance(disc, ArtifactError):
        row["error"] = f"{type(disc).__name__}: {disc}"
        return row
    row["chern_discrete"] = disc.nearest_integer
    if disc.nearest_integer == point.chern.nearest_integer:
        row["label"] = point.label.value
    else:
        row["error"] = (
            f"method disagreement: winding {point.chern.nearest_integer}, "
            f"discrete {disc.nearest_integer}"
        )
    return row


def _run_scan_chern(args) -> int:
    from . import topology

    lams = _axis(args.lambda_min, args.lambda_max, args.steps, "lambda")
    topology._check_grid(args.grid, args.n_sites)
    _check_out(args)
    points = topology._phase_batch(lams)
    kept = [point for point in points if point.chern is not None]
    # the plaquette flux of every field outside the critical strip, in blocks
    discs = topology._chern_discrete_batch([p.lam for p in kept], args.grid, args.n_sites)
    rows = _map_rows(_chern_row, zip(kept, discs))
    skipped = [point.lam for point in points if point.chern is None]
    failed = [row for row in rows if row["label"] == "failed"]
    fieldnames = ["lambda", "chern_quadrature", "chern_error", "chern_discrete", "label"]
    summary = {
        "points_requested": len(lams),
        "rows_written": len(rows),
        "skipped_critical": [_jnum(l) for l in skipped],
        "failed": [_jnum(row["lambda"]) for row in failed],
    }
    _emit(args, fieldnames, _rendered(args, fieldnames, rows), summary)
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
    return model.gap(gamma, lam)


def _run_gap_map(args) -> int:
    g_steps, l_steps = args.grid
    gammas = _axis(args.gamma_min, args.gamma_max, g_steps, "gamma", "--grid sizes")
    lams = _axis(args.lambda_min, args.lambda_max, l_steps, "lambda", "--grid sizes")
    _check_out(args)
    gaps = _map_rows(_gap_row, itertools.product(gammas, lams))
    zero_rows = gaps.count(0.0)  # -0.0 == 0.0, so a signed zero counts too
    summary = {"rows_written": len(gaps), "exact_zero_rows": zero_rows}
    # render each value itself, with no cache keyed on values: -0.0 and 0.0
    # are equal keys but render as "-0" and "0"
    if args.format == "json":
        words = {}
        g_cells = [_jtext(g, words) for g in gammas]
        l_cells = [_jtext(l, words) for l in lams]
        template = _json_template(["gamma", "lambda", "gap"])  # slots: gamma, gap, lambda
        points = itertools.product(g_cells, l_cells)
        rows = (template % (g, _jtext(gap, words), l) for (g, l), gap in zip(points, gaps))
    else:
        g_cells = [_fmt(g) for g in gammas]
        l_cells = [_fmt(l) for l in lams]
        # one template per gamma block, filled by one C-level % format:
        # "%.12g" renders a float exactly as _fmt's f"{value:.12g}", and no
        # rendered cell holds a "%"
        tails = [f",{l},%.12g\n" for l in l_cells]
        blocks = zip(*[iter(gaps)] * len(lams))  # the gaps of each gamma, in order
        rows = ((g + g.join(tails)) % block for g, block in zip(g_cells, blocks))
    _emit(args, ["gamma", "lambda", "gap"], rows, summary)
    print(
        f"gap-map: {len(gaps)} rows written, {zero_rows} exactly gapless",
        file=sys.stderr,
    )
    return EXIT_OK


def _metric_row(task):
    """One metric-scan row from a field and its closed-form tensor or CriticalPoint."""
    lam, tensor = task
    if isinstance(tensor, CriticalPoint):
        return {"lambda": lam, "status": "skipped", "error": str(tensor)}
    metric = tensor.real_metric
    return {
        "lambda": lam,
        "g_lambda_lambda": float(metric[2, 2]),
        "g_gamma_gamma": float(metric[1, 1]),
        "g_phi_phi": float(metric[0, 0]),
        "minus_two_im_g_phi_gamma": float(-2.0 * tensor.matrix[0, 1].imag),
        "status": "ok",
    }


def _run_metric_scan(args) -> int:
    from . import geometry

    lams = _axis(args.lambda_min, args.lambda_max, args.steps, "lambda")
    model._check_size(args.n_sites)
    model._check_coupling("gamma", args.gamma)
    _check_out(args)
    # the tensor of every field, in blocks
    tensors = geometry._qgt_product_batch(args.gamma, lams, args.n_sites)
    rows = _map_rows(_metric_row, zip(lams, tensors))
    ok = [row for row in rows if row["status"] == "ok"]
    skipped = [row for row in rows if row["status"] == "skipped"]
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
    summary = {
        "rows_written": len(rows),
        "ok": len(ok),
        "skipped_critical": [_jnum(row["lambda"]) for row in skipped],
        "g_lambda_lambda_monotone": monotone,
    }
    _emit(args, fieldnames, _rendered(args, fieldnames, rows), summary)
    print(
        f"metric-scan: {len(rows)} rows, {len(ok)} ok, {len(skipped)} skipped at "
        f"critical field; g_lambda_lambda strictly increasing: "
        + ("n/a" if monotone is None else ("yes" if monotone else "no")),
        file=sys.stderr,
    )
    return EXIT_OK


def _verdict(lines, label: str, worst: float, tol: float) -> bool:
    """Append one check's ``worst ... (tol ...) PASS/FAIL`` line; True when it passes."""
    passed = worst < tol
    lines.append(f"{label} {worst:.6e} (tol {tol:.6e}) " + ("PASS" if passed else "FAIL"))
    return passed


def _run_oracle_verify(args) -> int:
    import numpy as np

    from . import geometry, oracle

    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    # the [energy] family's ring: ED's upper bound, the closed form's lower one
    n = model._check_size(args.n_sites, 4, oracle._ED_MAX)
    _check_out(args)
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
    overall_pass &= _verdict(lines, "[energy] worst deviation", worst_energy, 1e-10)

    worst_qgt, i = 0.0, 0
    while i < 3:
        phi = rng.uniform(0.0, math.pi)
        gamma = rng.uniform(0.3, 1.2)
        if rng.random() < 0.5:
            lam = rng.uniform(0.15, 0.8)
        else:
            lam = rng.uniform(1.25, 2.5)
        params = model.ModelParams(phi, gamma, lam)
        try:
            fd = geometry.qgt_finite_diff(params, 6).matrix
        except CriticalPoint:
            continue  # the two parity levels cross inside the stencil: draw again
        dev = float(np.max(np.abs(geometry.qgt_spectral(params, 6).matrix - fd)))
        worst_qgt = max(worst_qgt, dev)
        lines.append(
            f"[qgt] sample {i}: phi={phi:.6f} gamma={gamma:.6f} lam={lam:.6f} "
            f"max component dev {dev:.6e}"
        )
        i += 1
    overall_pass &= _verdict(lines, "[qgt] worst deviation", worst_qgt, 1e-6)

    worst_wilson = 0.0
    delta = 0.01
    for i in range(2):
        phi0 = rng.uniform(0.0, math.pi - 2.0 * delta)
        gamma = rng.uniform(0.5, 1.5)
        lam = rng.uniform(1.2, 2.2)
        loop = [
            model.ModelParams(phi0, gamma, lam),
            model.ModelParams(phi0 + delta, gamma, lam),
            model.ModelParams(phi0 + delta, gamma + delta, lam),
            model.ModelParams(phi0, gamma + delta, lam),
        ]
        measured = oracle.wilson_loop_berry_phase(loop, 64)
        mid = model.ModelParams(phi0 + delta / 2, gamma + delta / 2, lam)
        predicted = 2.0 * delta * delta * geometry.qgt_product(mid, 64).matrix[0, 1].imag
        rel = abs(measured - predicted) / abs(predicted)
        worst_wilson = max(worst_wilson, rel)
        lines.append(
            f"[wilson] sample {i}: gamma={gamma:.6f} lam={lam:.6f} "
            f"loop phase {measured:.6e} predicted {predicted:.6e} rel dev {rel:.6e}"
        )
    overall_pass &= _verdict(lines, "[wilson] worst relative deviation", worst_wilson, 0.05)

    lines.append("overall: " + ("PASS" if overall_pass else "FAIL"))
    with _output(args) as stream:
        stream.write("\n".join(lines) + "\n")
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
    if getattr(args, "format", "") is None:
        # a subcommand with --format, left unset: json for a .json --out, else csv
        args.format = "json" if (args.out or "").lower().endswith(".json") else "csv"
    try:
        return args.run(args)
    except (ValueError, BadSize, MemoryError) as exc:
        # a bad axis, a library input check, an unwritable --out or arrays
        # too large to allocate; each is raised before any row is written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
