"""Benchmark workloads: CLI inputs drawn from a seed, and reference checks.

Each workload is a frozen dataclass holding the generated inputs.  ``argv``
gives the ``artifact`` command line and ``check`` grades one output of that
command against expectations derived from the inputs alone, never from a
stored answer.  Row counts are fixed per workload so that the seed moves the
inputs but not the amount of work.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

CRITICAL_STRIP = 1e-3
ZERO_GAP = 1e-12
CHERN_LABEL = {-1: "ChernMinusOne", 0: "ChernZero"}


@dataclass
class Check:
    """Grade of one CLI output.

    ``attempted`` counts the rows the command was asked for, ``rows`` the
    rows it wrote, ``errors`` the rows it marked failed (or every row on a
    non-zero exit) and ``wrong`` the rows that fail the reference check.
    """

    attempted: int
    rows: int = 0
    errors: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def flag(self, message: str, count: int = 1) -> None:
        self.wrong += count
        if len(self.problems) < 20:
            self.problems.append(message)


def _r12(value: float) -> float:
    """A float as the CLI prints it in JSON (12 significant digits)."""
    return float(f"{float(value):.12g}")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _json_rows(out: bytes, check: Check):
    try:
        doc = json.loads(out)
        return doc["rows"], doc["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        check.flag(f"unreadable JSON output: {exc}", check.attempted)
        return None, None


@dataclass(frozen=True)
class ChernScan:
    """``scan-chern`` along the field axis; one grid point lands in the critical strip."""

    lambda_min: float
    lambda_max: float
    steps: int
    grid: int = 128
    n_sites: int = 4096

    def argv(self) -> list[str]:
        return [
            "scan-chern", "--format", "json",
            "--lambda-min", repr(self.lambda_min),
            "--lambda-max", repr(self.lambda_max),
            "--steps", str(self.steps),
            "--grid", f"{self.grid}x{self.grid}",
            "--n-sites", str(self.n_sites),
        ]

    def check(self, out: bytes) -> Check:
        check = Check(attempted=self.steps)
        rows, summary = _json_rows(out, check)
        if rows is None:
            return check
        check.rows = len(rows)
        lams = np.linspace(self.lambda_min, self.lambda_max, self.steps)
        skipped = [_r12(l) for l in lams if abs(l - 1.0) <= CRITICAL_STRIP]
        kept = [float(l) for l in lams if abs(l - 1.0) > CRITICAL_STRIP]
        if len(rows) != len(kept):
            check.flag(f"{len(rows)} rows written, expected {len(kept)}", abs(len(rows) - len(kept)))
        for row, lam in zip(rows, kept):
            if row.get("label") == "failed":
                check.errors += 1
                continue
            expected = -1 if lam < 1.0 else 0
            quad = row.get("chern_quadrature")
            ok = (
                row.get("lambda") == _r12(lam)
                and row.get("label") == CHERN_LABEL[expected]
                and row.get("chern_discrete") == expected
                and _finite(quad)
                and round(quad) == expected
            )
            if not ok:
                check.flag(f"row at lambda={lam!r} is wrong: {row}")
        reported = summary.get("skipped_critical") if isinstance(summary, dict) else None
        if not isinstance(reported, list) or reported != skipped:
            check.flag(f"skipped_critical {reported} != {skipped}", max(1, len(skipped)))
        return check


@dataclass(frozen=True)
class MetricScan:
    """``metric-scan`` at fixed anisotropy; gamma < 1 puts the hole region in range."""

    gamma: float
    lambda_min: float
    lambda_max: float
    steps: int
    n_sites: int = 4096

    def argv(self) -> list[str]:
        return [
            "metric-scan", "--format", "json",
            "--gamma", repr(self.gamma),
            "--lambda-min", repr(self.lambda_min),
            "--lambda-max", repr(self.lambda_max),
            "--steps", str(self.steps),
            "--n-sites", str(self.n_sites),
        ]

    def check(self, out: bytes) -> Check:
        check = Check(attempted=self.steps)
        rows, _ = _json_rows(out, check)
        if rows is None:
            return check
        check.rows = len(rows)
        lams = np.linspace(self.lambda_min, self.lambda_max, self.steps)
        if len(rows) != len(lams):
            check.flag(f"{len(rows)} rows written, expected {len(lams)}", abs(len(rows) - len(lams)))
        metric = ("g_lambda_lambda", "g_gamma_gamma", "g_phi_phi")
        components = metric + ("minus_two_im_g_phi_gamma",)
        previous = None
        for row, lam in zip(rows, lams):
            status = row.get("status")
            if status == "failed":
                check.errors += 1
                check.flag(f"failed row at lambda={float(lam)!r}")
                continue
            if row.get("lambda") != _r12(lam):
                check.flag(f"row lambda {row.get('lambda')} != {_r12(lam)}")
                continue
            if status in ("skipped", "near-critical"):
                if any(row.get(c) is not None for c in components):
                    check.flag(f"{status} row at lambda={float(lam)!r} carries values")
                continue
            if status != "ok":
                check.flag(f"unknown status {status!r}")
                continue
            # The metric diagonal is non-negative; the curvature entry may take
            # either sign and only has to be finite.
            if not all(_finite(row.get(c)) for c in components) or any(
                row[c] < 0 for c in metric
            ):
                check.flag(f"ok row at lambda={float(lam)!r} has bad components: {row}")
                continue
            if lam < 1.0:
                g = row["g_lambda_lambda"]
                if previous is not None and not g > previous:
                    check.flag(f"g_lambda_lambda not increasing at lambda={float(lam)!r}")
                previous = g
        return check


_ORACLE_SAMPLE = re.compile(
    r"^\[(energy|qgt|wilson)\] sample \d+: .* dev (\S+)$"
)
_ORACLE_VERDICT = re.compile(r"^\[(energy|qgt|wilson)\] worst .* (PASS|FAIL)$")
# Per-family tolerances and sample counts as oracle-verify states them.
_ORACLE_TOL = {"energy": 1e-10, "qgt": 1e-6, "wilson": 0.05}
_ORACLE_FIXED = {"qgt": 3, "wilson": 2}


@dataclass(frozen=True)
class EdOracle:
    """``oracle-verify`` on a ring large enough that dense ED dominates."""

    seed: int
    samples: int
    n_sites: int = 10

    def argv(self) -> list[str]:
        return [
            "oracle-verify",
            "--n-sites", str(self.n_sites),
            "--samples", str(self.samples),
            "--seed", str(self.seed),
        ]

    def check(self, out: bytes) -> Check:
        expected = {"energy": self.samples, **_ORACLE_FIXED}
        check = Check(attempted=sum(expected.values()))
        try:
            lines = out.decode().splitlines()
        except UnicodeDecodeError:
            check.flag("report is not text", check.attempted)
            return check
        header = [
            "oracle-verify report",
            f"seed: {self.seed}",
            f"n_sites: {self.n_sites}, samples: {self.samples}",
        ]
        if lines[:3] != header:
            check.flag(f"header {lines[:3]} != {header}")
        found = dict.fromkeys(expected, 0)
        for line in lines[3:]:
            sample = _ORACLE_SAMPLE.match(line)
            verdict = _ORACLE_VERDICT.match(line)
            if sample:
                family = sample.group(1)
                found[family] += 1
                try:
                    dev = float(sample.group(2))
                except ValueError:
                    dev = math.nan
                if not dev < _ORACLE_TOL[family]:
                    check.flag(f"deviation above tolerance: {line}")
            elif verdict and verdict.group(2) == "FAIL":
                check.errors += expected[verdict.group(1)]
        check.rows = sum(found.values())
        for family, count in expected.items():
            if found[family] != count:
                check.flag(f"{found[family]} {family} samples, expected {count}", abs(found[family] - count))
        if not lines or lines[-1] != "overall: PASS":
            check.flag(f"last line {lines[-1:]} is not 'overall: PASS'", check.attempted)
        return check


@dataclass(frozen=True)
class GapGrid:
    """``gap-map`` as CSV on a grid that holds lambda == 1 and gamma == 0 exactly."""

    gamma_max: float
    lambda_min: float
    lambda_max: float
    size: int
    gamma_min: float = 0.0

    def argv(self) -> list[str]:
        return [
            "gap-map",
            "--gamma-min", repr(self.gamma_min),
            "--gamma-max", repr(self.gamma_max),
            "--lambda-min", repr(self.lambda_min),
            "--lambda-max", repr(self.lambda_max),
            "--grid", f"{self.size}x{self.size}",
        ]

    def check(self, out: bytes) -> Check:
        gammas = np.linspace(self.gamma_min, self.gamma_max, self.size)
        lams = np.linspace(self.lambda_min, self.lambda_max, self.size)
        check = Check(attempted=self.size * self.size)
        lines = out.decode(errors="replace").split("\n")
        if lines[0] != "gamma,lambda,gap" or lines[-1] != "":
            check.flag("missing header or final newline")
        body = lines[1:-1]
        check.rows = len(body)
        if len(body) != check.attempted:
            check.flag(f"{len(body)} rows written, expected {check.attempted}", abs(len(body) - check.attempted))
        points = ((float(g), float(l)) for g in gammas for l in lams)
        for line, (g, lam) in zip(body, points):
            parts = line.split(",")
            try:
                gap = float(parts[2])
            except (IndexError, ValueError):
                check.flag(f"unreadable row {line!r}")
                continue
            zero = lam == 1.0 or (g == 0.0 and lam <= 1.0)
            if (
                parts[:2] != [f"{g:.12g}", f"{lam:.12g}"]
                or len(parts) != 3
                or not gap >= 0.0
                or not math.isfinite(gap)
                or (gap <= ZERO_GAP) != zero
            ):
                check.flag(f"row {line!r} is wrong at gamma={g!r}, lambda={lam!r}")
        return check


# Work per call: each size puts 0.3-0.6 s of compute into one warm call on a
# 2-core Xeon VM, next to ~0.7 s of interpreter start and imports, so that a
# run of the benchmark holds enough samples for steady medians.
CHERN_STEPS = 201
METRIC_STEPS = 100
ORACLE_SAMPLES = 3
GAP_SIZE = 301
# gap-map lambda spacing: a dyadic step makes lambda == 1 an exact grid value.
GAP_LAMBDA_STEP = 2.0**-7


def chern_scan(seed: int, steps: int = CHERN_STEPS) -> ChernScan:
    """lambda across about [0, 2]; grid point j lies within 5e-4 of lambda = 1."""
    rng = random.Random(f"chern_scan:{seed}")
    lo = rng.uniform(0.0, 0.04)
    half = (steps - 1) // 2
    j = rng.randint(half - 5, half + 5)
    step = (1.0 + rng.uniform(-5e-4, 5e-4) - lo) / j
    return ChernScan(lo, lo + (steps - 1) * step, steps)


def metric_scan(seed: int, steps: int = METRIC_STEPS) -> MetricScan:
    """lambda over about [0.05, 2.5] at gamma in [0.4, 1.0)."""
    rng = random.Random(f"metric_scan:{seed}")
    return MetricScan(
        gamma=rng.uniform(0.4, 1.0),
        lambda_min=rng.uniform(0.05, 0.1),
        lambda_max=rng.uniform(2.4, 2.5),
        steps=steps,
    )


def ed_oracle(seed: int, samples: int = ORACLE_SAMPLES, n_sites: int = 10) -> EdOracle:
    """oracle-verify draws phi in (0, pi) itself, so the complex ED path runs."""
    rng = random.Random(f"ed_oracle:{seed}")
    return EdOracle(seed=rng.randrange(2**31), samples=samples, n_sites=n_sites)


def gap_grid(seed: int, size: int = GAP_SIZE) -> GapGrid:
    """gamma over [0, 1.5..2.5]; ``below`` grid steps of lambda lie under 1."""
    rng = random.Random(f"gap_grid:{seed}")
    most = min(int(1.0 / GAP_LAMBDA_STEP), (size - 1) // 2)
    below = rng.randint(most * 3 // 4, most)
    return GapGrid(
        gamma_max=rng.uniform(1.5, 2.5),
        lambda_min=1.0 - below * GAP_LAMBDA_STEP,
        lambda_max=1.0 + (size - 1 - below) * GAP_LAMBDA_STEP,
        size=size,
    )


WORKLOADS = {
    "chern_scan": chern_scan,
    "metric_scan": metric_scan,
    "ed_oracle": ed_oracle,
    "gap_grid": gap_grid,
}


def make(workload: str, seed: int):
    """The inputs of ``workload`` at ``seed``, at benchmark size."""
    return WORKLOADS[workload](seed)
