"""Benchmark of the artifact command line, end to end and layer by layer.

    python3 bench/run.py --workload chern_scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --list

Run from the root of a source checkout (``src/artifact`` must exist).  Every
CLI call starts a fresh interpreter, one call at a time (a closed loop with
one client), with ``ARTIFACT_WORKERS`` unset and BLAS/OpenMP pinned to
``BLAS_THREADS`` threads, all on one core.  With ``--trace 0`` each round
of the loop runs

* the CLI as a user would (``python3 -m artifact.cli ...``), ``CLI_PER_ROUND``
  times, timing each process from launch to exit (``wall_s``) and reading
  its peak resident memory (``peak_rss_mb``), and
* ``bench/child.py``, which times launch to ``import artifact`` returning
  (``setup_s``) and then calls ``artifact.cli.main`` ``1 + WARM_CALLS``
  times in the same process; the warm calls give ``rows_per_s``.

Each time is corrected for the machine's speed at that moment (speed.py).

With ``--trace 1`` each round runs the child once untraced and once with
``tracer.Tracer`` wrapping the module entry points, and reports the
per-layer metrics.  Every output is graded by the workload's reference
check and must be byte-identical to every other output at the same seed,
across runs too (hashes are kept under ``.bench_out/ref``).  The last line
of stdout is the JSON result; medians are over the rounds of one run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
CLI_PER_ROUND = 3
WARM_CALLS = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ARTIFACT_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def spawn(args, stdout_path: Path) -> tuple[float, float, int, float]:
    """Run one child to completion.

    Returns (launch monotonic time, wall seconds, exit code, peak RSS in MB).
    The child is reaped with ``wait4`` so its own peak RSS is read.
    """
    err_path = OUT / "stderr.txt"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise HarnessError(f"child {args[:3]} ended by signal {-proc.returncode}")
    return launched, wall, proc.returncode, usage.ru_maxrss / 1024.0


class Outputs:
    """Grades CLI outputs and tracks that they are byte-identical."""

    def __init__(self, inputs, ref_key: str):
        self.inputs = inputs
        self.ref_path = OUT / "ref" / ref_key
        self.reference = self.ref_path.read_text() if self.ref_path.exists() else None
        self.checks: dict[str, workloads.Check] = {}
        self.attempted = self.failed = self.wrong = self.calls = 0
        self.problems: list[str] = []

    def add(self, data: bytes, rc: int) -> workloads.Check:
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.checks:
            self.checks[digest] = self.inputs.check(data)
            self.problems += self.checks[digest].problems
        check = self.checks[digest]
        if self.reference is None:
            self.reference = digest
            self.ref_path.parent.mkdir(parents=True, exist_ok=True)
            self.ref_path.write_text(digest)
        self.calls += 1
        self.attempted += check.attempted
        self.failed += check.attempted if rc != 0 else check.errors
        if digest != self.reference:
            self.wrong += check.attempted
            self.problems.append(f"output {digest[:12]} differs from {self.reference[:12]}")
        else:
            self.wrong += check.wrong
        if rc != 0:
            self.problems.append(f"CLI exit code {rc}")
        return check


def run_child(spec: dict, outputs: Outputs) -> dict:
    """Run bench/child.py; grade each call's output and return its report."""
    stdout_path = OUT / "child_stdout"
    result_path = OUT / "child_result.json"
    result_path.unlink(missing_ok=True)
    spec = dict(spec, src=str(ROOT / "src"), result=str(result_path), spans=str(OUT / "spans.json"))
    launched, _, rc, _ = spawn([str(BENCH / "child.py"), json.dumps(spec)], stdout_path)
    if rc != 0 or not result_path.exists():
        raise HarnessError(f"bench/child.py exited {rc}: {tail(OUT / 'stderr.txt')}")
    report = json.loads(result_path.read_text())
    data = stdout_path.read_bytes()
    for call in report["calls"]:
        call["check"] = outputs.add(data[call["start"]:call["end"]], call["rc"])
    report["setup_s"] = report["imported"] - launched
    return report


def tail(path: Path) -> str:
    return path.read_text(errors="replace")[-2000:] if path.exists() else ""


def measure(argv, outputs: Outputs, seconds: float) -> tuple[dict, dict]:
    """End-to-end rounds: CLI processes, then a child with warm calls.

    Every time is corrected by the speed probes taken just before and just
    after it (see speed.py); the raw times are kept in the record.
    """
    raw = {"setup_s": [], "wall_s": [], "warm_call_s": [], "probe_s": []}
    walls, rss, setups, rates = [], [], [], []
    deadline = time.monotonic() + seconds
    last = {"cli": 0.0, "child": 0.0}

    def fits(step: str) -> bool:
        """Whether another step of this kind ends before the deadline."""
        return len(setups) < MIN_ROUNDS or time.monotonic() + last[step] <= deadline

    before = speed.probe()
    while fits("cli"):
        for _ in range(CLI_PER_ROUND):
            if not fits("cli"):
                break
            _, wall, rc, peak = spawn(["-m", "artifact.cli", *argv], OUT / "cli_stdout")
            after = speed.probe()
            outputs.add((OUT / "cli_stdout").read_bytes(), rc)
            walls.append(speed.corrected(wall, before, after))
            rss.append(peak)
            raw["wall_s"].append(wall)
            raw["probe_s"].append(after)
            last["cli"] = wall
            before = after
        if not fits("child"):
            break
        child_start = time.monotonic()
        report = run_child({"argv": argv, "calls": 1 + WARM_CALLS, "trace": False}, outputs)
        setups.append(speed.corrected(report["setup_s"], before, report["probe"]))
        raw["setup_s"].append(report["setup_s"])
        previous = report["probe"]
        for i, call in enumerate(report["calls"]):
            if i:
                rates.append(call["check"].rows / speed.corrected(call["s"], previous, call["probe"]))
                raw["warm_call_s"].append(call["s"])
            previous = call["probe"]
        before = speed.probe()
        last["child"] = time.monotonic() - child_start
    samples = {"setup_s": setups, "wall_s": walls, "rows_per_s": rates, "peak_rss_mb": rss}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, {"corrected": samples, "raw": raw}


def measure_traced(argv, outputs: Outputs, seconds: float) -> tuple[dict, dict]:
    """Traced rounds: the same cold call untraced, then traced."""
    plain, traced, layers = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        round_start = time.monotonic()
        report = run_child({"argv": argv, "calls": 1, "trace": False}, outputs)
        plain.append(report["calls"][0]["s"])
        report = run_child({"argv": argv, "calls": 1, "trace": True}, outputs)
        if not report["restored"]:
            raise HarnessError("tracer left a probe installed")
        traced.append(report["calls"][0]["s"])
        layers.append(report["layers"])
        now = time.monotonic()
        if len(plain) >= MIN_ROUNDS and now + (now - round_start) > deadline:
            break
    metrics = {name: statistics.median(sample[name] for sample in layers) for name in layers[0]}
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"untraced_call_s": plain, "traced_call_s": traced}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_notes() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Hash of the artifact sources, so stored reference outputs follow code changes."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "artifact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def list_metrics() -> None:
    spec = benchmark_spec()
    print("workloads: " + ", ".join(w["name"] for w in spec["workloads"]))
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<44} {m['unit']:<6} {m['better']} is better, bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<44} {m['unit']:<6} {m['better']} is better")
    print("every run also reports correct, attempted and failed;")
    print("error ratio = failed / attempted, wrong ratio > 0 makes correct false")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit")
    args = parser.parse_args()
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "artifact" / "cli.py").is_file():
        print(f"error: no artifact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    # One core for the harness and its children, so each speed probe runs
    # on the core the timed child used.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    inputs = workloads.make(args.workload, args.seed)
    argv = inputs.argv()
    key = hashlib.sha256(json.dumps([argv, source_digest()]).encode()).hexdigest()[:24]
    outputs = Outputs(inputs, key)
    try:
        # Untimed warm-up: the first import in a fresh checkout compiles bytecode.
        spawn(["-c", "import artifact"], OUT / "warmup_stdout")
        if args.trace:
            metrics, samples = measure_traced(argv, outputs, args.seconds)
        else:
            metrics, samples = measure(argv, outputs, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} != BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    notes = machine_notes()
    result = {
        "correct": outputs.wrong == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "argv": argv,
        "machine": notes, "samples": samples, "wrong": outputs.wrong,
        "problems": outputs.problems[:50], "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for problem in outputs.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(notes))
    print(
        f"{args.workload}: {outputs.calls} CLI calls, error ratio "
        f"{outputs.failed / outputs.attempted:.3g}, wrong ratio {outputs.wrong / outputs.attempted:.3g}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
