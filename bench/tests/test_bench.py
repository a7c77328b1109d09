"""Tests of the benchmark harness: tracer, self time, seeds and checkers."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from artifact import cli  # noqa: E402


def _probed():
    return {
        (p.module, p.attr): getattr(importlib.import_module(p.module), p.attr)
        for p in tracer.PROBES
    }


def test_probes_restored_after_traced_run(tmp_path):
    originals = _probed()
    out = tmp_path / "gap.csv"
    with tracer.Tracer() as trace:
        assert importlib.import_module("artifact.model").gap is not originals[("artifact.model", "gap")]
        assert cli.main(["gap-map", "--grid", "3x4", "--out", str(out)]) == 0
    assert trace.restored()
    assert _probed() == originals
    summary = trace.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["cli.row.calls"] == summary["model.gap.calls"] == 12
    assert summary["cli.emit.bytes"] == out.stat().st_size
    assert summary["topology.chern_number.calls"] == 0
    # every model.gap span sits inside a row of its own
    gap = trace.names.index("model.gap")
    rows = [span[2] for span in trace.spans if span[0] == gap]
    assert sorted(rows) == list(range(1, 13))


def test_probes_restored_when_the_call_raises():
    originals = _probed()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _probed() == originals


def test_self_time_is_duration_minus_children():
    names = ["cli.main", "cli.row", "model.gap"]
    spans = [
        [0, -1, 0, 0.0, 10.0],
        [1, 0, 1, 1.0, 4.0],
        [2, 1, 1, 2.0, 3.0],
        [1, 0, 2, 5.0, 9.0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summarize(names, spans, {})
    assert summary["cli.row.calls"] == 2
    assert summary["cli.row.self_s"] == 6.0
    assert summary["layer.cli.self_s"] == 9.0
    assert summary["layer.model.self_s"] == 1.0
    assert summary["layer.oracle.self_s"] == 0.0


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_work(name):
    first = workloads.make(name, 1)
    assert workloads.make(name, 1) == first
    second = workloads.make(name, 2)
    assert second != first
    assert first.check(b"").attempted == second.check(b"").attempted


def _corrupt_json(text, edit):
    doc = json.loads(text)
    edit(doc["rows"])
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _flip_label(rows):
    rows[0]["label"] = "ChernZero" if rows[0]["label"] == "ChernMinusOne" else "ChernMinusOne"


def _negative_metric(rows):
    row = next(r for r in rows if r["status"] == "ok")
    row["g_phi_phi"] = -row["g_phi_phi"]


def _energy_breach(text):
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("[energy] sample"))
    lines[i] = lines[i].rsplit(" ", 1)[0] + " 1.000000e-03\n"
    return "".join(lines).encode()


def _gap_at_critical_field(text):
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.split(",")[1:2] == ["1"])
    lines[i] = lines[i].rsplit(",", 1)[0] + ",0.5"
    return "\n".join(lines).encode()


SMALL = {
    "chern_scan": (lambda: workloads.chern_scan(3, steps=21), lambda t: _corrupt_json(t, _flip_label)),
    "metric_scan": (lambda: workloads.metric_scan(3, steps=12), lambda t: _corrupt_json(t, _negative_metric)),
    "ed_oracle": (lambda: workloads.ed_oracle(3, samples=1, n_sites=4), _energy_breach),
    "gap_grid": (lambda: workloads.gap_grid(3, size=11), _gap_at_critical_field),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_flags_a_corrupted_row(name, tmp_path):
    make, corrupt = SMALL[name]
    inputs = make()
    out = tmp_path / "out"
    assert cli.main(inputs.argv() + ["--out", str(out)]) == 0
    good = inputs.check(out.read_bytes())
    assert (good.wrong, good.errors) == (0, 0), good.problems
    assert good.rows > 0
    bad = inputs.check(corrupt(out.read_text()))
    assert bad.wrong >= 1
