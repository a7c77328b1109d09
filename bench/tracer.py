"""Span tracing around the entry points of each artifact module.

A ``Tracer`` replaces each probed function with a wrapper on the name its
caller looks up (``geometry._pair_arrays``, not ``ground_state._pair_arrays``)
and restores the originals on exit.  Spans stay in memory as
``[name, parent, row, start, end]`` lists; ``summarize`` turns them into
the per-layer metrics.  Each ``cli.row`` call opens a new row id, and every
span below it carries that id; spans outside any row carry row 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "model", "ground_state", "geometry", "topology", "oracle")


def _emit_position(args, after: bool) -> int:
    """Bytes the CLI emit target holds; a file named by --out starts empty."""
    if args.out:
        if not after:
            return 0
        with open(args.out, "rb") as handle:
            return handle.seek(0, 2)
    sys.stdout.flush()
    return sys.stdout.buffer.tell()


@dataclass(frozen=True)
class Counter:
    """An extra count for a probe: ``after(args, result) - before(args)`` per call."""

    suffix: str
    after: Callable
    before: Callable = lambda args: 0


@dataclass(frozen=True)
class Probe:
    name: str
    module: str
    attr: str
    counter: Counter | None = None


_NODES = lambda args, result: result.node_count  # noqa: E731

PROBES = (
    Probe("cli.main", "artifact.cli", "main"),
    Probe("cli.map_rows", "artifact.cli", "_map_rows"),
    Probe("cli.row", "artifact.cli", "_chern_row"),
    Probe("cli.row", "artifact.cli", "_metric_row"),
    Probe("cli.row", "artifact.cli", "_gap_row"),
    Probe(
        "cli.emit", "artifact.cli", "_emit",
        Counter("bytes", lambda args, result: _emit_position(args[0], True),
                lambda args: _emit_position(args[0], False)),
    ),
    Probe("topology.chern_number", "artifact.topology", "chern_number", Counter("neval", _NODES)),
    Probe("topology.chern_discrete", "artifact.topology", "chern_discrete", Counter("nodes", _NODES)),
    Probe("ground_state.pair_arrays", "artifact.geometry", "_pair_arrays"),
    Probe("ground_state.overlap", "artifact.geometry", "_overlap_arrays"),
    Probe("geometry.qgt_finite_diff", "artifact.geometry", "qgt_finite_diff"),
    Probe("geometry.qgt_spectral", "artifact.geometry", "qgt_spectral"),
    Probe("geometry.berry_curvature_mode", "artifact.geometry", "berry_curvature_mode"),
    Probe("oracle.ed_ground", "artifact.oracle", "ed_ground"),
    Probe("oracle.ed_vector", "artifact.oracle", "_ed_vector"),
    Probe("oracle.qgt_matrix_elements", "artifact.oracle", "qgt_matrix_elements"),
    Probe("oracle.free_fermion_parity_spectrum", "artifact.oracle", "free_fermion_parity_spectrum"),
    Probe("oracle.wilson_loop_berry_phase", "artifact.oracle", "wilson_loop_berry_phase"),
    Probe("oracle.spin_operators", "artifact.oracle", "_spin_operators"),
    Probe("oracle.eigensolve", "scipy.linalg", "eigh", Counter("dim_sum", lambda a, r: len(a[0]))),
    Probe("oracle.eigensolve", "scipy.linalg", "eigvalsh", Counter("dim_sum", lambda a, r: len(a[0]))),
    Probe("model.gap", "artifact.model", "gap"),
    Probe("model.dispersion", "artifact.model", "dispersion"),
)

# Probes whose raised ArtifactErrors are reported as ``<name>.errors``.
ERROR_COUNTED = ("geometry.qgt_finite_diff",)


def metric_names() -> list[str]:
    """Every per-layer metric, in the order ``summarize`` reports them."""
    names = []
    for probe in PROBES:
        for suffix in ("calls", "self_s") + ((probe.counter.suffix,) if probe.counter else ()):
            if f"{probe.name}.{suffix}" not in names:
                names.append(f"{probe.name}.{suffix}")
    names += [f"{name}.errors" for name in ERROR_COUNTED]
    names += ["geometry.states_per_tensor", "oracle.eigensolves_per_ground"]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names.append("trace_overhead_s")
    return names


class Tracer:
    """Installs the probes for the duration of a ``with`` block."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.originals: list[tuple] = []
        self._stack: list[int] = []
        self._row = 0
        self._rows = 0

    def __enter__(self) -> "Tracer":
        from artifact.errors import ArtifactError

        for probe in PROBES:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr)
            self.originals.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrap(probe, original, ArtifactError))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every probed name holds its original function again."""
        return all(getattr(m, attr) is original for m, attr, original in self.originals)

    def _wrap(self, probe: Probe, fn, error_type):
        if probe.name not in self.names:
            self.names.append(probe.name)
        index = self.names.index(probe.name)
        opens_row = probe.name == "cli.row"
        counter = probe.counter
        errors = probe.name in ERROR_COUNTED
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer_row = self._row
            if opens_row:
                self._rows += 1
                self._row = self._rows
            span = [index, stack[-1] if stack else -1, self._row, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            before = counter.before(args) if counter else 0
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if errors:
                    counters[probe.name + ".errors"] += 1
                raise
            finally:
                span[4] = clock()
                stack.pop()
                self._row = outer_row
            if counter:
                counters[f"{probe.name}.{counter.suffix}"] += counter.after(args, result) - before
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict[str, float]:
        return summarize(self.names, self.spans, self.counters)

    def dump(self, path: str) -> None:
        """Write the spans out, once tracing is over."""
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    their summed durations are the part of the parent they cover.
    """
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(names, spans, counters) -> dict[str, float]:
    """Per-layer metrics (all but ``trace_overhead_s``) from one traced call."""
    calls = defaultdict(int)
    own = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        calls[names[span[0]]] += 1
        own[names[span[0]]] += seconds
    values = dict(counters)
    for probe in PROBES:
        values[probe.name + ".calls"] = calls[probe.name]
        values[probe.name + ".self_s"] = own[probe.name]
    tensors = calls["geometry.qgt_finite_diff"] - counters.get("geometry.qgt_finite_diff.errors", 0)
    states = calls["ground_state.pair_arrays"] + calls["oracle.ed_vector"]
    values["geometry.states_per_tensor"] = states / tensors if tensors else 0.0
    grounds = calls["oracle.ed_ground"] + calls["oracle.ed_vector"] + calls["oracle.qgt_matrix_elements"]
    values["oracle.eigensolves_per_ground"] = calls["oracle.eigensolve"] / grounds if grounds else 0.0
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            seconds for name, seconds in own.items() if name.split(".")[0] == layer
        )
    return {name: values.get(name, 0) for name in metric_names() if name != "trace_overhead_s"}
