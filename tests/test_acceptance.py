"""Acceptance gate: one test per headline behavior, at stated tolerances."""

import json
import time

import numpy as np

from artifact import (
    ModelParams,
    PhaseLabel,
    berry_curvature_density,
    chern_discrete,
    chern_number,
    classify_phase,
    detect_transition,
    isotropic_ground_state,
    qgt_finite_diff,
    qgt_product,
    qgt_spectral,
)
from artifact.oracle import ed_ground, free_fermion_parity_spectrum

TOPOLOGICAL = (0.0, 0.25, 0.5, 0.75, 0.9)
TRIVIAL = (1.1, 1.5, 2.0, 3.0)


def test_criterion_01_quadrature_invariant_plateaus():
    for lam, expect in [(l, -1) for l in TOPOLOGICAL] + [(l, 0) for l in TRIVIAL]:
        t0 = time.perf_counter()
        r = chern_number(lam)
        elapsed = time.perf_counter() - t0
        assert abs(r.value - expect) <= 0.02, f"lam={lam}: {r.value} vs {expect}"
        assert elapsed < 30.0, f"lam={lam} took {elapsed:.1f}s"


def test_criterion_02_discrete_invariant_exact_integers():
    for lam, expect in [(l, -1) for l in TOPOLOGICAL] + [(l, 0) for l in TRIVIAL]:
        t0 = time.perf_counter()
        r = chern_discrete(lam, (64, 64), 1024)
        doubled = chern_discrete(lam, (128, 128), 1024)
        elapsed = time.perf_counter() - t0
        assert r.nearest_integer == expect, f"lam={lam}"
        assert r.residual < 1e-9, f"lam={lam}: residual {r.residual:.3e}"
        assert doubled.nearest_integer == expect, f"lam={lam} at doubled grid"
        assert doubled.residual < 1e-9
        assert elapsed < 120.0, f"lam={lam} took {elapsed:.1f}s"


def test_criterion_03_transition_bracketed():
    lo, hi = detect_transition(0.5, 1.5, 1e-3)
    assert lo <= 1.0 <= hi
    assert hi - lo <= 1e-3


def test_criterion_04_boundary_point_not_classified_either_side():
    edge = classify_phase(1.0)
    assert edge.label is PhaseLabel.BOUNDARY
    assert edge.chern is None
    assert edge.gap_at_gamma_one == 0.0
    below = classify_phase(0.9)
    above = classify_phase(1.1)
    assert below.chern.nearest_integer == -1
    assert above.chern.nearest_integer == 0
    assert chern_discrete(0.9, (64, 64), 1024).nearest_integer == -1
    assert chern_discrete(1.1, (64, 64), 1024).nearest_integer == 0


def test_criterion_05_spin_ed_matches_parity_sectors():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 6, 8, 10, 12):
        rng = np.random.default_rng(1000 + n)
        for _ in range(20):
            phi = rng.uniform(0.0, np.pi)
            gamma = rng.uniform(0.0, 1.5)
            lam = rng.uniform(0.0, 2.5)
            params = ModelParams(phi, gamma, lam)
            dev = abs(
                ed_ground(params, n).ground_energy
                - free_fermion_parity_spectrum(params, n).ground_energy
            )
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"worst ground-energy deviation {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_spectral_tensor_matches_finite_difference():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(10):
        phi = rng.uniform(0.0, np.pi)
        gamma = rng.uniform(0.3, 1.2)
        if rng.random() < 0.5:
            lam = rng.uniform(0.15, 0.8)
        else:
            lam = rng.uniform(1.25, 2.5)
        params = ModelParams(phi, gamma, lam)
        dev = np.max(np.abs(qgt_spectral(params, 6).matrix - qgt_finite_diff(params, 6).matrix))
        worst = max(worst, float(dev))
    assert worst < 1e-6, f"worst componentwise deviation {worst:.3e}"


def test_criterion_07_curvature_matches_density():
    # points where the dispersion minimum sits strictly inside the band
    points = [(0.5, 0.5), (0.3, 0.2), (0.8, 0.15), (0.4, 0.7), (0.7, 0.4)]
    for gamma, lam in points:
        target = berry_curvature_density(gamma, lam).value.imag
        for n in (2048, 4096):
            t = qgt_product(ModelParams(0.0, gamma, lam), n)
            lattice = (2.0 * np.pi / n) * (t.matrix[0, 1] - t.matrix[1, 0]).imag
            err = abs(lattice - target)
            assert err < 1e-12, f"({gamma},{lam}) at N={n}: error {err:.3e}"


def test_criterion_08_field_metric_grows_toward_transition():
    n = 2048
    values = [
        qgt_product(ModelParams(0.0, 1.0, lam), n).real_metric[2, 2]
        for lam in (0.5, 0.9, 0.95, 0.99)
    ]
    assert all(b > a for a, b in zip(values, values[1:])), values


def test_criterion_09_gap_map_zero_set(cli, tmp_path):
    out = tmp_path / "gap.json"
    assert cli("gap-map", "--out", out).returncode == 0
    with open(out) as handle:
        rows = json.load(handle)["rows"]
    assert len(rows) == 101 * 101
    zero_rows = 0
    for row in rows:
        member = row["lambda"] == 1.0 or (row["gamma"] == 0.0 and row["lambda"] <= 1.0)
        assert (row["gap"] <= 1e-12) == member, row
        zero_rows += member
    assert zero_rows == 151


def test_criterion_10_isotropic_fermi_shell():
    state = isotropic_ground_state(0.0, 100)
    grid_k = np.arange(-49, 51)
    occupied = set(grid_k[state.occupation_mask].tolist())
    assert occupied == set(range(-25, 26))
