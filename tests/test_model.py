import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import (
    BadSize,
    DegenerateRatio,
    GaplessMode,
    GeometricTensor,
    ModelParams,
    berry_curvature_density,
    berry_curvature_mode,
    bogoliubov_angle,
    build_ground_state,
    dispersion,
    fermi_cutoff,
    gap,
    momentum_grid,
)
from artifact.model import _Pairing


def test_dispersion_values():
    assert dispersion(0.0, 0.7, 1.0) == 0.0
    for alpha in (0.0, 0.3, 2.1, math.pi):
        assert dispersion(alpha, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert dispersion(math.pi / 2, 0.5, 0.5) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_dispersion_even_in_alpha():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha = rng.uniform(-np.pi, np.pi)
        g = rng.uniform(0.0, 2.0)
        lam = rng.uniform(0.0, 3.0)
        assert dispersion(alpha, g, lam) == dispersion(-alpha, g, lam)


def test_bogoliubov_angle_values():
    assert bogoliubov_angle(0.9, 0.0, 2.0) == 0.0
    assert bogoliubov_angle(0.0, 1.0, 0.5) == pytest.approx(math.pi, abs=1e-15)
    assert bogoliubov_angle(math.pi / 2, 1.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_bogoliubov_angle_gapless():
    with pytest.raises(GaplessMode):
        bogoliubov_angle(0.0, 0.7, 1.0)


def test_angle_consistency():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        alpha = rng.uniform(-np.pi, np.pi)
        g = rng.uniform(0.05, 2.0)
        lam = rng.uniform(0.0, 3.0)
        energy = dispersion(alpha, g, lam)
        if energy < 1e-6:
            continue
        theta = bogoliubov_angle(alpha, g, lam)
        assert energy * math.cos(theta) == pytest.approx(
            lam - math.cos(alpha), rel=1e-12, abs=1e-12
        )
        assert energy * math.sin(theta) == pytest.approx(
            g * math.sin(alpha), rel=1e-12, abs=1e-12
        )
        checked += 1


def test_fermi_cutoff_values():
    assert fermi_cutoff(0.0, 0.0, 100) == 25
    assert fermi_cutoff(0.5, 2.0, 100) == 0
    assert fermi_cutoff(0.0, 1.0, 100) == 0


def test_fermi_cutoff_degenerate_ratio():
    with pytest.raises(DegenerateRatio):
        fermi_cutoff(1.0, 0.5, 64)


def test_fermi_cutoff_monotone_in_field():
    for g in (0.0, 0.3, 0.6, 0.9):
        cuts = [fermi_cutoff(g, lam, 64) for lam in np.linspace(0.0, 2.5, 40)]
        assert all(a >= b for a, b in zip(cuts, cuts[1:]))


def test_gap_values():
    assert gap(0.3, 1.0) == 0.0
    assert gap(0.0, 0.5) == 0.0
    assert gap(1.0, 0.0) == 1.0


def test_gap_nan_coupling_is_nan():
    for gamma, lam in ((math.nan, 0.5), (0.5, math.nan), (2.0, math.nan), (math.nan, 2.0)):
        assert math.isnan(gap(gamma, lam)), (gamma, lam)
    # the gap-map edges keep their values: the lines gamma = 0, lam = 0 and
    # lam = 1, the band-interior boundary lam = 1 - gamma^2, and infinities
    assert gap(0.0, 1.5) == 0.5
    assert gap(0.5, 0.0) == 0.5
    assert gap(2.0, 0.0) == 1.0
    assert gap(0.5, 0.75) == 0.25
    assert gap(1.0, 0.5) == 0.5
    assert gap(math.inf, 0.5) == 0.5
    assert gap(0.5, math.inf) == math.inf


def test_gap_bounds_dispersion():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = rng.uniform(0.0, 2.0)
        lam = rng.uniform(0.0, 3.0)
        alpha = rng.uniform(-np.pi, np.pi)
        assert gap(g, lam) <= dispersion(alpha, g, lam) + 1e-12


def test_gap_zero_set():
    for g in (0.0, 0.2, 1.0, 1.7):
        assert gap(g, 1.0) == 0.0
    for lam in (0.0, 0.4, 1.0):
        assert gap(0.0, lam) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = rng.uniform(0.05, 2.0)
        lam = rng.uniform(0.0, 3.0)
        if abs(lam - 1.0) < 1e-3:
            continue
        assert gap(g, lam) > 0.0


def test_momentum_grid_small():
    grid = np.sort(momentum_grid(4))
    assert grid == pytest.approx([-np.pi / 2, 0.0, np.pi / 2, np.pi], abs=1e-15)


def test_momentum_grid_structure():
    grid = momentum_grid(8)
    assert len(grid) == 8
    pos = np.sort(grid[(grid > 0) & (grid < np.pi)])
    neg = np.sort(-grid[grid < 0])
    assert pos == pytest.approx(neg, abs=1e-15)
    assert np.any(grid == 0.0)
    assert np.any(np.isclose(grid, np.pi))


def test_momentum_grid_bad_size():
    with pytest.raises(BadSize):
        momentum_grid(3)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        ModelParams(np.pi, 0.5, 0.5)
    with pytest.raises(ValueError):
        ModelParams(0.0, -0.2, 0.5)
    with pytest.raises(ValueError):
        ModelParams(0.0, 0.5, -0.2)
    with pytest.raises(BadSize):
        build_ground_state(ModelParams(0.0, 0.5, 0.5), 5)
    with pytest.raises(BadSize):
        build_ground_state(ModelParams(0.0, 0.5, 0.5), 2)


def test_params_are_the_tensor_coords():
    # a point of the model is (phi, gamma, lam); the ring size is an argument
    assert [f.name for f in dataclasses.fields(ModelParams)] == list(GeometricTensor.coords)


@pytest.mark.parametrize(
    "gamma, lam",
    [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, math.inf), (-0.5, 0.5), (0.5, -0.5)],
)
@pytest.mark.parametrize(
    "call",
    [berry_curvature_density, lambda gamma, lam: fermi_cutoff(gamma, lam, 64)],
    ids=["density", "cutoff"],
)
def test_couplings_must_be_finite_and_non_negative(call, gamma, lam):
    with pytest.raises(ValueError, match="must be finite|must be >= 0"):
        call(gamma, lam)


@pytest.mark.parametrize(
    "couplings",
    [(0.0, math.nan, 0.5), (0.0, 0.5, math.nan), (0.0, math.inf, 0.5), (0.0, 0.5, math.inf)],
)
def test_params_reject_non_finite(couplings):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(*couplings)


@settings(max_examples=200)
@given(st.floats(0.0, math.pi), st.floats(0.0, 1.5), st.floats(0.0, 2.5))
def test_pairing_kernel_closed_forms(alpha, gamma, lam):
    assume(gap(gamma, lam) > 0.05)
    pairing = _Pairing(alpha, gamma, lam)
    h = 1e-6
    d_gamma = (
        bogoliubov_angle(alpha, gamma + h, lam) - bogoliubov_angle(alpha, gamma - h, lam)
    ) / (2.0 * h)
    d_lam = (
        bogoliubov_angle(alpha, gamma, lam + h) - bogoliubov_angle(alpha, gamma, lam - h)
    ) / (2.0 * h)
    # abs: the rounding floor of the difference quotient, ulp(pi) / h ~ 4e-10
    assert pairing.d_gamma == pytest.approx(d_gamma, rel=1e-6, abs=1e-9)
    assert pairing.d_lam == pytest.approx(d_lam, rel=1e-6, abs=1e-9)
    assert abs(pairing.energy - dispersion(alpha, gamma, lam)) <= 1e-15
    mode = berry_curvature_mode(alpha, ModelParams(0.0, gamma, lam))
    assert mode == 1j * pairing.sin_theta * pairing.d_gamma
    assert 0.0 <= pairing.theta <= math.pi
