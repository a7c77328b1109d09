import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import (
    BadSize,
    CriticalPoint,
    GeometricTensor,
    ModelParams,
    berry_curvature_density,
    berry_curvature_mode,
    bogoliubov_angle,
    build_ground_state,
    dispersion,
    gap,
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
    with pytest.raises(CriticalPoint, match="gapless momentum"):
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


def test_gap_values():
    assert gap(0.3, 1.0) == 0.0
    assert gap(0.0, 0.5) == 0.0
    assert gap(1.0, 0.0) == 1.0


_BAD_COUPLINGS = [
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
    (-math.inf, "must be finite, got -inf"),
    ("0.5", "must be a finite real number, got '0.5'"),
    (None, "must be a finite real number, got None"),
    (10**400, "must be a finite real number, got 1000"),
    (1e151, "must be <= 1e150, got 1e+151"),
    (np.array([0.5]), "must be a finite real number, got array([0.5])"),
    (np.array([0.5, 2.0]), "must be a finite real number, got array([0.5, 2. ])"),
]


def test_gap_rejects_a_bad_coupling():
    # each slot, on both branches of the closed form; gamma is judged first
    for bad, message in _BAD_COUPLINGS:
        for gamma, lam, name in (
            (bad, 0.5, "gamma"), (0.5, bad, "lam"), (2.0, bad, "lam"), (bad, 2.0, "gamma"),
            (bad, bad, "gamma"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{name} {message}")):
                gap(gamma, lam)
    # the gap-map edges keep their values: the lines gamma = 0, lam = 0 and
    # lam = 1, the band-interior boundary lam = 1 - gamma^2, the coupling
    # bound and a signed-zero anisotropy
    assert gap(0.0, 1.5) == 0.5
    assert gap(0.5, 0.0) == 0.5
    assert gap(2.0, 0.0) == 1.0
    assert gap(0.5, 0.75) == 0.25
    assert gap(1.0, 0.5) == 0.5
    assert gap(1e150, 0.5) == 0.5
    assert gap(0.5, 1e150) == 1e150
    assert math.copysign(1.0, gap(-0.0, 0.5)) == -1.0


@pytest.mark.parametrize(
    "gamma, lam, message",
    [
        (-0.5, 0.5, "gamma must be >= 0, got -0.5"),
        (0.5, -1.0, "lam must be >= 0, got -1.0"),
        (-1.0, -1.0, "gamma must be >= 0, got -1.0"),
    ],
)
def test_gap_rejects_negative_coupling(gamma, lam, message):
    with pytest.raises(ValueError, match=message):
        gap(gamma, lam)


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
    [
        (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, math.inf), (-0.5, 0.5),
        (0.5, -0.5), pytest.param(10**400, 0.5, id="huge-int-0.5"), (0.5, None),
        ("0.5", 0.5), (-math.inf, 0.5), (1e300, 0.5), (0.5, 1e300),
    ],
)
@pytest.mark.parametrize(
    "call",
    [berry_curvature_density, functools.partial(dispersion, 0.3),
     functools.partial(bogoliubov_angle, 0.3)],
    ids=["density", "dispersion", "angle"],
)
def test_couplings_must_be_finite_and_non_negative(call, gamma, lam):
    with pytest.raises(ValueError, match="must be (a )?finite|must be >= 0|must be <= 1e150"):
        call(gamma, lam)


@pytest.mark.parametrize(
    "alpha",
    [
        math.nan, math.inf, -math.inf, np.array([0.3, math.nan]), np.array([[0.3], [-math.inf]]),
        [0.3, math.inf], pytest.param(10**400, id="huge-int"), "0.5", None,
    ],
    ids=str,
)
@pytest.mark.parametrize("call", [dispersion, bogoliubov_angle], ids=["dispersion", "angle"])
def test_momenta_must_be_finite(call, alpha):
    # one check per call covers a scalar momentum and every entry of an array
    with pytest.raises(ValueError, match="alpha must be finite") as raised:
        call(alpha, 0.5, 0.5)
    chained = isinstance(raised.value.__cause__, TypeError)
    assert chained == (alpha is None or isinstance(alpha, (str, int)))
    finite = np.array([0.3, 1.2])
    assert np.array_equal(call(finite, 0.5, 0.5), [call(a, 0.5, 0.5) for a in finite])


@pytest.mark.parametrize(
    "couplings",
    [
        (0.0, math.nan, 0.5), (0.0, 0.5, math.nan), (0.0, math.inf, 0.5), (0.0, 0.5, math.inf),
        (10**400, 1.0, 0.5), (0.1, 10**400, 0.5), ("0.1", 1.0, 0.5), (0.1, 1.0, None),
    ],
)
def test_params_reject_non_finite(couplings):
    # a value that is no float (too large, a string, None) is a ValueError
    # chained to the OverflowError or TypeError behind it
    with pytest.raises(ValueError, match="finite") as raised:
        ModelParams(*couplings)
    chained = isinstance(raised.value.__cause__, (OverflowError, TypeError))
    assert chained == any(not isinstance(c, float) for c in couplings)


@settings(max_examples=200)
@given(st.floats(0.0, math.pi), st.floats(0.0, 1.5), st.floats(0.0, 2.5))
def test_pairing_kernel_closed_forms(alpha, gamma, lam):
    assume(gap(gamma, lam) > 0.05)
    pairing = _Pairing(alpha, gamma, lam)
    h = 1e-6

    def theta(g, l):
        # the closed form itself: the stencil may step below a zero coupling,
        # which bogoliubov_angle refuses
        return _Pairing(alpha, g, l).theta

    d_gamma = (theta(gamma + h, lam) - theta(gamma - h, lam)) / (2.0 * h)
    d_lam = (theta(gamma, lam + h) - theta(gamma, lam - h)) / (2.0 * h)
    # abs: the rounding floor of the difference quotient, ulp(pi) / h ~ 4e-10
    assert pairing.d_gamma == pytest.approx(d_gamma, rel=1e-6, abs=1e-9)
    assert pairing.d_lam == pytest.approx(d_lam, rel=1e-6, abs=1e-9)
    assert abs(pairing.energy - dispersion(alpha, gamma, lam)) <= 1e-15
    mode = berry_curvature_mode(alpha, ModelParams(0.0, gamma, lam))
    assert mode == 1j * pairing.sin_theta * pairing.d_gamma
    assert 0.0 <= pairing.theta <= math.pi
