import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from artifact import (
    BadSize,
    ChernMethod,
    CriticalPoint,
    NoJumpFound,
    PhaseLabel,
    chern_discrete,
    chern_number,
    classify_phase,
    detect_transition,
)
from artifact import topology
from artifact.ground_state import _pair_block
from artifact.topology import _total_flux


def _closed(a):
    """Grid rows plus the first row again as the closing phi-column."""
    return np.concatenate([a, a[:1]])


def _grid_thetas(lam, n_beta, n):
    # rows of the discrete grid: pair momenta of the N-site ring over half the band
    ks = np.clip(
        np.round((np.arange(n_beta) + 0.5) * (n / 2) / n_beta).astype(int),
        1,
        n // 2 - 1,
    )
    alphas = 2.0 * np.pi * ks / n
    return np.arctan2(np.sin(alphas), lam - np.cos(alphas))


def test_quadrature_basic():
    r = chern_number(0.5)
    assert r.nearest_integer == -1
    assert r.residual < 1e-6
    assert abs(r.value - r.nearest_integer) == r.residual
    assert r.method is ChernMethod.WINDING
    assert r.node_count == 2


def test_quadrature_trivial_side():
    r = chern_number(2.0)
    assert r.nearest_integer == 0
    assert r.residual < 1e-6


def test_quadrature_critical_strip():
    with pytest.raises(CriticalPoint, match="within 1e-3"):
        chern_number(1.0005)


@settings(max_examples=60)
@given(st.floats(0.0, 3.0), st.floats(0.05, 3.0))
def test_winding_matches_quadrature(lam, gamma):
    # adaptive quadrature of dtheta/dalpha over the band, at any anisotropy,
    # is the numerical cross-check of the endpoint winding
    assume(abs(lam - 1.0) > 1e-3)

    def dtheta(alpha):
        a = lam - math.cos(alpha)
        b = gamma * math.sin(alpha)
        return gamma * (lam * math.cos(alpha) - 1.0) / (a * a + b * b)

    raw, _ = quad(dtheta, 0.0, math.pi, epsabs=1e-6 * math.pi, epsrel=1e-10, limit=200)
    r = chern_number(lam)
    assert round(raw / math.pi) == r.nearest_integer
    assert abs(raw / math.pi - r.value) <= 1e-6


def test_discrete_exact_integers():
    for lam, expect in [(0.0, -1), (0.5, -1), (0.9, -1), (1.1, 0), (2.0, 0)]:
        r = chern_discrete(lam, (32, 32), 512)
        assert r.nearest_integer == expect
        assert r.residual < 1e-9
        assert r.method is ChernMethod.DISCRETE


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_discrete_reports_its_diagnostics(lam):
    r = chern_discrete(lam, (32, 32), 512)
    assert math.isfinite(r.worst_cell_phase) and 0.0 <= r.worst_cell_phase < math.pi
    assert math.isfinite(r.min_link) and 1e-12 < r.min_link <= 1.0 + 1e-12
    winding = chern_number(lam)
    assert winding.worst_cell_phase is None and winding.min_link is None


def test_discrete_grid_doubling_invariant():
    a = chern_discrete(0.5, (32, 32), 512)
    b = chern_discrete(0.5, (64, 64), 512)
    assert a.nearest_integer == b.nearest_integer == -1
    assert a.residual < 1e-9 and b.residual < 1e-9


@settings(max_examples=60)
@given(
    st.floats(0.0, 3.0),
    st.integers(16, 96),
    st.integers(16, 96),
    st.integers(128, 2**52).map(lambda half: 2 * half),
)
def test_discrete_residual_is_machine_precision(lam, n_phi, n_beta, n):
    # every link enters two cells with opposite orientation, so the summed
    # phase is a multiple of 2 pi up to rounding on any valid grid; each cell
    # lies in a lune 2 pi / n_phi wide in azimuth, so no cell phase nears pi
    assume(abs(lam - 1.0) > 1e-3)
    result = chern_discrete(lam, (n_phi, n_beta), n)
    assert result.residual < 1e-9
    assert result.nearest_integer == (-1 if lam < 1.0 else 0)
    assert result.worst_cell_phase <= 2.0 * math.pi / n_phi + 1e-12


def test_discrete_validation():
    with pytest.raises(ValueError):
        chern_discrete(0.5, (8, 32), 512)
    with pytest.raises(BadSize):
        chern_discrete(0.5, (32, 32), 513)
    with pytest.raises(BadSize):
        chern_discrete(0.5, (32, 32), 128)
    for n in (2**53 + 2, 10**30):
        with pytest.raises(BadSize, match="N <= 2"):
            chern_discrete(0.5, (32, 32), n)


@pytest.mark.parametrize("fn", [chern_number, chern_discrete])
def test_negative_field_rejected(fn):
    with pytest.raises(ValueError, match=">= 0"):
        fn(-0.5)


def test_flux_vortex_detected():
    # orthogonal neighbors along one plaquette edge push a cell phase to pi,
    # which is exactly the ambiguity the production guard rejects
    u = np.array([[1.0, 2**-0.5], [2**-0.5, 0.0]], dtype=complex)
    v = np.array([[0.0, -1j * 2**-0.5], [1j * 2**-0.5, 1.0]], dtype=complex)
    total, worst, min_link = _total_flux(_closed(u), _closed(v), (1.0, 0.0), (0.0, 1.0))
    assert worst == pytest.approx(math.pi, abs=1e-12)
    assert min_link == pytest.approx(2**-0.5, abs=1e-12)
    assert abs(total / (2.0 * math.pi) - round(total / (2.0 * math.pi))) < 1e-12


def test_flux_gauge_invariance():
    n, n_phi, n_beta, lam = 256, 16, 16, 0.4
    thetas = _grid_thetas(lam, n_beta, n)
    phis = np.pi * np.arange(n_phi) / n_phi
    u = np.broadcast_to(np.cos(0.5 * thetas), (n_phi, n_beta)).astype(complex)
    v = 1j * np.exp(-2j * phis)[:, None] * np.sin(0.5 * thetas)[None, :]
    caps = ((0.0, 1.0), (1.0, 0.0))
    plain = _total_flux(_closed(u), _closed(v), *caps)[0]
    rng = np.random.default_rng(3)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n_phi, n_beta)))
    regauged = _total_flux(_closed(u * phase), _closed(v * phase), *caps)[0]
    assert regauged == pytest.approx(plain, abs=1e-12)
    assert plain / (2.0 * np.pi) == pytest.approx(-1.0, abs=1e-9)


def test_discrete_piecewise_constant():
    for lam in np.linspace(0.0, 0.95, 20):
        assert chern_discrete(float(lam), (32, 32), 512).nearest_integer == -1
    for lam in np.linspace(1.05, 3.0, 20):
        assert chern_discrete(float(lam), (32, 32), 512).nearest_integer == 0


def test_methods_agree():
    for lam in (0.0, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0):
        q = chern_number(lam).value
        d = chern_discrete(lam, (32, 32), 512).value
        assert abs(q - d) < 1e-9


@settings(max_examples=60)
@given(
    st.floats(0.0, 3.0),
    st.integers(16, 96),
    st.integers(16, 96),
    st.integers(128, 2048).map(lambda half: 2 * half),
)
def test_strip_flux_equals_closed_grid(lam, n_phi, n_beta, n):
    # every phi-column of cells carries the same phases, so n_phi times the
    # flux of one strip is the flux of the whole closed grid; the reference
    # caps take the unpaired alpha = 0 level as occupied exactly when lam < 1
    assume(abs(lam - 1.0) > 1e-3)
    phis = np.pi * np.arange(n_phi) / n_phi
    u, v = _pair_block(_grid_thetas(lam, n_beta, n), phis[:, None])
    caps = ((0.0, 1.0), (1.0, 0.0)) if lam < 1.0 else ((1.0, 0.0), (1.0, 0.0))
    total, worst, min_link = _total_flux(
        _closed(np.broadcast_to(u, v.shape)), _closed(v), *caps
    )
    r = chern_discrete(lam, (n_phi, n_beta), n)
    assert abs(r.value - total / (2.0 * math.pi)) <= 1e-12
    assert r.nearest_integer == round(total / (2.0 * math.pi))
    assert abs(r.worst_cell_phase - worst) <= 1e-12
    assert abs(r.min_link - min_link) <= 1e-12
    assert r.node_count == n_phi * n_beta + 2


@pytest.mark.parametrize("n_phi", [16, 64, 128])
def test_discrete_evaluates_two_phi_columns(monkeypatch, n_phi):
    shapes = []

    def spy(theta, phi):
        u, v = _pair_block(theta, phi)
        shapes.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
        return u, v

    monkeypatch.setattr(topology, "_pair_block", spy)
    r = chern_discrete(0.5, (n_phi, 32), 512)
    assert r.nearest_integer == -1
    assert shapes == [(2, 32)]


def test_classify_phase():
    low = classify_phase(0.3)
    assert low.label is PhaseLabel.CHERN_MINUS_ONE
    assert low.chern.nearest_integer == -1
    edge = classify_phase(1.0)
    assert edge.label is PhaseLabel.BOUNDARY
    assert edge.chern is None
    assert edge.gap_at_gamma_one == 0.0
    high = classify_phase(3.0)
    assert high.label is PhaseLabel.CHERN_ZERO
    assert high.chern.nearest_integer == 0
    with pytest.raises(ValueError):
        classify_phase(-0.1)


@pytest.mark.parametrize("fn", [chern_number, chern_discrete, classify_phase])
@pytest.mark.parametrize("lam", [math.nan, math.inf, pytest.param(10**400, id="huge-int"), "0.5"])
def test_non_finite_field_rejected(fn, lam):
    with pytest.raises(ValueError, match="finite") as raised:
        fn(lam)
    chained = isinstance(raised.value.__cause__, (OverflowError, TypeError))
    assert chained == (not isinstance(lam, float))


def test_detect_transition_brackets_critical_field():
    lo, hi = detect_transition(0.5, 1.5, 1e-3)
    assert (lo, hi) == (0.9990234375, 1.0)
    assert lo < 1.0 <= hi
    assert hi - lo <= 1e-3


def test_detect_transition_no_jump():
    with pytest.raises(NoJumpFound):
        detect_transition(0.1, 0.9, 1e-3)
    with pytest.raises(NoJumpFound):
        detect_transition(1.1, 2.0, 1e-3)


def test_detect_transition_endpoint_guard():
    with pytest.raises(CriticalPoint, match="endpoints"):
        detect_transition(0.9995, 1.5, 1e-3)


def test_detect_transition_validation():
    with pytest.raises(ValueError):
        detect_transition(0.5, 1.5, 0.0)
    # an infinite tol would return the input bracket unsearched
    for tol in (math.inf, math.nan, 10**400, "1e-3"):
        with pytest.raises(ValueError, match="tol must be"):
            detect_transition(0.5, 1.5, tol)
    with pytest.raises(ValueError):
        detect_transition(1.5, 0.5, 1e-3)
