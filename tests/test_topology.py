import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from artifact import (
    BadSize,
    ChernMethod,
    NoJumpFound,
    PhaseLabel,
    TooCloseToCritical,
    chern_discrete,
    chern_number,
    classify_phase,
    detect_transition,
)
from artifact.topology import _total_flux


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
    with pytest.raises(TooCloseToCritical):
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


def test_discrete_grid_doubling_invariant():
    a = chern_discrete(0.5, (32, 32), 512)
    b = chern_discrete(0.5, (64, 64), 512)
    assert a.nearest_integer == b.nearest_integer == -1
    assert a.residual < 1e-9 and b.residual < 1e-9


def test_discrete_validation():
    with pytest.raises(ValueError):
        chern_discrete(0.5, (8, 32), 512)
    with pytest.raises(BadSize):
        chern_discrete(0.5, (32, 32), 513)
    with pytest.raises(BadSize):
        chern_discrete(0.5, (32, 32), 128)
    with pytest.raises(ValueError):
        chern_discrete(0.5, (32, 32), 512, gamma_ref=0.0)


@pytest.mark.parametrize("fn", [chern_number, chern_discrete])
def test_negative_field_rejected(fn):
    with pytest.raises(ValueError, match=">= 0"):
        fn(-0.5)


def test_flux_vortex_detected():
    # orthogonal neighbors along one plaquette edge push a cell phase to pi,
    # which is exactly the ambiguity the production guard rejects
    u = np.array([[1.0, 2**-0.5], [2**-0.5, 0.0]], dtype=complex)
    v = np.array([[0.0, -1j * 2**-0.5], [1j * 2**-0.5, 1.0]], dtype=complex)
    total, worst, min_link = _total_flux(u, v, (1.0, 0.0), (0.0, 1.0))
    assert worst == pytest.approx(math.pi, abs=1e-12)
    assert min_link == pytest.approx(2**-0.5, abs=1e-12)
    assert abs(total / (2.0 * math.pi) - round(total / (2.0 * math.pi))) < 1e-12


def test_flux_gauge_invariance():
    n, n_phi, n_beta, lam = 256, 16, 16, 0.4
    ks = np.clip(
        np.round((np.arange(n_beta) + 0.5) * (n / 2) / n_beta).astype(int),
        1,
        n // 2 - 1,
    )
    alphas = 2.0 * np.pi * ks / n
    thetas = np.arctan2(np.sin(alphas), lam - np.cos(alphas))
    phis = np.pi * np.arange(n_phi) / n_phi
    u = np.broadcast_to(np.cos(0.5 * thetas), (n_phi, n_beta)).astype(complex)
    v = 1j * np.exp(-2j * phis)[:, None] * np.sin(0.5 * thetas)[None, :]
    caps = ((0.0, 1.0), (1.0, 0.0))
    plain = _total_flux(u, v, *caps)[0]
    rng = np.random.default_rng(3)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n_phi, n_beta)))
    regauged = _total_flux(u * phase, v * phase, *caps)[0]
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
        assert abs(q - d) < 0.02


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
@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_field_rejected(fn, lam):
    with pytest.raises(ValueError, match="finite"):
        fn(lam)


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
    with pytest.raises(TooCloseToCritical):
        detect_transition(0.9995, 1.5, 1e-3)


def test_detect_transition_validation():
    with pytest.raises(ValueError):
        detect_transition(0.5, 1.5, 0.0)
    with pytest.raises(ValueError):
        detect_transition(1.5, 0.5, 1e-3)
