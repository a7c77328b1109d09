import numpy as np
import pytest

from artifact import (
    CriticalPoint,
    GaplessMode,
    ModelParams,
    StencilCrossesCritical,
    berry_curvature_density,
    berry_curvature_mode,
    metric_real,
    mode_amplitudes,
    qgt_finite_diff,
    qgt_spectral,
)

P = ModelParams


def _mode_sum(g, lam, n, phi=0.0):
    p = P(phi, g, lam, n)
    return sum(
        berry_curvature_mode(2.0 * np.pi * k / n, p).imag for k in range(1, n // 2)
    )


def _single_mode_fd(alpha, phi, g, lam, h=1e-5):
    def state(p, q):
        amp = mode_amplitudes(alpha, P(p, q, lam))
        return np.array([amp.u, amp.v])

    d_phi = (state(phi + h, g) - state(phi - h, g)) / (2.0 * h)
    d_gam = (state(phi, g + h) - state(phi, g - h)) / (2.0 * h)
    return np.vdot(d_phi, d_gam) - np.vdot(d_gam, d_phi)


def test_mode_zero_at_zero_anisotropy():
    assert berry_curvature_mode(0.8, P(0.0, 0.0, 2.0)) == 0.0


def test_mode_matches_finite_difference():
    flat = berry_curvature_mode(np.pi / 2, P(0.2, 1.0, 0.0))
    assert abs(flat - _single_mode_fd(np.pi / 2, 0.2, 1.0, 0.0)) < 1e-8
    generic = berry_curvature_mode(1.1, P(0.3, 0.7, 0.4))
    assert abs(generic - _single_mode_fd(1.1, 0.3, 0.7, 0.4)) < 1e-8
    assert generic.imag == pytest.approx(-0.12138580635270088, abs=1e-9)


def test_mode_gapless():
    with pytest.raises(GaplessMode):
        berry_curvature_mode(0.0, P(0.0, 0.7, 1.0))


def test_mode_phi_independent():
    values = [
        berry_curvature_mode(1.1, P(phi, 0.7, 0.4)).imag
        for phi in (0.0, 0.6, 1.2, 1.8, 2.4)
    ]
    assert max(values) - min(values) < 1e-10


def test_density_vanishing_anisotropy():
    assert abs(berry_curvature_density(1e-8, 1.5).value) < 1e-7


def test_density_purely_imaginary_frozen_values():
    # regression values; the mode sum is the trapezoidal rule of a smooth
    # periodic integrand, so at N = 4096 it matches the quadrature to rounding
    frozen = {
        (0.5, 0.5): 0.26523127887688697,
        (1.0, 0.3): 0.12057851184870061,
        (0.3, 1.5): 0.29887079994993143,
        (1.5, 0.8): 0.2930045379020395,
        (0.8, 1.2): 0.8057551947527715,
        (1.0, 0.0): 0.0,
    }
    for (g, lam), expect in frozen.items():
        d = berry_curvature_density(g, lam)
        assert d.value.real == 0.0
        assert d.value.imag == pytest.approx(expect, abs=1e-9)
        riemann = 2.0 * np.pi / 4096 * _mode_sum(g, lam, 4096)
        assert abs(riemann - d.value.imag) < 1e-12


def test_density_matches_riemann_sum():
    d = berry_curvature_density(1.0, 0.0).value.imag
    riemann = 2.0 * np.pi / 4096 * _mode_sum(1.0, 0.0, 4096)
    assert abs(riemann - d) < 1e-5


def test_density_matches_finite_difference_tensor():
    t = qgt_finite_diff(P(0.0, 0.5, 0.5, 4096), 4096)
    fd = (2.0 * np.pi / 4096) * (t.matrix[0, 1] - t.matrix[1, 0]).imag
    d = berry_curvature_density(0.5, 0.5).value.imag
    assert abs(fd - d) < 1e-5


def test_density_critical_point():
    with pytest.raises(CriticalPoint):
        berry_curvature_density(0.7, 1.0)
    with pytest.raises(CriticalPoint):
        berry_curvature_density(0.0, 0.5)


def test_density_growth_into_critical_point():
    mags = [abs(berry_curvature_density(0.1, lam).value.imag) for lam in (0.9, 0.95, 0.99)]
    assert mags[0] < mags[1] < mags[2]


def test_qgt_consistency_with_mode_sum():
    cases = [(0.5, 0.5, 1024), (0.3, 0.2, 512), (1.0, 1.5, 1024), (0.8, 0.15, 1024)]
    for g, lam, n in cases:
        p = P(0.0, g, lam, n)
        t = qgt_finite_diff(p, n)
        im_fd = (t.matrix[0, 1] - t.matrix[1, 0]).imag
        assert (2.0 * np.pi / n) * abs(im_fd - _mode_sum(g, lam, n)) < 1e-6


def test_qgt_curvature_normalized():
    t = qgt_finite_diff(P(0.0, 0.5, 0.5, 1024), 1024)
    lhs = -2.0 * t.matrix[0, 1].imag
    rhs = -(1024 / (2.0 * np.pi)) * berry_curvature_density(0.5, 0.5).value.imag
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_qgt_structure():
    t = qgt_finite_diff(P(0.0, 1.0, 0.0, 64), 64)
    g = t.matrix
    assert g[0, 0].imag == 0.0
    assert g[0, 0].real >= 0.0
    assert np.max(np.abs(g - g.conj().T)) < 1e-8
    assert np.linalg.eigvalsh(g.real).min() > -1e-8


def test_qgt_step_validation():
    with pytest.raises(ValueError):
        qgt_finite_diff(P(0.0, 0.5, 0.5, 256), 256, step=5e-3)
    with pytest.raises(ValueError):
        qgt_finite_diff(P(0.0, 0.5, 0.5, 256), 256, step=5e-7)


def test_qgt_critical_guards():
    with pytest.raises(CriticalPoint):
        qgt_finite_diff(P(0.0, 0.7, 1.0, 256), 256)
    with pytest.raises(StencilCrossesCritical):
        qgt_finite_diff(P(0.0, 5e-11, 0.5, 256), 256)


def test_metric_growth_toward_critical():
    a = metric_real(P(0.0, 1.0, 0.9, 2048), 2048)[2, 2]
    b = metric_real(P(0.0, 1.0, 0.99, 2048), 2048)[2, 2]
    assert 0.0 < a < b


def test_metric_symmetric():
    m = metric_real(P(0.0, 1.0, 0.0, 64), 64)
    assert np.max(np.abs(m - m.T)) < 1e-10
    assert m[2, 2] > 0.0


def test_spectral_matches_finite_diff():
    p = P(0.3, 0.8, 0.4, 6)
    dev = np.max(np.abs(qgt_spectral(p).matrix - qgt_finite_diff(p, 6).matrix))
    assert dev < 1e-6
