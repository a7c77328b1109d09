import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from artifact import (
    BadSize,
    CriticalPoint,
    ModelParams,
    berry_curvature_density,
    berry_curvature_mode,
    bogoliubov_angle,
    build_ground_state,
    free_fermion_parity_spectrum,
    gap,
    qgt_finite_diff,
    qgt_product,
    qgt_spectral,
)
from artifact import geometry, model, oracle
from artifact.ground_state import _odd_sector, _pair_arrays, _pair_block, _pair_grid
from pauli import fock_vector

P = ModelParams
PROPERTY = settings(max_examples=30)


def _mode_sum(g, lam, n, phi=0.0):
    p = P(phi, g, lam)
    return sum(
        berry_curvature_mode(2.0 * np.pi * k / n, p).imag for k in range(1, n // 2)
    )


def _single_mode_fd(alpha, phi, g, lam, h=1e-5):
    def state(p, q):
        return np.array(_pair_block(bogoliubov_angle(alpha, q, lam), p))

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
    with pytest.raises(CriticalPoint, match="is gapless"):
        berry_curvature_mode(0.0, P(0.0, 0.7, 1.0))


@pytest.mark.parametrize("alpha", [np.array([1.1]), [1.1, 1.2], np.zeros((2, 2))], ids=str)
def test_mode_takes_one_momentum(alpha):
    with pytest.raises(ValueError, match="alpha must be one momentum"):
        berry_curvature_mode(alpha, P(0.3, 0.7, 0.4))
    # a 0-d array and a numpy scalar are one momentum
    one = berry_curvature_mode(1.1, P(0.3, 0.7, 0.4))
    assert berry_curvature_mode(np.array(1.1), P(0.3, 0.7, 0.4)) == one
    assert berry_curvature_mode(np.float64(1.1), P(0.3, 0.7, 0.4)) == one


def test_mode_phi_independent():
    values = [
        berry_curvature_mode(1.1, P(phi, 0.7, 0.4)).imag
        for phi in (0.0, 0.6, 1.2, 1.8, 2.4)
    ]
    assert max(values) - min(values) < 1e-10


def test_density_vanishing_anisotropy():
    assert abs(berry_curvature_density(1e-8, 1.5).value) < 1e-7


def test_density_purely_imaginary_frozen_values():
    # regression values; the density is the converged midpoint sum on the
    # even-sector momenta, and the odd-sector mode sum is the trapezoidal
    # rule of the same smooth periodic integrand, so at N = 4096 they agree
    # to rounding
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


def _density_by_quadrature(gamma, lam):
    # adaptive quadrature of sin(theta) dtheta/dgamma over [0, pi], split
    # where the dispersion of a gamma < 1 chain has its minimum
    def f(alpha):
        a = lam - math.cos(alpha)
        b = gamma * math.sin(alpha)
        r2 = a * a + b * b
        return b / math.sqrt(r2) * a * math.sin(alpha) / r2

    ratio = lam / (1.0 - gamma * gamma) if gamma < 1.0 else 2.0
    split = math.acos(ratio) if -1.0 <= ratio <= 1.0 else 0.0
    total = 0.0
    for lo, hi in ((0.0, split), (split, math.pi)):
        if hi > lo:
            total += quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
    return total


def _log_offset(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


@settings(max_examples=60)
@given(
    st.one_of(st.floats(0.05, 2.0), _log_offset(-3.0, -1.0)),
    st.one_of(
        st.floats(0.0, 3.0),
        _log_offset(-3.0, 0.0).map(lambda d: 1.0 - d),
        _log_offset(-3.0, 0.0).map(lambda d: 1.0 + d),
    ),
)
def test_density_matches_quadrature(gamma, lam):
    # the midpoint sums are checked against an independent adaptive
    # quadrature, down to gaps of 1e-3 where they need the most pairs
    assume(gap(gamma, lam) >= 1e-3)
    d = berry_curvature_density(gamma, lam)
    assert abs(d.value.imag - _density_by_quadrature(gamma, lam)) <= 1e-12


def test_density_nodes_grow_toward_critical_point():
    nodes = [berry_curvature_density(1.0, lam).nodes for lam in (0.5, 0.9, 0.99, 0.999)]
    assert all(n >= 64 and n & (n - 1) == 0 for n in nodes), nodes
    assert nodes == sorted(nodes), nodes


def test_density_matches_riemann_sum():
    d = berry_curvature_density(1.0, 0.0).value.imag
    riemann = 2.0 * np.pi / 4096 * _mode_sum(1.0, 0.0, 4096)
    assert abs(riemann - d) < 1e-5


def test_density_matches_product_tensor():
    t = qgt_product(P(0.0, 0.5, 0.5), 4096)
    lattice = (2.0 * np.pi / 4096) * (t.matrix[0, 1] - t.matrix[1, 0]).imag
    d = berry_curvature_density(0.5, 0.5).value.imag
    assert abs(lattice - d) < 1e-12


def test_density_critical_point():
    with pytest.raises(CriticalPoint):
        berry_curvature_density(0.7, 1.0)
    with pytest.raises(CriticalPoint):
        berry_curvature_density(0.0, 0.5)
    # gapped, but past the pair cap's reach
    with pytest.raises(CriticalPoint, match="gap 1.000e-07"):
        berry_curvature_density(1.0, 1.0 - 1e-7)


def test_density_growth_into_critical_point():
    mags = [abs(berry_curvature_density(0.1, lam).value.imag) for lam in (0.9, 0.95, 0.99)]
    assert mags[0] < mags[1] < mags[2]


def test_qgt_consistency_with_mode_sum():
    cases = [(0.5, 0.5, 1024), (0.3, 0.2, 512), (1.0, 1.5, 1024), (0.8, 0.15, 1024)]
    for g, lam, n in cases:
        t = qgt_product(P(0.0, g, lam), n)
        im_q = (t.matrix[0, 1] - t.matrix[1, 0]).imag
        assert (2.0 * np.pi / n) * abs(im_q - _mode_sum(g, lam, n)) < 1e-12


def test_qgt_curvature_normalized():
    t = qgt_product(P(0.0, 0.5, 0.5), 1024)
    lhs = -2.0 * t.matrix[0, 1].imag
    rhs = -(1024 / (2.0 * np.pi)) * berry_curvature_density(0.5, 0.5).value.imag
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_qgt_structure():
    t = qgt_product(P(0.0, 1.0, 0.0), 64)
    g = t.matrix
    assert g[0, 0].imag == 0.0
    assert g[0, 0].real >= 0.0
    assert np.max(np.abs(g - g.conj().T)) < 1e-8
    assert np.linalg.eigvalsh(g.real).min() > -1e-8


def test_qgt_exact_values():
    # at gamma = 1, lam = 0 the pairing angle is theta = pi - alpha, so
    # sin(theta) = sin(alpha), dtheta/dgamma = -sin(alpha) cos(alpha) and
    # dtheta/dlam = -sin(alpha); the sums over k = 1 ... 31 are exact
    t = qgt_product(P(0.7, 1.0, 0.0), 64)
    expect = np.array([[16, 0, -8j], [0, 1, 0], [8j, 0, 4]])
    assert np.max(np.abs(t.matrix - expect)) < 1e-12


def test_qgt_critical_guards():
    with pytest.raises(CriticalPoint, match="gapless couplings"):
        qgt_finite_diff(P(0.0, 0.7, 1.0), 6)
    with pytest.raises(CriticalPoint, match="stencil around"):
        qgt_finite_diff(P(0.0, 5e-11, 0.5), 6)
    with pytest.raises(BadSize, match=r"must be in \[2, 10\]"):
        qgt_finite_diff(P(0.0, 0.5, 0.5), 12)


@pytest.mark.parametrize(
    "gamma, lam",
    [(1e-4, 0.5), (2e-4, 0.5), (0.7, 1 + 2e-4), (0.7, 1 - 2e-4), (0.7, 1 + 1e-4), (0.7, 1 - 1e-4)],
)
def test_qgt_stencil_guard_covers_every_offset(gamma, lam):
    # a gapped center whose stencil touches the gapless set only at one
    # point stepped by 2e-4 or 1e-4 in gamma or lam
    with pytest.raises(CriticalPoint, match="stencil around"):
        qgt_finite_diff(P(0.0, gamma, lam), 6)


@pytest.mark.parametrize("gamma, lam", [(3e-4, 0.5), (0.7, 1.0003)])
def test_qgt_stencil_guard_clears_a_stencil_off_the_gapless_set(gamma, lam):
    assert qgt_finite_diff(P(0.0, gamma, lam), 6).matrix.shape == (3, 3)


def test_qgt_finite_diff_stencil_across_a_parity_crossing():
    # a doublet crossing of the 6-site ring below lam = 1: the even and odd
    # sector levels swap order inside the 2e-4 stencil, so the ED ground
    # vector jumps between orthogonal sectors
    p = P(1.0313884634358206, 0.5389645705735325, 0.6325752805066802)
    with pytest.raises(CriticalPoint, match="parity sectors"):
        qgt_finite_diff(p, 6)


def test_qgt_finite_diff_step_check_raises_critical_point(monkeypatch):
    # no point trips the step-halving check at the real 2e-4 step; at 0.05
    # the two estimates differ by about 7e-5, above the 1e-6 bound
    monkeypatch.setattr(geometry, "_ED_STEP", 0.05)
    with pytest.raises(CriticalPoint, match="disagree"):
        qgt_finite_diff(P(0.3, 1.0, 2.0), 6)


def test_qgt_product_input_checks():
    with pytest.raises(CriticalPoint):
        qgt_product(P(0.0, 0.7, 1.0), 256)
    with pytest.raises(BadSize):
        qgt_product(P(0.0, 0.5, 0.5), n_sites=None)
    with pytest.raises(BadSize):
        qgt_product(P(0.0, 0.5, 0.5), 7)
    with pytest.raises(BadSize):
        qgt_product(P(0.0, 0.5, 0.5), 64.5)


def _tensor_bits(result):
    # a tensor by the bytes of its matrix, a CriticalPoint by its message
    if isinstance(result, CriticalPoint):
        return "CriticalPoint", str(result)
    return "tensor", result.matrix.tobytes()


def _unblocked_bits(gamma, lam, n):
    # one field's closed-form sums, on the pairing of its own sector alone
    pairing = model._Pairing(_pair_grid(n, _odd_sector(lam)), gamma, lam)
    s = pairing.sin_theta
    d = np.stack((pairing.d_gamma, pairing.d_lam))
    q = np.empty((3, 3), dtype=complex)
    q[0, 0] = s @ s
    q[1:, 1:] = 0.25 * (d @ d.T)
    q[0, 1:] = 0.5j * (d @ s)
    q[1:, 0] = q[0, 1:].conj()
    return "tensor", q.tobytes()


@pytest.mark.parametrize("n", [4, 6, 1024, 4096, 2 * geometry._BLOCK_PAIRS + 6])
def test_kernel_gives_every_field_the_bits_of_qgt_product(n):
    # seeded fields on both sides of the critical field, in more than one
    # block where a block holds few fields (past 2 _BLOCK_PAIRS sites it
    # holds one), plus the gapless lam = 1 and, at gamma = 0, every lam < 1
    rng = np.random.default_rng(n)
    per_sector = min(geometry._BLOCK_PAIRS // (n // 2) + 3, 40)
    lams = [*rng.uniform(0.0, 1.0, per_sector), *rng.uniform(1.0, 2.5, per_sector)]
    lams = [*rng.permutation(lams).tolist(), 1.0, 0.0, 1.0 - 1e-9, 1.0 + 1e-9]
    for gamma in (0.0, float(rng.uniform(0.05, 1.5))):
        batch = geometry._qgt_product_batch(gamma, lams, n)
        assert len(batch) == len(lams)
        for lam, result in zip(lams, batch):
            try:
                expected = qgt_product(P(0.0, gamma, lam), n)
            except CriticalPoint as exc:
                expected = exc
            assert _tensor_bits(result) == _tensor_bits(expected), (gamma, lam)
            if not isinstance(result, CriticalPoint):
                assert _tensor_bits(result) == _unblocked_bits(gamma, lam, n), (gamma, lam)
        gapless = [lam for lam, r in zip(lams, batch) if isinstance(r, CriticalPoint)]
        assert gapless == [lam for lam in lams if gap(gamma, lam) < 1e-12]
        assert 1.0 in gapless and (gamma > 0.0 or 0.0 in gapless)


def test_kernel_evaluates_one_pairing_per_block(monkeypatch):
    # 16384 pairs per block are 8 fields of the even sector at N = 4096:
    # 20 fields above the field take three passes, 3 below it one more; each
    # sector's sin(alpha) and cos(alpha) are evaluated once, for all its blocks
    shapes, trigs = [], []
    pairing = geometry.model._Pairing

    def spy(alpha, gamma, lam, trig):
        shapes.append(np.broadcast_shapes(np.shape(alpha), np.shape(lam)))
        trigs.append(trig)
        assert np.array_equal(trig[0], np.sin(alpha)) and np.array_equal(trig[1], np.cos(alpha))
        return pairing(alpha, gamma, lam, trig)

    monkeypatch.setattr(geometry.model, "_Pairing", spy)
    lams = [0.2, 0.4, 0.6] + np.linspace(1.1, 2.5, 20).tolist()
    results = geometry._qgt_product_batch(0.7, lams, 4096)
    assert geometry._BLOCK_PAIRS // 2048 == 8
    assert shapes == [(3, 2047), (8, 2048), (8, 2048), (4, 2048)]
    assert trigs[1] is trigs[2] is trigs[3] and trigs[0] is not trigs[1]
    assert len(results) == 23


def test_kernel_checks_the_size_and_takes_no_fields():
    assert geometry._qgt_product_batch(0.5, [], 64) == []
    with pytest.raises(BadSize):
        geometry._qgt_product_batch(0.5, [], 7)
    with pytest.raises(BadSize):
        geometry._qgt_product_batch(0.5, [0.5], 2)


def _product_finite_diff(p, n, h=1e-4):
    # every coordinate stepped, phi included: the reference uses no gauge
    def embedded(dphi=0.0, dgamma=0.0, dlam=0.0):
        _, _, u, v = _pair_arrays(p.phi + dphi, p.gamma + dgamma, p.lam + dlam, n)
        return fock_vector(replace(build_ground_state(p, n), u=u, v=v))

    psi = embedded()
    d = np.column_stack([
        (embedded(**{key: h}) - embedded(**{key: -h})) / (2.0 * h)
        for key in ("dphi", "dgamma", "dlam")
    ])
    a = d.conj().T @ psi
    g = d.conj().T @ d - np.outer(a, a.conj())
    return 0.5 * (g + g.conj().T)


@PROPERTY
@given(
    st.floats(0.0, math.pi, exclude_max=True),
    st.floats(0.0, 1.5),
    st.floats(0.0, 2.5),
    st.sampled_from([4, 6, 8, 10]),
)
def test_qgt_product_matches_product_finite_differences(phi, gamma, lam, n):
    assume(gap(gamma, lam) >= 0.05)
    _assert_product_finite_diff(P(phi, gamma, lam), n)


def _assert_product_finite_diff(p, n):
    """The closed-form tensor is the product state's, stepped in every coordinate."""
    q = qgt_product(p, n).matrix
    ref = _product_finite_diff(p, n)
    assert np.max(np.abs(q - ref)) <= 1e-5 * max(1.0, float(np.max(np.abs(q))))


@PROPERTY
@given(
    st.floats(0.0, math.pi, exclude_max=True),
    st.floats(0.0, 1.5),
    st.floats(0.0, 2.5),
    st.sampled_from([4, 6, 8, 10]),
)
def test_qgt_product_is_the_chain_tensor(phi, gamma, lam, n):
    # the product state sits in the odd sector below the field and in the
    # even one above it; wherever that sector holds the chain's ground state
    # (by a margin the ED solve resolves), its closed-form tensor is the
    # spin chain's spectral tensor
    assume(gap(gamma, lam) >= 0.05)
    p = P(phi, gamma, lam)
    sectors = free_fermion_parity_spectrum(p, n)
    splitting = sectors.even_sector_energy - sectors.odd_sector_energy
    assume((splitting if lam < 1.0 else -splitting) > 1e-8)
    q = qgt_product(p, n).matrix
    spectral = qgt_spectral(p, n).matrix
    assert np.max(np.abs(q - spectral)) <= 1e-10 * max(1.0, float(np.max(np.abs(q))))


def test_metric_growth_toward_critical():
    a = qgt_product(P(0.0, 1.0, 0.9), 2048).real_metric[2, 2]
    b = qgt_product(P(0.0, 1.0, 0.99), 2048).real_metric[2, 2]
    assert 0.0 < a < b


def test_metric_symmetric():
    m = qgt_product(P(0.0, 1.0, 0.0), 64).real_metric
    assert np.max(np.abs(m - m.T)) < 1e-10
    assert m[2, 2] > 0.0


def test_spectral_matches_finite_diff():
    # at lam = 1e-5 the stencil steps the field below zero; the gap is even
    # in lam, so the stencil's gap check takes the mirror point and passes
    for p in (P(0.3, 0.8, 0.4), P(0.0, 0.5, 1e-5)):
        dev = np.max(np.abs(qgt_spectral(p, 6).matrix - qgt_finite_diff(p, 6).matrix))
        assert dev < 1e-6, p


def _oracle_draws():
    # gapped points on both sides of lam = 1 at each ring size the oracles take
    rng = np.random.default_rng(15)
    for n in (4, 6, 8, 10):
        for _ in range(3):
            p = P(rng.uniform(0.0, math.pi), rng.uniform(0.1, 1.5), rng.uniform(0.0, 2.5))
            if gap(p.gamma, p.lam) >= 0.05:
                yield p, n


def test_finite_diff_phi_phi_is_exact():
    # the phi column is -i P psi from the gauge, not a difference quotient
    for p, n in _oracle_draws():
        fd = qgt_finite_diff(p, n).matrix[0, 0]
        assert abs(fd - qgt_spectral(p, n).matrix[0, 0]) <= 1e-10, (p, n)


def test_finite_diff_solves_nine_points(monkeypatch):
    # the centre and gamma, lam at +-h and +-h/2; phi needs no solve
    calls = []
    solve = oracle._ed_vector

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(oracle, "_ed_vector", counting)
    p = P(0.3, 0.8, 0.4)
    qgt_finite_diff(p, 6)
    assert len(calls) == 9
    assert {args[0] for args in calls} == {p.phi}


def test_spectral_tensor_is_exactly_hermitian():
    # every term outer(conj(c), c) / gap^2 is Hermitian bit for bit, so the
    # sum needs no Hermitization
    for p, n in _oracle_draws():
        m = qgt_spectral(p, n).matrix
        assert np.array_equal(m, m.conj().T), (p, n)
