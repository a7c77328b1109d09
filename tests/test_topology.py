import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from artifact import (
    ArtifactError,
    BadSize,
    CriticalPoint,
    NoJumpFound,
    PhaseLabel,
    VortexOnPlaquette,
    chern_discrete,
    chern_number,
    classify_phase,
    detect_transition,
)
from artifact import model, topology
from artifact.ground_state import _pair_block
from artifact.topology import _chern_discrete_batch, _total_flux


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
        with pytest.raises(BadSize, match=r"\[256, 9007199254740992\]"):
            chern_discrete(0.5, (32, 32), n)
    for grid in [256, None, (16,), (16, 16, 16), "16x16", (16.0, 16)]:
        with pytest.raises(ValueError, match="grid must be a pair of integers"):
            chern_discrete(0.5, grid, 512)
    # a side past 2**53 would overflow pi / n_phi; the check names the bound
    for grid in [(10**400, 32), (32, 10**400), (2**53 + 1, 32)]:
        with pytest.raises(ValueError, match=r"\[16, 2\*\*53\]"):
            chern_discrete(0.5, grid, 512)
    assert chern_discrete(0.5, (2**53, 32), 512).nearest_integer == -1


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
    assert len(shapes) == 1 and shapes[0][-2:] == (2, 32)


def test_kernel_evaluates_one_pair_block_per_block(monkeypatch):
    # 4096 strip nodes per block are 64 fields at n_beta = 32: 150 fields
    # take three numpy passes, each over 2 n_beta nodes per field
    shapes = []

    def spy(theta, phi):
        u, v = _pair_block(theta, phi)
        shapes.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
        return u, v

    monkeypatch.setattr(topology, "_pair_block", spy)
    results = _chern_discrete_batch(np.linspace(0.0, 3.0, 150), (16, 32), 512)
    assert topology._BLOCK_NODES // (2 * 32) == 64
    assert shapes == [(64, 2, 32), (64, 2, 32), (22, 2, 32)]
    assert len(results) == 150


def _bits(result):
    return (
        result.value.hex(),
        result.worst_cell_phase.hex(),
        result.min_link.hex(),
        result.node_count,
    )


@st.composite
def _kernel_axes(draw):
    n_beta = draw(st.integers(64, 256))
    size = topology._BLOCK_NODES // (2 * n_beta)
    lams = draw(st.lists(st.floats(0.0, 3.0), min_size=2 * size + 1, max_size=3 * size + 2))
    for exact in (0.0, 1.0):
        lams.insert(draw(st.integers(0, len(lams))), exact)
    grid = (draw(st.integers(16, 96)), n_beta)
    return lams, grid, 2 * draw(st.integers(128, 2**52))


@settings(max_examples=20)
@given(_kernel_axes())
def test_kernel_equals_single_field_calls(axes):
    # the blocked kernel spans at least three blocks and must give every
    # field the bits of chern_discrete at that field alone, lambda = 0 and
    # the critical field 1.0 included
    lams, grid, n = axes
    batch = _chern_discrete_batch(lams, grid, n)
    assert len(batch) == len(lams)
    for lam, result in zip(lams, batch):
        assert _bits(result) == _bits(chern_discrete(lam, grid, n)), lam


def test_kernel_fails_only_the_vortex_field(monkeypatch):
    # zeroed amplitudes at one field in the middle of a block collapse its
    # links; that field alone fails, with the single-field message
    lams = np.linspace(0.1, 2.0, 40).tolist()
    grid, n = (32, 128), 1024
    bad = lams[21]  # fields 16..31 form the second block at n_beta = 128
    bad_theta = _grid_thetas(bad, grid[1], n)
    clean = _chern_discrete_batch(lams, grid, n)

    def spy(theta, phi):
        u, v = _pair_block(theta, phi)
        hit = np.all(theta == bad_theta, axis=-1, keepdims=True)
        return np.where(hit, 0.0, u), np.where(hit, 0.0, v)

    monkeypatch.setattr(topology, "_pair_block", spy)
    with pytest.raises(VortexOnPlaquette) as single:
        chern_discrete(bad, grid, n)
    batch = _chern_discrete_batch(lams, grid, n)
    failed = [i for i, result in enumerate(batch) if isinstance(result, ArtifactError)]
    assert failed == [21]
    assert type(batch[21]) is VortexOnPlaquette
    assert str(batch[21]) == str(single.value) == "link modulus 0.000e+00; refine the grid"
    assert [_bits(r) for i, r in enumerate(batch) if i != 21] == [
        _bits(r) for i, r in enumerate(clean) if i != 21
    ]


def test_no_valid_grid_reaches_the_critical_guard():
    # the alpha = 0 level is gapless at lam = 1, but the snapped momenta stay
    # at least pi / (2 n_beta) from it, far above the 1e-9 guard
    result = chern_discrete(1.0, (16, 4096), 2**52)
    assert result.nearest_integer == 0
    assert result.residual < 1e-9


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


@pytest.mark.parametrize("fn", [chern_number, classify_phase])
def test_winding_routes_check_their_field_once(fn, monkeypatch):
    # one check per call, good field or bad; a bad one raises the same typed
    # error with the same message as before
    names = []
    check = model._check_coupling

    def counted(name, value):
        names.append(name)
        return check(name, value)

    monkeypatch.setattr(model, "_check_coupling", counted)
    fn(0.5)
    assert names == ["lam"]
    bad = [
        (-0.1, "lam must be >= 0, got -0.1"),
        (1e151, "lam must be <= 1e150, got 1e+151"),
        (math.nan, "lam must be finite, got nan"),
        ("0.5", "lam must be a finite real number, got '0.5'"),
        (None, "lam must be a finite real number, got None"),
    ]
    for value, message in bad:
        names.clear()
        with pytest.raises(ValueError) as raised:
            fn(value)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message
        assert names == ["lam"]


def test_winding_has_the_same_bits_in_any_batch():
    # a field's winding is the same float in a batch of 201 and alone, and
    # chern_number and classify_phase are that batch at one field
    lams = np.linspace(0.0, 2.0, 201).tolist()
    batch = topology._phase_batch(lams)
    assert len(batch) == 201
    for lam, point in zip(lams, batch):
        (alone,) = topology._phase_batch([lam])
        assert alone == point == classify_phase(lam)
        if point.chern is None:
            assert abs(lam - 1.0) <= 1e-3
            continue
        assert float.hex(alone.chern.value) == float.hex(point.chern.value)
        assert float.hex(chern_number(lam).value) == float.hex(point.chern.value)
    assert [p.label for p in batch].count(PhaseLabel.BOUNDARY) == 1


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
    # below the spacing of doubles the bracket stops at one ulp
    lo, hi = detect_transition(0.5, 1.5, 1e-300)
    assert hi == math.nextafter(lo, math.inf)
    assert lo < 1.0 <= hi


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
    # each endpoint is a coupling, judged before the two are compared
    for bad in ("0.5", None, math.nan, math.inf, 10**400, -0.5, 1e151):
        for lo, hi, name in [(bad, 1.5, "lambda_lo"), (0.5, bad, "lambda_hi")]:
            with pytest.raises(ValueError, match=name):
                detect_transition(lo, hi, 1e-3)
