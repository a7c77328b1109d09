import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import (
    CriticalPoint,
    GridMismatch,
    GroundState,
    ModelParams,
    build_ground_state,
    dispersion,
    ed_ground,
    embed_ground_state,
    gap,
    ground_energy,
    isotropic_ground_state,
    mode_amplitudes,
    overlap,
    quadratic_ring_hamiltonian,
)

P = ModelParams


def test_mode_amplitudes_examples():
    flat = mode_amplitudes(math.pi / 2, P(0.0, 0.0, 2.0))
    assert flat.u == pytest.approx(1.0, abs=1e-15)
    assert flat.v == pytest.approx(0.0, abs=1e-15)
    part = mode_amplitudes(math.pi / 2, P(0.0, 1.0, 0.0))
    assert part.u == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert part.v == pytest.approx(1j * math.sin(math.pi / 4), abs=1e-15)


def test_mode_amplitudes_norm():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        phi = rng.uniform(0.0, np.pi)
        g = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.0, 3.0)
        alpha = rng.uniform(0.05, np.pi - 0.05)
        if dispersion(alpha, g, lam) < 1e-6:
            continue
        amp = mode_amplitudes(alpha, P(phi, g, lam))
        assert abs(amp.u) ** 2 + abs(amp.v) ** 2 == pytest.approx(1.0, abs=1e-12)
        checked += 1


def test_build_all_particle():
    # every pair carries (cos(theta/2), i e^{-2i phi} sin(theta/2)), also
    # below the field where theta passes pi/2 inside the Fermi edge
    for lam, zero_occupied in ((0.0, True), (2.0, False)):
        p = P(0.4, 1.0, lam, 8)
        s = build_ground_state(p)
        phase = 1j * np.exp(-2j * p.phi)
        assert np.allclose(s.u, np.cos(s.thetas / 2), atol=1e-15)
        assert np.allclose(s.v, phase * np.sin(s.thetas / 2), atol=1e-15)
        assert s.zero_mode_occupied == zero_occupied


def test_build_critical_point():
    with pytest.raises(CriticalPoint):
        build_ground_state(P(0.0, 0.7, 1.0, 8))


def test_normalization():
    rng = np.random.default_rng(17)
    built = 0
    while built < 20:
        phi = rng.uniform(0.0, np.pi)
        g = rng.uniform(0.1, 1.8)
        lam = rng.uniform(0.0, 2.5)
        if abs(lam - 1.0) < 0.05:
            continue
        s = build_ground_state(P(phi, g, lam, 32))
        norms = np.abs(s.u) ** 2 + np.abs(s.v) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.prod(norms) == pytest.approx(1.0, abs=1e-10)
        built += 1


def test_isotropic_occupation():
    grid_k = np.arange(-49, 51)
    s = isotropic_ground_state(0.0, 100)
    assert grid_k[s.occupation_mask].tolist() == list(range(-25, 26))
    empty = isotropic_ground_state(2.0, 100)
    assert not empty.occupation_mask.any()
    edge = isotropic_ground_state(1.0, 100)
    assert grid_k[edge.occupation_mask].tolist() == [0]


def test_ground_energy_flat_band():
    assert ground_energy(P(0.0, 1.0, 0.0, 8)) == pytest.approx(-4.0, abs=1e-14)
    assert ground_energy(P(0.0, 1.0, 0.0, 4096)) / 4096 == pytest.approx(-0.5, abs=1e-14)


def test_ground_energy_matches_ed():
    p = P(0.0, 0.5, 0.5, 8)
    assert ground_energy(p) == pytest.approx(ed_ground(p).ground_energy, abs=1e-9)
    ring = np.linalg.eigvalsh(quadratic_ring_hamiltonian(p))[0]
    assert ground_energy(p) == pytest.approx(ring, abs=1e-9)


def test_overlap_self():
    s = build_ground_state(P(0.3, 0.8, 0.4, 16))
    assert overlap(s, s) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_overlap_phase_rotation_single_pair():
    # N = 4 has one paired mode; at gamma = 1, lam = 0 its pairing angle is
    # pi/2, so a quarter turn of phi rotates the state into an orthogonal one
    a = build_ground_state(P(0.0, 1.0, 0.0, 4))
    b = build_ground_state(P(np.pi / 2, 1.0, 0.0, 4))
    assert overlap(a, b) == pytest.approx(0.0 + 0.0j, abs=1e-12)


def test_overlap_cross_sector():
    a = build_ground_state(P(0.0, 1.0, 0.0, 8))
    b = build_ground_state(P(0.0, 1.0, 0.1, 8))
    fock = np.vdot(embed_ground_state(a), embed_ground_state(b))
    # frozen from the Fock-space evaluation of the two product states
    assert abs(fock) == pytest.approx(0.9974960775806171, abs=1e-12)
    assert overlap(a, b) == pytest.approx(fock, abs=1e-12)
    # across the transition the alpha = 0 level empties: the fermion
    # parities differ and the states are orthogonal
    c = build_ground_state(P(0.0, 1.0, 1.5, 8))
    assert overlap(a, c) == 0j
    assert np.vdot(embed_ground_state(a), embed_ground_state(c)) == 0j


def test_overlap_grid_mismatch():
    a = build_ground_state(P(0.0, 0.8, 1.5, 8))
    b = build_ground_state(P(0.0, 0.8, 1.5, 16))
    with pytest.raises(GridMismatch):
        overlap(a, b)


def test_phase_periodicity():
    p = P(0.4, 0.8, 0.5, 12)
    q = P((0.4 + np.pi) % np.pi, 0.8, 0.5, 12)
    assert abs(overlap(build_ground_state(p), build_ground_state(q))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_ring_eigenstate_without_holes():
    p = P(0.3, 0.5, 2.0, 8)
    v = embed_ground_state(build_ground_state(p))
    h = quadratic_ring_hamiltonian(p)
    energy = np.vdot(v, h @ v).real
    assert energy == pytest.approx(ground_energy(p), abs=1e-8)
    assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-8)


def test_ring_eigenstate_inside_fermi_edge():
    # at (gamma=1, lam=0, N=8) the pairs k = 1, 2 sit inside the Fermi edge
    p = P(0.0, 1.0, 0.0, 8)
    v = embed_ground_state(build_ground_state(p))
    h = quadratic_ring_hamiltonian(p)
    assert np.vdot(v, h @ v).real == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-8)


PROPERTY = settings(max_examples=30)
# Subnormal couplings slow LAPACK's eigvalsh on the ring Hamiltonian about
# 60-fold (23 s at N = 10), so they are left out.
couplings = st.tuples(
    st.floats(0.0, math.pi, exclude_max=True, allow_subnormal=False),
    st.floats(0.0, 1.5, allow_subnormal=False),
    st.floats(0.0, 2.5, allow_subnormal=False),
)


@PROPERTY
@given(st.sampled_from([4, 6, 8, 10]), couplings, couplings)
def test_product_state_is_fock_ground_state(n, a, b):
    assume(gap(a[1], a[2]) > 1e-6 and gap(b[1], b[2]) > 1e-6)
    pa, pb = P(*a, n), P(*b, n)
    sa, sb = build_ground_state(pa), build_ground_state(pb)
    va, vb = embed_ground_state(sa), embed_ground_state(sb)
    h = quadratic_ring_hamiltonian(pa)
    assert np.vdot(va, h @ va).real == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-8)
    assert overlap(sa, sb) == pytest.approx(np.vdot(va, vb), abs=1e-12)


def test_json_roundtrip():
    s = build_ground_state(P(0.7, 0.9, 1.6, 12))
    t = GroundState.from_json(s.to_json())
    assert np.allclose(t.u, s.u, atol=1e-15)
    assert np.allclose(t.v, s.v, atol=1e-15)
    assert t.params == s.params
