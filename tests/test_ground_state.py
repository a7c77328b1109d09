import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import (
    BadSize,
    CriticalPoint,
    ModelParams,
    bogoliubov_angle,
    build_ground_state,
    dispersion,
    ed_ground,
    free_fermion_parity_spectrum,
    gap,
    isotropic_ground_state,
    overlap,
)
from artifact.ground_state import _pair_block
from pauli import fock_vector, pauli_hamiltonian

P = ModelParams


def _sector_energy(p, n):
    """Closed-form energy of the product state's sector: odd below the field."""
    sectors = free_fermion_parity_spectrum(p, n)
    return sectors.odd_sector_energy if p.lam < 1.0 else sectors.even_sector_energy


def _assert_chain_eigenstate(p, n, v):
    """<v|H|v> is the sector energy E and ||Hv - Ev|| <= 1e-9 on the spin chain."""
    h = pauli_hamiltonian(p.phi, p.gamma, p.lam, n)
    energy = _sector_energy(p, n)
    assert np.vdot(v, h @ v).real == pytest.approx(energy, abs=1e-10)
    assert np.linalg.norm(h @ v - energy * v) <= 1e-9
    return energy


def test_mode_amplitudes_examples():
    u, v = _pair_block(bogoliubov_angle(math.pi / 2, 0.0, 2.0), 0.0)
    assert u == pytest.approx(1.0, abs=1e-15)
    assert v == pytest.approx(0.0, abs=1e-15)
    u, v = _pair_block(bogoliubov_angle(math.pi / 2, 1.0, 0.0), 0.0)
    assert u == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert v == pytest.approx(1j * math.sin(math.pi / 4), abs=1e-15)


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
        u, v = _pair_block(bogoliubov_angle(alpha, g, lam), phi)
        assert abs(u) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)
        checked += 1


def test_build_all_particle():
    # every pair carries (cos(theta/2), i e^{-2i phi} sin(theta/2)), also
    # below the field where theta passes pi/2 inside the Fermi edge
    for lam, zero_occupied in ((0.0, True), (2.0, False)):
        p = P(0.4, 1.0, lam)
        s = build_ground_state(p, 8)
        phase = 1j * np.exp(-2j * p.phi)
        assert np.allclose(s.u, np.cos(s.thetas / 2), atol=1e-15)
        assert np.allclose(s.v, phase * np.sin(s.thetas / 2), atol=1e-15)
        assert s.zero_mode_occupied == zero_occupied


def test_build_critical_point():
    with pytest.raises(CriticalPoint):
        build_ground_state(P(0.0, 0.7, 1.0), 8)


def test_normalization():
    rng = np.random.default_rng(17)
    built = 0
    while built < 20:
        phi = rng.uniform(0.0, np.pi)
        g = rng.uniform(0.1, 1.8)
        lam = rng.uniform(0.0, 2.5)
        if abs(lam - 1.0) < 0.05:
            continue
        s = build_ground_state(P(phi, g, lam), 32)
        norms = np.abs(s.u) ** 2 + np.abs(s.v) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.prod(norms) == pytest.approx(1.0, abs=1e-10)
        built += 1


def test_isotropic_occupation():
    grid_k = np.arange(-49, 51)
    s = isotropic_ground_state(0.0, 100)
    assert grid_k[s.occupation_mask].tolist() == list(range(-25, 26))
    assert isotropic_ground_state(0.3, 12).occupation_mask.dtype == bool
    empty = isotropic_ground_state(2.0, 100)
    assert not empty.occupation_mask.any()
    edge = isotropic_ground_state(1.0, 100)
    assert grid_k[edge.occupation_mask].tolist() == [0]


def test_isotropic_snap_fills_the_exact_shell():
    # N acos(lam) / 2 pi = 0.9999999999999997 here: the 1e-9 snap counts
    # the shell k = +-1, which lies exactly on the Fermi edge, as occupied
    grid_k = np.arange(-5, 7)
    s = isotropic_ground_state(math.cos(2 * math.pi / 12), 12)
    assert grid_k[s.occupation_mask].tolist() == [-1, 0, 1]


def test_isotropic_shell_shrinks_with_field():
    counts = [
        int(isotropic_ground_state(float(lam), 64).occupation_mask.sum())
        for lam in np.linspace(0.0, 2.5, 40)
    ]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert (counts[0], counts[-1]) == (33, 0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
def test_isotropic_rejects_a_bad_field(lam):
    with pytest.raises(ValueError, match="must be finite|must be >= 0"):
        isotropic_ground_state(lam, 64)


def test_ground_energy_flat_band():
    p = P(0.0, 1.0, 0.0)
    energy = _assert_chain_eigenstate(p, 8, fock_vector(build_ground_state(p, 8)))
    assert energy == pytest.approx(-4.0, abs=1e-14)
    # the closed-form sums hold on any even ring
    for n in (4096, 8192, 65536):
        assert _sector_energy(P(0.0, 1.0, 0.0), n) / n == pytest.approx(-0.5, abs=1e-14)


def test_ground_energy_matches_ed():
    p = P(0.0, 0.5, 0.5)
    energy = _assert_chain_eigenstate(p, 8, fock_vector(build_ground_state(p, 8)))
    assert energy == pytest.approx(ed_ground(p, 8).odd_sector_energy, abs=1e-10)


def test_overlap_self():
    s = build_ground_state(P(0.3, 0.8, 0.4), 16)
    assert overlap(s, s) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_overlap_phase_rotation_single_pair():
    # N = 4 has one paired mode; at gamma = 1, lam = 0 its pairing angle is
    # pi/2, so a quarter turn of phi rotates the state into an orthogonal one
    a = build_ground_state(P(0.0, 1.0, 0.0), 4)
    b = build_ground_state(P(np.pi / 2, 1.0, 0.0), 4)
    assert overlap(a, b) == pytest.approx(0.0 + 0.0j, abs=1e-12)


def test_overlap_cross_sector():
    a = build_ground_state(P(0.0, 1.0, 0.0), 8)
    b = build_ground_state(P(0.0, 1.0, 0.1), 8)
    fock = np.vdot(fock_vector(a), fock_vector(b))
    # frozen from the Fock-space evaluation of the two product states
    assert abs(fock) == pytest.approx(0.9974960775806171, abs=1e-12)
    assert overlap(a, b) == pytest.approx(fock, abs=1e-12)
    # across the transition the alpha = 0 level empties: the fermion
    # parities differ and the states are orthogonal
    c = build_ground_state(P(0.0, 1.0, 1.5), 8)
    assert overlap(a, c) == 0j
    assert np.vdot(fock_vector(a), fock_vector(c)) == 0j


def test_overlap_grid_mismatch():
    a = build_ground_state(P(0.0, 0.8, 1.5), 8)
    b = build_ground_state(P(0.0, 0.8, 1.5), 16)
    with pytest.raises(BadSize, match="n_sites 8 != 16"):
        overlap(a, b)


def test_phase_periodicity():
    p = P(0.4, 0.8, 0.5)
    q = P((0.4 + np.pi) % np.pi, 0.8, 0.5)
    assert abs(overlap(build_ground_state(p, 12), build_ground_state(q, 12))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_ring_eigenstate_without_holes():
    # above the field the state is in the even sector, on antiperiodic momenta
    p = P(0.3, 0.5, 2.0)
    state = build_ground_state(p, 8)
    assert not state.zero_mode_occupied
    assert np.allclose(state.alphas, np.pi * np.array([1, 3, 5, 7]) / 8, atol=1e-15)
    energy = _assert_chain_eigenstate(p, 8, fock_vector(state))
    assert energy == pytest.approx(ed_ground(p, 8).ground_energy, abs=1e-10)


def test_ring_eigenstate_inside_fermi_edge():
    # at (gamma=1, lam=0, N=8) the pairs k = 1, 2 sit inside the Fermi edge
    p = P(0.0, 1.0, 0.0)
    energy = _assert_chain_eigenstate(p, 8, fock_vector(build_ground_state(p, 8)))
    assert energy == pytest.approx(ed_ground(p, 8).ground_energy, abs=1e-10)


PROPERTY = settings(max_examples=30)
couplings = st.tuples(
    st.floats(0.0, math.pi, exclude_max=True),
    st.floats(0.0, 1.5),
    st.floats(0.0, 2.5),
)


@PROPERTY
@given(st.sampled_from([4, 6, 8, 10]), couplings, couplings)
def test_product_state_is_fock_ground_state(n, a, b):
    # an exact chain eigenstate on both sides of the field; it is the chain's
    # ground state wherever its sector's closed-form energy is the lower one
    assume(gap(a[1], a[2]) > 1e-6 and gap(b[1], b[2]) > 1e-6)
    pa, pb = P(*a), P(*b)
    sa, sb = build_ground_state(pa, n), build_ground_state(pb, n)
    va, vb = fock_vector(sa), fock_vector(sb)
    _assert_chain_eigenstate(pa, n, va)
    assert overlap(sa, sb) == pytest.approx(np.vdot(va, vb), abs=1e-12)


even_sizes = st.integers(2, 2048).map(lambda half: 2 * half)


@PROPERTY
@given(even_sizes, couplings, couplings)
def test_overlap_is_bounded(n, a, b):
    # product states on both sides of the field; across it they are in
    # different parity sectors and the overlap is exactly zero
    assume(gap(a[1], a[2]) > 1e-6 and gap(b[1], b[2]) > 1e-6)
    sa, sb = build_ground_state(P(*a), n), build_ground_state(P(*b), n)
    value = overlap(sa, sb)
    assert abs(value) <= 1.0 + 1e-12
    if (a[2] < 1.0) != (b[2] < 1.0):
        assert value == 0j


@PROPERTY
@given(even_sizes, st.floats(1.05, 3.0), st.floats(0.0, math.pi, exclude_max=True))
def test_isotropic_state_shares_the_even_grid(n, lam, phi):
    # at gamma = 0 above the field every level is empty, on the same
    # antiperiodic momenta that build_ground_state pairs
    iso = isotropic_ground_state(lam, n)
    built = build_ground_state(P(phi, 0.0, lam), n)
    assert np.array_equal(iso.alphas, built.alphas)
    assert overlap(iso, built) == 1.0
