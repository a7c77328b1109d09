"""The rotation phi is a diagonal gauge of the spin chain.

H(phi) = U H(0) U^dag with U = diag(exp(-i phi popcount)).  The ED oracle
solves the real phi = 0 blocks and applies U afterwards; these properties
check that against a Hamiltonian assembled independently from Pauli
operators (``tests/pauli.py``) and against complex-arithmetic
diagonalization at phi.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import (
    ModelParams,
    ed_ground,
    free_fermion_parity_spectrum,
    oracle,
    qgt_spectral,
)
from pauli import gauge, pauli_hamiltonian, pauli_parts

PROPERTY = settings(max_examples=30)

sizes = st.sampled_from([4, 6, 8])
phis = st.floats(0.0, math.pi, exclude_max=True)
gammas = st.floats(0.0, 1.5)
lams = st.floats(0.0, 2.5)


@PROPERTY
@given(n=sizes, phi=phis, gamma=gammas, lam=lams)
def test_hamiltonian_is_gauge_rotation(n, phi, gamma, lam):
    # the oracle's real phi = 0 parity blocks, placed side by side, are the
    # whole chain at phi = 0, and phi enters only as the gauge U
    h_zero = pauli_hamiltonian(0.0, gamma, lam, n)
    blocks = np.zeros(h_zero.shape)
    for sector in oracle._spin_operators(n):
        block = oracle._dense_block(sector, sector.data(gamma, lam))
        assert np.isrealobj(block)
        blocks[np.ix_(sector.index, sector.index)] = block
    assert np.max(np.abs(blocks - h_zero)) <= 1e-12
    u = gauge(phi, n)
    h_phi = pauli_hamiltonian(phi, gamma, lam, n)
    assert np.max(np.abs(h_phi - u[:, None] * h_zero * u.conj())) <= 1e-12


@pytest.mark.parametrize("n", [2, 10])
def test_cached_blocks_are_the_pauli_blocks(n):
    # at N = 2 both ordered bonds join the same two sites, so each of their
    # entries counts twice; N = 10 has blocks wide enough for Lanczos, whose
    # product with a vector is checked on the same blocks
    gamma, lam = 0.7, 1.3
    h_zero = pauli_hamiltonian(0.0, gamma, lam, n)
    rng = np.random.default_rng(5)
    for sector in oracle._spin_operators(n):
        data = sector.data(gamma, lam)
        block = h_zero[np.ix_(sector.index, sector.index)]
        assert np.max(np.abs(oracle._dense_block(sector, data) - block)) <= 1e-12
        v = rng.standard_normal(sector.index.size)
        assert np.max(np.abs(oracle._matvec(sector, data, v) - block @ v)) <= 1e-12


@PROPERTY
@given(n=sizes, phi=phis, gamma=gammas, lam=lams)
def test_spectrum_does_not_depend_on_phi(n, phi, gamma, lam):
    rotated = ed_ground(ModelParams(phi, gamma, lam), n)
    plain = ed_ground(ModelParams(0.0, gamma, lam), n)
    closed = free_fermion_parity_spectrum(ModelParams(phi, gamma, lam), n)
    for name in ("even_sector_energy", "odd_sector_energy"):
        assert abs(getattr(rotated, name) - getattr(plain, name)) <= 1e-10
        assert abs(getattr(rotated, name) - getattr(closed, name)) <= 1e-10


@PROPERTY
@given(n=sizes, phi=phis, gamma=gammas, lam=lams)
def test_ground_vector_is_eigenvector_at_phi(n, phi, gamma, lam):
    spectrum = ed_ground(ModelParams(phi, gamma, lam), n)
    v = spectrum.ground_vector
    h = pauli_hamiltonian(phi, gamma, lam, n)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(h @ v - spectrum.ground_energy * v) <= 1e-9
    # the phase is fixed on the component largest at phi = 0, so it cannot flip
    plain = ed_ground(ModelParams(0.0, gamma, lam), n).ground_vector
    top = int(np.argmax(np.abs(plain)))
    u = gauge(phi, n)
    assert v[top].imag == 0.0 and v[top].real > 0.0
    assert np.max(np.abs(v - u * plain / u[top])) <= 1e-12


def _complex_spectral_tensor(params, n):
    """Spectral sum from a complex full-basis solve and Pauli-built derivatives."""
    hop, pair, field, d_pair = pauli_parts(params.phi, n)
    w, vectors = scipy.linalg.eigh(hop + params.gamma * pair + params.lam * field)
    v0 = vectors[:, 0]
    derivs = (params.gamma * d_pair, pair, field)
    amps = np.stack([vectors.conj().T @ (d @ v0) for d in derivs])
    total = sum(
        np.outer(np.conj(amps[:, m]), amps[:, m]) / (w[m] - w[0]) ** 2
        for m in range(1, w.size)
    )
    return 0.5 * (total + total.conj().T)


@PROPERTY
@given(
    n=sizes,
    phi=phis,
    gamma=st.floats(0.3, 1.2),
    lam=st.one_of(st.floats(0.15, 0.8), st.floats(1.25, 2.5)),
)
def test_spectral_tensor_does_not_depend_on_phi(n, phi, gamma, lam):
    energies = scipy.linalg.eigvalsh(pauli_hamiltonian(0.0, gamma, lam, n))
    # a near-degenerate pair lets the full-basis reference solve mix parity sectors
    assume(energies[1] - energies[0] > 1e-3)
    rotated = qgt_spectral(ModelParams(phi, gamma, lam), n).matrix
    plain = qgt_spectral(ModelParams(0.0, gamma, lam), n).matrix
    reference = _complex_spectral_tensor(ModelParams(phi, gamma, lam), n)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.max(np.abs(rotated - plain)) <= 1e-10 * scale
    assert np.max(np.abs(rotated - reference)) <= 1e-8 * scale


def test_subnormal_phi_is_kept():
    # no eigensolver sees phi, so a subnormal angle is stored as given and
    # leaves the sector energies bit for bit as at phi = 0
    p = ModelParams(5e-324, 1.0, 0.5)
    assert p.phi == 5e-324
    rotated, plain = ed_ground(p, 6), ed_ground(ModelParams(0.0, 1.0, 0.5), 6)
    assert rotated.even_sector_energy == plain.even_sector_energy
    assert rotated.odd_sector_energy == plain.odd_sector_energy
