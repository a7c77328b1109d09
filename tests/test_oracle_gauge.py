"""The rotation phi is a diagonal gauge of the spin chain.

H(phi) = U H(0) U^dag with U = diag(exp(-i phi popcount)).  The ED oracle
solves the real phi = 0 blocks and applies U afterwards; these properties
check that against a Hamiltonian assembled independently from Pauli
operators and against complex-arithmetic diagonalization at phi.
"""

import math
from functools import reduce

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import (
    ModelParams,
    build_spin_hamiltonian,
    ed_ground,
    free_fermion_parity_spectrum,
    qgt_spectral,
)

PROPERTY = settings(max_examples=30)

sizes = st.sampled_from([4, 6, 8])
phis = st.floats(0.0, math.pi, exclude_max=True)
gammas = st.floats(0.0, 1.5)
lams = st.floats(0.0, 2.5)

# Basis (up, down) per site; a down spin is a set bit and site 0 is the
# most significant bit, so Kronecker products run over sites in order.
RAISE = np.array([[0.0, 1.0], [0.0, 0.0]])
LOWER = RAISE.T
SZ = np.diag([1.0, -1.0])


def _site(op, j, n):
    return reduce(np.kron, [op if k == j else np.eye(2) for k in range(n)])


def _pauli_parts(phi, n):
    """Hopping, pair, field and d(pair)/dphi sums; H = hop + gamma pair + lam field."""
    dim = 1 << n
    hop, pair, field, d_pair = (np.zeros((dim, dim), dtype=complex) for _ in range(4))
    for j in range(n):
        j2 = (j + 1) % n
        bond_hop = _site(RAISE, j, n) @ _site(LOWER, j2, n)
        bond_pair = _site(RAISE, j, n) @ _site(RAISE, j2, n)
        hop += -0.5 * (bond_hop + bond_hop.T)
        pair += -0.5 * (np.exp(2j * phi) * bond_pair + np.exp(-2j * phi) * bond_pair.T)
        d_pair += -1j * (np.exp(2j * phi) * bond_pair - np.exp(-2j * phi) * bond_pair.T)
        field += -0.5 * _site(SZ, j, n)
    return hop, pair, field, d_pair


def _pauli_hamiltonian(phi, gamma, lam, n):
    hop, pair, field, _ = _pauli_parts(phi, n)
    return hop + gamma * pair + lam * field


def _gauge(phi, n):
    pop = np.array([bin(b).count("1") for b in range(1 << n)])
    return np.exp(-1j * phi * pop)


@PROPERTY
@given(n=sizes, phi=phis, gamma=gammas, lam=lams)
def test_hamiltonian_is_gauge_rotation(n, phi, gamma, lam):
    h_phi = build_spin_hamiltonian(ModelParams(phi, gamma, lam), n)
    h_zero = build_spin_hamiltonian(ModelParams(0.0, gamma, lam), n)
    u = _gauge(phi, n)
    assert np.isrealobj(h_zero)
    assert np.max(np.abs(h_phi - _pauli_hamiltonian(phi, gamma, lam, n))) <= 1e-12
    assert np.max(np.abs(h_phi - u[:, None] * h_zero * u.conj())) <= 1e-12


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
    h = _pauli_hamiltonian(phi, gamma, lam, n)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(h @ v - spectrum.ground_energy * v) <= 1e-9
    # the phase is fixed on the component largest at phi = 0, so it cannot flip
    plain = ed_ground(ModelParams(0.0, gamma, lam), n).ground_vector
    top = int(np.argmax(np.abs(plain)))
    u = _gauge(phi, n)
    assert v[top].imag == 0.0 and v[top].real > 0.0
    assert np.max(np.abs(v - u * plain / u[top])) <= 1e-12


def _complex_spectral_tensor(params, n):
    """Spectral sum from a complex full-basis solve and Pauli-built derivatives."""
    hop, pair, field, d_pair = _pauli_parts(params.phi, n)
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
    energies = scipy.linalg.eigvalsh(build_spin_hamiltonian(ModelParams(0.0, gamma, lam), n))
    # a near-degenerate pair lets the full-basis reference solve mix parity sectors
    assume(energies[1] - energies[0] > 1e-3)
    rotated = qgt_spectral(ModelParams(phi, gamma, lam), n).matrix
    plain = qgt_spectral(ModelParams(0.0, gamma, lam), n).matrix
    reference = _complex_spectral_tensor(ModelParams(phi, gamma, lam), n)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.max(np.abs(rotated - plain)) <= 1e-10 * scale
    assert np.max(np.abs(rotated - reference)) <= 1e-8 * scale


def test_subnormal_phi_is_flushed():
    # subnormal phases in a dense Hamiltonian slow LAPACK eigensolvers ~60-fold
    p = ModelParams(5e-324, 1.0, 0.5)
    assert p.phi == 0.0
    h = build_spin_hamiltonian(p, 6)
    assert np.array_equal(h, build_spin_hamiltonian(ModelParams(0.0, 1.0, 0.5), 6))
    assert np.isrealobj(h)
