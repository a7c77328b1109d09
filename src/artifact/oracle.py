"""Dense small-ring engines used as ground truth.

Exact diagonalization of the rotated chain, parity-resolved free-fermion
spectra, Fock-space embedding of the product ground states, discrete Wilson
loops, and the per-excited-state decomposition of the geometric tensor.

The chain conserves the fermion (down-spin) parity, so exact
diagonalization only ever solves the two 2^(N-1) parity blocks, in real
arithmetic.  The rotation phi enters the chain only as the diagonal gauge
H(phi) = U H(0) U^dag with U = diag(exp(-i phi popcount)), so the real
phi = 0 blocks are solved, the energies carry no phi dependence, and U is
applied to the eigenvectors afterwards.

Basis convention: basis index b has site j stored in bit N-1-j, a set bit
is a down spin, which is identified with an occupied fermion level.  The
all-up state is index 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import model
from .errors import (
    BadSize,
    DegenerateGroundState,
    SizeLimit,
    ZeroOverlap,
)
from .ground_state import GroundState, build_ground_state, overlap
from .model import ModelParams

__all__ = [
    "SpinSpectrum",
    "ParitySectorResult",
    "SpectralTerm",
    "build_spin_hamiltonian",
    "ed_ground",
    "free_fermion_parity_spectrum",
    "embed_ground_state",
    "quadratic_ring_hamiltonian",
    "wilson_loop_berry_phase",
    "qgt_matrix_elements",
]

_ED_MAX = 12
_QGT_MAX = 10
_FREE_MAX = 4096


def _resolve_ed_size(params: ModelParams, n_sites: int | None, limit: int) -> int:
    n = n_sites if n_sites is not None else params.n_sites
    if n is None:
        raise SizeLimit("a ring size is required")
    model._check_integer(n)
    if not 2 <= n <= limit:
        raise SizeLimit(f"n_sites must be in [2, {limit}], got {n}")
    return n


def _popcounts(b: np.ndarray, n_sites: int) -> np.ndarray:
    pop = np.zeros(b.shape, dtype=np.int64)
    for j in range(n_sites):
        pop += (b >> j) & 1
    return pop


class _Sector(NamedTuple):
    """One parity block at phi = 0: its basis states and sparse bond sums."""

    index: np.ndarray
    pop: np.ndarray
    hop: sp.csr_matrix
    pair: sp.csr_matrix


class _Operators(NamedTuple):
    hop: sp.csr_matrix
    pair: sp.csr_matrix
    edge_hop: sp.csr_matrix
    edge_pair: sp.csr_matrix
    pop: np.ndarray
    sectors: tuple[_Sector, _Sector]


@lru_cache(maxsize=None)
def _spin_operators(n_sites: int) -> _Operators:
    """Sparse bond sums (hopping, pair creation plus annihilation) and popcounts.

    The boundary bond N-1 -> 0 is also kept on its own (hopping and pair
    terms).  The pieces are sliced once into the even and odd parity
    blocks, kept sparse.
    """
    n = n_sites
    dim = 1 << n
    b = np.arange(dim, dtype=np.int64)
    pop = _popcounts(b, n)
    hop_r, hop_c = [], []
    pair_r, pair_c = [], []
    for j in range(n):
        j2 = (j + 1) % n
        mj = 1 << (n - 1 - j)
        mj2 = 1 << (n - 1 - j2)
        mask = mj | mj2
        down_j = (b & mj) != 0
        down_j2 = (b & mj2) != 0
        sel = down_j & ~down_j2
        hop_c.append(b[sel])
        hop_r.append(b[sel] ^ mask)
        sel = ~down_j & down_j2
        hop_c.append(b[sel])
        hop_r.append(b[sel] ^ mask)
        sel = down_j == down_j2
        pair_c.append(b[sel])
        pair_r.append(b[sel] ^ mask)

    def assemble(rows, cols):
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        m = sp.coo_matrix((np.ones(r.size), (r, c)), shape=(dim, dim))
        return m.tocsr()

    hop, pair = assemble(hop_r, hop_c), assemble(pair_r, pair_c)
    # the last bond of the loop is the boundary bond
    edge_hop = assemble(hop_r[-2:], hop_c[-2:])
    edge_pair = assemble(pair_r[-1:], pair_c[-1:])
    sectors = []
    for parity in (0, 1):
        index = np.where(pop % 2 == parity)[0]
        sectors.append(
            _Sector(index, pop[index], hop[index][:, index], pair[index][:, index])
        )
    return _Operators(hop, pair, edge_hop, edge_pair, pop, tuple(sectors))


def _hamiltonian_sparse(gamma: float, lam: float, n_sites: int) -> sp.csr_matrix:
    """Real phi = 0 Hamiltonian in the full basis."""
    ops = _spin_operators(n_sites)
    zdiag = n_sites - 2.0 * ops.pop
    h = -0.5 * (ops.hop + gamma * ops.pair) + sp.diags(-0.5 * lam * zdiag)
    return h.tocsr()


def _gauge(h: np.ndarray, phi: float, pop: np.ndarray) -> np.ndarray:
    """U h U^dag with U = diag(exp(-i phi popcount)); ``h`` itself at phi = 0."""
    if phi == 0.0:
        return h
    u = np.exp(-1j * phi * pop)
    return u[:, None] * h * u.conj()


def _sector_blocks(gamma: float, lam: float, n_sites: int):
    """Dense real phi = 0 blocks, paired with their sectors (even first)."""
    blocks = []
    for sector in _spin_operators(n_sites).sectors:
        h = (-0.5 * (sector.hop + gamma * sector.pair)).toarray()
        np.fill_diagonal(h, -0.5 * lam * (n_sites - 2.0 * sector.pop))
        blocks.append((sector, h))
    return blocks


def _rotated_vector(
    sector: _Sector, v: np.ndarray, phi: float, n_sites: int
) -> np.ndarray:
    """Embed a real phi = 0 sector eigenvector and rotate it to phi by U.

    The phase is fixed so that the component largest in the real vector is
    real positive; that choice cannot flip with phi.
    """
    i = int(np.argmax(np.abs(v)))
    v = v * (math.copysign(1.0, v[i]) / np.linalg.norm(v))
    vec = np.zeros(1 << n_sites, dtype=complex)
    vec[sector.index] = v * np.exp(-1j * phi * (sector.pop - sector.pop[i]))
    return vec


@dataclass(frozen=True)
class SpinSpectrum:
    """Exact ground state of the chain, resolved by fermion parity.

    Attributes
    ----------
    n_sites : int
    even_sector_energy, odd_sector_energy : float
        Lowest level of the even and of the odd parity block.
    ground_vector : ndarray of complex
        Unit-norm 2^N ground vector of the lower sector, gauge fixed so its
        largest-magnitude component is real positive.
    """

    n_sites: int
    even_sector_energy: float
    odd_sector_energy: float
    ground_vector: np.ndarray

    @property
    def ground_energy(self) -> float:
        return min(self.even_sector_energy, self.odd_sector_energy)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sites": int(self.n_sites),
                "even_sector_energy": self.even_sector_energy,
                "odd_sector_energy": self.odd_sector_energy,
                "ground_vector": [
                    [float(z.real), float(z.imag)] for z in self.ground_vector
                ],
            }
        )


@dataclass(frozen=True)
class ParitySectorResult:
    """Exact ring ground energies resolved by fermion-number parity.

    The even sector fills pairs on the antiperiodic (half-integer) momenta;
    the odd sector uses periodic (integer) momenta and must place one
    unpaired excitation, chosen as the cheapest of: occupy alpha = 0,
    occupy alpha = pi, break the cheapest pair, or occupy both unpaired
    levels and break a pair.
    """

    even_sector_energy: float
    odd_sector_energy: float
    momenta_even: np.ndarray
    momenta_odd: np.ndarray
    ground_energy: float


def build_spin_hamiltonian(
    params: ModelParams, n_sites: int | None = None
) -> np.ndarray:
    """Dense 2^N Hamiltonian of the rotated chain on a periodic ring.

    Bonds run j -> j+1 with site N identified with site 0; at N = 2 the
    two ordered bonds join the same pair of sites, so that bond is counted
    twice.  Real symmetric output when phi = 0, complex Hermitian
    otherwise.

    Raises
    ------
    SizeLimit
        Unless 2 <= N <= 12.
    """
    n = _resolve_ed_size(params, n_sites, _ED_MAX)
    h = _hamiltonian_sparse(params.gamma, params.lam, n).toarray()
    return _gauge(h, params.phi, _spin_operators(n).pop)


def ed_ground(params: ModelParams, n_sites: int | None = None) -> SpinSpectrum:
    """Exact parity-sector ground energies and ground vector.

    The chain conserves the number parity of down spins, so the 2^N matrix
    splits into two real blocks of 2^(N-1); the lowest eigenpair of each is
    found (two solves in all) and the lower one gives the ground vector.
    The rotation enters only as the diagonal gauge H(phi) = U H(0) U^dag,
    U = diag(exp(-i phi popcount)): the real phi = 0 blocks are
    diagonalized, so the energies do not depend on phi, and U is applied
    to the ground vector.

    Raises
    ------
    BadSize
        If the ring size is not an integer.
    SizeLimit
        Unless 2 <= N <= 12.
    """
    n = _resolve_ed_size(params, n_sites, _ED_MAX)
    return SpinSpectrum(n, *_ed_vector(params.phi, params.gamma, params.lam, n))


def _ed_vector(
    phi: float, gamma: float, lam: float, n_sites: int
) -> tuple[float, float, np.ndarray]:
    """Lowest level of each parity block and the gauge-fixed ground vector."""
    blocks = _sector_blocks(gamma, lam, n_sites)
    lowest = [scipy.linalg.eigh(h, subset_by_index=[0, 0]) for _, h in blocks]
    (w_even, _), (w_odd, _) = lowest
    k = 0 if w_even[0] <= w_odd[0] else 1
    vec = _rotated_vector(blocks[k][0], lowest[k][1][:, 0], phi, n_sites)
    return float(w_even[0]), float(w_odd[0]), vec


def free_fermion_parity_spectrum(
    params: ModelParams, n_sites: int | None = None
) -> ParitySectorResult:
    """Closed-form parity-sector ground energies of the exact ring.

    Keeps the boundary bond exactly: even fermion parity selects
    antiperiodic momenta alpha = (2m+1)pi/N, odd parity selects periodic
    momenta 2pi m/N together with one enforced unpaired excitation.
    Energies depend only on (gamma, lam).

    Raises
    ------
    BadSize
        Unless N is an even integer with 4 <= N <= 4096.
    """
    n = n_sites if n_sites is not None else params.n_sites
    if n is None:
        raise BadSize("a ring size is required")
    model._check_size(n)
    if n > _FREE_MAX:
        raise BadSize(f"n_sites must be <= {_FREE_MAX}, got {n}")
    g, lam = params.gamma, params.lam

    a_even = (2.0 * np.arange(n // 2) + 1.0) * np.pi / n
    even = model._Pairing(a_even, g, lam)
    e_even = -0.5 * n * lam + float(np.sum(even.a - even.energy))

    a_pairs = 2.0 * np.pi * np.arange(1, n // 2) / n
    pairs = model._Pairing(a_pairs, g, lam)
    disp_pairs = pairs.energy
    base = -0.5 * n * lam + float(np.sum(pairs.a - disp_pairs))
    cheapest_pair = float(np.min(disp_pairs))
    corr = min(lam - 1.0, lam + 1.0, cheapest_pair, 2.0 * lam + cheapest_pair)
    e_odd = base + corr

    momenta_even = np.concatenate([-a_even[::-1], a_even])
    momenta_odd = np.concatenate([-a_pairs[::-1], [0.0], a_pairs, [np.pi]])
    return ParitySectorResult(
        even_sector_energy=e_even,
        odd_sector_energy=e_odd,
        momenta_even=momenta_even,
        momenta_odd=momenta_odd,
        ground_energy=min(e_even, e_odd),
    )


@lru_cache(maxsize=None)
def _string_signs(n_sites: int) -> np.ndarray:
    """signs[j, b] = (-1)^(occupied sites before j in basis state b)."""
    dim = 1 << n_sites
    b = np.arange(dim, dtype=np.int64)
    signs = np.empty((n_sites, dim), dtype=np.float64)
    acc = np.zeros(dim, dtype=np.int64)
    for j in range(n_sites):
        signs[j] = 1.0 - 2.0 * (acc & 1)
        acc = acc + ((b >> (n_sites - 1 - j)) & 1)
    return signs


def _apply_momentum_creator(psi: np.ndarray, alpha: float, n_sites: int) -> np.ndarray:
    """Apply the plane-wave creator N^(-1/2) sum_j e^(i alpha j) a_j^dag."""
    out = np.zeros(psi.size, dtype=complex)
    signs = _string_signs(n_sites)
    b = np.arange(psi.size, dtype=np.int64)
    norm = 1.0 / math.sqrt(n_sites)
    for j in range(n_sites):
        mj = 1 << (n_sites - 1 - j)
        empty = (b & mj) == 0
        src = b[empty]
        out[src | mj] += (norm * np.exp(1j * alpha * j)) * signs[j, src] * psi[src]
    return out


def embed_ground_state(state: GroundState) -> np.ndarray:
    """Expand a product ground state into the full 2^N basis.

    Pairs contribute u + v a^dag_(+alpha) a^dag_(-alpha) acting on the
    vacuum (the doubly occupied pair state is created minus-first), and
    each occupied unpaired level contributes its plane-wave creator.

    Raises
    ------
    SizeLimit
        If the ring is larger than 12 sites.
    """
    n = state.n_sites
    if n > _ED_MAX:
        raise SizeLimit(f"embedding needs n_sites <= {_ED_MAX}, got {n}")
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    if state.zero_mode_occupied:
        psi = _apply_momentum_creator(psi, 0.0, n)
    if state.pi_mode_occupied:
        psi = _apply_momentum_creator(psi, np.pi, n)
    for alpha, u, v in zip(state.alphas, state.u, state.v):
        pair = _apply_momentum_creator(
            _apply_momentum_creator(psi, -float(alpha), n), float(alpha), n
        )
        psi = u * psi + v * pair
    return psi


def quadratic_ring_hamiltonian(
    params: ModelParams, n_sites: int | None = None
) -> np.ndarray:
    """Dense quadratic fermion ring with a plain (c-number) boundary bond.

    This is the translation-invariant ring the momentum-space product
    states diagonalize exactly.  Under Jordan-Wigner the spin chain's
    boundary bond B is the plain fermion bond times minus the fermion
    parity (Lieb, Schultz and Mattis 1961), so the plain ring is the chain
    with B reversed in the even sector: U [H(0) - 2 B(0) P_even] U^dag, with
    P_even the projector on even popcount.
    """
    n = _resolve_ed_size(params, n_sites, _ED_MAX)
    ops = _spin_operators(n)
    edge = -0.5 * (ops.edge_hop + params.gamma * ops.edge_pair)
    even = sp.diags(1.0 - ops.pop % 2)
    h = _hamiltonian_sparse(params.gamma, params.lam, n) - 2.0 * (edge @ even)
    return _gauge(h.toarray(), params.phi, ops.pop)


def _same_point(a: ModelParams, b: ModelParams) -> bool:
    return a.phi == b.phi and a.gamma == b.gamma and a.lam == b.lam


def wilson_loop_berry_phase(loop, n_sites: int | None = None) -> float:
    """Discrete Berry phase of a closed loop of parameter points.

    The loop is traversed in order with an implicit closing link back to
    the first point (a repeated final point is dropped).  Each link is the
    normalized overlap of neighboring product ground states.

    Returns the accumulated phase in (-pi, pi].

    Raises
    ------
    BadSize
        Unless N is an even integer >= 4.
    ZeroOverlap
        If any link modulus falls below 1e-12 (loop too coarse).
    CriticalPoint
        If a loop point is gapless.
    """
    points = list(loop)
    if not points:
        raise ValueError("empty loop")
    if len(points) > 1 and _same_point(points[0], points[-1]):
        points = points[:-1]
    n = n_sites if n_sites is not None else points[0].n_sites
    if n is None:
        raise BadSize("a ring size is required")
    states = [build_ground_state(p, n) for p in points]
    links = [
        overlap(states[i], states[(i + 1) % len(states)]) for i in range(len(states))
    ]
    product = 1.0 + 0.0j
    for link in links:
        mod = abs(link)
        if mod < 1e-12:
            raise ZeroOverlap(f"link modulus {mod:.3e}; refine the loop")
        product *= link / mod
    return float(np.angle(product))


@dataclass(frozen=True)
class SpectralTerm:
    """One excited-state contribution to the geometric tensor sum.

    ``matrix[mu, nu]`` is <0|d_mu H|m><m|d_nu H|0> / (E_m - E_0)^2 in the
    coordinate order (phi, gamma, lam).
    """

    energy_gap: float
    matrix: np.ndarray


def qgt_matrix_elements(
    params: ModelParams, n_sites: int | None = None
) -> list[SpectralTerm]:
    """Per-excited-state geometric tensor terms from the ground's parity block.

    Both parity blocks are diagonalized.  Every coupling derivative
    conserves parity, so only the excited states of the ground's block
    contribute; the other block's terms are exactly zero and are not
    returned.  The gauge U multiplies both the eigenvectors and the
    derivatives and cancels in <m|dH|0>, so the terms depend on (gamma, lam)
    only and are evaluated in the real phi = 0 frame, where, with P the
    popcount, d_lam H = P - N/2, d_gamma H = -pair / 2 and, from
    H(phi) = U H(0) U^dag, d_phi H = -i[P, H], so that
    <m|d_phi H|0> = i (E_m - E_0) <m|P|0>.

    Raises
    ------
    BadSize
        If the ring size is not an integer.
    SizeLimit
        Unless 2 <= N <= 10.
    DegenerateGroundState
        When the finite-size gap E_1 - E_0 is below 1e-10, E_1 being the
        lower of the ground block's second level and the other block's
        lowest.
    """
    n = _resolve_ed_size(params, n_sites, _QGT_MAX)
    ground, other = sorted(
        [
            (*scipy.linalg.eigh(h), sector)
            for sector, h in _sector_blocks(params.gamma, params.lam, n)
        ],
        key=lambda solved: solved[0][0],
    )
    w, vectors, sector = ground
    e1 = min(w[1], other[0][0])
    if e1 - w[0] < 1e-10:
        raise DegenerateGroundState(f"E1 - E0 = {e1 - w[0]:.3e}")
    v0 = vectors[:, 0]
    gaps = w[1:] - w[0]
    pop = vectors[:, 1:].T @ (sector.pop * v0)
    pair = vectors[:, 1:].T @ (-0.5 * (sector.pair @ v0))
    amps = np.stack([1j * gaps * pop, pair, pop])
    return [
        SpectralTerm(float(gap), np.outer(np.conj(c), c) / gap**2)
        for gap, c in zip(gaps, amps.T)
    ]
