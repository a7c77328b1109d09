"""Dense small-ring engines used as ground truth.

Exact diagonalization of the rotated chain, parity-resolved free-fermion
spectra, Fock-space embedding of the product ground states, discrete Wilson
loops, and the per-excited-state decomposition of the geometric tensor.
The closed-form sector energies and the product states use one momentum
rule (``ground_state._pair_grid``): periodic momenta in the odd fermion
parity sector, antiperiodic ones in the even sector.  An embedded product
state is therefore an exact eigenvector of the spin chain.

This is the only module that imports scipy at module level; the package
imports it on first use of one of its names, so the closed-form paths
(``scan-chern``, ``gap-map``, ``metric-scan``) never load scipy.

The chain conserves the fermion (down-spin) parity, so exact
diagonalization only ever solves the two 2^(N-1) parity blocks, in real
arithmetic.  Every bond flips two sites and so keeps a block's parity: the
sparse bond sums are built in each block's own basis, and the full 2^N
matrix of ``build_spin_hamiltonian`` is only the two blocks placed side by
side.  The rotation phi enters the chain only as the diagonal gauge
H(phi) = U H(0) U^dag with U = diag(exp(-i phi popcount)), so the real
phi = 0 blocks are solved, the energies carry no phi dependence, and U is
applied to the eigenvectors afterwards.

Basis convention: basis index b has site j stored in bit N-1-j, a set bit
is a down spin, which is identified with an occupied fermion level.  The
all-up state is index 0.
"""

from __future__ import annotations

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
from .ground_state import GroundState, _pair_grid, build_ground_state, overlap
from .model import ModelParams

__all__ = [
    "SpinSpectrum",
    "ParitySectorResult",
    "SpectralTerm",
    "build_spin_hamiltonian",
    "ed_ground",
    "free_fermion_parity_spectrum",
    "embed_ground_state",
    "wilson_loop_berry_phase",
    "qgt_matrix_elements",
]

_ED_MAX = 12
_QGT_MAX = 10
_FREE_MAX = 4096


def _resolve_ed_size(n_sites: int, limit: int) -> int:
    model._check_integer(n_sites)
    if not 2 <= n_sites <= limit:
        raise SizeLimit(f"n_sites must be in [2, {limit}], got {n_sites}")
    return n_sites


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


@lru_cache(maxsize=None)
def _spin_operators(n_sites: int) -> tuple[_Sector, _Sector]:
    """The even and odd parity blocks with their sparse bond sums.

    Each bond flips two sites, so it maps a block onto itself; the bond sums
    (hopping, and pair creation plus annihilation) are built in the block's
    own basis, the row of a flipped state found in the block's sorted index.
    """
    n = n_sites
    b = np.arange(1 << n, dtype=np.int64)
    pop = _popcounts(b, n)
    sectors = []
    for parity in (0, 1):
        index = b[pop % 2 == parity]
        dim = index.size
        rows, alike = [], []
        for j in range(n):
            mj, mj2 = 1 << (n - 1 - j), 1 << (n - 1 - (j + 1) % n)
            rows.append(np.searchsorted(index, index ^ (mj | mj2)))
            alike.append(((index & mj) != 0) == ((index & mj2) != 0))
        rows, alike = np.concatenate(rows), np.concatenate(alike)
        cols = np.tile(np.arange(dim), n)
        # a bond on two alike sites creates or annihilates a pair, else it hops
        hop, pair = (
            sp.coo_matrix((np.ones(sel.sum()), (rows[sel], cols[sel])), shape=(dim, dim))
            for sel in (~alike, alike)
        )
        sectors.append(_Sector(index, pop[index], hop.tocsr(), pair.tocsr()))
    return tuple(sectors)


def _gauge(h: np.ndarray, phi: float, pop: np.ndarray) -> np.ndarray:
    """U h U^dag with U = diag(exp(-i phi popcount)); ``h`` itself at phi = 0."""
    if phi == 0.0:
        return h
    u = np.exp(-1j * phi * pop)
    return u[:, None] * h * u.conj()


def _sector_blocks(gamma: float, lam: float, n_sites: int):
    """Dense real phi = 0 blocks, paired with their sectors (even first).

    The one statement of the chain: -(hop + gamma pair)/2 - lam (N - 2P)/2.
    """
    blocks = []
    for sector in _spin_operators(n_sites):
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


@dataclass(frozen=True)
class ParitySectorResult:
    """Exact ring ground energies resolved by fermion-number parity.

    The even sector fills pairs on the antiperiodic (half-integer) momenta;
    the odd sector uses periodic (integer) momenta and must place one
    unpaired excitation, the cheaper of occupying alpha = 0 (lam - 1) and
    breaking the cheapest pair; occupying alpha = pi (lam + 1), or both
    unpaired levels and breaking a pair (2 lam plus that pair), never costs
    less for lam >= 0.  Below the field (lam < 1) occupying alpha = 0
    is the cheapest, so ``odd_sector_energy`` is then the energy of the
    odd-sector product state of ``build_ground_state``; at lam >= 1 that
    state is in the even sector and has ``even_sector_energy``.
    """

    even_sector_energy: float
    odd_sector_energy: float
    ground_energy: float


def build_spin_hamiltonian(params: ModelParams, n_sites: int) -> np.ndarray:
    """Dense 2^N Hamiltonian of the rotated chain on a periodic ring.

    Bonds run j -> j+1 with site N identified with site 0; at N = 2 the
    two ordered bonds join the same pair of sites, so that bond is counted
    twice.  Real symmetric output when phi = 0, complex Hermitian
    otherwise.

    Raises
    ------
    BadSize
        If ``n_sites`` is not an integer.
    SizeLimit
        Unless 2 <= N <= 12.
    """
    n = _resolve_ed_size(n_sites, _ED_MAX)
    h = np.zeros((1 << n,) * 2, dtype=float if params.phi == 0.0 else complex)
    for sector, block in _sector_blocks(params.gamma, params.lam, n):
        h[np.ix_(sector.index, sector.index)] = _gauge(block, params.phi, sector.pop)
    return h


def ed_ground(params: ModelParams, n_sites: int) -> SpinSpectrum:
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
        If ``n_sites`` is not an integer.
    SizeLimit
        Unless 2 <= N <= 12.
    """
    n = _resolve_ed_size(n_sites, _ED_MAX)
    return SpinSpectrum(n, *_ed_vector(params.phi, params.gamma, params.lam, n))


def _ground_block(gamma: float, lam: float, n_sites: int):
    """Each parity block, its lowest (energy, vector), and the ground block's index.

    The one ground-block rule: even unless the odd level is strictly lower.
    """
    blocks = _sector_blocks(gamma, lam, n_sites)
    pairs = [scipy.linalg.eigh(h, subset_by_index=[0, 0]) for _, h in blocks]
    lowest = [(float(w[0]), v[:, 0]) for w, v in pairs]
    return blocks, lowest, 0 if lowest[0][0] <= lowest[1][0] else 1


def _ed_vector(
    phi: float, gamma: float, lam: float, n_sites: int
) -> tuple[float, float, np.ndarray]:
    """Lowest level of each parity block and the gauge-fixed ground vector."""
    blocks, lowest, k = _ground_block(gamma, lam, n_sites)
    vec = _rotated_vector(blocks[k][0], lowest[k][1], phi, n_sites)
    return lowest[0][0], lowest[1][0], vec


def free_fermion_parity_spectrum(params: ModelParams, n_sites: int) -> ParitySectorResult:
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
    model._check_size(n_sites)
    if n_sites > _FREE_MAX:
        raise BadSize(f"n_sites must be <= {_FREE_MAX}, got {n_sites}")
    g, lam = params.gamma, params.lam

    even = model._Pairing(_pair_grid(n_sites, False), g, lam)
    e_even = -0.5 * n_sites * lam + float(np.sum(even.a - even.energy))

    pairs = model._Pairing(_pair_grid(n_sites, True), g, lam)
    disp_pairs = pairs.energy
    base = -0.5 * n_sites * lam + float(np.sum(pairs.a - disp_pairs))
    cheapest_pair = float(np.min(disp_pairs))
    corr = min(lam - 1.0, cheapest_pair)
    e_odd = base + corr
    return ParitySectorResult(
        even_sector_energy=e_even,
        odd_sector_energy=e_odd,
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
    vacuum (the doubly occupied pair state is created minus-first), and an
    occupied alpha = 0 level contributes its plane-wave creator.

    Raises
    ------
    SizeLimit
        If the ring is larger than 12 sites.
    """
    n = _resolve_ed_size(state.n_sites, _ED_MAX)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    if state.zero_mode_occupied:
        psi = _apply_momentum_creator(psi, 0.0, n)
    for alpha, u, v in zip(state.alphas, state.u, state.v):
        pair = _apply_momentum_creator(
            _apply_momentum_creator(psi, -float(alpha), n), float(alpha), n
        )
        psi = u * psi + v * pair
    return psi


def wilson_loop_berry_phase(loop, n_sites: int) -> float:
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
    if len(points) > 1 and points[0] == points[-1]:
        points = points[:-1]
    states = [build_ground_state(p, n_sites) for p in points]
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


def qgt_matrix_elements(params: ModelParams, n_sites: int) -> list[SpectralTerm]:
    """Per-excited-state geometric tensor terms from the ground's parity block.

    The lowest level of each parity block picks the ground's block, and
    only that block is fully diagonalized.  Every coupling derivative
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
        If ``n_sites`` is not an integer.
    SizeLimit
        Unless 2 <= N <= 10.
    DegenerateGroundState
        When the finite-size gap E_1 - E_0 is below 1e-10, E_1 being the
        lower of the ground block's second level and the other block's
        lowest.
    """
    n = _resolve_ed_size(n_sites, _QGT_MAX)
    blocks, lowest, k = _ground_block(params.gamma, params.lam, n)
    sector, h = blocks[k]
    w, vectors = scipy.linalg.eigh(h)
    e1 = min(w[1], lowest[1 - k][0])
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
