"""Small-ring exact engines used as ground truth.

Exact diagonalization of the rotated chain, parity-resolved free-fermion
spectra, discrete Wilson loops, and the per-excited-state decomposition of
the geometric tensor.
Both sector-energy routes, exact diagonalization and the closed form,
return one type, ``SpinSpectrum``.  The closed-form sector energies and the
product states use one momentum rule (``ground_state._pair_grid``):
periodic momenta in the odd fermion parity sector, antiperiodic ones in
the even sector.  A product state expanded into the 2^N spin basis is
therefore an exact eigenvector of the spin chain.

The chain conserves the fermion (down-spin) parity, so exact
diagonalization only ever solves the two 2^(N-1) parity blocks, in real
arithmetic and with numpy alone.  Every bond flips two sites and so keeps a
block's parity: each block's pattern, one entry per row for the diagonal
and one per bond, is built once per ring size in the block's own basis,
with one coefficient array per coupling, and no 2^N matrix is ever built.
A block's lowest level is found by dense ``eigh`` below ``_LANCZOS_MIN``
states, both blocks in one call, and by a seeded Lanczos solve (Lanczos
1950; Paige 1972) from there on, which runs until its residual bound is
met or its Krylov space is invariant or fills the block.  The rotation
phi enters the chain only as the diagonal gauge H(phi) = U H(0) U^dag
with U = diag(exp(-i phi popcount)), so the real phi = 0 blocks are
solved, the energies carry no phi dependence, and U is applied to the
eigenvectors afterwards.

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

from . import model
from .errors import CriticalPoint, ZeroOverlap
from .ground_state import _sector_energy, build_ground_state, overlap
from .model import ModelParams

__all__ = [
    "SpinSpectrum",
    "SpectralTerm",
    "ed_ground",
    "free_fermion_parity_spectrum",
    "wilson_loop_berry_phase",
    "qgt_matrix_elements",
]

_ED_MAX = 12
_QGT_MAX = 10
# blocks at least this wide have their lowest level found by Lanczos from a
# seeded start vector; narrower ones are solved dense, both sectors at once
_LANCZOS_MIN = 256
# Lanczos stops once its residual is below this share of the block's norm bound
_LANCZOS_TOL = 1e-14


def _popcounts(b: np.ndarray, n_sites: int) -> np.ndarray:
    pop = np.zeros(b.shape, dtype=np.int64)
    for j in range(n_sites):
        pop += (b >> j) & 1
    return pop


class _Sector(NamedTuple):
    """One parity block at phi = 0: its basis states and fixed-width pattern.

    Every row of the block has N + 1 entries, one per slot: slot 0 is the
    diagonal and slot 1 + j is bond j, whose entry in row r sits in column
    ``cols[1 + j, r]``.  ``hop``, ``pair`` and ``field`` have the shape of
    ``cols``; the block at (gamma, lam) has entries
    ``hop + gamma pair + lam field`` (``data``).
    """

    index: np.ndarray
    pop: np.ndarray
    cols: np.ndarray
    hop: np.ndarray
    pair: np.ndarray
    field: np.ndarray

    def data(self, gamma: float, lam: float) -> np.ndarray:
        return self.hop + gamma * self.pair + lam * self.field


# two ring sizes: an oracle-verify run solves at --n-sites and at the [qgt]
# family's 6, and a ring of 16 sites holds about 35 MB
@lru_cache(maxsize=2)
def _spin_operators(n_sites: int) -> tuple[_Sector, _Sector]:
    """The even and odd parity blocks as one fixed-width pattern each.

    The one statement of the chain: -(hop + gamma pair)/2 - lam (N - 2P)/2.
    Each bond flips two sites, so it maps a block onto itself; its entries
    (hopping, or pair creation plus annihilation) are placed in the block's
    own basis, the column of a flipped state found in the block's sorted
    index.  A flip undoes itself and keeps whether the two sites are alike,
    so each bond's entries form a symmetric permutation matrix.  Bonds run
    j -> j+1 with site N identified with site 0; at N = 2 the two ordered
    bonds join the same pair of sites, so that bond counts twice: its two
    slots share their places and are summed wherever the block is used.
    """
    n = n_sites
    b = np.arange(1 << n, dtype=np.int64)
    pop = _popcounts(b, n)
    sectors = []
    for parity in (0, 1):
        index = b[pop % 2 == parity]
        cols = np.empty((n + 1, index.size), dtype=np.intp)
        cols[0] = np.arange(index.size)
        # a bond on two alike sites creates or annihilates a pair, else it hops
        alike = np.empty((n, index.size), dtype=bool)
        for j in range(n):
            mj, mj2 = 1 << (n - 1 - j), 1 << (n - 1 - (j + 1) % n)
            cols[1 + j] = np.searchsorted(index, index ^ (mj | mj2))
            alike[j] = ((index & mj) != 0) == ((index & mj2) != 0)
        hop, pair, field = np.zeros((3, *cols.shape))
        hop[1:], pair[1:] = -0.5 * ~alike, -0.5 * alike
        field[0] = -0.5 * (n - 2.0 * pop[index])
        sectors.append(_Sector(index, pop[index], cols, hop, pair, field))
    return tuple(sectors)


def _matvec(sector: _Sector, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The block with entries ``data`` on ``sector``'s pattern times ``v``."""
    return np.einsum("ij,ij->j", data, v[sector.cols])


def _dense_block(sector: _Sector, data: np.ndarray) -> np.ndarray:
    """The block with entries ``data`` on ``sector``'s pattern, as a dense array."""
    dim = sector.index.size
    block = np.zeros((dim, dim))
    rows = np.arange(dim)
    # one slot has one entry per row, so no place repeats within a slot
    for cols, entries in zip(sector.cols, data):
        block[rows, cols] += entries
    return block


def _lanczos(sector: _Sector, data: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest (energy, unit vector) of the block with entries ``data``.

    Lanczos from ``start`` with one full reorthogonalization per step.  The
    Ritz pair's residual norm is |beta s_last|, with beta the next Lanczos
    coefficient and s the Ritz vector of the tridiagonal matrix; it is
    checked at step 32 and every 12 steps after, against ``_LANCZOS_TOL``
    times the block's largest absolute row sum (a bound on its norm).  A
    beta below that tolerance means the Krylov space is invariant, and a
    basis as wide as the block fills it; either way the Ritz pair is exact
    and is returned at once.  The basis starts at 64 rows and doubles its
    rows as they fill, so it holds about the steps taken, not the block.
    """
    tol = _LANCZOS_TOL * np.abs(data).sum(axis=0).max()
    basis = np.empty((min(64, start.size), start.size))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = [], []
    for m in range(1, start.size + 1):
        v, kept = basis[m - 1], basis[:m]
        w = _matvec(sector, data, v)
        alpha.append(v @ w)
        w -= alpha[-1] * v
        if beta:
            w -= beta[-1] * basis[m - 2]
        w -= kept.T @ (kept @ w)
        b = math.sqrt(w @ w)
        if b <= tol or m == start.size or (m >= 32 and (m - 32) % 12 == 0):
            tridiagonal = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = np.linalg.eigh(tridiagonal)
            if b * abs(s[-1, 0]) <= tol or m == start.size:
                return float(theta[0]), s[:, 0] @ kept
        beta.append(b)
        if m == len(basis):
            grown = np.empty((min(2 * m, start.size), start.size))
            grown[:m] = basis
            basis = grown
        basis[m] = w / b


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
    """Ground state of the chain, resolved by fermion parity.

    The one result type of both sector-energy routes: exact
    diagonalization (``ed_ground``) and the closed form
    (``free_fermion_parity_spectrum``).

    Attributes
    ----------
    n_sites : int
    even_sector_energy, odd_sector_energy : float
        Lowest level of the even and of the odd parity block.
    ground_vector : ndarray of complex or None
        Unit-norm 2^N ground vector of the lower sector, gauge fixed so its
        largest-magnitude component is real positive; None from the closed
        form, which builds no vector.
    """

    n_sites: int
    even_sector_energy: float
    odd_sector_energy: float
    ground_vector: np.ndarray | None

    @property
    def ground_energy(self) -> float:
        return min(self.even_sector_energy, self.odd_sector_energy)


def ed_ground(params: ModelParams, n_sites: int) -> SpinSpectrum:
    """Exact parity-sector ground energies and ground vector.

    The chain conserves the number parity of down spins, so the 2^N matrix
    splits into two real blocks of 2^(N-1); the lowest eigenpair of each is
    found (two solves in all) and the lower one gives the ground vector.
    Blocks below 256 states (N <= 8) are solved dense; wider ones by a
    numpy Lanczos solve (residual below 1e-14 of the block's norm bound)
    from a fixed seeded start vector, so reruns return identical bits.  The
    rotation enters only as the diagonal gauge H(phi) = U H(0) U^dag,
    U = diag(exp(-i phi popcount)): the real phi = 0 blocks are
    diagonalized, so the energies do not depend on phi, and U is applied
    to the ground vector.

    Raises
    ------
    BadSize
        Unless ``n_sites`` is an even integer with 2 <= N <= 12.
    ValueError
        If ``params`` is not a ``ModelParams``.
    """
    n = model._check_size(n_sites, 2, _ED_MAX)
    model._check_kind("params", params, ModelParams)
    return SpinSpectrum(n, *_ed_vector(params.phi, params.gamma, params.lam, n))


def _ground_block(gamma: float, lam: float, n_sites: int):
    """Each (sector, block entries) and lowest (energy, vector), the ground's index and spectrum.

    The one ground-block rule: even unless the odd level is strictly lower.
    Both blocks are 2^(N-1) wide.  Narrow ones are solved together, in full,
    by one batched dense ``eigh``, whose (energies, vectors) of the ground
    block are its spectrum.  Wide ones are solved by Lanczos from a random
    start vector, which, unlike a symmetric one such as all ones, has a
    component on every eigenvector, so Lanczos is confined to no symmetry
    subspace; it is seeded, so the solve is the same on every call.  Their
    spectrum is None.
    """
    blocks = [(sector, sector.data(gamma, lam)) for sector in _spin_operators(n_sites)]
    dim = blocks[0][0].index.size
    if dim < _LANCZOS_MIN:
        w, v = np.linalg.eigh(np.stack([_dense_block(*block) for block in blocks]))
        lowest = [(float(w[i, 0]), v[i, :, 0]) for i in (0, 1)]
        spectra = list(zip(w, v))
    else:
        start = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        lowest = [_lanczos(*block, start) for block in blocks]
        spectra = [None, None]
    k = 0 if lowest[0][0] <= lowest[1][0] else 1
    return blocks, lowest, k, spectra[k]


def _ed_vector(
    phi: float, gamma: float, lam: float, n_sites: int
) -> tuple[float, float, np.ndarray]:
    """Lowest level of each parity block and the gauge-fixed ground vector."""
    blocks, lowest, k, _ = _ground_block(gamma, lam, n_sites)
    vec = _rotated_vector(blocks[k][0], lowest[k][1], phi, n_sites)
    return lowest[0][0], lowest[1][0], vec


def free_fermion_parity_spectrum(params: ModelParams, n_sites: int) -> SpinSpectrum:
    """Closed-form parity-sector ground energies of the exact ring.

    Keeps the boundary bond exactly (``ground_state._sector_energy``).
    Below the field (lam < 1) ``odd_sector_energy`` is the energy of the
    odd-sector product state of ``build_ground_state``; at lam >= 1 that
    state is in the even sector and has ``even_sector_energy``.  The
    energies depend only on (gamma, lam), hold at any ring size, and come
    with no ground vector.

    Raises
    ------
    BadSize
        Unless N is an even integer with 4 <= N <= 2**53.
    ValueError
        If ``params`` is not a ``ModelParams``.
    """
    n = model._check_size(n_sites)
    model._check_kind("params", params, ModelParams)
    energies = [_sector_energy(n, params.gamma, params.lam, odd) for odd in (False, True)]
    return SpinSpectrum(n, *energies, None)


def wilson_loop_berry_phase(loop, n_sites: int) -> float:
    """Discrete Berry phase of a closed loop of parameter points.

    The loop is traversed in order with an implicit closing link back to
    the first point (a repeated final point is dropped).  Each link is the
    normalized overlap of neighboring product ground states.

    Returns the accumulated phase in (-pi, pi].

    Raises
    ------
    BadSize
        Unless N is an even integer with 4 <= N <= 2**53.
    ValueError
        If the loop is not a non-empty list or tuple of ``ModelParams``.
    ZeroOverlap
        If any link modulus falls below 1e-12 (loop too coarse).
    CriticalPoint
        If a loop point is gapless.
    """
    model._check_kind("loop", loop, list, tuple)
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
    only that block's full spectrum is used: below ``_LANCZOS_MIN`` states
    it comes from the batched solve of both blocks, and wider ground blocks
    are then diagonalized alone.  Every coupling derivative
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
        Unless ``n_sites`` is an even integer with 2 <= N <= 10.
    ValueError
        If ``params`` is not a ``ModelParams``.
    CriticalPoint
        When the finite-size gap E_1 - E_0 is below 1e-10, E_1 being the
        lower of the ground block's second level and the other block's
        lowest.
    """
    n = model._check_size(n_sites, 2, _QGT_MAX)
    model._check_kind("params", params, ModelParams)
    blocks, lowest, k, spectrum = _ground_block(params.gamma, params.lam, n)
    sector, data = blocks[k]
    if spectrum is None:
        spectrum = np.linalg.eigh(_dense_block(sector, data))
    w, vectors = spectrum
    e1 = min(w[1], lowest[1 - k][0])
    if e1 - w[0] < 1e-10:
        raise CriticalPoint(f"E1 - E0 = {e1 - w[0]:.3e}")
    v0 = vectors[:, 0]
    gaps = w[1:] - w[0]
    pop = vectors[:, 1:].T @ (sector.pop * v0)
    pair = vectors[:, 1:].T @ _matvec(sector, sector.pair, v0)
    amps = np.stack([1j * gaps * pop, pair, pop])
    return [
        SpectralTerm(float(gap), np.outer(np.conj(c), c) / gap**2)
        for gap, c in zip(gaps, amps.T)
    ]
