"""Dense small-ring engines used as ground truth.

Everything here works in the full 2^N basis: exact diagonalization of the
rotated chain, parity-resolved free-fermion spectra, Fock-space embedding
of the product ground states, discrete Wilson loops, and the per-excited-
state decomposition of the geometric tensor.

Exact diagonalization runs in real arithmetic.  The rotation phi enters
the chain only as the diagonal gauge H(phi) = U H(0) U^dag with
U = diag(exp(-i phi popcount)), so the real phi = 0 parity blocks are
solved, the energies carry no phi dependence, and U is applied to the
eigenvectors afterwards.

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
    CriticalPoint,
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
    "hamiltonian_derivatives",
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
    n = int(n)
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
    pp: sp.csr_matrix
    mm: sp.csr_matrix
    pop: np.ndarray
    sectors: tuple[_Sector, _Sector]


@lru_cache(maxsize=None)
def _spin_operators(n_sites: int) -> _Operators:
    """Sparse bond sums (hopping, raising-pair, lowering-pair) and popcounts.

    The pieces are also sliced once into the even and odd parity blocks,
    kept sparse, with the two pair terms merged as at phi = 0.
    """
    n = n_sites
    dim = 1 << n
    b = np.arange(dim, dtype=np.int64)
    pop = _popcounts(b, n)
    hop_r, hop_c = [], []
    pp_r, pp_c = [], []
    mm_r, mm_c = [], []
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
        sel = down_j & down_j2
        pp_c.append(b[sel])
        pp_r.append(b[sel] ^ mask)
        sel = ~down_j & ~down_j2
        mm_c.append(b[sel])
        mm_r.append(b[sel] ^ mask)

    def assemble(rows, cols):
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        m = sp.coo_matrix((np.ones(r.size), (r, c)), shape=(dim, dim))
        return m.tocsr()

    hop, pp, mm = assemble(hop_r, hop_c), assemble(pp_r, pp_c), assemble(mm_r, mm_c)
    pair = pp + mm
    sectors = []
    for parity in (0, 1):
        index = np.where(pop % 2 == parity)[0]
        sectors.append(
            _Sector(index, pop[index], hop[index][:, index], pair[index][:, index])
        )
    return _Operators(hop, pp, mm, pop, tuple(sectors))


def _hamiltonian_sparse(gamma: float, lam: float, n_sites: int) -> sp.csr_matrix:
    """Real phi = 0 Hamiltonian in the full basis."""
    ops = _spin_operators(n_sites)
    zdiag = n_sites - 2.0 * ops.pop
    h = -0.5 * (ops.hop + gamma * (ops.pp + ops.mm)) + sp.diags(-0.5 * lam * zdiag)
    return h.tocsr()


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
    """Full exact spectrum of the 2^N chain Hamiltonian.

    Attributes
    ----------
    n_sites : int
    energies : ndarray
        All 2^N eigenvalues in ascending order.
    ground_vector : ndarray of complex
        Unit-norm ground vector, gauge fixed so its largest-magnitude
        component is real positive.
    """

    n_sites: int
    energies: np.ndarray
    ground_vector: np.ndarray

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def gap(self) -> float:
        return float(self.energies[1] - self.energies[0])

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sites": self.n_sites,
                "energies": [float(e) for e in self.energies],
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
    if params.phi == 0.0:
        return h
    u = np.exp(-1j * params.phi * _spin_operators(n).pop)
    return u[:, None] * h * u.conj()


def hamiltonian_derivatives(
    params: ModelParams, n_sites: int | None = None
) -> tuple:
    """Analytic coupling derivatives (d/dphi, d/dgamma, d/dlam) of the chain.

    Returned as sparse matrices; the lam derivative is the diagonal
    -(1/2) sum_j sigma^z_j independent of phi and gamma.
    """
    n = _resolve_ed_size(params, n_sites, _ED_MAX)
    ops = _spin_operators(n)
    ph = np.exp(2j * params.phi)
    g = params.gamma
    d_phi = (-0.5 * g) * (2j * ph * ops.pp - 2j * np.conj(ph) * ops.mm)
    d_gamma = -0.5 * (ph * ops.pp + np.conj(ph) * ops.mm)
    d_lam = sp.diags(-0.5 * (n - 2.0 * ops.pop))
    return d_phi.tocsr(), d_gamma.tocsr(), d_lam.tocsr()


def ed_ground(params: ModelParams, n_sites: int | None = None) -> SpinSpectrum:
    """Exact spectrum by parity-blocked dense diagonalization in real arithmetic.

    The chain conserves the number parity of down spins, so the 2^N matrix
    splits into two blocks of 2^(N-1); both are solved in full and the
    merged spectrum is returned with the ground vector of the winning
    sector.  The rotation enters only as the diagonal gauge
    H(phi) = U H(0) U^dag, U = diag(exp(-i phi popcount)): the real phi = 0
    blocks are diagonalized, so the energies do not depend on phi, and U is
    applied to the ground vector.

    Raises
    ------
    SizeLimit
        Unless 2 <= N <= 12.
    """
    n = _resolve_ed_size(params, n_sites, _ED_MAX)
    (even, h_even), (odd, h_odd) = _sector_blocks(params.gamma, params.lam, n)
    w_even = scipy.linalg.eigvalsh(h_even)
    w_odd = scipy.linalg.eigvalsh(h_odd)
    energies = np.sort(np.concatenate([w_even, w_odd]))
    if w_even[0] <= w_odd[0]:
        sector, block = even, h_even
    else:
        sector, block = odd, h_odd
    _, v0 = scipy.linalg.eigh(block, subset_by_index=[0, 0])
    vec = _rotated_vector(sector, v0[:, 0], params.phi, n)
    return SpinSpectrum(n_sites=n, energies=energies, ground_vector=vec)


def _ed_vector(phi: float, gamma: float, lam: float, n_sites: int) -> np.ndarray:
    """Gauge-fixed ground vector only, via per-sector lowest eigenpairs."""
    (even, h_even), (odd, h_odd) = _sector_blocks(gamma, lam, n_sites)
    w_e, v_e = scipy.linalg.eigh(h_even, subset_by_index=[0, 0])
    w_o, v_o = scipy.linalg.eigh(h_odd, subset_by_index=[0, 0])
    if w_e[0] <= w_o[0]:
        return _rotated_vector(even, v_e[:, 0], phi, n_sites)
    return _rotated_vector(odd, v_o[:, 0], phi, n_sites)


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
        Unless N is even with 4 <= N <= 4096.
    """
    n = n_sites if n_sites is not None else params.n_sites
    if n is None:
        raise BadSize("a ring size is required")
    n = int(n)
    if n < 4 or n > _FREE_MAX or n % 2:
        raise BadSize(f"n_sites must be even with 4 <= N <= {_FREE_MAX}, got {n}")
    g, lam = params.gamma, params.lam

    a_even = (2.0 * np.arange(n // 2) + 1.0) * np.pi / n
    disp_even = np.asarray(model.dispersion(a_even, g, lam))
    e_even = -0.5 * n * lam + float(np.sum((lam - np.cos(a_even)) - disp_even))

    a_pairs = 2.0 * np.pi * np.arange(1, n // 2) / n
    disp_pairs = np.asarray(model.dispersion(a_pairs, g, lam))
    base = -0.5 * n * lam + float(np.sum((lam - np.cos(a_pairs)) - disp_pairs))
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
    states diagonalize exactly; it differs from the spin chain only in the
    fermion string signs carried by the boundary bond.
    """
    n = _resolve_ed_size(params, n_sites, _ED_MAX)
    dim = 1 << n
    b = np.arange(dim, dtype=np.int64)
    inner_mask = ((1 << n) - 1) ^ (1 << (n - 1)) ^ 1
    rows, cols, vals = [], [], []
    pair_phase = np.exp(-2j * params.phi)
    g, lam = params.gamma, params.lam
    for j in range(n):
        j2 = (j + 1) % n
        mj = 1 << (n - 1 - j)
        mj2 = 1 << (n - 1 - j2)
        mask = mj | mj2
        occ_j = (b & mj) != 0
        occ_j2 = (b & mj2) != 0
        if j2 != 0:
            hop_sign = np.ones(dim)
            pair_sign = np.ones(dim)
        else:
            string = 1.0 - 2.0 * (_popcounts(b & inner_mask, n) & 1)
            hop_sign = string
            pair_sign = -string
        sel = occ_j2 & ~occ_j
        rows.append(b[sel] ^ mask)
        cols.append(b[sel])
        vals.append(-0.5 * hop_sign[sel] + 0j)
        sel = occ_j & ~occ_j2
        rows.append(b[sel] ^ mask)
        cols.append(b[sel])
        vals.append(-0.5 * hop_sign[sel] + 0j)
        sel = ~occ_j & ~occ_j2
        rows.append(b[sel] ^ mask)
        cols.append(b[sel])
        vals.append(-0.5 * g * pair_phase * pair_sign[sel])
        sel = occ_j & occ_j2
        rows.append(b[sel] ^ mask)
        cols.append(b[sel])
        vals.append(-0.5 * g * np.conj(pair_phase) * pair_sign[sel])
    h = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).toarray()
    h += np.diag(-0.5 * lam * (n - 2 * _popcounts(b, n)))
    return h


def _same_point(a: ModelParams, b: ModelParams) -> bool:
    return a.phi == b.phi and a.gamma == b.gamma and a.lam == b.lam


def wilson_loop_berry_phase(
    loop, n_sites: int | None = None, use_ed: bool = False
) -> float:
    """Discrete Berry phase of a closed loop of parameter points.

    The loop is traversed in order with an implicit closing link back to
    the first point (a repeated final point is dropped).  Each link is the
    normalized overlap of neighboring ground states, built from the
    product form by default or from ED vectors when ``use_ed`` is set.

    Returns the accumulated phase in (-pi, pi].

    Raises
    ------
    ZeroOverlap
        If any link modulus falls below 1e-12 (loop too coarse).
    CriticalPoint
        If a loop point is gapless.
    SizeLimit
        On the ED path for rings above 12 sites.
    """
    points = list(loop)
    if not points:
        raise ValueError("empty loop")
    if len(points) > 1 and _same_point(points[0], points[-1]):
        points = points[:-1]
    n = n_sites if n_sites is not None else points[0].n_sites
    if n is None:
        raise BadSize("a ring size is required")
    n = int(n)
    if use_ed:
        if not 2 <= n <= _ED_MAX:
            raise SizeLimit(f"ED path needs 2 <= N <= {_ED_MAX}, got {n}")
        for p in points:
            if model.gap(p.gamma, p.lam) < 1e-12:
                raise CriticalPoint(f"gapless loop point gamma={p.gamma}, lam={p.lam}")
        vecs = [_ed_vector(p.phi, p.gamma, p.lam, n) for p in points]
        links = [
            np.vdot(vecs[i], vecs[(i + 1) % len(vecs)]) for i in range(len(vecs))
        ]
    else:
        states = [build_ground_state(p, n) for p in points]
        links = [
            overlap(states[i], states[(i + 1) % len(states)])
            for i in range(len(states))
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
    """Per-excited-state geometric tensor terms from full dense ED.

    The gauge U multiplies both the eigenvectors and the coupling
    derivatives and cancels in <m|dH|0>, so the terms depend on (gamma, lam)
    only and are evaluated in the real phi = 0 frame.

    Raises
    ------
    SizeLimit
        Unless 2 <= N <= 10.
    DegenerateGroundState
        When the finite-size gap E_1 - E_0 is below 1e-10.
    """
    n = _resolve_ed_size(params, n_sites, _QGT_MAX)
    h = _hamiltonian_sparse(params.gamma, params.lam, n).toarray()
    w, vectors = scipy.linalg.eigh(h)
    if w[1] - w[0] < 1e-10:
        raise DegenerateGroundState(f"E1 - E0 = {w[1] - w[0]:.3e}")
    derivs = hamiltonian_derivatives(ModelParams(0.0, params.gamma, params.lam), n)
    v0 = vectors[:, 0]
    amps = np.stack([vectors.T @ (d @ v0) for d in derivs])
    terms = []
    for m in range(1, w.size):
        gap = float(w[m] - w[0])
        c = amps[:, m]
        terms.append(SpectralTerm(gap, np.outer(np.conj(c), c) / gap**2))
    return terms
