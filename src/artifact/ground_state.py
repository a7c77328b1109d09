"""Exact ground states of the chain as products over paired momenta.

After the fermion mapping the chain conserves fermion parity, and each
parity sector is a quadratic ring on its own momenta (Lieb, Schultz and
Mattis 1961): odd parity takes the periodic momenta 2 pi k / N, whose
unpaired alpha = 0 level is occupied, and even parity takes the
antiperiodic momenta (2k+1) pi / N, which all pair.  The product state
lives in the odd sector exactly when lam < 1.  Each pair block (alpha,
-alpha) is described by two complex amplitudes on the empty and doubly
occupied states, so every product state is an exact eigenstate of the
spin chain.  ``_pair_arrays`` is the one path from a point to its pair
momenta and those amplitudes; ``GroundState.u`` and ``.v`` carry them for
every pair of a ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import BadSize
from .model import ModelParams

__all__ = [
    "GroundState",
    "build_ground_state",
    "isotropic_ground_state",
    "overlap",
]


def _pair_block(theta, phi):
    """Lower pair-block state (cos(theta/2), i e^{-2i phi} sin(theta/2)).

    Broadcasts ``theta`` against ``phi``.
    """
    return np.cos(0.5 * theta), 1j * np.exp(-2j * phi) * np.sin(0.5 * theta)


@dataclass(frozen=True, eq=False)
class GroundState:
    """Product ground state on the N-site ring, in one fermion-parity sector.

    The odd sector pairs the periodic momenta 2 pi k / N, k = 1 .. N/2 - 1,
    and occupies the unpaired alpha = 0 level (the unpaired alpha = pi
    level stays empty); the even sector pairs the antiperiodic momenta
    (2k+1) pi / N, k = 0 .. N/2 - 1, and has no unpaired level.

    Attributes
    ----------
    params : ModelParams
        The point (phi, gamma, lam).
    n_sites : int
        Ring length.
    alphas, thetas : ndarray
        Momentum and pairing angle per pair.
    u, v : ndarray of complex
        Amplitudes on the empty / doubly occupied pair states.
    zero_mode_occupied : bool
        Whether the state is in the odd sector, with alpha = 0 occupied.
    occupation_mask : ndarray of bool or None
        Occupation of every level of the periodic ring, indexed by
        k = -N/2 + 1, ..., N/2 (momentum 2 pi k / N); set by the isotropic
        constructor, None otherwise.
    """

    params: ModelParams
    n_sites: int
    alphas: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    zero_mode_occupied: bool
    occupation_mask: np.ndarray | None = field(default=None, repr=False)


def _pair_grid(n_sites: int, odd: bool) -> np.ndarray:
    """Pair momenta of one parity sector of the N-site chain.

    Odd parity: the periodic 2 pi k / N, k = 1 .. N/2 - 1, beside the
    unpaired alpha = 0 and alpha = pi levels.  Even parity: the
    antiperiodic (2k+1) pi / N, k = 0 .. N/2 - 1, with no unpaired level.
    """
    if odd:
        return 2.0 * np.pi * np.arange(1, n_sites // 2) / n_sites
    return (2.0 * np.arange(n_sites // 2) + 1.0) * np.pi / n_sites


def _sector_energy(n_sites: int, gamma: float, lam: float, odd: bool) -> float:
    """Closed-form lowest level of one parity sector of the N-site ring.

    -N lam / 2 + sum of (a - energy) over the sector's pair momenta; the odd
    sector also occupies the unpaired alpha = 0 level at cost lam - 1.  No
    other single excitation is cheaper: every pair energy is at least
    |lam - cos(alpha)| >= lam - 1, and alpha = pi costs lam + 1.
    """
    pairing = model._Pairing(_pair_grid(n_sites, odd), gamma, lam)
    energy = -0.5 * n_sites * lam + float(np.sum(pairing.a - pairing.energy))
    return energy + (lam - 1.0) if odd else energy


def _odd_sector(lam) -> bool:
    """The one sector rule: the product state is in the odd sector when lam < 1."""
    return lam < 1.0


def _pair_arrays(
    phi: float,
    gamma: float,
    lam: float,
    n_sites: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one path from a point to the (alpha, theta, u, v) arrays of its pair blocks.

    The pairs sit on the momenta of the sector ``_odd_sector`` picks: the
    odd sector when lam < 1 and the even sector otherwise.  No parameter
    validation: the closed forms continue smoothly to gamma or lam slightly
    below zero.
    """
    alphas = _pair_grid(n_sites, _odd_sector(lam))
    theta = model._Pairing(alphas, gamma, lam).theta
    u, v = _pair_block(theta, phi)
    return alphas, theta, u.astype(complex), v


def build_ground_state(params: ModelParams, n_sites: int) -> GroundState:
    """Exact ground state at the given couplings.

    Every pair block carries (cos(theta/2), i e^{-2 i phi} sin(theta/2))
    with theta = atan2(gamma sin(alpha), lam - cos(alpha)).  Below the
    field (lam < 1) the state is in the odd sector: periodic pair momenta
    and an occupied alpha = 0 level.  Otherwise it is in the even sector,
    on the antiperiodic momenta.  Embedded in Fock space it is an exact
    eigenstate of the spin chain, with the closed-form energy of its sector
    from ``free_fermion_parity_spectrum``.

    Parameters
    ----------
    params : ModelParams
    n_sites : int
        Ring length.

    Raises
    ------
    BadSize
        Unless ``n_sites`` is an even integer with 4 <= N <= 2**53.
    ValueError
        If ``params`` is not a ``ModelParams``.
    CriticalPoint
        If the spectral gap is below 1e-12.
    """
    n = model._check_size(n_sites)
    model._check_kind("params", params, ModelParams)
    model._check_gapped(params.gamma, params.lam)
    alphas, theta, u, v = _pair_arrays(params.phi, params.gamma, params.lam, n)
    return GroundState(
        params=params,
        n_sites=n,
        alphas=alphas,
        thetas=theta,
        u=u,
        v=v,
        zero_mode_occupied=_odd_sector(params.lam),
    )


def isotropic_ground_state(lam: float, n_sites: int) -> GroundState:
    """Sharp Fermi sea at zero anisotropy.

    With no pairing the ground state is a filled shell in the number
    basis.  When lam <= 1 it is in the odd sector: the unpaired k = 0 level
    and the periodic momenta 2 pi k / N inside the Fermi edge arccos(lam)
    are occupied.  Above the field every level is empty, on the
    antiperiodic momenta of the even sector that ``build_ground_state``
    uses there.  The construction stays defined on the gapless line (the
    boundary shell is filled by convention), so no criticality check is
    made here.

    Raises
    ------
    BadSize
        Unless ``n_sites`` is an even integer with 4 <= N <= 2**53.
    ValueError
        If lam is not a real number in [0, 1e150].
    """
    n = model._check_size(n_sites)
    params = ModelParams(0.0, 0.0, lam)
    # the 1e-9 snap counts a momentum landing exactly on the edge as inside
    k_t = math.floor(n * math.acos(min(params.lam, 1.0)) / (2.0 * math.pi) + 1e-9)
    zero_occ = params.lam <= 1.0
    alphas = _pair_grid(n, zero_occ)
    filled = np.arange(1, alphas.size + 1) <= k_t
    # exact number states at gamma = 0: occupied pairs are pure |11>,
    # empty ones pure |00>; the degenerate boundary shell follows the mask
    theta = np.where(filled, np.pi, 0.0)
    u = np.where(filled, 0.0, 1.0).astype(complex)
    v = np.where(filled, 1j, 0.0)
    grid_k = np.arange(-(n // 2) + 1, n // 2 + 1)
    # k_t <= N/4, so the unpaired pi level k = N/2 stays empty
    mask = zero_occ & (np.abs(grid_k) <= k_t)
    return GroundState(
        params=params,
        n_sites=n,
        alphas=alphas,
        thetas=theta,
        u=u,
        v=v,
        zero_mode_occupied=zero_occ,
        occupation_mask=mask,
    )


def _overlap_arrays(
    ua: np.ndarray, va: np.ndarray, ub: np.ndarray, vb: np.ndarray
) -> complex:
    return complex(np.prod(np.conj(ua) * ub + np.conj(va) * vb))


def overlap(a: GroundState, b: GroundState) -> complex:
    """Fock-space inner product <a|b> of two product states on the same grid.

    States in different parity sectors (one on each side of lam = 1) are
    orthogonal, so their overlap is exactly 0j; otherwise both sit on the
    same pair momenta and the overlap is the product of the pair block
    overlaps.

    Raises
    ------
    ValueError
        If a state is not a ``GroundState``.
    BadSize
        If the states live on rings of different length.
    """
    model._check_kind("a", a, GroundState)
    model._check_kind("b", b, GroundState)
    if a.n_sites != b.n_sites:
        raise BadSize(f"n_sites {a.n_sites} != {b.n_sites}")
    if a.zero_mode_occupied != b.zero_mode_occupied:
        return 0j
    return _overlap_arrays(a.u, a.v, b.u, b.v)
