"""Exact ground states of the chain as products over paired momenta.

After the fermion mapping the ground state factorizes into independent
two-level pair blocks (alpha, -alpha) plus the two unpaired momenta at
alpha = 0 and alpha = pi.  Each pair block is described by two complex
amplitudes on the empty and doubly occupied states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import BadSize, CriticalPoint, GridMismatch
from .model import Mode, ModelParams

__all__ = [
    "ModeAmplitudes",
    "GroundState",
    "mode_amplitudes",
    "build_ground_state",
    "isotropic_ground_state",
    "ground_energy",
    "overlap",
]

# Below this gap the pair angles are numerically unreliable.
_GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class ModeAmplitudes:
    """Amplitudes of one pair block on (empty, doubly occupied).

    The lower state of the block is (cos(theta/2), i e^{-2 i phi}
    sin(theta/2)) with theta the pairing angle.
    """

    u: complex
    v: complex


def _pair_block(theta, phi):
    """Lower pair-block state (cos(theta/2), i e^{-2i phi} sin(theta/2)).

    Broadcasts ``theta`` against ``phi``.
    """
    return np.cos(0.5 * theta), 1j * np.exp(-2j * phi) * np.sin(0.5 * theta)


def mode_amplitudes(alpha: float, params: ModelParams) -> ModeAmplitudes:
    """Pair-block amplitudes of the ground state at momentum ``alpha``.

    Raises
    ------
    GaplessMode
        Propagated from the pairing angle at a band touching.
    """
    theta = model.bogoliubov_angle(alpha, params.gamma, params.lam)
    u, v = _pair_block(theta, params.phi)
    return ModeAmplitudes(complex(u), complex(v))


@dataclass(frozen=True, eq=False)
class GroundState:
    """Product ground state on the N-site ring.

    Pair blocks are indexed by k = 1 .. N/2 - 1 (momenta alpha_k and
    -alpha_k together); the unpaired momenta k = 0 and k = N/2 are single
    fermion levels with a boolean occupation each.

    Attributes
    ----------
    params : ModelParams
        Couplings, with ``n_sites`` set.
    ks : ndarray of int
        Pair indices 1 .. N/2 - 1.
    alphas, thetas, energies : ndarray
        Momentum, pairing angle, and quasiparticle energy per pair.
    u, v : ndarray of complex
        Amplitudes on the empty / doubly occupied pair states.
    zero_mode_occupied, pi_mode_occupied : bool
        Occupations of the unpaired momenta alpha = 0 and alpha = pi.
    occupation_mask : ndarray of bool or None
        Full-grid occupation over momentum_grid(n_sites); set by the
        isotropic constructor, None otherwise.
    """

    params: ModelParams
    ks: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    zero_mode_occupied: bool
    pi_mode_occupied: bool
    occupation_mask: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_sites(self) -> int:
        return int(self.params.n_sites)

    @property
    def modes(self) -> tuple[Mode, ...]:
        return tuple(
            Mode(int(k), float(a), float(e), float(t))
            for k, a, e, t in zip(self.ks, self.alphas, self.energies, self.thetas)
        )

    @property
    def amplitudes(self) -> tuple[ModeAmplitudes, ...]:
        return tuple(
            ModeAmplitudes(complex(uu), complex(vv)) for uu, vv in zip(self.u, self.v)
        )

    def to_json(self) -> str:
        p = self.params
        payload = {
            "params": {
                "phi": p.phi,
                "gamma": p.gamma,
                "lam": p.lam,
                "n_sites": p.n_sites,
            },
            "zero_mode_occupied": self.zero_mode_occupied,
            "pi_mode_occupied": self.pi_mode_occupied,
            "modes": [
                {
                    "k": int(k),
                    "alpha": float(a),
                    "theta": float(t),
                    "energy": float(e),
                    "u": [float(np.real(uu)), float(np.imag(uu))],
                    "v": [float(np.real(vv)), float(np.imag(vv))],
                }
                for k, a, t, e, uu, vv in zip(
                    self.ks, self.alphas, self.thetas, self.energies, self.u, self.v
                )
            ],
            "occupation_mask": (
                None
                if self.occupation_mask is None
                else [bool(b) for b in self.occupation_mask]
            ),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "GroundState":
        d = json.loads(text)
        p = d["params"]
        params = ModelParams(p["phi"], p["gamma"], p["lam"], p["n_sites"])
        modes = d["modes"]
        ks = np.array([m["k"] for m in modes], dtype=int)
        mask = d["occupation_mask"]
        return cls(
            params=params,
            ks=ks,
            alphas=np.array([m["alpha"] for m in modes]),
            thetas=np.array([m["theta"] for m in modes]),
            energies=np.array([m["energy"] for m in modes]),
            u=np.array([complex(m["u"][0], m["u"][1]) for m in modes]),
            v=np.array([complex(m["v"][0], m["v"][1]) for m in modes]),
            zero_mode_occupied=d["zero_mode_occupied"],
            pi_mode_occupied=d["pi_mode_occupied"],
            occupation_mask=None if mask is None else np.array(mask, dtype=bool),
        )


def _pair_grid(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    ks = np.arange(1, n_sites // 2)
    return ks, 2.0 * np.pi * ks / n_sites


def _pair_arrays(
    phi: float,
    gamma: float,
    lam: float,
    n_sites: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (theta, u, v) pair arrays of the ground state.

    No parameter validation: finite-difference stencils may step to gamma
    or lam slightly below zero, where the closed forms continue smoothly.
    """
    _, alphas = _pair_grid(n_sites)
    theta = model._Pairing(alphas, gamma, lam).theta
    u, v = _pair_block(theta, phi)
    return theta, u.astype(complex), v


def build_ground_state(params: ModelParams, n_sites: int | None = None) -> GroundState:
    """Exact ground state at the given couplings.

    Every pair block carries (cos(theta/2), i e^{-2 i phi} sin(theta/2))
    with theta = atan2(gamma sin(alpha), lam - cos(alpha)); the unpaired
    alpha = 0 level is occupied exactly when lam < 1 and the alpha = pi
    level never is (for lam >= 0).

    Parameters
    ----------
    params : ModelParams
    n_sites : int, optional
        Ring length; falls back to ``params.n_sites`` when omitted.

    Raises
    ------
    BadSize
        If no ring length is available from either argument.
    CriticalPoint
        If the spectral gap is below 1e-12.
    """
    if n_sites is None:
        n_sites = params.n_sites
    if n_sites is None:
        raise BadSize("build_ground_state needs n_sites")
    model._check_size(n_sites)
    if params.n_sites != n_sites:
        params = params.with_sites(n_sites)
    n = n_sites
    if model.gap(params.gamma, params.lam) < _GAP_FLOOR:
        raise CriticalPoint(
            f"gapless couplings gamma={params.gamma}, lam={params.lam}"
        )
    ks, alphas = _pair_grid(n)
    theta, u, v = _pair_arrays(params.phi, params.gamma, params.lam, n)
    return GroundState(
        params=params,
        ks=ks,
        alphas=alphas,
        thetas=theta,
        energies=np.asarray(model.dispersion(alphas, params.gamma, params.lam)),
        u=u,
        v=v,
        zero_mode_occupied=params.lam < 1.0,
        pi_mode_occupied=params.lam < -1.0,
    )


def isotropic_ground_state(lam: float, n_sites: int) -> GroundState:
    """Sharp Fermi sea at zero anisotropy.

    With no pairing the ground state is a filled shell in the number
    basis: momenta with |k| <= fermi_cutoff(0, lam, n_sites) are occupied,
    plus the unpaired k = 0 level whenever lam <= 1.  The construction
    stays defined on the gapless line (the boundary shell is filled by
    convention), so no criticality check is made here.
    """
    model._check_size(n_sites)
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    params = ModelParams(0.0, 0.0, lam, n_sites)
    k_t = model.fermi_cutoff(0.0, lam, n_sites)
    ks, alphas = _pair_grid(n_sites)
    filled = ks <= k_t
    # exact number states at gamma = 0: occupied pairs are pure |11>,
    # empty ones pure |00>; the degenerate boundary shell follows the mask
    theta = np.where(filled, np.pi, 0.0)
    u = np.where(filled, 0.0, 1.0).astype(complex)
    v = np.where(filled, 1j, 0.0)
    zero_occ = lam <= 1.0
    grid_k = np.arange(-(n_sites // 2) + 1, n_sites // 2 + 1)
    mask = np.abs(grid_k) <= k_t
    mask[grid_k == 0] = zero_occ
    mask[grid_k == n_sites // 2] = False
    return GroundState(
        params=params,
        ks=ks,
        alphas=alphas,
        thetas=theta,
        energies=model.dispersion(alphas, 0.0, lam),
        u=u,
        v=v,
        zero_mode_occupied=zero_occ,
        pi_mode_occupied=False,
        occupation_mask=mask,
    )


def ground_energy(params: ModelParams, n_sites: int | None = None) -> float:
    """Ground energy -(1/2) sum_k dispersion(alpha_k) over the full grid.

    This equals the exact ground energy of the quadratic chain with the
    boundary correction dropped; the parity-resolved oracle recovers the
    full ring answer.
    """
    if n_sites is None:
        n_sites = params.n_sites
    if n_sites is None:
        raise BadSize("ground_energy needs n_sites")
    model._check_size(n_sites)
    alphas = model.momentum_grid(n_sites)
    return -0.5 * float(np.sum(model.dispersion(alphas, params.gamma, params.lam)))


def _overlap_arrays(
    ua: np.ndarray, va: np.ndarray, ub: np.ndarray, vb: np.ndarray
) -> complex:
    return complex(np.prod(np.conj(ua) * ub + np.conj(va) * vb))


def overlap(a: GroundState, b: GroundState) -> complex:
    """Fock-space inner product <a|b> of two product states on the same grid.

    States whose unpaired occupations differ are orthogonal (for lam >= 0
    they differ in fermion parity), so their overlap is exactly 0j;
    otherwise it is the product of the pair block overlaps.

    Raises
    ------
    GridMismatch
        If the states live on rings of different length.
    """
    if a.n_sites != b.n_sites:
        raise GridMismatch(f"n_sites {a.n_sites} != {b.n_sites}")
    if (
        a.zero_mode_occupied != b.zero_mode_occupied
        or a.pi_mode_occupied != b.pi_mode_occupied
    ):
        return 0j
    return _overlap_arrays(a.u, a.v, b.u, b.v)
