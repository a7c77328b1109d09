"""Parameters, dispersion, and momentum bookkeeping for the rotated XY chain.

The chain couples N spins on a ring through anisotropic XY bonds rotated
about z by a uniform angle, plus a transverse field.  After the fermion
mapping every property of interest reduces to closed-form functions of the
momentum alpha and the three couplings, which is what this module provides.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadSize, CriticalPoint, DegenerateRatio, GaplessMode

__all__ = [
    "ModelParams",
    "dispersion",
    "bogoliubov_angle",
    "fermi_cutoff",
    "gap",
    "momentum_grid",
]


@dataclass(frozen=True)
class ModelParams:
    """A point (phi, gamma, lam) of the coupling manifold.

    The fields are the coordinates of ``GeometricTensor``, in its order.
    The ring size is not a coupling: each function that needs it takes
    ``n_sites`` as its own argument.

    Parameters
    ----------
    phi : float
        Rotation angle of the XY bond about z, in [0, pi).  The bond
        Hamiltonian is pi-periodic in phi, so the representative interval
        is half a turn.  A subnormal angle is stored as 0.0: its phases
        would put subnormal entries into dense Hamiltonians, which slow
        LAPACK eigensolvers some 60-fold.
    gamma : float
        XY anisotropy, finite and >= 0.
    lam : float
        Transverse field strength, finite and >= 0.
    """

    phi: float
    gamma: float
    lam: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if 0.0 < self.phi < sys.float_info.min:
            object.__setattr__(self, "phi", 0.0)
        if not 0.0 <= self.phi < math.pi:
            raise ValueError(f"phi must lie in [0, pi), got {self.phi}")
        _check_coupling("gamma", self.gamma)
        _check_coupling("lam", self.lam)


def _check_coupling(name: str, value: float) -> None:
    """ValueError unless the coupling ``name`` (gamma or lam) is finite and >= 0."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_integer(n_sites: int) -> None:
    if not isinstance(n_sites, (int, np.integer)):
        raise BadSize(f"n_sites must be an integer, got {n_sites!r}")


def _check_size(n_sites: int) -> None:
    _check_integer(n_sites)
    if n_sites < 4 or n_sites % 2 != 0:
        raise BadSize(f"n_sites must be even and >= 4, got {n_sites}")


class _Pairing:
    """Closed forms of the pair block at broadcast (alpha, gamma, lam).

    a = lam - cos(alpha), b = gamma sin(alpha) and r^2 = a^2 + b^2 are
    formed on construction.  The pairing angle theta = atan2(b, a), the
    energy r and the derivatives of theta are derived only when asked for:
    the arctangent alone is a sizeable share of a tensor evaluation that
    does not need it.
    """

    __slots__ = ("sin_alpha", "a", "b", "r2")

    def __init__(self, alpha, gamma, lam):
        self.sin_alpha = np.sin(alpha)
        self.a = lam - np.cos(alpha)
        self.b = gamma * self.sin_alpha
        self.r2 = self.a * self.a + self.b * self.b

    @property
    def theta(self):
        return np.arctan2(self.b, self.a)

    @property
    def energy(self):
        return np.sqrt(self.r2)

    @property
    def sin_theta(self):
        return self.b / np.sqrt(self.r2)

    @property
    def d_gamma(self):
        """dtheta/dgamma = a sin(alpha) / r^2."""
        return self.a * self.sin_alpha / self.r2

    @property
    def d_lam(self):
        """dtheta/dlam = -b / r^2."""
        return -self.b / self.r2


def dispersion(alpha, gamma: float, lam: float):
    """Quasiparticle energy sqrt((lam - cos a)^2 + (gamma sin a)^2).

    Accepts scalars or arrays in ``alpha`` and broadcasts.
    """
    return _Pairing(alpha, gamma, lam).energy


def bogoliubov_angle(alpha, gamma: float, lam: float):
    """Pairing angle theta(alpha) = atan2(gamma sin a, lam - cos a).

    The angle lies in [0, pi] for alpha in [0, pi] and gamma >= 0.  It is
    undefined where both atan2 arguments vanish, i.e. exactly at a band
    touching.

    Parameters
    ----------
    alpha : float or ndarray
        Momentum (broadcasts).
    gamma, lam : float
        Anisotropy and field.

    Returns
    -------
    float or ndarray

    Raises
    ------
    GaplessMode
        If any requested momentum has lam - cos(alpha) == 0 and
        gamma * sin(alpha) == 0 in floating point.
    """
    pairing = _Pairing(alpha, gamma, lam)
    if np.any((pairing.a == 0.0) & (pairing.b == 0.0)):
        raise GaplessMode(
            f"pairing angle undefined at a gapless momentum (gamma={gamma}, lam={lam})"
        )
    return pairing.theta


def fermi_cutoff(gamma: float, lam: float, n_sites: int) -> int:
    """Largest grid index inside the Fermi edge, floor(N * alpha_F / (2 pi)).

    alpha_F = arccos(lam / (1 - gamma^2)) when that ratio lies in [-1, 1],
    else 0.  At gamma = 0 it is the Fermi edge of the filled sea, for
    0 < gamma < 1 it is where the dispersion has its minimum, and for
    gamma > 1 the ratio is <= 0, so alpha_F lies in [pi/2, pi] or is 0.
    A tiny positive snap (1e-9) is added before the floor so that ratios
    landing exactly on a grid momentum count that momentum as inside the
    edge.

    Raises
    ------
    ValueError
        If gamma or lam is not finite or is negative.
    DegenerateRatio
        At gamma == 1, where the defining ratio is 0/0 or infinite.
        Callers needing that point use the documented limit: cutoff 0 for
        lam > 0 and n_sites // 4 for lam == 0.
    BadSize
        If ``n_sites`` is odd or < 4.
    """
    _check_coupling("gamma", gamma)
    _check_coupling("lam", lam)
    _check_size(n_sites)
    if gamma == 1.0:
        raise DegenerateRatio(
            "fermi_cutoff is 0/0 at gamma = 1; use the limit (0 for lam > 0, N//4 at lam = 0)"
        )
    r = lam / (1.0 - gamma * gamma)
    alpha_f = math.acos(r) if -1.0 <= r <= 1.0 else 0.0
    return int(math.floor(n_sites * alpha_f / (2.0 * math.pi) + 1e-9))


def gap(gamma: float, lam: float) -> float:
    """Minimal quasiparticle energy over all momenta, in closed form.

    The dispersion minimum sits in the band interior when gamma < 1 and
    lam < 1 - gamma^2, and at the band edge alpha = 0 otherwise.  Returns
    exact 0.0 on the gapless set {lam == 1} union {gamma == 0, lam <= 1},
    and NaN when either coupling is NaN.
    """
    if not (gamma >= 1.0 or lam >= 1.0 - gamma * gamma):
        omg2 = 1.0 - gamma * gamma
        return gamma * math.sqrt((omg2 - lam * lam) / omg2)
    return abs(1.0 - lam)


def _check_gapped(gamma: float, lam: float) -> None:
    """CriticalPoint where the gap is below 1e-12: pairing angles are unreliable there."""
    if gap(gamma, lam) < 1e-12:
        raise CriticalPoint(f"gapless couplings gamma={gamma}, lam={lam}")


def momentum_grid(n_sites: int) -> np.ndarray:
    """Momenta alpha_k = 2 pi k / N for k = -N/2 + 1, ..., N/2.

    Raises
    ------
    BadSize
        If ``n_sites`` is odd or < 4.
    """
    _check_size(n_sites)
    k = np.arange(-(n_sites // 2) + 1, n_sites // 2 + 1)
    return 2.0 * np.pi * k / n_sites
