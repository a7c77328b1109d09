"""Parameters, dispersion, pairing angle and gap of the rotated XY chain.

The chain couples N spins on a ring through anisotropic XY bonds rotated
about z by a uniform angle, plus a transverse field.  After the fermion
mapping every property of interest reduces to closed-form functions of the
momentum alpha and the three couplings, which is what this module provides.

Each input check returns the float64 its route computes on, so a bool, an int,
a numpy scalar, a Decimal or a Fraction gives the bits of the call on its float.

No numpy is loaded at import: ``ModelParams``, ``gap`` and the scalar checks
are pure Python, and the routes that build arrays import numpy themselves.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import BadSize, CriticalPoint

__all__ = [
    "ModelParams",
    "dispersion",
    "bogoliubov_angle",
    "gap",
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
        is half a turn.  phi is the U(1) gauge of the ground states: it
        rephases them and changes no energy, so it is stored as a float,
        subnormal angles included.
    gamma : float
        XY anisotropy, in [0, 1e150].
    lam : float
        Transverse field strength, in [0, 1e150].
    """

    phi: float
    gamma: float
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _check_finite("phi", self.phi))
        if not 0.0 <= self.phi < math.pi:
            raise ValueError(f"phi must lie in [0, pi), got {self.phi}")
        object.__setattr__(self, "gamma", _check_coupling("gamma", self.gamma))
        object.__setattr__(self, "lam", _check_coupling("lam", self.lam))


def _check_finite(name: str, value: float) -> float:
    """``value`` as a float; ValueError unless ``name`` is one finite real number.

    An array with an axis, no number or an integer too large for a float
    raises ValueError, chained to any TypeError or OverflowError behind it.
    """
    # an ndarray exists only once numpy is loaded, so a check never loads it
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray) and value.ndim > 0:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must be a finite real number, got {value!r}") from exc
    raise ValueError(f"{name} must be finite, got {value}")


def _check_momentum(alpha):
    """``alpha`` as float64, a float or an array; ValueError unless each momentum is finite.

    Complex momenta raise ValueError, even with a zero imaginary part;
    momenta that are no numbers raise it chained to the TypeError behind it.
    """
    import numpy as np

    if np.iscomplexobj(alpha):
        raise ValueError(f"alpha must be finite real numbers, got {alpha!r}")
    # a Decimal or a Fraction is no number to numpy; an int is, unless too large for a float
    if isinstance(alpha, numbers.Number) and not isinstance(alpha, int):
        return _check_finite("alpha", alpha)
    try:
        finite = bool(np.all(np.isfinite(alpha)))
    except TypeError as exc:
        raise ValueError(f"alpha must be finite real numbers, got {alpha!r}") from exc
    if not finite:
        raise ValueError(f"alpha must be finite, got {alpha}")
    return float(alpha) if np.ndim(alpha) == 0 else np.asarray(alpha, dtype=np.float64)


def _check_coupling(name: str, value: float) -> float:
    """``value`` as a float; ValueError unless the coupling ``name`` lies in [0, 1e150].

    The upper bound keeps r^2 of ``_Pairing`` below 2e300, clear of overflow.
    """
    value = _check_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if value > 1e150:
        raise ValueError(f"{name} must be <= 1e150, got {value}")
    return value


def _check_kind(name: str, value, *kinds: type) -> None:
    """ValueError unless ``value`` is an instance of one of ``kinds``.

    The one check of the composite inputs: a point, a loop of points and a
    ground state, each checked where its route first reads it.
    """
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{name} must be a {names}, got {value!r}")


# the defaults are the closed form's sizes: past 2**53, N / 2 is inexact in float64
def _check_size(n_sites: int, low: int = 4, high: int = 2**53) -> int:
    """``n_sites`` as an int; BadSize unless it is an even integer in [low, high]."""
    # numpy's integer types register as numbers.Integral
    if not isinstance(n_sites, numbers.Integral):
        raise BadSize(f"n_sites must be an integer, got {n_sites!r}")
    n = int(n_sites)
    if not (low <= n <= high and n % 2 == 0):
        raise BadSize(f"n_sites must be in [{low}, {high}] and even, got {n}")
    return n


class _Pairing:
    """Closed forms of the pair block at broadcast (alpha, gamma, lam).

    a = lam - cos(alpha), b = gamma sin(alpha) and r^2 = a^2 + b^2 are
    formed on construction.  The pairing angle theta = atan2(b, a), the
    energy r and the derivatives of theta are derived only when asked for:
    the arctangent alone is a sizeable share of a tensor evaluation that
    does not need it.  A caller that evaluates many blocks of fields at the
    same momenta passes their (sin(alpha), cos(alpha)) as ``trig``, computed
    once, and alpha is then not read.
    """

    __slots__ = ("sin_alpha", "a", "b", "r2")

    def __init__(self, alpha, gamma, lam, trig=None):
        import numpy as np

        self.sin_alpha, cos_alpha = (np.sin(alpha), np.cos(alpha)) if trig is None else trig
        self.a = lam - cos_alpha
        self.b = gamma * self.sin_alpha
        self.r2 = self.a * self.a + self.b * self.b

    @property
    def theta(self):
        import numpy as np

        return np.arctan2(self.b, self.a)

    @property
    def energy(self):
        import numpy as np

        return np.sqrt(self.r2)

    @property
    def sin_theta(self):
        import numpy as np

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

    Raises
    ------
    ValueError
        If gamma or lam is not a real number in [0, 1e150], or if any momentum
        is not finite.
    """
    gamma, lam = _check_coupling("gamma", gamma), _check_coupling("lam", lam)
    alpha = _check_momentum(alpha)
    return _Pairing(alpha, gamma, lam).energy


def bogoliubov_angle(alpha, gamma: float, lam: float):
    """Pairing angle theta(alpha) = atan2(gamma sin a, lam - cos a).

    The angle lies in [0, pi] for alpha in [0, pi] and gamma >= 0.  It is
    undefined where both atan2 arguments vanish, i.e. exactly at a band
    touching.

    Parameters
    ----------
    alpha : float or ndarray
        Momentum, finite (broadcasts).
    gamma, lam : float
        Anisotropy and field, each in [0, 1e150].

    Returns
    -------
    float or ndarray

    Raises
    ------
    ValueError
        If gamma or lam is not a real number in [0, 1e150], or if any momentum
        is not finite.
    CriticalPoint
        If any requested momentum has lam - cos(alpha) == 0 and
        gamma * sin(alpha) == 0 in floating point.
    """
    import numpy as np

    gamma, lam = _check_coupling("gamma", gamma), _check_coupling("lam", lam)
    alpha = _check_momentum(alpha)
    pairing = _Pairing(alpha, gamma, lam)
    if np.any((pairing.a == 0.0) & (pairing.b == 0.0)):
        raise CriticalPoint(
            f"pairing angle undefined at a gapless momentum (gamma={gamma}, lam={lam})"
        )
    return pairing.theta


def gap(gamma: float, lam: float) -> float:
    """Minimal quasiparticle energy over all momenta, in closed form.

    The dispersion minimum sits in the band interior when gamma < 1 and
    lam < 1 - gamma^2, and at the band edge alpha = 0 otherwise.  Returns
    exact 0.0 on the gapless set {lam == 1} union {gamma == 0, lam <= 1}.
    Any input but Python floats in [0, 1e150] is checked once, as its float.

    Raises
    ------
    ValueError
        If gamma or lam is not one real number in [0, 1e150]: negative,
        above 1e150, non-finite, an array or no number at all.
    """
    if not (type(gamma) is type(lam) is float and 0.0 <= gamma <= 1e150 and 0.0 <= lam <= 1e150):
        gamma, lam = _check_coupling("gamma", gamma), _check_coupling("lam", lam)
    if gamma >= 1.0 or lam >= 1.0 - gamma * gamma:
        return abs(1.0 - lam)
    omg2 = 1.0 - gamma * gamma
    return gamma * math.sqrt((omg2 - lam * lam) / omg2)


def _check_gapped(gamma: float, lam: float) -> None:
    """CriticalPoint where the gap is below 1e-12: pairing angles are unreliable there."""
    if gap(gamma, lam) < 1e-12:
        raise CriticalPoint(f"gapless couplings gamma={gamma}, lam={lam}")
