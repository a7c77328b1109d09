"""Quantum geometric tensor and Berry curvature of the ground-state family.

Coordinates are always ordered (phi, gamma, lam).  The tensor comes from
central finite differences of overlaps (product states on large rings, ED
vectors on small ones) or from the spectral sum over excited states; the
curvature comes from the closed form of the pairing angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model, oracle
from .errors import (
    BadSize,
    CriticalPoint,
    FiniteDifferenceUnstable,
    GaplessMode,
    StencilCrossesCritical,
)
from .ground_state import _overlap_arrays, _pair_arrays
from .model import ModelParams

__all__ = [
    "GeometricTensor",
    "CurvatureDensity",
    "berry_curvature_mode",
    "berry_curvature_density",
    "qgt_finite_diff",
    "metric_real",
    "qgt_spectral",
]

# Probe-calibrated central-difference steps: ED vectors tolerate (and need)
# a coarser step than the closed-form product states.
_PRODUCT_STEP = 1e-5
_ED_STEP = 2e-4
_ED_PATH_MAX = 10


@dataclass(frozen=True)
class GeometricTensor:
    """Hermitian 3x3 tensor over the coupling manifold.

    Attributes
    ----------
    matrix : ndarray
        Complex 3x3 array in the coordinate order ``coords``; the real
        part is the ground-state metric, the imaginary antisymmetric part
        carries the curvature.
    """

    matrix: np.ndarray
    coords: ClassVar[tuple[str, str, str]] = ("phi", "gamma", "lam")

    @property
    def real_metric(self) -> np.ndarray:
        m = self.matrix.real
        return 0.5 * (m + m.T)


@dataclass(frozen=True)
class CurvatureDensity:
    """Thermodynamic-limit curvature per unit momentum measure.

    ``value`` is purely imaginary; ``gamma`` and ``lam`` record the
    evaluation point.
    """

    value: complex
    gamma: float
    lam: float


def berry_curvature_mode(alpha: float, params: ModelParams) -> complex:
    """Single-mode curvature contribution, i sin(theta) dtheta/dgamma.

    The derivative of the pairing angle is taken in closed form.

    Raises
    ------
    GaplessMode
        If the mode energy vanishes.
    """
    a = params.lam - math.cos(alpha)
    b = params.gamma * math.sin(alpha)
    r2 = a * a + b * b
    if r2 < 1e-24:
        raise GaplessMode(f"mode at alpha={alpha} is gapless")
    return 1j * a * b * math.sin(alpha) / r2**1.5


def berry_curvature_density(gamma: float, lam: float) -> CurvatureDensity:
    """Continuum curvature density i * integral of sin(theta) dtheta/dgamma.

    Integrates over alpha in [0, pi] by adaptive quadrature at relative
    tolerance 1e-9, split at alpha_F, where the dispersion of a gamma < 1
    chain has its minimum, so the near-critical peak sits at a panel edge.

    Raises
    ------
    CriticalPoint
        On the gapless lines.
    """
    from scipy.integrate import quad  # imported here: it dominates `import artifact`

    if model.gap(gamma, lam) < 1e-12:
        raise CriticalPoint(f"gapless couplings gamma={gamma}, lam={lam}")
    alpha_f = model._alpha_fermi(gamma, lam)

    def f(alpha: float) -> float:
        a = lam - math.cos(alpha)
        b = gamma * math.sin(alpha)
        return a * b * math.sin(alpha) / (a * a + b * b) ** 1.5

    total, _ = quad(f, alpha_f, math.pi, epsabs=1e-14, epsrel=1e-9, limit=200)
    if alpha_f > 0.0:
        total += quad(f, 0.0, alpha_f, epsabs=1e-14, epsrel=1e-9, limit=200)[0]
    return CurvatureDensity(1j * total, float(gamma), float(lam))


def _shift(mu: int, amount: float) -> tuple[float, float, float]:
    out = [0.0, 0.0, 0.0]
    out[mu] = amount
    return tuple(out)


def _qgt_raw(state_at, braket, h: float) -> np.ndarray:
    cache: dict = {}

    def at(offset):
        if offset not in cache:
            cache[offset] = state_at(offset)
        return cache[offset]

    zero = (0.0, 0.0, 0.0)
    conn_left = np.zeros(3, dtype=complex)
    conn_right = np.zeros(3, dtype=complex)
    for mu in range(3):
        plus, minus = at(_shift(mu, h)), at(_shift(mu, -h))
        conn_left[mu] = (braket(plus, at(zero)) - braket(minus, at(zero))) / (2 * h)
        conn_right[mu] = (braket(at(zero), plus) - braket(at(zero), minus)) / (2 * h)
    g = np.zeros((3, 3), dtype=complex)
    for mu in range(3):
        bra_p, bra_m = at(_shift(mu, h)), at(_shift(mu, -h))
        for nu in range(3):
            ket_p, ket_m = at(_shift(nu, h)), at(_shift(nu, -h))
            second = (
                braket(bra_p, ket_p)
                - braket(bra_p, ket_m)
                - braket(bra_m, ket_p)
                + braket(bra_m, ket_m)
            ) / (4 * h * h)
            g[mu, nu] = second - conn_left[mu] * conn_right[nu]
    return g


def _stencil_gap_floor(gamma: float, lam: float, h: float) -> float:
    worst = math.inf
    for dg, dl in (
        (0.0, 0.0),
        (h, 0.0),
        (-h, 0.0),
        (0.0, h),
        (0.0, -h),
        (0.5 * h, 0.0),
        (-0.5 * h, 0.0),
        (0.0, 0.5 * h),
        (0.0, -0.5 * h),
    ):
        worst = min(worst, model.gap(abs(gamma + dg), lam + dl))
    return worst


def qgt_finite_diff(
    params: ModelParams, n_sites: int | None = None, step: float | None = None
) -> GeometricTensor:
    """Central-difference geometric tensor from ground-state overlaps.

    Rings up to 10 sites differentiate the exact-diagonalization ground
    vector (so the result is comparable with the spectral sum); larger
    rings differentiate the closed-form product state.  The estimate is
    recomputed at half the step and the pair must agree before the finer
    answer is returned, Hermitized.

    Parameters
    ----------
    params : ModelParams
    n_sites : int, optional
        Ring length; falls back to ``params.n_sites``.
    step : float, optional
        Central-difference step in [1e-6, 1e-3].  Defaults to 2e-4 on the
        ED path and 1e-5 on the product path.

    Raises
    ------
    CriticalPoint
        If the center point is gapless.
    StencilCrossesCritical
        If any stencil point has gap below 1e-10.
    FiniteDifferenceUnstable
        If the step-halving check fails.
    """
    n = n_sites if n_sites is not None else params.n_sites
    if n is None:
        raise BadSize("a ring size is required")
    n = int(n)
    model._check_size(n)
    small = n <= _ED_PATH_MAX
    h = step if step is not None else (_ED_STEP if small else _PRODUCT_STEP)
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"step must lie in [1e-6, 1e-3], got {h}")
    phi, gamma, lam = params.phi, params.gamma, params.lam
    if model.gap(gamma, lam) < 1e-12:
        raise CriticalPoint(f"gapless couplings gamma={gamma}, lam={lam}")
    if _stencil_gap_floor(gamma, lam, h) < 1e-10:
        raise StencilCrossesCritical(
            f"stencil around gamma={gamma}, lam={lam} touches the critical set"
        )

    if small:
        def state_at(offset):
            return oracle._ed_vector(
                phi + offset[0], gamma + offset[1], lam + offset[2], n
            )

        braket = np.vdot
    else:
        def state_at(offset):
            _, u, v = _pair_arrays(
                phi + offset[0], gamma + offset[1], lam + offset[2], n
            )
            return u, v

        def braket(a, b):
            return _overlap_arrays(a[0], a[1], b[0], b[1])

    g_h = _qgt_raw(state_at, braket, h)
    g_half = _qgt_raw(state_at, braket, 0.5 * h)
    scale = max(1.0, float(np.max(np.abs(g_half))))
    # The product-path tensor is extensive and its rounding floor grows
    # with the mode count, so the step-halving guard is relative there;
    # the desk-scale path keeps the tight bound.
    drift_tol = 1e-6 if small else 1e-3
    drift = float(np.max(np.abs(g_h - g_half)))
    if drift > drift_tol * scale:
        raise FiniteDifferenceUnstable(
            f"step {h:.1e} and {0.5 * h:.1e} disagree by {drift:.3e} "
            f"(scale {scale:.3e})"
        )
    return GeometricTensor(0.5 * (g_half + g_half.conj().T))


def metric_real(
    params: ModelParams, n_sites: int | None = None, step: float | None = None
) -> np.ndarray:
    """Real symmetric ground-state metric, the ds^2 form of the tensor."""
    return qgt_finite_diff(params, n_sites, step).real_metric


def qgt_spectral(params: ModelParams, n_sites: int | None = None) -> GeometricTensor:
    """Geometric tensor as the sum over excited-state matrix elements.

    Raises
    ------
    SizeLimit
        Unless 2 <= N <= 10.
    DegenerateGroundState
        When the finite-size gap closes below 1e-10.
    """
    total = np.zeros((3, 3), dtype=complex)
    for term in oracle.qgt_matrix_elements(params, n_sites):
        total += term.matrix
    return GeometricTensor(0.5 * (total + total.conj().T))
