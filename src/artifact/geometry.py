"""Quantum geometric tensor and Berry curvature of the ground-state family.

Coordinates are always ordered (phi, gamma, lam).  The tensor of the
product ground state is a closed-form sum of per-mode Bloch-sphere tensors
at any ring size.  On rings of up to 10 sites the spin-chain tensor also
comes from two exact-diagonalization oracles: central finite differences
of ED ground vectors and the spectral sum over excited states.  The
curvature density comes from the closed form of the pairing angle.
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
from .ground_state import _pair_grid
# Not called here; bench/tracer.py probes these names on this module.
from .ground_state import _overlap_arrays, _pair_arrays  # noqa: F401
from .model import ModelParams

__all__ = [
    "GeometricTensor",
    "CurvatureDensity",
    "berry_curvature_mode",
    "berry_curvature_density",
    "qgt_product",
    "qgt_finite_diff",
    "qgt_spectral",
]

# Probe-calibrated central-difference step for the ED ground vectors.
_ED_STEP = 2e-4


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
    pairing = model._Pairing(alpha, params.gamma, params.lam)
    if pairing.r2 < 1e-24:
        raise GaplessMode(f"mode at alpha={alpha} is gapless")
    return 1j * float(pairing.sin_theta * pairing.d_gamma)


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
        pairing = model._Pairing(alpha, gamma, lam)
        return float(pairing.sin_theta * pairing.d_gamma)

    total, _ = quad(f, alpha_f, math.pi, epsabs=1e-14, epsrel=1e-9, limit=200)
    if alpha_f > 0.0:
        total += quad(f, 0.0, alpha_f, epsabs=1e-14, epsrel=1e-9, limit=200)[0]
    return CurvatureDensity(1j * total, float(gamma), float(lam))


def qgt_product(params: ModelParams, n_sites: int | None = None) -> GeometricTensor:
    """Closed-form geometric tensor of the product ground state.

    Each pair block (cos(theta/2), i e^{-2i phi} sin(theta/2)) is a Bloch
    vector with polar angle theta and azimuth chi = pi/2 - 2 phi, so the
    tensor is the sum over the pair momenta alpha_k = 2 pi k / N,
    k = 1 ... N/2 - 1, of 1/4 (dtheta dtheta + sin^2(theta) dchi dchi)
    + i/4 sin(theta) (dtheta dchi - dchi dtheta), with sin(theta) and the
    derivatives of theta in closed form.  The result does not depend on phi.

    Raises
    ------
    BadSize
        If no ring length is available, or it is not an even integer >= 4.
    CriticalPoint
        If the couplings are gapless.
    """
    n = n_sites if n_sites is not None else params.n_sites
    if n is None:
        raise BadSize("a ring size is required")
    model._check_size(n)
    gamma, lam = params.gamma, params.lam
    if model.gap(gamma, lam) < 1e-12:
        raise CriticalPoint(f"gapless couplings gamma={gamma}, lam={lam}")
    _, alphas = _pair_grid(n)
    pairing = model._Pairing(alphas, gamma, lam)
    sin_theta = pairing.sin_theta
    d_theta = np.stack((pairing.d_gamma, pairing.d_lam))
    q = np.empty((3, 3), dtype=complex)
    q[0, 0] = sin_theta @ sin_theta
    q[1:, 1:] = 0.25 * (d_theta @ d_theta.T)
    q[0, 1:] = 0.5j * (d_theta @ sin_theta)
    q[1:, 0] = q[0, 1:].conj()
    return GeometricTensor(q)


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
    """Central-difference geometric tensor of the exact-diagonalization ground vector.

    An oracle for the spin chain on small rings, comparable with
    ``qgt_spectral``.  The estimate is recomputed at half the step and the
    pair must agree before the finer answer is returned, Hermitized.

    Parameters
    ----------
    params : ModelParams
    n_sites : int, optional
        Ring length; falls back to ``params.n_sites``.
    step : float, optional
        Central-difference step in [1e-6, 1e-3], default 2e-4.

    Raises
    ------
    SizeLimit
        Unless 2 <= N <= 10.
    CriticalPoint
        If the center point is gapless.
    StencilCrossesCritical
        If any stencil point has gap below 1e-10.
    FiniteDifferenceUnstable
        If the step-halving check fails.
    """
    n = oracle._resolve_ed_size(params, n_sites, oracle._QGT_MAX)
    h = step if step is not None else _ED_STEP
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"step must lie in [1e-6, 1e-3], got {h}")
    phi, gamma, lam = params.phi, params.gamma, params.lam
    if model.gap(gamma, lam) < 1e-12:
        raise CriticalPoint(f"gapless couplings gamma={gamma}, lam={lam}")
    if _stencil_gap_floor(gamma, lam, h) < 1e-10:
        raise StencilCrossesCritical(
            f"stencil around gamma={gamma}, lam={lam} touches the critical set"
        )

    def state_at(offset):
        return oracle._ed_vector(
            phi + offset[0], gamma + offset[1], lam + offset[2], n
        )[2]

    g_h = _qgt_raw(state_at, np.vdot, h)
    g_half = _qgt_raw(state_at, np.vdot, 0.5 * h)
    scale = max(1.0, float(np.max(np.abs(g_half))))
    drift = float(np.max(np.abs(g_h - g_half)))
    if drift > 1e-6 * scale:
        raise FiniteDifferenceUnstable(
            f"step {h:.1e} and {0.5 * h:.1e} disagree by {drift:.3e} "
            f"(scale {scale:.3e})"
        )
    return GeometricTensor(0.5 * (g_half + g_half.conj().T))


def qgt_spectral(params: ModelParams, n_sites: int | None = None) -> GeometricTensor:
    """Geometric tensor as the sum over the ground block's excited states.

    Raises
    ------
    BadSize
        If the ring size is not an integer.
    SizeLimit
        Unless 2 <= N <= 10.
    DegenerateGroundState
        When the finite-size gap closes below 1e-10.
    """
    total = np.zeros((3, 3), dtype=complex)
    for term in oracle.qgt_matrix_elements(params, n_sites):
        total += term.matrix
    return GeometricTensor(0.5 * (total + total.conj().T))
