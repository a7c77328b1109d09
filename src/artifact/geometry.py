"""Quantum geometric tensor and Berry curvature of the ground-state family.

Coordinates are always ordered (phi, gamma, lam).  The tensor of the
product ground state is a closed-form sum of per-mode Bloch-sphere tensors
over the pair momenta of its parity sector, at any ring size; it is the
spin-chain tensor wherever that sector holds the chain's ground state.  On
rings of up to 10 sites the spin-chain tensor also comes from two
exact-diagonalization oracles: the spectral sum over excited states, and
derivative vectors of the ED ground vector, with gamma and lam stepped and
phi exact from the gauge.  The curvature density is the tensor's curvature
per pair momentum in the limit N -> infinity: the even-sector sum on rings
doubled until it has converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model
from .errors import (
    CriticalPoint,
    FiniteDifferenceUnstable,
    GaplessMode,
    StencilCrossesCritical,
)
from .ground_state import _pair_grid, _sector_pairs
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
# Pair count past which the curvature density's midpoint sums stop doubling.
_DENSITY_MAX_PAIRS = 1 << 20


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
    evaluation point, and ``nodes`` the number of pair momenta of the
    accepted midpoint sum.
    """

    value: complex
    gamma: float
    lam: float
    nodes: int


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

    The thermodynamic limit of the closed-form tensor's curvature sum: the
    even-sector pair momenta (2k+1) pi / N are the midpoint rule for the
    integral over alpha in [0, pi], which converges geometrically in N at a
    rate set by the gap.  N doubles from 64 pairs until two successive sums
    agree to 1e-13; the finer one is returned, with its pair count.

    Raises
    ------
    ValueError
        If gamma or lam is not finite or is negative.
    CriticalPoint
        On the gapless lines, and where the gap is too small for the sums
        to agree within 2^20 pairs.
    """
    model._check_coupling("gamma", gamma)
    model._check_coupling("lam", lam)
    model._check_gapped(gamma, lam)
    pairs, previous = 64, None
    while pairs <= _DENSITY_MAX_PAIRS:
        n = 2 * pairs
        p = model._Pairing(_pair_grid(n, False), gamma, lam)
        total = (2.0 * math.pi / n) * float(p.sin_theta @ p.d_gamma)
        if previous is not None and abs(total - previous) <= 1e-13:
            return CurvatureDensity(1j * total, float(gamma), float(lam), pairs)
        previous, pairs = total, 2 * pairs
    raise CriticalPoint(
        f"gap {model.gap(gamma, lam):.3e} at gamma={gamma}, lam={lam} is too small "
        f"for the curvature density to converge within {_DENSITY_MAX_PAIRS} pairs"
    )


def qgt_product(params: ModelParams, n_sites: int) -> GeometricTensor:
    """Closed-form geometric tensor of the product ground state.

    Each pair block (cos(theta/2), i e^{-2i phi} sin(theta/2)) is a Bloch
    vector with polar angle theta and azimuth chi = pi/2 - 2 phi, so the
    tensor is the sum over the pair momenta of 1/4 (dtheta dtheta
    + sin^2(theta) dchi dchi) + i/4 sin(theta) (dtheta dchi - dchi dtheta),
    with sin(theta) and the derivatives of theta in closed form.  The pairs
    are those of ``build_ground_state``: the periodic 2 pi k / N,
    k = 1 ... N/2 - 1, when lam < 1 and the antiperiodic (2k+1) pi / N,
    k = 0 ... N/2 - 1, otherwise.  The result does not depend on phi.

    Raises
    ------
    BadSize
        Unless ``n_sites`` is an even integer >= 4.
    CriticalPoint
        If the couplings are gapless.
    """
    model._check_size(n_sites)
    gamma, lam = params.gamma, params.lam
    model._check_gapped(gamma, lam)
    pairing = _sector_pairs(n_sites, gamma, lam)[2]
    sin_theta = pairing.sin_theta
    d_theta = np.stack((pairing.d_gamma, pairing.d_lam))
    q = np.empty((3, 3), dtype=complex)
    q[0, 0] = sin_theta @ sin_theta
    q[1:, 1:] = 0.25 * (d_theta @ d_theta.T)
    q[0, 1:] = 0.5j * (d_theta @ sin_theta)
    q[1:, 0] = q[0, 1:].conj()
    return GeometricTensor(q)


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


def qgt_finite_diff(params: ModelParams, n_sites: int) -> GeometricTensor:
    """Central-difference geometric tensor of the exact-diagonalization ground vector.

    An oracle for the spin chain on small rings, comparable with
    ``qgt_spectral``: D^dag D - a a^dag with a = D^dag psi, for the stack D
    of derivative vectors (Provost and Vallee 1980).  phi is the gauge
    exp(-i phi P), P the popcount, so its column is exactly -i P psi; the
    gamma and lam columns are central differences at the step 2e-4 and at
    half of it (nine ED solves), which must agree before the finer estimate
    is returned, Hermitized.  The same parity sector must hold the ground
    level at every stencil point: where the sector levels cross inside the
    stencil (doublet crossings of small rings below lam = 1) no derivative exists.

    Raises
    ------
    BadSize
        If ``n_sites`` is not an integer.
    SizeLimit
        Unless 2 <= N <= 10.
    CriticalPoint
        If the center point is gapless.
    StencilCrossesCritical
        If any stencil point has gap below 1e-10, or the two parity
        sectors swap order inside the stencil.
    FiniteDifferenceUnstable
        If the step-halving check fails.
    """
    from . import oracle

    n = oracle._resolve_ed_size(n_sites, oracle._QGT_MAX)
    h = _ED_STEP
    phi, gamma, lam = params.phi, params.gamma, params.lam
    model._check_gapped(gamma, lam)
    if _stencil_gap_floor(gamma, lam, h) < 1e-10:
        raise StencilCrossesCritical(
            f"stencil around gamma={gamma}, lam={lam} touches the critical set"
        )

    even_lower = set()

    def ground(at_gamma, at_lam):
        e_even, e_odd, vec = oracle._ed_vector(phi, at_gamma, at_lam, n)
        even_lower.add(e_even <= e_odd)
        return vec

    psi = ground(gamma, lam)
    d_phi = -1j * oracle._popcounts(np.arange(psi.size), n) * psi

    def tensor(step):
        d = np.column_stack((
            d_phi,
            (ground(gamma + step, lam) - ground(gamma - step, lam)) / (2 * step),
            (ground(gamma, lam + step) - ground(gamma, lam - step)) / (2 * step),
        ))
        a = d.conj().T @ psi
        return d.conj().T @ d - np.outer(a, a.conj())

    g_h, g_half = tensor(h), tensor(0.5 * h)
    if len(even_lower) > 1:
        raise StencilCrossesCritical(
            f"the parity sectors of the {n}-site ring cross inside the stencil "
            f"around gamma={gamma}, lam={lam}"
        )
    scale = max(1.0, float(np.max(np.abs(g_half))))
    drift = float(np.max(np.abs(g_h - g_half)))
    if drift > 1e-6 * scale:
        raise FiniteDifferenceUnstable(
            f"step {h:.1e} and {0.5 * h:.1e} disagree by {drift:.3e} "
            f"(scale {scale:.3e})"
        )
    return GeometricTensor(0.5 * (g_half + g_half.conj().T))


def qgt_spectral(params: ModelParams, n_sites: int) -> GeometricTensor:
    """Geometric tensor as the sum over the ground block's excited states.

    Raises
    ------
    BadSize
        If ``n_sites`` is not an integer.
    SizeLimit
        Unless 2 <= N <= 10.
    DegenerateGroundState
        When the finite-size gap closes below 1e-10.
    """
    from . import oracle

    total = np.zeros((3, 3), dtype=complex)
    for term in oracle.qgt_matrix_elements(params, n_sites):
        total += term.matrix
    return GeometricTensor(total)
