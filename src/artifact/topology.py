"""First Chern number of the ground-state family and phase classification.

The winding route reads the total pairing angle swept across the band off
its values at the two unpaired momenta; the discrete route closes the
(phi, momentum) cylinder into a sphere with the two unpaired levels as pole
states and sums gauge-invariant plaquette and pole-fan phases.  Both jump
from -1 to 0 at the critical field.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    BadSize,
    GaplessOnGrid,
    NoJumpFound,
    TooCloseToCritical,
    VortexOnPlaquette,
)
from .ground_state import _pair_block

__all__ = [
    "PhaseLabel",
    "ChernMethod",
    "ChernResult",
    "PhasePoint",
    "chern_number",
    "chern_discrete",
    "classify_phase",
    "detect_transition",
]

_CRITICAL_STRIP = 1e-3


class PhaseLabel(str, enum.Enum):
    CHERN_MINUS_ONE = "ChernMinusOne"
    BOUNDARY = "Boundary"
    CHERN_ZERO = "ChernZero"


class ChernMethod(str, enum.Enum):
    WINDING = "Winding"
    DISCRETE = "DiscretePlaquette"


@dataclass(frozen=True)
class ChernResult:
    """Chern number estimate with its quality bookkeeping.

    Attributes
    ----------
    value : float
        Raw estimate before integer snapping.
    nearest_integer : int
    residual : float
        Distance |value - nearest_integer|.
    method : ChernMethod
    node_count : int
        Pairing-angle evaluations (winding) or grid nodes (discrete).
    """

    value: float
    nearest_integer: int
    residual: float
    method: ChernMethod
    node_count: int


@dataclass(frozen=True)
class PhasePoint:
    """Classification of a field value by its topological invariant."""

    lam: float
    chern: ChernResult | None
    gap_at_gamma_one: float
    label: PhaseLabel


def _check_field(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")


def _check_grid(grid: tuple[int, int], n_sites: int) -> tuple[int, int, int]:
    """Validated plaquette grid sides and ring length of the discrete route.

    Raises
    ------
    ValueError
        If a grid side is not an integer or is below 16.
    BadSize
        Unless N is an even integer with N >= 256.
    """
    n_phi, n_beta = grid
    if not all(isinstance(side, (int, np.integer)) for side in grid):
        raise ValueError(f"grid sizes must be integers, got {grid}")
    if n_phi < 16 or n_beta < 16:
        raise ValueError(f"grid sizes must be >= 16, got {grid}")
    model._check_size(n_sites)
    if n_sites < 256:
        raise BadSize(f"n_sites must be even with N >= 256, got {n_sites}")
    return n_phi, n_beta, n_sites


def chern_number(lam: float) -> ChernResult:
    """Chern number from the winding of the pairing angle.

    The curvature integral over the closed (phi, anisotropy) manifold
    telescopes to the net pairing-angle sweep across the band,
    (theta(pi) - theta(0)) / pi, read off the two unpaired momenta at a
    reference anisotropy (any positive one gives the same value): -1 below
    the critical field and 0 above it.

    Raises
    ------
    ValueError
        If lam is negative or not finite.
    TooCloseToCritical
        If |lam - 1| <= 1e-3.
    """
    _check_field(lam)
    if abs(lam - 1.0) <= _CRITICAL_STRIP:
        raise TooCloseToCritical(f"lam={lam} is within 1e-3 of the critical field")
    theta = model._Pairing(np.array([0.0, math.pi]), 1.0, lam).theta
    value = float(theta[1] - theta[0]) / math.pi
    nearest = int(round(value))
    return ChernResult(
        value=value,
        nearest_integer=nearest,
        residual=abs(value - nearest),
        method=ChernMethod.WINDING,
        node_count=2,
    )


def _total_flux(u: np.ndarray, v: np.ndarray, cap_bottom, cap_top):
    """Summed plaquette and pole-fan phases of a ray field on the sphere.

    ``u`` and ``v`` are amplitude arrays that broadcast to (n_phi, n_beta);
    the phi direction wraps, the beta direction is closed by triangle fans
    to the two cap states.  Returns (total phase, worst |cell phase|, smallest
    link modulus); every link enters exactly two cells with opposite
    orientation, so the total is an exact multiple of 2 pi.
    """
    u_next = np.roll(u, -1, axis=0)
    v_next = np.roll(v, -1, axis=0)
    link_phi = np.conj(u) * u_next + np.conj(v) * v_next
    link_beta = np.conj(u[:, :-1]) * u[:, 1:] + np.conj(v[:, :-1]) * v[:, 1:]
    cb_u, cb_v = cap_bottom
    ct_u, ct_v = cap_top
    bottom = np.conj(cb_u) * u[:, 0] + np.conj(cb_v) * v[:, 0]
    top = np.conj(u[:, -1]) * ct_u + np.conj(v[:, -1]) * ct_v
    min_link = min(
        float(np.min(np.abs(link_phi))),
        float(np.min(np.abs(link_beta))) if link_beta.size else math.inf,
        float(np.min(np.abs(bottom))),
        float(np.min(np.abs(top))),
    )
    plaq = (
        link_phi[:, :-1]
        * np.roll(link_beta, -1, axis=0)
        * np.conj(link_phi[:, 1:])
        * np.conj(link_beta)
    )
    tri_bottom = np.roll(bottom, -1) * np.conj(link_phi[:, 0]) * np.conj(bottom)
    tri_top = np.conj(top) * link_phi[:, -1] * np.roll(top, -1)
    phases = np.concatenate(
        [np.angle(plaq).ravel(), np.angle(tri_bottom), np.angle(tri_top)]
    )
    total = float(np.sum(phases))
    worst = float(np.max(np.abs(phases))) if phases.size else 0.0
    return total, worst, min_link


def chern_discrete(
    lam: float,
    grid: tuple[int, int] = (64, 64),
    n_sites: int = 1024,
    gamma_ref: float = 1.0,
) -> ChernResult:
    """Chern number from plaquette link variables on a closed grid.

    Grid rows are snapped to the physical pair momenta of an N-site ring
    (beta parametrizes half the band), columns sample the phase angle over
    its period; the unpaired momenta provide the two pole states, the
    bottom one occupied exactly when lam < 1.  The summed plaquette and
    fan phases over 2 pi give a machine-precision integer.

    Raises
    ------
    ValueError
        If lam is negative or not finite, a grid side is below 16 or
        gamma_ref is not positive.
    BadSize
        Unless N is even with N >= 256.
    GaplessOnGrid
        If a sampled mode is closer than 1e-9 to gapless.
    VortexOnPlaquette
        If a cell phase reaches pi or a link modulus collapses, making
        the phase assignment ambiguous.
    """
    _check_field(lam)
    n_phi, n_beta, n = _check_grid(grid, n_sites)
    if gamma_ref <= 0:
        raise ValueError("gamma_ref must be positive")
    ks = np.clip(
        np.round((np.arange(n_beta) + 0.5) * (n / 2) / n_beta).astype(int),
        1,
        n // 2 - 1,
    )
    alphas = 2.0 * np.pi * ks / n
    pairing = model._Pairing(alphas, gamma_ref, lam)
    if np.any(pairing.energy < 1e-9):
        raise GaplessOnGrid(f"sampled mode energy below 1e-9 at lam={lam}")
    phis = np.pi * np.arange(n_phi) / n_phi
    u, v = _pair_block(pairing.theta, phis[:, None])
    cap_bottom = (0.0, 1.0) if lam < 1.0 else (1.0, 0.0)
    cap_top = (1.0, 0.0)
    total, worst, min_link = _total_flux(u[None, :], v, cap_bottom, cap_top)
    if min_link < 1e-12:
        raise VortexOnPlaquette(f"link modulus {min_link:.3e}; refine the grid")
    if worst >= math.pi - 1e-9:
        raise VortexOnPlaquette(f"cell phase {worst:.6f} is ambiguous; refine the grid")
    value = total / (2.0 * math.pi)
    nearest = int(round(value))
    return ChernResult(
        value=float(value),
        nearest_integer=nearest,
        residual=abs(value - nearest),
        method=ChernMethod.DISCRETE,
        node_count=n_phi * n_beta + 2,
    )


def classify_phase(lam: float) -> PhasePoint:
    """Label a field value by its Chern number.

    Inside the excluded strip |lam - 1| <= 1e-3 no invariant is computed
    and the label is Boundary with ``chern`` set to None; elsewhere the
    pairing-angle winding snaps to -1 or 0.

    Raises
    ------
    ValueError
        For negative or non-finite lam, or if the snapped integer is not -1 or 0.
    """
    _check_field(lam)
    gap_one = model.gap(1.0, lam)
    if abs(lam - 1.0) <= _CRITICAL_STRIP:
        return PhasePoint(lam, None, gap_one, PhaseLabel.BOUNDARY)
    result = chern_number(lam)
    if result.nearest_integer == -1:
        label = PhaseLabel.CHERN_MINUS_ONE
    elif result.nearest_integer == 0:
        label = PhaseLabel.CHERN_ZERO
    else:
        raise ValueError(f"unexpected invariant {result.nearest_integer} at lam={lam}")
    return PhasePoint(lam, result, gap_one, label)


def detect_transition(
    lambda_lo: float,
    lambda_hi: float,
    tol: float,
    grid: tuple[int, int] = (32, 32),
    n_sites: int = 512,
) -> tuple[float, float]:
    """Bracket the invariant jump between two gapped field values.

    Bisection on the integer label of ``chern_discrete``; the returned
    closed interval has width <= tol and contains the jump.

    Raises
    ------
    TooCloseToCritical
        If either endpoint lies in the excluded strip around the critical
        field (endpoints must classify as definite phases).
    NoJumpFound
        If both endpoints carry the same label.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if lambda_lo >= lambda_hi:
        raise ValueError("need lambda_lo < lambda_hi")
    lo_point = classify_phase(lambda_lo)
    hi_point = classify_phase(lambda_hi)
    if PhaseLabel.BOUNDARY in (lo_point.label, hi_point.label):
        raise TooCloseToCritical("endpoints must lie outside the critical strip")
    if lo_point.label == hi_point.label:
        raise NoJumpFound(
            f"both endpoints classify as {lo_point.label.value}; nothing to bracket"
        )
    lo, hi = float(lambda_lo), float(lambda_hi)
    lo_integer = lo_point.chern.nearest_integer
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chern_discrete(mid, grid, n_sites).nearest_integer == lo_integer:
            lo = mid
        else:
            hi = mid
    return lo, hi
