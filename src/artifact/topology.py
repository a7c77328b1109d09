"""First Chern number of the ground-state family and phase classification.

The winding route reads the total pairing angle swept across the band off
its values at the two unpaired momenta; the discrete route closes the
(phi, momentum) cylinder into a sphere with the two unpaired levels as pole
states and sums gauge-invariant plaquette and pole-fan phases.  Both jump
from -1 to 0 at the critical field.  Both return a ``ChernResult`` that
stores the raw estimate only; its nearest integer and residual are
derived from it.

A step in phi maps every pair block by diag(1, e^{-2i dphi}), which fixes
both pole states, so every phi-column of cells carries the same phases.
The discrete route therefore evaluates one strip of cells, the 2 n_beta
nodes of two adjacent columns, and multiplies its flux by n_phi: the
result is the flux of the whole n_phi x n_beta grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import BadSize, CriticalPoint, NoJumpFound, VortexOnPlaquette
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
        Raw estimate before integer snapping; ``nearest_integer`` and
        ``residual`` (the distance |value - nearest_integer|) derive from it.
    method : ChernMethod
    node_count : int
        Pairing-angle evaluations (winding), or the n_phi * n_beta + 2 nodes
        of the grid the discrete flux covers; by the phi symmetry it
        evaluates 2 * n_beta of them.
    worst_cell_phase : float or None
        Largest |phase| of one plaquette or pole-fan cell (discrete only);
        the sum is unambiguous while it stays below pi.
    min_link : float or None
        Smallest link modulus on the grid (discrete only); a link near zero
        marks a vortex on the grid.
    """

    value: float
    method: ChernMethod
    node_count: int
    worst_cell_phase: float | None = None
    min_link: float | None = None

    @property
    def nearest_integer(self) -> int:
        return int(round(self.value))

    @property
    def residual(self) -> float:
        return abs(self.value - self.nearest_integer)


@dataclass(frozen=True)
class PhasePoint:
    """Classification of a field value by its topological invariant."""

    lam: float
    chern: ChernResult | None
    gap_at_gamma_one: float
    label: PhaseLabel


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


def _pole_thetas(lam: float) -> np.ndarray:
    """Pairing angle at the two unpaired momenta alpha = 0 and pi (gamma = 1)."""
    return model._Pairing(np.array([0.0, math.pi]), 1.0, lam).theta


def _pole_state(theta: float) -> tuple[float, float]:
    """Unpaired level as an exact cap state: occupied (0, 1) past theta = pi/2."""
    return (0.0, 1.0) if theta > 0.5 * math.pi else (1.0, 0.0)


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
    CriticalPoint
        If |lam - 1| <= 1e-3.
    """
    model._check_coupling("lam", lam)
    if abs(lam - 1.0) <= 1e-3:
        raise CriticalPoint(f"lam={lam} is within 1e-3 of the critical field")
    theta = _pole_thetas(lam)
    value = float(theta[1] - theta[0]) / math.pi
    return ChernResult(value=value, method=ChernMethod.WINDING, node_count=2)


def _total_flux(u: np.ndarray, v: np.ndarray, cap_bottom, cap_top):
    """Summed plaquette and pole-fan phases of a strip of cells on the sphere.

    ``u`` and ``v`` are amplitude arrays of shape (n_cols, n_beta): rows are
    consecutive phi-columns of nodes, joined by links with no wrap, so they
    bound n_cols - 1 columns of cells.  The beta direction is closed by
    triangle fans to the two cap states.  The whole closed grid is the
    strip whose last row repeats the first.  Returns (total phase, worst
    |cell phase|, smallest link modulus); on a closed grid every link
    enters exactly two cells with opposite orientation, so the total is an
    exact multiple of 2 pi.
    """
    link_phi = np.conj(u[:-1]) * u[1:] + np.conj(v[:-1]) * v[1:]
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
        * link_beta[1:]
        * np.conj(link_phi[:, 1:])
        * np.conj(link_beta[:-1])
    )
    tri_bottom = bottom[1:] * np.conj(link_phi[:, 0]) * np.conj(bottom[:-1])
    tri_top = np.conj(top[:-1]) * link_phi[:, -1] * top[1:]
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
) -> ChernResult:
    """Chern number from plaquette link variables on a closed grid.

    Grid rows are snapped to the physical pair momenta of an N-site ring
    (beta parametrizes half the band), columns sample the phase angle over
    its period, at the reference anisotropy gamma = 1 of ``chern_number``;
    the unpaired momenta provide the two pole states, each occupied when
    its pairing angle exceeds pi/2.  The grid has n_phi * n_beta + 2
    nodes, but every phi-column of cells carries the same phases, so only
    the strip between phi = 0 and pi / n_phi is evaluated (2 * n_beta
    nodes) and its flux is multiplied by n_phi.  The summed plaquette and
    fan phases over 2 pi give a machine-precision integer.  At lam = 1 the
    alpha = 0 pole level is gapless and theta = atan2(+0, +0) = 0 takes it
    empty, so the critical field reads 0; ``detect_transition`` relies on
    this for its upper bracket end at exactly 1.0.

    Raises
    ------
    ValueError
        If lam is negative or not finite, or a grid side is below 16.
    BadSize
        Unless N is even with N >= 256.
    CriticalPoint
        If a sampled mode is closer than 1e-9 to gapless.
    VortexOnPlaquette
        If a cell phase reaches pi or a link modulus collapses, making
        the phase assignment ambiguous.
    """
    model._check_coupling("lam", lam)
    n_phi, n_beta, n = _check_grid(grid, n_sites)
    ks = np.clip(
        np.round((np.arange(n_beta) + 0.5) * (n / 2) / n_beta).astype(int),
        1,
        n // 2 - 1,
    )
    alphas = 2.0 * np.pi * ks / n
    pairing = model._Pairing(alphas, 1.0, lam)
    if np.any(pairing.energy < 1e-9):
        raise CriticalPoint(f"sampled mode energy below 1e-9 at lam={lam}")
    u, v = _pair_block(pairing.theta, np.array([[0.0], [math.pi / n_phi]]))
    theta_0, theta_pi = _pole_thetas(lam)
    strip, worst, min_link = _total_flux(
        np.broadcast_to(u, v.shape), v, _pole_state(theta_0), _pole_state(theta_pi)
    )
    if min_link < 1e-12:
        raise VortexOnPlaquette(f"link modulus {min_link:.3e}; refine the grid")
    if worst >= math.pi - 1e-9:
        raise VortexOnPlaquette(f"cell phase {worst:.6f} is ambiguous; refine the grid")
    return ChernResult(
        value=float(n_phi * strip / (2.0 * math.pi)),
        method=ChernMethod.DISCRETE,
        node_count=n_phi * n_beta + 2,
        worst_cell_phase=worst,
        min_link=min_link,
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
    try:
        result = chern_number(lam)
    except CriticalPoint:
        return PhasePoint(lam, None, model.gap(1.0, lam), PhaseLabel.BOUNDARY)
    if result.nearest_integer == -1:
        label = PhaseLabel.CHERN_MINUS_ONE
    elif result.nearest_integer == 0:
        label = PhaseLabel.CHERN_ZERO
    else:
        raise ValueError(f"unexpected invariant {result.nearest_integer} at lam={lam}")
    return PhasePoint(lam, result, model.gap(1.0, lam), label)


def detect_transition(lambda_lo: float, lambda_hi: float, tol: float) -> tuple[float, float]:
    """Bracket the invariant jump between two gapped field values.

    Bisection on the integer label of ``chern_discrete`` on a fixed 32 x 32
    grid of a 512-site ring; the returned closed interval has width <= tol
    and contains the jump.

    Raises
    ------
    ValueError
        If tol is not a finite positive number, or lambda_lo >= lambda_hi.
    CriticalPoint
        If either endpoint lies in the excluded strip around the critical
        field (endpoints must classify as definite phases).
    NoJumpFound
        If both endpoints carry the same label.
    """
    model._check_finite("tol", tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if lambda_lo >= lambda_hi:
        raise ValueError("need lambda_lo < lambda_hi")
    lo_point = classify_phase(lambda_lo)
    hi_point = classify_phase(lambda_hi)
    if PhaseLabel.BOUNDARY in (lo_point.label, hi_point.label):
        raise CriticalPoint("endpoints must lie outside the critical strip")
    if lo_point.label == hi_point.label:
        raise NoJumpFound(
            f"both endpoints classify as {lo_point.label.value}; nothing to bracket"
        )
    lo, hi = float(lambda_lo), float(lambda_hi)
    lo_integer = lo_point.chern.nearest_integer
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chern_discrete(mid, (32, 32), 512).nearest_integer == lo_integer:
            lo = mid
        else:
            hi = mid
    return lo, hi
