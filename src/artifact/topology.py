"""First Chern number of the ground-state family and phase classification.

The winding route reads the total pairing angle swept across the band off
its values at the two unpaired momenta; the discrete route closes the
(phi, momentum) cylinder into a sphere with the two unpaired levels as pole
states and sums gauge-invariant plaquette and pole-fan phases.  Both jump
from -1 to 0 at the critical field.  Both return a ``ChernResult`` that
stores the raw estimate only; its nearest integer and residual are
derived from it.  The pole angles of many fields are one numpy pass, the
field being the leading axis; ``chern_number`` and ``classify_phase`` are
that pass at one field.

A step in phi maps every pair block by diag(1, e^{-2i dphi}), which fixes
both pole states, so every phi-column of cells carries the same phases.
The discrete route therefore evaluates one strip of cells, the 2 n_beta
nodes of two adjacent columns, and multiplies its flux by n_phi: the
result is the flux of the whole n_phi x n_beta grid.  The strips of many
fields are evaluated together, the field being the leading batch axis of
every array, in blocks of about ``_BLOCK_NODES`` nodes; ``chern_discrete``
is that evaluation at one field.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ArtifactError, CriticalPoint, NoJumpFound, VortexOnPlaquette
from .ground_state import _pair_block

__all__ = [
    "PhaseLabel",
    "ChernResult",
    "PhasePoint",
    "chern_number",
    "chern_discrete",
    "classify_phase",
    "detect_transition",
]

# Strip nodes evaluated in one numpy pass: 16 fields at n_beta = 128, which
# keeps a block's temporaries within about a megabyte.
_BLOCK_NODES = 4096


class PhaseLabel(str, enum.Enum):
    CHERN_MINUS_ONE = "ChernMinusOne"
    BOUNDARY = "Boundary"
    CHERN_ZERO = "ChernZero"


# the only integers the winding snaps to; see ``classify_phase``
_WINDING_LABELS = {-1: PhaseLabel.CHERN_MINUS_ONE, 0: PhaseLabel.CHERN_ZERO}


@dataclass(frozen=True)
class ChernResult:
    """Chern number estimate with its quality bookkeeping.

    Attributes
    ----------
    value : float
        Raw estimate before integer snapping; ``nearest_integer`` and
        ``residual`` (the distance |value - nearest_integer|) derive from it.
    node_count : int
        Pairing-angle evaluations (winding), or the n_phi * n_beta + 2 nodes
        of the grid the discrete flux covers; by the phi symmetry it
        evaluates 2 * n_beta of them.
    worst_cell_phase : float or None
        Largest |phase| of one plaquette or pole-fan cell (discrete only;
        None marks a winding result); the sum is unambiguous while it
        stays below pi.
    min_link : float or None
        Smallest link modulus on the grid (discrete only); a link near zero
        marks a vortex on the grid.
    """

    value: float
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
    """Validated plaquette grid sides and ring length of the discrete route, as Python ints.

    Raises
    ------
    ValueError
        If the grid is not a pair of integers, each in [16, 2**53].
    BadSize
        Unless N is an even integer with 256 <= N <= 2**53, where N / 2 and
        every snapped momentum index are still exact in float64.
    """
    sides = grid if isinstance(grid, (tuple, list, np.ndarray)) and len(grid) == 2 else [None]
    if not all(isinstance(side, (int, np.integer)) for side in sides):
        raise ValueError(f"grid must be a pair of integers, got {grid!r}")
    n_phi, n_beta = sides
    if not (16 <= n_phi <= 2**53 and 16 <= n_beta <= 2**53):
        raise ValueError(f"grid sizes must lie in [16, 2**53], got {grid}")
    return int(n_phi), int(n_beta), model._check_size(n_sites, 256)


def _pole_thetas(lam) -> np.ndarray:
    """Pairing angle at the two unpaired momenta alpha = 0 and pi (gamma = 1), last axis."""
    return model._Pairing(np.array([0.0, math.pi]), 1.0, lam).theta


def _pole_state(theta) -> tuple[np.ndarray, np.ndarray]:
    """Unpaired level as an exact cap state: occupied (0, 1) past theta = pi/2."""
    occupied = theta > 0.5 * math.pi
    return (~occupied).astype(float), occupied.astype(float)


def chern_number(lam: float) -> ChernResult:
    """Chern number from the winding of the pairing angle.

    The curvature integral over the closed (phi, anisotropy) manifold
    telescopes to the net pairing-angle sweep across the band,
    (theta(pi) - theta(0)) / pi, read off the two unpaired momenta at a
    reference anisotropy (any positive one gives the same value): -1 below
    the critical field and 0 above it.  This is the evaluation of
    ``_phase_batch`` at a batch of one field.

    Raises
    ------
    ValueError
        If lam is not a real number in [0, 1e150].
    CriticalPoint
        If |lam - 1| <= 1e-3.
    """
    (point,) = _phase_batch([model._check_coupling("lam", lam)])
    if point.chern is None:
        raise CriticalPoint(f"lam={point.lam} is within 1e-3 of the critical field")
    return point.chern


def _total_flux(u: np.ndarray, v: np.ndarray, cap_bottom, cap_top):
    """Summed plaquette and pole-fan phases of a strip of cells on the sphere.

    ``u`` and ``v`` are amplitude arrays of shape (..., n_cols, n_beta):
    leading axes are a batch of strips, and in each strip the rows are
    consecutive phi-columns of nodes, joined by links with no wrap, so they
    bound n_cols - 1 columns of cells.  The beta direction is closed by
    triangle fans to the two cap states, whose components broadcast against
    the (..., n_cols) end nodes.  The whole closed grid is the strip whose
    last row repeats the first.  Returns (total phase, worst |cell phase|,
    smallest link modulus), each of the batch shape; on a closed grid every
    link enters exactly two cells with opposite orientation, so the total is
    an exact multiple of 2 pi.
    """
    link_phi = np.conj(u[..., :-1, :]) * u[..., 1:, :] + np.conj(v[..., :-1, :]) * v[..., 1:, :]
    link_beta = np.conj(u[..., :-1]) * u[..., 1:] + np.conj(v[..., :-1]) * v[..., 1:]
    cb_u, cb_v = cap_bottom
    ct_u, ct_v = cap_top
    bottom = np.conj(cb_u) * u[..., 0] + np.conj(cb_v) * v[..., 0]
    top = np.conj(u[..., -1]) * ct_u + np.conj(v[..., -1]) * ct_v
    links = (np.abs(link_phi), np.abs(link_beta), np.abs(bottom)[..., None], np.abs(top)[..., None])
    min_link = np.min([np.min(a, axis=(-2, -1), initial=math.inf) for a in links], axis=0)
    plaq = (
        link_phi[..., :-1]
        * link_beta[..., 1:, :]
        * np.conj(link_phi[..., 1:])
        * np.conj(link_beta[..., :-1, :])
    )
    tri_bottom = bottom[..., 1:] * np.conj(link_phi[..., 0]) * np.conj(bottom[..., :-1])
    tri_top = np.conj(top[..., :-1]) * link_phi[..., -1] * top[..., 1:]
    phases = np.concatenate(
        [np.angle(plaq).reshape(*plaq.shape[:-2], -1), np.angle(tri_bottom), np.angle(tri_top)],
        axis=-1,
    )
    return np.sum(phases, axis=-1), np.max(np.abs(phases), axis=-1, initial=0.0), min_link


def _strip_result(lam, critical, flux, phase, link, n_phi, n_beta) -> ChernResult:
    """One field's ChernResult from its strip flux, or the error its guards raise."""
    if critical:
        raise CriticalPoint(f"sampled mode energy below 1e-9 at lam={lam}")
    if link < 1e-12:
        raise VortexOnPlaquette(f"link modulus {link:.3e}; refine the grid")
    if phase >= math.pi - 1e-9:
        raise VortexOnPlaquette(f"cell phase {phase:.6f} is ambiguous; refine the grid")
    value = n_phi * flux / (2.0 * math.pi)
    return ChernResult(value, n_phi * n_beta + 2, phase, link)


def _chern_discrete_batch(lams, grid: tuple[int, int], n_sites: int) -> list:
    """``chern_discrete`` at each field of ``lams``: its ChernResult or the ArtifactError it raises.

    The fields must pass ``model._check_coupling``; grid and N are checked
    here.  Each block of ``_BLOCK_NODES`` strip nodes is one numpy pass.
    """
    n_phi, n_beta, n = _check_grid(grid, n_sites)
    ks = np.round((np.arange(n_beta) + 0.5) * (n / 2) / n_beta).astype(int).clip(1, n // 2 - 1)
    alphas = 2.0 * np.pi * ks / n
    phis = np.array([[0.0], [math.pi / n_phi]])
    lams = np.asarray(lams, dtype=float)
    size = max(1, _BLOCK_NODES // (2 * n_beta))
    results = []
    for start in range(0, len(lams), size):
        block = lams[start : start + size, None]
        pairing = model._Pairing(alphas, 1.0, block)
        critical = np.any(pairing.energy < 1e-9, axis=-1)
        u, v = _pair_block(pairing.theta[:, None], phis)
        poles = _pole_thetas(block)
        strip, worst, min_link = _total_flux(
            np.broadcast_to(u, v.shape), v, _pole_state(poles[:, :1]), _pole_state(poles[:, 1:])
        )
        for field in zip(*(a.tolist() for a in (block[:, 0], critical, strip, worst, min_link))):
            try:
                results.append(_strip_result(*field, n_phi, n_beta))
            except ArtifactError as exc:
                results.append(exc)
    return results


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
    this for its upper bracket end at exactly 1.0.  This is the batched
    evaluation of ``_chern_discrete_batch`` at a batch of one field; a scan
    passes all its fields there at once and gets the same bits per field.

    Raises
    ------
    ValueError
        If lam is not a real number in [0, 1e150], or the grid is not a pair
        of integers, each in [16, 2**53].
    BadSize
        Unless N is an even integer with 256 <= N <= 2**53.
    CriticalPoint
        If a sampled mode is closer than 1e-9 to gapless; the snapped
        momenta stay about pi / (2 n_beta) or 2 pi / N from alpha = 0, so
        only a grid far too large to evaluate could reach this.
    VortexOnPlaquette
        If a cell phase reaches pi or a link modulus collapses, making
        the phase assignment ambiguous.
    """
    (result,) = _chern_discrete_batch([model._check_coupling("lam", lam)], grid, n_sites)
    if isinstance(result, ArtifactError):
        raise result
    return result


def _phase_batch(lams) -> list:
    """``classify_phase`` at each field of ``lams``, from one pairing-angle pass.

    The fields must pass ``model._check_coupling``.  The pole angles of every
    field are one numpy pass, so a field's winding has the same bits in any
    batch.
    """
    lams = np.asarray(lams, dtype=float)
    thetas = _pole_thetas(lams[:, None])
    points = []
    for lam, winding in zip(lams.tolist(), ((thetas[:, 1] - thetas[:, 0]) / math.pi).tolist()):
        gap = model.gap(1.0, lam)
        if abs(lam - 1.0) <= 1e-3:
            points.append(PhasePoint(lam, None, gap, PhaseLabel.BOUNDARY))
        else:
            result = ChernResult(value=winding, node_count=2)
            points.append(PhasePoint(lam, result, gap, _WINDING_LABELS[result.nearest_integer]))
    return points


def classify_phase(lam: float) -> PhasePoint:
    """Label a field value by its Chern number.

    Inside the excluded strip |lam - 1| <= 1e-3 no invariant is computed
    and the label is Boundary with ``chern`` set to None; elsewhere the
    pairing-angle winding of ``chern_number`` snaps to -1 or 0, and to
    nothing else: theta(0) is 0 or pi and theta(pi) lies in (0, 1.3e-16].
    This is the evaluation of ``_phase_batch`` at a batch of one field;
    ``scan-chern`` passes all its fields there at once.

    Raises
    ------
    ValueError
        Unless lam is a real number in [0, 1e150].
    """
    (point,) = _phase_batch([model._check_coupling("lam", lam)])
    return point


def detect_transition(lambda_lo: float, lambda_hi: float, tol: float) -> tuple[float, float]:
    """Bracket the invariant jump between two gapped field values.

    Bisection on the integer label of ``chern_discrete`` on a fixed 32 x 32
    grid of a 512-site ring; the returned closed interval contains the jump
    and has width <= tol, or one ulp where tol is smaller.

    Raises
    ------
    ValueError
        If tol is not a finite positive number, an endpoint is not a real
        number in [0, 1e150], or lambda_lo >= lambda_hi.
    CriticalPoint
        If either endpoint lies in the excluded strip around the critical
        field (endpoints must classify as definite phases).
    NoJumpFound
        If both endpoints carry the same label.
    """
    tol = model._check_finite("tol", tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo = model._check_coupling("lambda_lo", lambda_lo)
    hi = model._check_coupling("lambda_hi", lambda_hi)
    if lo >= hi:
        raise ValueError("need lambda_lo < lambda_hi")
    lo_point, hi_point = _phase_batch([lo, hi])
    if PhaseLabel.BOUNDARY in (lo_point.label, hi_point.label):
        raise CriticalPoint("endpoints must lie outside the critical strip")
    if lo_point.label == hi_point.label:
        raise NoJumpFound(
            f"both endpoints classify as {lo_point.label.value}; nothing to bracket"
        )
    lo_integer = lo_point.chern.nearest_integer
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent doubles: no midpoint left
            break
        if chern_discrete(mid, (32, 32), 512).nearest_integer == lo_integer:
            lo = mid
        else:
            hi = mid
    return lo, hi
