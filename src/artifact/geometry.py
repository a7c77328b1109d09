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

The closed-form tensors of many fields at one anisotropy are evaluated
together, grouped by parity sector, with the field as the leading axis of
the pairing kernel, in blocks of about ``_BLOCK_PAIRS`` (field, pair)
entries.  A block's tensors are six per-row reductions (``_row_dots``),
one per distinct sum of products of sin(theta) and the two derivatives of
theta, scaled into one array whose rows are the fields' tensors; a row's
sum does not depend on the rows beside it.  ``qgt_product`` is that
evaluation at one field, so a scan gets the same bits per field, and the
curvature density takes its sum by the same reduction.
The two ED tensors import ``oracle`` when called, so the closed-form
routes never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model
from .errors import CriticalPoint
from .ground_state import _odd_sector, _pair_grid
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
# Pair momenta evaluated in one numpy pass: 8 fields at N = 4096, which
# keeps a block's temporaries within about a megabyte.
_BLOCK_PAIRS = 16384


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
    ValueError
        If alpha is not one finite real number, or ``params`` not a ``ModelParams``.
    CriticalPoint
        If the mode energy is below 1e-12.
    """
    alpha = model._check_momentum(alpha)
    if np.ndim(alpha) != 0:
        raise ValueError(f"alpha must be one momentum, got shape {np.shape(alpha)}")
    model._check_kind("params", params, ModelParams)
    pairing = model._Pairing(alpha, params.gamma, params.lam)
    if pairing.r2 < 1e-24:
        raise CriticalPoint(f"mode at alpha={alpha} is gapless")
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
        If gamma or lam is not a real number in [0, 1e150].
    CriticalPoint
        On the gapless lines, and where the gap is too small for the sums
        to agree within 2^20 pairs.
    """
    gamma, lam = model._check_coupling("gamma", gamma), model._check_coupling("lam", lam)
    model._check_gapped(gamma, lam)
    pairs, previous = 64, None
    while pairs <= _DENSITY_MAX_PAIRS:
        n = 2 * pairs
        p = model._Pairing(_pair_grid(n, False), gamma, lam)
        total = (2.0 * math.pi / n) * float(_row_dots(p.sin_theta, p.d_gamma))
        if previous is not None and abs(total - previous) <= 1e-13:
            return CurvatureDensity(1j * total, gamma, lam, pairs)
        previous, pairs = total, 2 * pairs
    raise CriticalPoint(
        f"gap {model.gap(gamma, lam):.3e} at gamma={gamma}, lam={lam} is too small "
        f"for the curvature density to converge within {_DENSITY_MAX_PAIRS} pairs"
    )


def _row_dots(x, y):
    """The dot product of x and y along their last axis, one per row.

    Each row is summed by one contiguous loop of ``np.einsum``, so a row
    gets the same bits however many rows share the array, and a 1-D pair
    the same bits as that pair taken as one row.
    """
    return np.einsum("...i,...i->...", x, y)


# A tensor's (i, j) entry is _SCALE[i, j] times the row sum of x_i x_j over
# the pair momenta, x = (sin theta, dtheta/dgamma, dtheta/dlam); the six
# distinct sums are _SUMS, and entry (i, j) takes the sum _SUMS[_SUM_OF[i, j]].
_SUMS = ((0, 0), (1, 1), (2, 2), (1, 2), (1, 0), (2, 0))
_SUM_OF = np.array([[0, 4, 5], [4, 1, 3], [5, 3, 2]])
_SCALE = np.array([[1.0, 0.5j, 0.5j], [-0.5j, 0.25, 0.25], [-0.5j, 0.25, 0.25]])


def _qgt_product_batch(gamma: float, lams, n_sites: int) -> list:
    """``qgt_product`` at gamma and each field of ``lams``: its tensor or its CriticalPoint.

    The couplings must pass ``model._check_coupling``; N is checked here.
    The gapped fields are grouped by parity sector, whose pair momenta and
    their sines and cosines are computed once, and each block of
    ``_BLOCK_PAIRS`` (field, pair) entries is one numpy pass of the pairing
    kernel.  The block's tensors are then six ``_row_dots`` reductions, one
    per distinct sum, scaled into one (fields, 3, 3) array whose rows are
    the fields' tensors; a field's sums are the same at any block size.
    """
    n = model._check_size(n_sites)
    results = [None] * len(lams)
    sectors = {True: [], False: []}
    for i, lam in enumerate(lams):
        try:
            model._check_gapped(gamma, lam)
        except CriticalPoint as exc:
            results[i] = exc
            continue
        sectors[_odd_sector(lam)].append(i)
    for odd, fields in sectors.items():
        if not fields:
            continue
        alphas = _pair_grid(n, odd)
        trig = np.sin(alphas), np.cos(alphas)
        size = max(1, _BLOCK_PAIRS // alphas.size)
        for start in range(0, len(fields), size):
            block = fields[start : start + size]
            column = np.array([lams[i] for i in block], dtype=float)[:, None]
            pairing = model._Pairing(alphas, gamma, column, trig)
            x = pairing.sin_theta, pairing.d_gamma, pairing.d_lam
            sums = np.stack([_row_dots(x[i], x[j]) for i, j in _SUMS], axis=1)
            for i, q in zip(block, _SCALE * sums[:, _SUM_OF]):
                results[i] = GeometricTensor(q)
    return results


def qgt_product(params: ModelParams, n_sites: int) -> GeometricTensor:
    """Closed-form geometric tensor of the product ground state.

    Each pair block (cos(theta/2), i e^{-2i phi} sin(theta/2)) is a Bloch
    vector with polar angle theta and azimuth chi = pi/2 - 2 phi, so the
    tensor is the sum over the pair momenta of 1/4 (dtheta dtheta
    + sin^2(theta) dchi dchi) + i/4 sin(theta) (dtheta dchi - dchi dtheta),
    with sin(theta) and the derivatives of theta in closed form.  The pairs
    are those of ``build_ground_state``: the periodic 2 pi k / N,
    k = 1 ... N/2 - 1, when lam < 1 and the antiperiodic (2k+1) pi / N,
    k = 0 ... N/2 - 1, otherwise.  The result does not depend on phi.  This
    is the blocked evaluation of ``_qgt_product_batch`` at a batch of one
    field; ``metric-scan`` passes all its fields there at once and gets the
    same bits per field.

    Raises
    ------
    ValueError
        If ``params`` is not a ``ModelParams``.
    BadSize
        Unless ``n_sites`` is an even integer with 4 <= N <= 2**53.
    CriticalPoint
        If the couplings are gapless.
    """
    model._check_kind("params", params, ModelParams)
    (result,) = _qgt_product_batch(params.gamma, [params.lam], n_sites)
    if isinstance(result, CriticalPoint):
        raise result
    return result


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
        Unless ``n_sites`` is an even integer with 2 <= N <= 10.
    ValueError
        If ``params`` is not a ``ModelParams``.
    CriticalPoint
        If the center point is gapless, any stencil point has gap below
        1e-10, the two parity sectors swap order inside the stencil, or the
        estimates at the step and at half of it disagree by more than 1e-6
        of their scale.
    """
    from . import oracle

    n = model._check_size(n_sites, 2, oracle._QGT_MAX)
    model._check_kind("params", params, ModelParams)
    h = _ED_STEP
    phi, gamma, lam = params.phi, params.gamma, params.lam
    model._check_gapped(gamma, lam)

    even_lower = set()

    def ground(dg=0.0, dl=0.0):
        # the gap is even in both couplings (alpha -> pi - alpha), so a
        # point stepped below zero takes the gap of its mirror image
        if model.gap(abs(gamma + dg), abs(lam + dl)) < 1e-10:
            raise CriticalPoint(
                f"stencil around gamma={gamma}, lam={lam} touches the critical set"
            )
        e_even, e_odd, vec = oracle._ed_vector(phi, gamma + dg, lam + dl, n)
        even_lower.add(e_even <= e_odd)
        return vec

    psi = ground()
    d_phi = -1j * oracle._popcounts(np.arange(psi.size), n) * psi

    def tensor(step):
        d = np.column_stack((
            d_phi,
            (ground(dg=step) - ground(dg=-step)) / (2 * step),
            (ground(dl=step) - ground(dl=-step)) / (2 * step),
        ))
        a = d.conj().T @ psi
        return d.conj().T @ d - np.outer(a, a.conj())

    g_h, g_half = tensor(h), tensor(0.5 * h)
    if len(even_lower) > 1:
        raise CriticalPoint(
            f"the parity sectors of the {n}-site ring cross inside the stencil "
            f"around gamma={gamma}, lam={lam}"
        )
    scale = max(1.0, float(np.max(np.abs(g_half))))
    drift = float(np.max(np.abs(g_h - g_half)))
    if drift > 1e-6 * scale:
        raise CriticalPoint(
            f"step {h:.1e} and {0.5 * h:.1e} disagree by {drift:.3e} "
            f"(scale {scale:.3e})"
        )
    return GeometricTensor(0.5 * (g_half + g_half.conj().T))


def qgt_spectral(params: ModelParams, n_sites: int) -> GeometricTensor:
    """Geometric tensor as the sum over the ground block's excited states.

    Raises
    ------
    BadSize
        Unless ``n_sites`` is an even integer with 2 <= N <= 10.
    ValueError
        If ``params`` is not a ``ModelParams``.
    CriticalPoint
        When the finite-size gap closes below 1e-10.
    """
    from . import oracle

    total = np.zeros((3, 3), dtype=complex)
    for term in oracle.qgt_matrix_elements(params, n_sites):
        total += term.matrix
    return GeometricTensor(total)
