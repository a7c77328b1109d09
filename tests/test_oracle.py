import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from artifact import (
    BadSize,
    DegenerateGroundState,
    ModelParams,
    SizeLimit,
    berry_curvature_mode,
    build_ground_state,
    build_spin_hamiltonian,
    chern_discrete,
    dispersion,
    ed_ground,
    embed_ground_state,
    free_fermion_parity_spectrum,
    qgt_finite_diff,
    qgt_matrix_elements,
    qgt_spectral,
    wilson_loop_berry_phase,
)

P = ModelParams


def test_two_site_hand_spectrum():
    h = build_spin_hamiltonian(P(0.0, 0.0, 0.0), 2)
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_hamiltonian_hermitian():
    rng = np.random.default_rng(21)
    h = build_spin_hamiltonian(P(0.7, 0.8, 0.5, 6))
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    assert abs(np.vdot(v, h @ v).imag) < 1e-12


def test_phi_independent_spectrum():
    e0 = np.linalg.eigvalsh(build_spin_hamiltonian(P(0.0, 0.8, 0.6, 8)))
    e7 = np.linalg.eigvalsh(build_spin_hamiltonian(P(0.7, 0.8, 0.6, 8)))
    assert np.max(np.abs(e0 - e7)) < 1e-10


def test_ed_energy_density():
    sp = ed_ground(P(0.0, 1.0, 0.0, 8))
    assert abs(sp.ground_energy / 8 + 0.5) < 0.07
    ff = free_fermion_parity_spectrum(P(0.0, 1.0, 0.0, 8))
    assert abs(sp.ground_energy - ff.ground_energy) < 1e-10


def test_ed_polarized_limit():
    sp = ed_ground(P(0.0, 0.5, 5.0, 6))
    assert abs(sp.ground_vector[0]) ** 2 > 0.99
    assert abs(np.linalg.norm(sp.ground_vector) - 1.0) < 1e-12


def test_parity_splitting_law():
    # below the field the parity sectors are split by an amount that closes
    # geometrically with N (so E1 - E0 at fixed N shrinks away from lam = 1);
    # above it the splitting tends to lam - 1
    splits = []
    for n in (4, 6, 8, 10):
        p = P(0.0, 1.0, 0.5, n)
        ed, ff = ed_ground(p), free_fermion_parity_spectrum(p)
        assert abs(ed.even_sector_energy - ff.even_sector_energy) < 1e-10
        assert abs(ed.odd_sector_energy - ff.odd_sector_energy) < 1e-10
        splits.append(ed.odd_sector_energy - ed.even_sector_energy)
    assert min(splits) > 0.0
    assert all(b < 0.25 * a for a, b in zip(splits, splits[1:]))
    far = free_fermion_parity_spectrum(P(0.0, 1.0, 1.5, 32))
    assert far.odd_sector_energy - far.even_sector_energy == pytest.approx(0.5, abs=1e-6)


def test_parity_sector_agreement():
    for p in (P(0.0, 1.0, 0.0, 8), P(0.0, 0.5, 0.5, 10)):
        dev = abs(ed_ground(p).ground_energy - free_fermion_parity_spectrum(p).ground_energy)
        assert dev < 1e-10


def test_energy_density_convergence():
    target = quad(lambda a: dispersion(a, 0.7, 1.6), 0.0, np.pi, epsabs=1e-14, epsrel=1e-12)[0]
    target /= 2.0 * np.pi
    errs = [
        abs(free_fermion_parity_spectrum(P(0.0, 0.7, 1.6, n)).ground_energy / n + target)
        for n in (16, 32, 64)
    ]
    assert errs[1] < errs[0] / 4.0
    assert errs[2] < errs[1] / 4.0


def test_free_fermion_bad_size():
    with pytest.raises(BadSize):
        free_fermion_parity_spectrum(P(0.0, 0.5, 0.5), 7)


def test_ed_size_limit():
    with pytest.raises(SizeLimit):
        ed_ground(P(0.0, 0.5, 0.5), 14)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ed_ground(P(0.0, 0.5, 0.5), 6.5), BadSize),
        (lambda: ed_ground(P(0.0, 0.5, 0.5), "6"), BadSize),
        (lambda: free_fermion_parity_spectrum(P(0.0, 0.5, 0.5), 8.7), BadSize),
        (lambda: qgt_spectral(P(0.0, 0.5, 1.5), 6.9), BadSize),
        (lambda: chern_discrete(0.5, (32.9, 32), 512.5), ValueError),
        (lambda: wilson_loop_berry_phase([P(0.3, 1.0, 1.5)] * 3, 16.5), BadSize),
    ],
    ids=["ed-float", "ed-str", "free-fermion", "qgt-spectral", "chern-discrete", "wilson"],
)
def test_non_integer_sizes_rejected(call, error):
    with pytest.raises(error):
        call()


def test_ed_ground_solves_each_parity_block_once(monkeypatch):
    dims = []

    def counting(solver):
        def solve(a, *args, **kwargs):
            dims.append(len(a))
            return solver(a, *args, **kwargs)

        return solve

    monkeypatch.setattr(scipy.linalg, "eigh", counting(scipy.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigvalsh", counting(scipy.linalg.eigvalsh))
    ed_ground(P(0.4, 0.7, 0.9, 8))
    assert dims == [128, 128]


def test_wilson_constant_loop():
    pts = [P(0.3, 1.0, 1.5, 16)] * 5
    assert wilson_loop_berry_phase(pts, 16) == pytest.approx(0.0, abs=1e-14)


def test_wilson_phi_circle():
    n = 8
    loop = [P(float(ph), 1.0, 0.0, n) for ph in np.linspace(0.0, np.pi, 64, endpoint=False)]
    phase = wilson_loop_berry_phase(loop, n)
    # closed-form link product: every paired mode contributes a factor
    # cos^2 + sin^2 e^{-2i dphi} per link
    s0 = build_ground_state(loop[0])
    delta = np.pi / 64
    total = 1.0 + 0.0j
    for theta in s0.thetas:
        c2 = np.cos(theta / 2) ** 2
        s2 = np.sin(theta / 2) ** 2
        total *= (c2 + s2 * np.exp(-2j * delta)) ** 64
    assert np.exp(1j * phase) == pytest.approx(total / abs(total), abs=1e-12)
    # theta_k = pi - alpha_k at (gamma=1, lam=0), so sum_k sin^2(theta_k/2)
    # = 3/2 and the loop product is exactly e^{-3i pi}: the phase sits on
    # the branch cut and only its modulus is fixed
    assert abs(phase) == pytest.approx(np.pi, abs=1e-12)


def test_wilson_regauge_invariance():
    rng = np.random.default_rng(4)
    ts = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    loop = [P(0.3 + 0.05 * np.cos(t), 1.0 + 0.1 * np.sin(t), 1.5, 8) for t in ts]
    base = wilson_loop_berry_phase(loop, 8)
    vecs = [embed_ground_state(build_ground_state(p)) for p in loop]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(vecs)))
    gauged = [ph * v for ph, v in zip(phases, vecs)]
    prod = 1.0 + 0.0j
    for va, vb in zip(gauged, gauged[1:] + gauged[:1]):
        link = np.vdot(va, vb)
        prod *= link / abs(link)
    assert float(np.angle(prod)) == pytest.approx(base, abs=1e-12)


def test_wilson_small_plaquette_matches_curvature():
    d = 0.01
    pts = [
        P(0.4, 1.3, 1.7, 64),
        P(0.4 + d, 1.3, 1.7, 64),
        P(0.4 + d, 1.3 + d, 1.7, 64),
        P(0.4, 1.3 + d, 1.7, 64),
    ]
    phase = wilson_loop_berry_phase(pts, 64)
    mid = P(0.4 + d / 2, 1.3 + d / 2, 1.7, 64)
    predicted = d * d * sum(
        berry_curvature_mode(2.0 * np.pi * k / 64, mid).imag
        for k in range(1, 32)
    )
    assert phase == pytest.approx(predicted, rel=0.05)


def test_spectral_terms_sum_matches_finite_diff():
    p = P(0.0, 1.0, 0.5, 6)
    total = sum(t.matrix[2, 2] for t in qgt_matrix_elements(p))
    fd = qgt_finite_diff(p, 6).matrix[2, 2]
    assert total.real == pytest.approx(fd.real, abs=1e-6)
    assert abs(total.imag) < 1e-8


def test_spectral_terms_phi_diagonal_gram():
    for term in qgt_matrix_elements(P(0.9, 0.7, 1.4, 6)):
        assert term.matrix[0, 0].imag == pytest.approx(0.0, abs=1e-12)
        assert term.matrix[0, 0].real >= -1e-12
        assert term.energy_gap > 0.0


@pytest.mark.xfail(
    reason="measured max single-term magnitudes at N=6 over lam in {0.5, 0.8, 0.95} "
    "are 0.800, 0.983, 0.973, and the smallest excitation gap inside the ground's "
    "parity block is 1.24, 1.01, 1.01 (the near-degenerate parity partner lies in "
    "the other block, which dH never reaches), so term magnitudes are not monotone "
    "toward the critical field at fixed N",
)
def test_spectral_term_growth_toward_critical():
    maxima = []
    for lam in (0.5, 0.8, 0.95):
        terms = qgt_matrix_elements(P(0.0, 1.0, lam, 6))
        maxima.append(max(float(np.max(np.abs(t.matrix))) for t in terms))
    assert maxima[0] < maxima[1] < maxima[2]


def test_spectral_terms_degenerate_ground():
    with pytest.raises(DegenerateGroundState):
        qgt_matrix_elements(P(0.0, 1.0, 0.0, 6))

