import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from artifact import (
    BadSize,
    CriticalPoint,
    ModelParams,
    ZeroOverlap,
    build_ground_state,
    chern_discrete,
    dispersion,
    ed_ground,
    free_fermion_parity_spectrum,
    qgt_finite_diff,
    qgt_matrix_elements,
    qgt_product,
    qgt_spectral,
    wilson_loop_berry_phase,
)
from artifact import model, oracle
from artifact.ground_state import _pair_grid, _sector_energy
from pauli import fock_vector, pauli_hamiltonian, sparse_hamiltonian

P = ModelParams


def test_two_site_hand_spectrum():
    # at N = 2 both ordered bonds join the same two sites, so the bond counts twice
    h = pauli_hamiltonian(0.0, 0.0, 0.0, 2)
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    sp = ed_ground(P(0.0, 0.0, 0.0), 2)
    assert sp.even_sector_energy == pytest.approx(0.0, abs=1e-12)
    assert sp.odd_sector_energy == pytest.approx(-1.0, abs=1e-12)


def test_phi_independent_spectrum():
    e0 = np.linalg.eigvalsh(pauli_hamiltonian(0.0, 0.8, 0.6, 8))
    e7 = np.linalg.eigvalsh(pauli_hamiltonian(0.7, 0.8, 0.6, 8))
    assert np.max(np.abs(e0 - e7)) < 1e-10


def test_ed_energy_density():
    sp = ed_ground(P(0.0, 1.0, 0.0), 8)
    assert abs(sp.ground_energy / 8 + 0.5) < 0.07
    ff = free_fermion_parity_spectrum(P(0.0, 1.0, 0.0), 8)
    assert abs(sp.ground_energy - ff.ground_energy) < 1e-10
    # both routes return one type; the closed form builds no vector
    assert type(sp) is type(ff)
    assert ff.ground_vector is None


def test_ed_polarized_limit():
    sp = ed_ground(P(0.0, 0.5, 5.0), 6)
    assert abs(sp.ground_vector[0]) ** 2 > 0.99
    assert abs(np.linalg.norm(sp.ground_vector) - 1.0) < 1e-12


def _assert_sectors_match_ed(p, n):
    """Each closed-form sector energy is ED's; returns the ED spectrum."""
    ed, ff = ed_ground(p, n), free_fermion_parity_spectrum(p, n)
    assert abs(ed.even_sector_energy - ff.even_sector_energy) < 1e-10
    assert abs(ed.odd_sector_energy - ff.odd_sector_energy) < 1e-10
    return ed


def test_parity_splitting_law():
    # below the field the parity sectors are split by an amount that closes
    # geometrically with N (so E1 - E0 at fixed N shrinks away from lam = 1);
    # above it the splitting tends to lam - 1
    splits = []
    for n in (4, 6, 8, 10, 12):
        ed = _assert_sectors_match_ed(P(0.0, 1.0, 0.5), n)
        splits.append(ed.odd_sector_energy - ed.even_sector_energy)
    assert min(splits) > 0.0
    assert all(b < 0.25 * a for a, b in zip(splits, splits[1:]))
    far = free_fermion_parity_spectrum(P(0.0, 1.0, 1.5), 32)
    assert far.odd_sector_energy - far.even_sector_energy == pytest.approx(0.5, abs=1e-6)


def test_parity_sector_agreement():
    for p, n in ((P(0.0, 1.0, 0.0), 8), (P(0.0, 0.5, 0.5), 10)):
        dev = abs(ed_ground(p, n).ground_energy - free_fermion_parity_spectrum(p, n).ground_energy)
        assert dev < 1e-10


def test_energy_density_convergence():
    target = quad(lambda a: dispersion(a, 0.7, 1.6), 0.0, np.pi, epsabs=1e-14, epsrel=1e-12)[0]
    target /= 2.0 * np.pi
    errs = [
        abs(free_fermion_parity_spectrum(P(0.0, 0.7, 1.6), n).ground_energy / n + target)
        for n in (16, 32, 64)
    ]
    assert errs[1] < errs[0] / 4.0
    assert errs[2] < errs[1] / 4.0


def test_free_fermion_bad_size():
    with pytest.raises(BadSize):
        free_fermion_parity_spectrum(P(0.0, 0.5, 0.5), 7)


def test_ed_size_limit():
    with pytest.raises(BadSize, match=r"must be in \[2, 12\]"):
        ed_ground(P(0.0, 0.5, 0.5), 14)
    with pytest.raises(BadSize):
        ed_ground(P(0.0, 0.5, 0.5), n_sites=None)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ed_ground(P(0.0, 0.5, 0.5), 6.5), BadSize),
        (lambda: ed_ground(P(0.0, 0.5, 0.5), "6"), BadSize),
        (lambda: free_fermion_parity_spectrum(P(0.0, 0.5, 0.5), 8.7), BadSize),
        (lambda: qgt_spectral(P(0.0, 0.5, 1.5), 6.9), BadSize),
        (lambda: chern_discrete(0.5, (32.9, 32), 512.5), ValueError),
        (lambda: wilson_loop_berry_phase([P(0.3, 1.0, 1.5)] * 3, 16.5), BadSize),
        (lambda: build_ground_state(P(0.3, 1.0, 1.5), n_sites=None), BadSize),
        (lambda: free_fermion_parity_spectrum(P(0.3, 1.0, 1.5), n_sites=None), BadSize),
        (lambda: wilson_loop_berry_phase([P(0.3, 1.0, 1.5)] * 3, n_sites=None), BadSize),
        (lambda: build_ground_state(P(0.3, 1.0, 1.5), 8.5), BadSize),
        (lambda: qgt_product(P(0.3, 1.0, 1.5), n_sites=None), BadSize),
        (lambda: qgt_product(P(0.3, 1.0, 1.5), 8.5), BadSize),
        (lambda: qgt_finite_diff(P(0.3, 1.0, 1.5), n_sites=None), BadSize),
        (lambda: qgt_finite_diff(P(0.3, 1.0, 1.5), 6.5), BadSize),
        (lambda: qgt_matrix_elements(P(0.3, 1.0, 1.5), n_sites=None), BadSize),
        (lambda: qgt_matrix_elements(P(0.3, 1.0, 1.5), 6.5), BadSize),
    ],
    ids=[
        "ed-float",
        "ed-str",
        "free-fermion",
        "qgt-spectral",
        "chern-discrete",
        "wilson",
        "ground-state-no-size",
        "free-fermion-no-size",
        "wilson-no-size",
        "ground-state",
        "qgt-product-no-size",
        "qgt-product",
        "qgt-finite-diff-no-size",
        "qgt-finite-diff",
        "matrix-elements-no-size",
        "matrix-elements",
    ],
)
def test_non_integer_sizes_rejected(call, error):
    with pytest.raises(error):
        call()


def _counting(solver, dims):
    """``solver``, noting the width of each matrix it solves (a stack counts each)."""

    def solve(a, *args, **kwargs):
        dims.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return solver(a, *args, **kwargs)

    return solve


def test_ed_ground_solves_each_parity_block_once(monkeypatch):
    dims = []
    monkeypatch.setattr(np.linalg, "eigh", _counting(np.linalg.eigh, dims))
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(np.linalg.eigvalsh, dims))
    ed_ground(P(0.4, 0.7, 0.9), 8)
    assert dims == [128, 128]


def test_ed_ground_solves_wide_blocks_by_lanczos(monkeypatch):
    # a dense solve needs the dense block first, so none is built
    dense, sparse = [], []

    def lanczos(sector, data, start, *args):
        sparse.append(start.size)
        return solve(sector, data, start, *args)

    solve = oracle._lanczos
    monkeypatch.setattr(oracle, "_lanczos", lanczos)
    monkeypatch.setattr(oracle, "_dense_block", _counting(oracle._dense_block, dense))
    ed_ground(P(0.4, 0.7, 0.9), 12)
    assert sparse == [2048, 2048]
    assert dense == []


def _pauli_parity_blocks(gamma, lam, n):
    h = pauli_hamiltonian(0.0, gamma, lam, n)
    odd = np.array([bin(b).count("1") % 2 for b in range(1 << n)], dtype=bool)
    return [h[np.ix_(sel, sel)] for sel in (~odd, odd)]


_rng = np.random.default_rng(11)
_WIDE_DRAWS = [
    (_rng.uniform(0.0, np.pi), _rng.uniform(0.2, 1.5), _rng.uniform(*side))
    for side in [(0.1, 0.9)] * 3 + [(1.1, 2.5)] * 3
]


@pytest.mark.parametrize(
    "phi, gamma, lam", _WIDE_DRAWS, ids=[f"lam={lam:.3f}" for *_, lam in _WIDE_DRAWS]
)
def test_lanczos_sectors_match_dense_blocks(phi, gamma, lam):
    # N = 10 blocks are 512 wide, so both sectors are solved by Lanczos
    p = P(phi, gamma, lam)
    sp = ed_ground(p, 10)
    even, odd = (float(scipy.linalg.eigvalsh(h)[0]) for h in _pauli_parity_blocks(gamma, lam, 10))
    assert abs(sp.even_sector_energy - even) <= 1e-12
    assert abs(sp.odd_sector_energy - odd) <= 1e-12
    v = sp.ground_vector
    h = pauli_hamiltonian(phi, gamma, lam, 10)
    assert np.linalg.norm(h @ v - sp.ground_energy * v) <= 1e-9
    # the start vector is seeded, so a second solve returns the same bits
    assert np.array_equal(ed_ground(p, 10).ground_vector, v)


_FIELD_DRAWS = np.random.default_rng(23).uniform((0.0, 0.2, 1.05), (np.pi, 1.5, 2.5), (10, 3))


@pytest.mark.parametrize(
    "phi, gamma, lam, n",
    [(*draw, (4, 6, 8, 10, 12)[i % 5]) for i, draw in enumerate(_FIELD_DRAWS)],
)
def test_ed_vector_magnetization_moments(phi, gamma, lam, n):
    # phi is the gauge exp(-i phi P), P the down-spin count, so q_phiphi =
    # Var(P); above the field each pair holds 1 - cos(theta) down spins on
    # average and the ground is the even-sector product state
    p = P(phi, gamma, lam)
    weight = np.abs(ed_ground(p, n).ground_vector) ** 2
    pop = np.array([bin(b).count("1") for b in range(1 << n)])
    mean = weight @ pop
    var = weight @ (pop - mean) ** 2
    assert mean == pytest.approx(np.sum(1.0 - np.cos(build_ground_state(p, n).thetas)), rel=1e-12)
    assert var == pytest.approx(qgt_product(p, n).matrix[0, 0].real, rel=1e-12)


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("gamma, lam", [(1.0, 0.0), (2.0, 0.0), (0.0, 0.0), (0.0, 0.5), (0.0, 5.0)])
def test_lanczos_at_degenerate_points(gamma, lam, n):
    # at lam = 0 the bonds alone set the levels, and gamma = 0 keeps the
    # down-spin number; at (1, 0) the blocks have so few distinct levels that
    # the Krylov space of the start vector is invariant within a few steps,
    # and Lanczos stops there on its breakdown check
    p = P(0.0, gamma, lam)
    sp, ff = ed_ground(p, n), free_fermion_parity_spectrum(p, n)
    assert abs(sp.even_sector_energy - ff.even_sector_energy) <= 1e-12
    assert abs(sp.odd_sector_energy - ff.odd_sector_energy) <= 1e-12
    v = sp.ground_vector
    assert np.linalg.norm(sparse_hamiltonian(gamma, lam, n) @ v - sp.ground_energy * v) <= 1e-9


def test_lanczos_stops_on_an_invariant_start():
    # without pairing, the all-up state is an eigenvector, and above the
    # field it is the ground: its Krylov space is itself, so the first beta
    # is exactly 0 and the solve returns the start unchanged
    sector = oracle._spin_operators(10)[0]
    start = np.zeros(512)
    start[0] = 1.0
    energy, v = oracle._lanczos(sector, sector.data(0.0, 5.0), start)
    assert energy == -25.0
    assert np.array_equal(v, start)
    ff = free_fermion_parity_spectrum(P(0.0, 0.0, 5.0), 10)
    assert abs(ff.even_sector_energy - energy) <= 1e-12


_BLOCK_DRAWS = [
    (0.0, 1.0), (0.0, 0.5), (0.6, 1.0), (1.0, 0.0),
    *np.random.default_rng(29).uniform((0.0, 0.0), (1.5, 2.0), (4, 2)).tolist(),
]


@pytest.mark.parametrize("share", [oracle._LANCZOS_TOL, 0.0], ids=["tol", "no-tol"])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("gamma, lam", _BLOCK_DRAWS)
def test_lanczos_solves_blocks_its_krylov_space_fills(monkeypatch, gamma, lam, n, share):
    # ed_ground solves blocks this narrow dense.  Lanczos on them stops at the
    # latest when its basis is as wide as the block; with no tolerance, most
    # solves at N <= 6 end at that full-width exit
    monkeypatch.setattr(oracle, "_LANCZOS_TOL", share)
    steps = []

    def matvec(*args):
        steps.append(1)
        return product(*args)

    product = oracle._matvec
    monkeypatch.setattr(oracle, "_matvec", matvec)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, 1 << (n - 1))
    for sector in oracle._spin_operators(n):
        data = sector.data(gamma, lam)
        block = oracle._dense_block(sector, data)
        steps.clear()
        energy, v = oracle._lanczos(sector, data, start)
        assert len(steps) <= start.size
        assert abs(energy - np.linalg.eigvalsh(block)[0]) <= 1e-12
        assert np.linalg.norm(block @ v - energy * v) <= 1e-9


@pytest.mark.parametrize("phi, gamma, lam", [(0.3, 0.8, 0.6), (1.1, 0.45, 1.35)])
def test_lanczos_basis_grows_to_sixteen_sites(phi, gamma, lam):
    # the basis holds the steps taken, not the 32768-state block: a basis as
    # wide as the block would take 8 GiB at N = 16; the operator cache keeps
    # two ring sizes, so the next two sizes solved release these blocks
    even, odd, _ = oracle._ed_vector(phi, gamma, lam, 16)
    assert abs(even - _sector_energy(16, gamma, lam, False)) <= 1e-10
    assert abs(odd - _sector_energy(16, gamma, lam, True)) <= 1e-10


@pytest.mark.parametrize("n", [np.uint8(4), np.int64(10)], ids=["uint8", "int64"])
def test_ed_size_is_a_python_int(n):
    assert type(ed_ground(P(0.4, 0.7, 0.9), n).n_sites) is int


@pytest.mark.parametrize("gamma, lam", [(0.4, 0.9), (0.7, 1.4)])
def test_spectral_terms_reuse_the_stacked_solve(monkeypatch, gamma, lam):
    # the odd block holds the ground at (0.4, 0.9) and the even one at (0.7, 1.4)
    # one stacked solve of both blocks gives every level the terms use, so
    # no block is solved a second time by itself
    blocks = _pauli_parity_blocks(gamma, lam, 8)
    ground = min((np.linalg.eigvalsh(block) for block in blocks), key=lambda w: w[0])
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    terms = qgt_matrix_elements(P(0.0, gamma, lam), 8)
    assert shapes == [(2, 128, 128)]
    assert [term.energy_gap for term in terms] == pytest.approx(ground[1:] - ground[0], abs=1e-10)


def test_wilson_constant_loop():
    pts = [P(0.3, 1.0, 1.5)] * 5
    assert wilson_loop_berry_phase(pts, 16) == pytest.approx(0.0, abs=1e-14)


def test_wilson_empty_loop():
    with pytest.raises(ValueError, match="empty loop"):
        wilson_loop_berry_phase([], 16)


def test_wilson_loop_across_the_field_has_a_zero_link():
    # lam = 0.9 and 1.1 are in different parity sectors, so their link is 0j
    loop = [P(0.1, 1.0, 0.9), P(0.1, 1.0, 1.1), P(0.2, 1.0, 1.1)]
    with pytest.raises(ZeroOverlap, match="link modulus 0.000e"):
        wilson_loop_berry_phase(loop, 64)


def test_wilson_phi_circle():
    n = 8
    loop = [P(float(ph), 1.0, 0.0) for ph in np.linspace(0.0, np.pi, 64, endpoint=False)]
    phase = wilson_loop_berry_phase(loop, n)
    # closed-form link product: every paired mode contributes a factor
    # cos^2 + sin^2 e^{-2i dphi} per link
    s0 = build_ground_state(loop[0], n)
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
    loop = [P(0.3 + 0.05 * np.cos(t), 1.0 + 0.1 * np.sin(t), 1.5) for t in ts]
    base = wilson_loop_berry_phase(loop, 8)
    vecs = [fock_vector(build_ground_state(p, 8)) for p in loop]
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
        P(0.4, 1.3, 1.7),
        P(0.4 + d, 1.3, 1.7),
        P(0.4 + d, 1.3 + d, 1.7),
        P(0.4, 1.3 + d, 1.7),
    ]
    phase = wilson_loop_berry_phase(pts, 64)
    mid = P(0.4 + d / 2, 1.3 + d / 2, 1.7)
    # the curvature of the loop's own product states, on their pair momenta
    predicted = 2.0 * d * d * qgt_product(mid, 64).matrix[0, 1].imag
    assert phase == pytest.approx(predicted, rel=0.05)


def test_spectral_terms_sum_matches_finite_diff():
    p = P(0.0, 1.0, 0.5)
    total = sum(t.matrix[2, 2] for t in qgt_matrix_elements(p, 6))
    fd = qgt_finite_diff(p, 6).matrix[2, 2]
    assert total.real == pytest.approx(fd.real, abs=1e-6)
    assert abs(total.imag) < 1e-8


def test_spectral_terms_phi_diagonal_gram():
    for term in qgt_matrix_elements(P(0.9, 0.7, 1.4), 6):
        assert term.matrix[0, 0].imag == pytest.approx(0.0, abs=1e-12)
        assert term.matrix[0, 0].real >= -1e-12
        assert term.energy_gap > 0.0


def _pair_tensor(sin_theta, d_gamma, d_lam):
    """Bloch-sphere tensor of one pair block in (phi, gamma, lam)."""
    d = np.array([d_gamma, d_lam])
    q = np.empty((3, 3), dtype=complex)
    q[0, 0] = sin_theta**2
    q[1:, 1:] = 0.25 * np.outer(d, d)
    q[0, 1:] = 0.5j * sin_theta * d
    q[1:, 0] = q[0, 1:].conj()
    return q


_DRAWS = np.random.default_rng(3).uniform((0.0, 0.2, 0.05), (np.pi, 1.5, 2.0), (18, 3))


@pytest.mark.parametrize(
    "phi, gamma, lam, n",
    [(0.0, 1.0, lam, 6) for lam in (0.5, 0.8, 0.95)]
    + [(*draw, (4, 6, 8)[i % 3]) for i, draw in enumerate(_DRAWS)],
)
def test_spectral_terms_are_pair_tensors_of_ground_sector(phi, gamma, lam, n):
    # every excitation dH reaches from the ground flips one pair of the
    # ground's parity sector (the lower closed-form sector energy, which
    # below lam = 1 is often the even one), so each nonzero term is that
    # pair's Bloch-sphere tensor at gap 2 eps_k; at N = 6, gamma = 1 the
    # smallest gap is 1.24, 1.01, 1.01 for lam = 0.5, 0.8, 0.95, so terms
    # need not grow toward lam = 1 at fixed N
    p = P(phi, gamma, lam)
    ff = free_fermion_parity_spectrum(p, n)
    odd = ff.odd_sector_energy < ff.even_sector_energy
    k = model._Pairing(_pair_grid(n, odd), gamma, lam)
    expected = sorted(
        zip(2.0 * k.energy, map(_pair_tensor, k.sin_theta, k.d_gamma, k.d_lam)),
        key=lambda pair: pair[0],
    )
    terms = [t for t in qgt_matrix_elements(p, n) if np.max(np.abs(t.matrix)) > 1e-12]
    terms.sort(key=lambda t: t.energy_gap)
    assert len(terms) == len(expected) == n // 2 - odd
    for term, (gap, tensor) in zip(terms, expected):
        assert term.energy_gap == pytest.approx(gap, abs=1e-12)
        assert np.max(np.abs(term.matrix - tensor)) < 1e-12


def test_spectral_terms_degenerate_ground():
    with pytest.raises(CriticalPoint, match="E1 - E0"):
        qgt_matrix_elements(P(0.0, 1.0, 0.0), 6)

