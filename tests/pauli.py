"""The spin chain assembled from Pauli operators, independently of the oracle.

H(phi) = hop + gamma pair(phi) + lam field on the periodic ring, bonds
j -> j+1 with site N identified with site 0 (at N = 2 the two ordered bonds
join the same sites, so that bond counts twice).  Basis (up, down) per
site; a down spin is a set bit and site 0 is the most significant bit, so
Kronecker products run over sites in order.  The phi-free bond sums and
the Jordan-Wigner creators are built once per ring size.
"""

from functools import lru_cache, partial, reduce

import numpy as np
import scipy.sparse

RAISE = np.array([[0.0, 1.0], [0.0, 0.0]])
LOWER = RAISE.T
SZ = np.diag([1.0, -1.0])


def _sites(ops, n, kron=np.kron):
    """Kronecker product over the ring; ``ops`` maps a site to its operator."""
    return reduce(kron, [ops.get(k, np.eye(2)) for k in range(n)])


@lru_cache(maxsize=None)
def _bond_sums(n):
    """Read-only real hopping, pair-creation and field sums of the n-site ring."""
    dim = 1 << n
    hop, create, field = (np.zeros((dim, dim)) for _ in range(3))
    for j in range(n):
        j2 = (j + 1) % n
        bond_hop = _sites({j: RAISE, j2: LOWER}, n)
        hop += -0.5 * (bond_hop + bond_hop.T)
        create += -0.5 * _sites({j: RAISE, j2: RAISE}, n)
        field += -0.5 * _sites({j: SZ}, n)
    for part in (hop, create, field):
        part.setflags(write=False)
    return hop, create, field


def pauli_parts(phi, n):
    """Hopping, pair, field and d(pair)/dphi sums; H = hop + gamma pair + lam field."""
    hop, create, field = _bond_sums(n)
    turn = np.exp(2j * phi)
    pair = turn * create + turn.conjugate() * create.T
    d_pair = 2j * (turn * create - turn.conjugate() * create.T)
    return hop, pair, field, d_pair


def pauli_hamiltonian(phi, gamma, lam, n):
    hop, pair, field, _ = pauli_parts(phi, n)
    return hop + gamma * pair + lam * field


def gauge(phi, n):
    """Diagonal of U = diag(exp(-i phi popcount)), with H(phi) = U H(0) U^dag."""
    pop = np.array([bin(b).count("1") for b in range(1 << n)])
    return np.exp(-1j * phi * pop)


def sparse_hamiltonian(gamma, lam, n):
    """The phi = 0 chain as a scipy CSR matrix, for rings too wide to build dense."""
    kron = partial(scipy.sparse.kron, format="coo")
    terms = []
    for j in range(n):
        j2 = (j + 1) % n
        hop = _sites({j: RAISE, j2: LOWER}, n, kron)
        create = _sites({j: RAISE, j2: RAISE}, n, kron)
        field = _sites({j: SZ}, n, kron)
        terms += [-0.5 * (hop + hop.T), -0.5 * gamma * (create + create.T), -0.5 * lam * field]
    return sum(terms[1:], terms[0]).tocsr()


@lru_cache(maxsize=None)
def _creators(n):
    """Jordan-Wigner creators a_j^dag = (prod_{k<j} SZ_k) LOWER_j as CSR matrices."""
    kron = partial(scipy.sparse.kron, format="csr")
    return [_sites({k: SZ for k in range(j)} | {j: LOWER}, n, kron) for j in range(n)]


def _momentum_creator(alpha, n):
    """The plane-wave creator N^(-1/2) sum_j e^(i alpha j) a_j^dag."""
    terms = [np.exp(1j * alpha * j) * a for j, a in enumerate(_creators(n))]
    return sum(terms[1:], terms[0]) / np.sqrt(n)


def fock_vector(state):
    """A product ground state expanded in the 2^N spin basis.

    Operators act on the all-up vacuum in the library's order: the zero mode
    first when occupied, then u + v a^dag_(+alpha) a^dag_(-alpha) per pair.
    """
    n = state.n_sites
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    if state.zero_mode_occupied:
        psi = _momentum_creator(0.0, n) @ psi
    for alpha, u, v in zip(state.alphas, state.u, state.v):
        pair = _momentum_creator(alpha, n) @ (_momentum_creator(-alpha, n) @ psi)
        psi = u * psi + v * pair
    return psi
