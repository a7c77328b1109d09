"""The checks can fail: a table of formulas broken one at a time.

Each row replaces one name with a mutant in every library module that holds
it, then runs a check imported from the test module that guards the
formula, which must hold before the mutation and fail after it.  Weakening
such a helper breaks its row.  A mutant no test catches yet is a strict
xfail that names the ROADMAP item which will catch it.
"""

import inspect

import numpy as np
import pytest

import test_api
import test_geometry
import test_ground_state
import test_oracle
from artifact import ModelParams as P
from artifact import build_ground_state, cli, geometry, ground_state, model, oracle, topology
from pauli import fock_vector

_MODULES = (model, ground_state, geometry, topology, oracle, cli)


def _mutate(monkeypatch, name, make):
    """Replace ``name`` by ``make(original)`` wherever a library module imported it."""
    original = next(vars(module)[name] for module in _MODULES if name in vars(module))
    mutant = make(original)
    for module in _MODULES:
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, mutant)


def _pairing_sign(pairing):
    class Mutant(pairing):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.b = -self.b  # b = -gamma sin(alpha)

    return Mutant


def _d_lam_sign(pairing):
    class Mutant(pairing):
        __slots__ = ()
        d_lam = property(lambda p: p.b / p.r2)  # dtheta/dlam = +b / r^2

    return Mutant


def _tensors(change):
    """A mutant of ``_qgt_product_batch`` that applies ``change`` to each tensor's matrix."""

    def make(batch):
        def mutant(*args):
            return [
                geometry.GeometricTensor(change(r.matrix.copy()))
                if isinstance(r, geometry.GeometricTensor) else r
                for r in batch(*args)
            ]

        return mutant

    return make


def _scale_phi_phi(q):
    q[0, 0] *= 0.25  # the Bloch tensor's 1/4 without the (dchi/dphi)^2 = 4
    return q


def _unconverted(check):
    def mutant(alpha):
        check(alpha)
        return alpha

    return mutant


def _chain_eigenstate():
    p = P(0.0, 0.5, 0.5)
    test_ground_state._assert_chain_eigenstate(p, 8, fock_vector(build_ground_state(p, 8)))


def _product_finite_diff():
    test_geometry._assert_product_finite_diff(P(0.3, 0.7, 0.4), 6)


def _momentum_walk():
    params = inspect.signature(model.dispersion).parameters
    test_api._assert_computes_as_its_float(model.dispersion, params, ["alpha"], np.float32)


_ROWS = [
    pytest.param("_Pairing", _pairing_sign, _chain_eigenstate, id="pairing-sign"),
    pytest.param("_Pairing", _d_lam_sign, _product_finite_diff, id="d_lam-sign"),
    pytest.param(
        "_qgt_product_batch", _tensors(np.conj), _product_finite_diff, id="curvature-sign"
    ),
    pytest.param(
        "_qgt_product_batch", _tensors(_scale_phi_phi), _product_finite_diff, id="q_phi_phi-scale"
    ),
    pytest.param(
        "_pair_grid",
        lambda grid: lambda n, odd: grid(n, not odd),
        lambda: test_oracle._assert_sectors_match_ed(P(0.0, 1.0, 0.5), 6),
        id="sectors-swapped",
    ),
    pytest.param("_check_momentum", _unconverted, _momentum_walk, id="momentum-unconverted"),
    pytest.param(
        "_odd_sector",
        lambda rule: lambda lam: lam < 0.99,
        test_geometry.test_qgt_product_is_the_chain_tensor,
        id="sector-rule-0.99",
        marks=pytest.mark.xfail(
            raises=pytest.fail.Exception,
            strict=True,
            reason="ROADMAP item 3: the chain-tensor property needs a gap of 0.05, "
            "which keeps every field it draws out of [0.99, 1)",
        ),
    ),
]


@pytest.mark.parametrize("name, make, check", _ROWS)
def test_the_check_fails_on_the_mutant(monkeypatch, name, make, check):
    check()
    _mutate(monkeypatch, name, make)
    with pytest.raises(AssertionError):
        check()
