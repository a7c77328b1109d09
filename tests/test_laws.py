"""Thermodynamic-limit laws of the ground-state metric per site.

The closed-form tensor of ``qgt_product`` is held to the known metric
densities of the XY chain on rings large enough that the finite-size
corrections, exponentially small in N at a gapped point, are far below
rounding.  Below the critical field g_lamlam and g_gamgam are those of
Zanardi, Giorda and Cozzini, PRL 99, 100603 (2007); above it, at gamma = 1,
g_lamlam is the Ising result of Damski, PRE 87, 052131 (2013).  Two kinds of
law were found numerically from this tensor, not taken from the literature:
the g_phiphi laws, which are Var(P) / N of the down-spin count P, and the
g_lamlam law above the field at any anisotropy,
gamma^2 lam / (16 (lam^2 - 1) (lam^2 - 1 + gamma^2)^(3/2)), which reduces to
Damski's at gamma = 1 and matched this tensor to 2.1e-15 relative or better
at N = 2^16 and 2^18.
"""

import pytest

from artifact import ModelParams, qgt_product

SIZES = (1 << 16, 1 << 18)
REL = 1e-12


def _metric_per_site(gamma, lam, n):
    # coordinates (phi, gamma, lam): the diagonal is g_phiphi, g_gamgam, g_lamlam
    return qgt_product(ModelParams(0.0, gamma, lam), n).real_metric / n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lam", [0.5, 0.9])
@pytest.mark.parametrize("gamma", [0.4, 0.8, 1.0, 1.5])
def test_metric_laws_below_the_critical_field(gamma, lam, n):
    g = _metric_per_site(gamma, lam, n)
    assert g[2, 2] == pytest.approx(1.0 / (16.0 * gamma * (1.0 - lam * lam)), rel=REL)
    assert g[1, 1] == pytest.approx(1.0 / (16.0 * gamma * (1.0 + gamma) ** 2), rel=REL)
    assert g[0, 0] == pytest.approx(gamma / (2.0 * (1.0 + gamma)), rel=REL)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lam", [1.05, 1.3, 1.5, 2.0, 3.0])
def test_ising_metric_laws_above_the_critical_field(lam, n):
    for gamma in (0.2, 0.4, 0.8, 1.0, 1.5, 3.0):
        g = _metric_per_site(gamma, lam, n)
        h = lam * lam - 1.0
        law = gamma * gamma * lam / (16.0 * h * (h + gamma * gamma) ** 1.5)
        assert g[2, 2] == pytest.approx(law, rel=REL)
    g = _metric_per_site(1.0, lam, n)
    assert g[2, 2] == pytest.approx(1.0 / (16.0 * lam * lam * (lam * lam - 1.0)), rel=REL)
    assert g[0, 0] == pytest.approx(1.0 / (4.0 * lam * lam), rel=REL)
