"""The benchmark's reference functions against 50-digit mpmath evaluations.

    python3 -m pytest bench/test_reference.py

The click probabilities are compared with the alternating closed form
sum_j C(N,k) C(k,j) (-1)^(k-j) exp(-lambda_j |alpha|^2 / gamma_j) / gamma_j,
which at 50 digits keeps about 40 of them after its cancellation.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402

mp = pytest.importorskip("mpmath").mp


def _mp_click_probability(n, eta, lam_scale, alpha_abs2, nbar, k):
    """Closed form for a displaced thermal arm seen through lam_scale."""
    with mp.workdps(50):
        total = mp.mpf(0)
        for j in range(k + 1):
            lam = mp.mpf(eta) * mp.mpf(lam_scale) * (1 - mp.mpf(j) / n)
            gamma = 1 + lam * mp.mpf(nbar)
            term = math.comb(n, k) * math.comb(k, j) * mp.exp(-lam * mp.mpf(alpha_abs2) / gamma) / gamma
            total += -term if (k - j) & 1 else term
        return total


def _assert_close(value, exact, rel=1e-12):
    assert abs(value - float(exact)) <= rel * abs(float(exact)) + 1e-38, (value, exact)


def test_subtraction_point_with_published_true_value():
    # N = 16, eta = 0.5, t = 0.6, thermal nbar = 0.5, k = 12
    r2 = 1.0 - 0.6**2
    exact = _mp_click_probability(16, 0.5, r2, 0.0, 0.5, 12)
    assert abs(float(exact) - 2.5443274668520567e-13) <= 1e-15 * 2.5443274668520567e-13
    _assert_close(ref.subtraction_probabilities(16, 0.5, 0.6, 0j, 0.5)[12], exact)


@pytest.mark.parametrize(
    "n, eta, t, alpha0, nbar",
    [(16, 0.5, 0.6, 0j, 0.5), (32, 0.8, 0.7, 0.8 + 0.3j, 0.5), (8, 0.9, 0.55, 1.1j, 0.0)],
)
def test_subtraction_every_k(n, eta, t, alpha0, nbar):
    r2 = 1.0 - t * t
    probs = ref.subtraction_probabilities(n, eta, t, alpha0, nbar)
    # the tapped arm is (r alpha0, r^2 nbar); in lambda_j = eta r^2 (1 - j/N) form
    for k in range(n + 1):
        exact = _mp_click_probability(n, eta, r2, abs(alpha0) ** 2, nbar, k)
        _assert_close(probs[k], exact)
    assert abs(probs.sum() - 1.0) < 1e-14


@pytest.mark.parametrize(
    "n, eta, mu, alpha0, nbar",
    [(16, 0.8, 1.4, 0j, 0.5), (8, 0.6, 1.7, 0.5 - 0.9j, 1.2), (4, 0.5, 1.5, 0.7071067811865476, 0.0)],
)
def test_addition_every_k(n, eta, mu, alpha0, nbar):
    nu2 = mu * mu - 1.0
    probs = ref.addition_probabilities(n, eta, mu, alpha0, nbar)
    for k in range(n + 1):
        # idler (nu alpha0*, nu^2 (nbar + 1)): gamma_j = 1 + eta nu^2 (1 - j/N)(nbar + 1)
        exact = _mp_click_probability(n, eta, nu2, abs(alpha0) ** 2, nbar + 1.0, k)
        _assert_close(probs[k], exact)
    assert abs(probs.sum() - 1.0) < 1e-14


def test_kernel_table_against_exact_alternating_sum():
    n, eta = 16, 0.8
    table = ref.kernel_table(n, eta, 40)
    with mp.workdps(50):
        for k in range(n + 1):
            for m in range(41):
                exact = math.comb(n, k) * mp.fsum(
                    (-1) ** (k - j) * math.comb(k, j) * (1 - mp.mpf(eta) + mp.mpf(eta) * j / n) ** m
                    for j in range(k + 1)
                )
                if m < k:
                    assert table[k, m] == 0.0
                else:
                    _assert_close(table[k, m], exact, rel=1e-13)


@pytest.mark.parametrize("alpha_abs2, nbar", [(0.0, 0.5), (1.7, 0.0), (0.73, 1.3), (4.0, 2.0)])
def test_glauber_lachs_against_laguerre(alpha_abs2, nbar):
    p = ref.glauber_lachs(alpha_abs2, nbar)
    assert abs(math.fsum(p) - 1.0) < 1e-14
    with mp.workdps(50):
        for m in range(30):
            if nbar == 0:
                exact = mp.exp(-alpha_abs2) * mp.mpf(alpha_abs2) ** m / mp.factorial(m)
            else:
                x = mp.mpf(alpha_abs2) / (nbar * (1 + mp.mpf(nbar)))
                exact = (
                    mp.mpf(nbar) ** m / (1 + mp.mpf(nbar)) ** (m + 1)
                    * mp.exp(-mp.mpf(alpha_abs2) / (1 + nbar)) * mp.laguerre(m, 0, -x)
                )
            _assert_close(p[m], exact, rel=1e-13)


def test_amplifier_marginals_sum_to_one():
    rows, cols = ref.amplifier_marginals(4, 0.5, 1.5, 4, 0.5, 2.0 / 3.0, 0.7071067811865476)
    assert abs(rows.sum() - 1.0) < 1e-14 and abs(cols.sum() - 1.0) < 1e-14
    assert np.all(rows > 0) and np.all(cols > 0)
