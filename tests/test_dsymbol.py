"""Click-kernel tests: initial values, identities, and the three-route agreement."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from clickcraft import (
    DetectorConfig,
    DSymbolParams,
    click_kernel_table,
    click_povm_element,
    d_recursive,
)
import clickcraft
import clickcraft.fock
from clickcraft.dsymbol import NumericalError
from clickcraft.validation import d_direct, d_exact


def test_direct_initial_value():
    assert d_direct(DSymbolParams(4, 0.3, 0.9), 0, 0) == 1.0


def test_direct_vanishes_above_diagonal():
    assert d_direct(DSymbolParams(4, 0.5, 0.5), 2, 1) == pytest.approx(0.0, abs=1e-14)


def test_direct_diagonal_closed_form():
    # D[k, k] = (sigma/N)^k N!/(N-k)!
    assert d_direct(DSymbolParams(4, 0.5, 0.5), 2, 2) == pytest.approx(0.1875, rel=1e-13)
    params = DSymbolParams(16, 0.2, 0.8)
    expect = (0.8 / 16) ** 5 * math.perm(16, 5)
    assert d_direct(params, 5, 5) == pytest.approx(expect, rel=1e-12)


def test_direct_domain_errors():
    with pytest.raises(ValueError):
        d_direct(DSymbolParams(4, 0.5, 0.5), 5, 3)
    with pytest.raises(ValueError):
        d_direct(DSymbolParams(4, 0.5, 0.5), -1, 3)
    with pytest.raises(ValueError):
        d_direct(DSymbolParams(4, 0.5, 0.5), 1, -2)


def test_recursive_first_row_is_tau_powers():
    table = d_recursive(DSymbolParams(4, 1 - 0.95, 0.95), 4, 3)
    for m in (1, 2, 3):
        assert table.values[0, m] == pytest.approx(0.05**m, rel=1e-14)


def test_recursive_matches_direct_spot():
    params = DSymbolParams(64, 0.05, 0.95)
    table = d_recursive(params, 3, 7)
    assert table.values[3, 7] == pytest.approx(d_direct(params, 3, 7), rel=1e-10)


@pytest.mark.parametrize("eta_eff", [0.3, 0.625, 1.7])
def test_recursive_subtraction_regime_triangular(eta_eff):
    # tau = -eta', sigma = eta': the kernel vanishes for m < k
    table = d_recursive(DSymbolParams(4, -eta_eff, eta_eff), 4, 12)
    for k in range(5):
        for m in range(k):
            assert table.values[k, m] == 0.0


def test_recursive_domain_error():
    with pytest.raises(ValueError):
        d_recursive(DSymbolParams(4, 0.5, 0.5), 5, 10)


def test_exact_initial_value():
    assert d_exact(4, Fraction(1, 2), Fraction(1, 2), 0, 0) == 1


def test_exact_diagonal_k1_gives_sigma():
    assert d_exact(4, Fraction(1, 20), Fraction(19, 20), 1, 1) == Fraction(19, 20)


def test_exact_matches_direct():
    val = d_exact(16, Fraction(1, 5), Fraction(4, 5), 5, 12)
    direct = d_direct(DSymbolParams(16, 0.2, 0.8), 5, 12)
    assert direct == pytest.approx(float(val), rel=1e-12)


def test_exact_triangularity_is_exact():
    for k in range(1, 5):
        for m in range(k):
            assert d_exact(4, Fraction(7, 10), Fraction(3, 10), k, m) == 0


def test_row_sum_completeness():
    # tau = 1-eta, sigma = eta: rows are click distributions of Fock states
    for n, eta in [(1, 0.3), (4, 0.95), (16, 0.5), (64, 0.8)]:
        table = d_recursive(DSymbolParams(n, 1.0 - eta, eta), n, 96)
        sums = table.values.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-10


def test_probability_regime_bounds():
    for eta in (0.0, 0.25, 0.8, 1.0):
        table = d_recursive(DSymbolParams(8, 1.0 - eta, eta), 8, 64)
        assert table.values.min() >= -1e-12
        assert table.values.max() <= 1.0 + 1e-12


def test_triple_agreement_small_grid():
    # the full acceptance grid runs in tests/test_acceptance.py
    for n in (1, 4, 16):
        params = DSymbolParams(n, 0.5, 0.5)
        for k in range(0, min(n, 6) + 1):
            for m in range(0, 33, 4):
                exact = float(d_exact(n, 0.5, 0.5, k, m))
                table = d_recursive(params, k, m)
                for route in (d_direct(params, k, m), table.values[k, m]):
                    if abs(exact) > 1e-300:
                        assert route == pytest.approx(exact, rel=1e-9)
                    else:
                        assert abs(route) < 1e-12


def test_direct_handles_heavy_cancellation():
    # k = m is the worst case: the result is ~5e-8 of the largest summand here
    exact = float(d_exact(64, 0.05, 0.95, 16, 16))
    assert d_direct(DSymbolParams(64, 0.05, 0.95), 16, 16) == pytest.approx(exact, rel=1e-12)


def test_table_values_are_readonly():
    table = d_recursive(DSymbolParams(4, 0.5, 0.5), 2, 8)
    with pytest.raises(ValueError):
        table.values[0, 0] = 2.0


def test_params_validation():
    with pytest.raises(ValueError):
        DSymbolParams(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        DSymbolParams(4, float("nan"), 0.5)


@pytest.mark.parametrize("n_diodes", [2.5, 4.0, True, np.float64(4.0)])
def test_params_diode_count_must_be_an_integer(n_diodes):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        DSymbolParams(n_diodes, 0.5, 0.5)


# --- the recursion's bits -----------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1


def _reference_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _reference_two_prod(a, b):
    p = a * b
    ac = _SPLIT * a
    ah = ac - (ac - a)
    al = a - ah
    bc = _SPLIT * b
    bh = bc - (bc - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _reference_recursion(params, kmax, mmax):
    """The compensated recursion column by column (k-major), one Dekker
    product per coefficient vector and step."""
    n = params.N
    karr = np.arange(1, kmax + 1, dtype=float)
    ca = params.tau + params.sigma * karr / n
    cb = params.sigma * (n - karr + 1.0) / n
    hi = np.zeros((kmax + 1, mmax + 1))
    lo = np.zeros((kmax + 1, mmax + 1))
    hi[0, 0] = 1.0
    if mmax >= 1:
        hi[0, 1:] = params.tau ** np.arange(1, mmax + 1)
    for m in range(1, mmax + 1):
        if kmax == 0:
            break
        t1h, t1e = _reference_two_prod(ca, hi[1:, m - 1])
        t1e += ca * lo[1:, m - 1]
        t2h, t2e = _reference_two_prod(cb, hi[:-1, m - 1])
        t2e += cb * lo[:-1, m - 1]
        sh, se = _reference_two_sum(t1h, t2h)
        err = se + t1e + t2e
        hi[1:, m], lo[1:, m] = _reference_two_sum(sh, err)
    return hi + lo


def _bit_cases():
    edges = [
        (1, 1, 0, 0.3, 0.7),  # mmax = 0
        (5, 0, 40, 0.3, 0.7),  # kmax = 0
        (1, 1, 60, 0.25, 0.75),  # N = 1
        (16, 12, 80, 0.2, 1.8),  # sigma > 1
        (64, 64, 127, 0.2, 0.8),
        (40, 15, 90, 0.35, 0.65),
        (40, 16, 90, 0.35, 0.65),
        (40, 17, 90, 0.35, 0.65),
        (8, 2, 2000, 0.3, 0.7),  # narrow, with a long mmax
        # eta = 0, eta = 1 and tau < 0 (subtraction regime), narrow and wide
        (8, 8, 50, 1.0, 0.0),
        (8, 8, 50, 0.0, 1.0),
        (6, 6, 40, -1.7, 1.7),
        (24, 20, 50, 1.0, 0.0),
        (24, 20, 50, 0.0, 1.0),
        (24, 24, 40, -1.7, 1.7),
    ]
    rng = np.random.default_rng(20140321)
    randoms = []
    for _ in range(120):
        n = int(rng.integers(1, 70))
        randoms.append(
            (n, int(rng.integers(0, n + 1)), int(rng.integers(0, 140)),
             float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, 3.0)))
        )
    return edges + randoms


def test_d_recursive_bit_identical_to_reference_recursion():
    for n, kmax, mmax, tau, sigma in _bit_cases():
        params = DSymbolParams(n, tau, sigma)
        values = d_recursive(params, kmax, mmax).values
        expect = _reference_recursion(params, kmax, mmax)
        case = (n, kmax, mmax, tau, sigma)
        assert values.shape == (kmax + 1, mmax + 1), case
        assert values.flags.c_contiguous and not values.flags.writeable, case
        assert np.array_equal(values.view(np.uint64), expect.view(np.uint64)), case


def test_narrow_table_rows_equal_full_table_rows():
    # click_povm_element reads row k of the N+1-row table; a table built with
    # kmax = k holds the same row
    for det in (DetectorConfig(40, 0.7), DetectorConfig(9, 0.45)):
        for k in sorted({1, 3, 15, 16, 17, det.N}):
            if k > det.N:
                continue
            full = click_povm_element(det, k, 128)
            narrow = click_kernel_table(det, k, 127).values[k]
            assert np.array_equal(full.view(np.uint64), narrow.view(np.uint64)), (det, k)


@pytest.mark.parametrize("kmax", [8, 16])
def test_d_recursive_overflow_is_numerical_error(kmax):
    # an overflowing table raises rather than returning inf and nan, and
    # without a RuntimeWarning
    params = DSymbolParams(16, 1e200, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="float range"):
            d_recursive(params, kmax, 8)


def test_numerical_error_is_one_class():
    assert clickcraft.NumericalError is NumericalError
    # a cutoff failure is one kind of numerical failure
    assert clickcraft.CutoffError is clickcraft.fock.CutoffError is clickcraft.dsymbol.CutoffError
    assert issubclass(clickcraft.CutoffError, NumericalError)
