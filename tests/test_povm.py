"""POVM elements, click statistics, and the photoelectric comparison bound."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from clickcraft import (
    DetectorConfig,
    DSymbolParams,
    click_kernel_table,
    click_povm_element,
    click_statistics,
    d_exact,
    d_recursive,
    make_state,
    operator_norm_distance,
    photoelectric_element,
    photon_distribution,
)
from clickcraft import povm


def test_no_click_element_weights():
    det = DetectorConfig(8, 0.6)
    el = click_povm_element(det, 0, 32)
    assert np.allclose(el, 0.4 ** np.arange(32), rtol=1e-13)


def test_single_photon_weights():
    det = DetectorConfig(16, 0.35)
    assert click_povm_element(det, 1, 4)[1] == pytest.approx(0.35, rel=1e-13)
    assert click_povm_element(det, 0, 4)[1] == pytest.approx(0.65, rel=1e-13)


def test_blind_detector():
    det = DetectorConfig(4, 0.0)
    assert np.array_equal(click_povm_element(det, 0, 16), np.ones(16))
    for k in range(1, 5):
        assert np.array_equal(click_povm_element(det, k, 16), np.zeros(16))


def test_element_rejects_k_above_n():
    with pytest.raises(ValueError):
        click_povm_element(DetectorConfig(4, 0.5), 5, 16)


@pytest.mark.parametrize("n,eta", [(1, 0.25), (4, 0.5), (16, 0.95), (64, 1.0)])
def test_completeness(n, eta):
    det = DetectorConfig(n, eta)
    total = sum(click_povm_element(det, k, 128) for k in range(n + 1))
    assert np.abs(total - 1.0).max() < 1e-10


def test_click_statistics_vacuum():
    dist = click_statistics(np.array([1.0]), DetectorConfig(8, 0.7))
    assert dist.probs[0] == pytest.approx(1.0)
    assert np.abs(dist.probs[1:]).max() < 1e-14


def test_click_statistics_single_photon():
    det = DetectorConfig(12, 0.8)
    p = np.zeros(4)
    p[1] = 1.0
    dist = click_statistics(p, det)
    assert dist.probs[0] == pytest.approx(0.2, rel=1e-13)
    assert dist.probs[1] == pytest.approx(0.8, rel=1e-13)
    assert np.abs(dist.probs[2:]).max() < 1e-14


def test_click_statistics_coherent_is_binomial():
    # coherent light yields exactly binomial clicks B(N, 1 - e^{-eta|a|^2/N})
    n, eta, alpha = 6, 0.75, 1.4
    state = make_state("coherent", 64, alpha=alpha)
    dist = click_statistics(photon_distribution(state), DetectorConfig(n, eta))
    q = 1.0 - math.exp(-eta * alpha**2 / n)
    binom = np.array([math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)])
    assert np.abs(dist.probs - binom).max() < 1e-12


def test_click_statistics_half_click_point():
    # eta |alpha|^2 = N ln 2 makes every diode click with probability 1/2
    n, eta = 4, 0.5
    alpha = math.sqrt(n * math.log(2) / eta)
    state = make_state("coherent", 96, alpha=alpha)
    dist = click_statistics(photon_distribution(state), DetectorConfig(n, eta))
    expect = np.array([math.comb(n, k) / 2**n for k in range(n + 1)])
    assert np.abs(dist.probs - expect).max() < 1e-12


def test_click_statistics_preserves_total():
    p = np.array([0.4, 0.3, 0.2, 0.05])  # deliberately sub-normalized
    dist = click_statistics(p, DetectorConfig(4, 0.6))
    assert dist.probs.sum() == pytest.approx(p.sum(), abs=1e-12)


def test_click_statistics_rejects_negative():
    with pytest.raises(ValueError):
        click_statistics(np.array([0.5, -0.1]), DetectorConfig(2, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_click_statistics_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        click_statistics(np.array([0.5, bad]), DetectorConfig(2, 0.5))


def _exact_click_statistics(p, det, ks):
    """Exact sums of p_m D[k, m] over m >= k (D[k, m] = 0 below), from
    ``d_exact`` at the float parameters the library uses."""
    tau = 1.0 - det.eta
    return [
        float(sum(Fraction(p[m]) * d_exact(det.N, tau, det.eta, k, m) for m in range(k, p.size)))
        for k in ks
    ]


def test_click_statistics_matches_exact_sums():
    rng = np.random.default_rng(20141120)
    # (N, M, eta, click numbers checked); None is every k
    cases = [(1, 128, 0.93, None), (2, 64, 0.37, None), (5, 128, 0.61, None),
             (16, 40, 0.93, None), (64, 128, 0.37, (0, 1, 2, 3)), (64, 70, 0.81, (61, 63, 64))]
    for n, size, eta, ks in cases:
        p = rng.dirichlet(np.ones(size)) * 0.999
        det = DetectorConfig(n, eta)
        ks = range(n + 1) if ks is None else ks
        probs = click_statistics(p, det).probs
        for k, exact in zip(ks, _exact_click_statistics(p, det, ks)):
            assert abs(probs[k] - exact) <= 1e-13 * exact, (n, size, eta, k)


def test_click_statistics_matches_kernel_table_product():
    rng = np.random.default_rng(20141121)
    for n in (1, 2, 3, 7, 16, 24, 33, 64):
        for size in (1, 5, 40, 128):
            eta = float(rng.uniform(0.05, 1.0))
            p = rng.dirichlet(np.ones(size)) * rng.uniform(0.5, 1.0)
            last = int(rng.integers(0, size))  # the last nonzero p_m
            p[last + 1 :] = 0.0
            det = DetectorConfig(n, eta)
            probs = click_statistics(p, det).probs
            table = click_kernel_table(det, n, size - 1).values @ p
            assert probs.shape == (n + 1,)
            assert np.all(np.abs(probs - table) <= 1e-14 * table), (n, size, eta)
            assert np.all(probs[last + 1 :] == 0.0) and np.all(probs[: last + 1] > 0.0)


def test_photoelectric_projector_at_unit_efficiency():
    el = photoelectric_element(1.0, 3, 16)
    expect = np.zeros(16)
    expect[3] = 1.0
    assert np.array_equal(el, expect)


def test_photoelectric_k0_matches_click_k0():
    pe = photoelectric_element(0.35, 0, 64)
    click = click_povm_element(DetectorConfig(7, 0.35), 0, 64)
    assert np.allclose(pe, click, rtol=1e-13)


def test_photoelectric_point_value():
    assert photoelectric_element(0.5, 2, 8)[2] == pytest.approx(0.25)


def test_elements_are_read_only_weight_vectors():
    # the click element is a row of the cached kernel table, shared by callers
    for weights in (click_povm_element(DetectorConfig(4, 0.5), 2, 16),
                    photoelectric_element(0.5, 2, 16), photoelectric_element(1.0, 2, 16)):
        assert weights.shape == (16,) and not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0


def test_distance_zero_cases():
    assert operator_norm_distance(DetectorConfig(4, 0.5), 0).value == 0.0
    assert operator_norm_distance(DetectorConfig(4, 0.0), 2).value == 0.0


def test_distance_monotone_in_diode_number():
    values = [
        operator_norm_distance(DetectorConfig(n, 0.5), 1, cutoff=512).value
        for n in (2, 4, 8, 16, 32, 64)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_distance_matches_exact_rational_scan():
    # independent route: exact-kernel weights against the binomial weights, m <= 512
    det = DetectorConfig(4, 0.5)
    res = operator_norm_distance(det, 1, cutoff=512)
    sup = 0.0
    for m in range(512):
        click = d_exact(4, Fraction(1, 2), Fraction(1, 2), 1, m)
        pe = Fraction(m) * Fraction(1, 2) * Fraction(1, 2) ** (m - 1) if m >= 1 else 0
        sup = max(sup, abs(float(pe - click)))
    assert res.grid_sup == pytest.approx(sup, rel=1e-12)
    assert res.value >= res.grid_sup
    assert res.tail_bound < 1e-30


def test_distance_bounds_expectation_deviation():
    # Hoelder: |tr(rho Pi_k) - tr(rho P_k)| <= ||P_k - Pi_k||_op for any state
    det = DetectorConfig(6, 0.55)
    states = [
        make_state("coherent", 96, alpha=1.1),
        make_state("thermal", 96, nbar=0.8),
        make_state("fock", 96, n=5),
    ]
    for k in range(1, 5):
        bound = operator_norm_distance(det, k, cutoff=256).value
        click = click_povm_element(det, k, 96)
        pe = photoelectric_element(det.eta, k, 96)
        for state in states:
            p = photon_distribution(state)
            assert abs(p @ click - p @ pe) <= bound + 1e-12


def _distance_from_full_table(det, k, cutoff, full):
    """operator_norm_distance as it read row k of the N+1-row kernel table."""
    click = full.row(k)
    eta = det.eta

    def w(m):
        return math.comb(m, k) * eta**k * (1.0 - eta) ** (m - k)

    pe = np.zeros(cutoff)
    pe[k:] = [w(m) for m in range(k, cutoff)]
    grid_sup = float(np.max(np.abs(pe - click)))
    pe_tail = max(w(m) for m in range(cutoff, max(cutoff, math.ceil(k / eta) - 1) + 2))
    base = 1.0 - eta * (1.0 - k / det.N)
    click_tail = min(1.0, math.comb(det.N, k) * 2.0**k * base**cutoff)
    return grid_sup, max(pe_tail, click_tail)


def test_distance_bits_match_full_table_route():
    for cutoff, eta in ((128, 0.37), (512, 0.81)):
        for n in range(2, 65):
            det = DetectorConfig(n, eta)
            full = d_recursive(DSymbolParams.for_detector(n, eta), n, cutoff - 1)
            for k in range(1, min(n, 3) + 1):
                res = operator_norm_distance(det, k, cutoff)
                grid_sup, tail_bound = _distance_from_full_table(det, k, cutoff, full)
                got = np.array([res.value, res.grid_sup, res.tail_bound])
                expect = np.array([max(grid_sup, tail_bound), grid_sup, tail_bound])
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), (n, k, cutoff)


def _exact_binomial_weight(m, k, eta):
    eta_q = Fraction(eta)
    return float(math.comb(m, k) * eta_q**k * (1 - eta_q) ** (m - k))


def test_photoelectric_weights_beyond_float_binomials():
    # C(m, 400) exceeds the float range from m = 1084 on
    eta, k, cutoff = 0.5, 400, 2048
    weights = photoelectric_element(eta, k, cutoff)
    assert np.all(np.isfinite(weights)) and weights[:k].max() == 0.0
    for m in (400, 800, 1083, 1084, 1400, 2047):
        assert weights[m] == pytest.approx(_exact_binomial_weight(m, k, eta), rel=1e-11, abs=1e-300)
    # where the binomial fits, the weight is the plain float product
    assert weights[1000] == math.comb(1000, k) * eta**k * (1.0 - eta) ** (1000 - k)


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorConfig(0, 0.5)
    with pytest.raises(ValueError):
        DetectorConfig(4, 1.2)


def _counted_weights(monkeypatch, limit=10**5):
    """Count ``_comb_weight`` calls in ``povm``, failing past ``limit``."""
    calls = [0]
    weight = povm._comb_weight

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= limit, "the tail scan evaluates too many weights"
        return weight(*args)

    monkeypatch.setattr(povm, "_comb_weight", counted)
    return calls


def test_photoelectric_tail_sup_matches_full_scan(monkeypatch):
    # the sup over m >= start is the largest float weight on start..top,
    # top = ceil(k/eta); the scan evaluates only a window ending at top
    weight = povm._comb_weight
    calls = _counted_weights(monkeypatch)
    for eta in (1e-2, 1e-3, 1e-4, 1e-5):
        for k in range(1, 6):
            top = math.ceil(k / eta)
            weights = [weight(m, k, eta, 1.0 - eta, m - k) for m in range(top + 8)]
            calls[0] = 0
            for start in (0, k, top // 2, top - 3, top - 1, top, top + 1, top + 6):
                full_scan = max(weights[start : max(start, top - 1) + 2])
                assert povm._photoelectric_tail_sup(eta, k, start) == full_scan, (eta, k, start)
            assert calls[0] <= 8 * 20, (eta, k, calls[0])


def test_photoelectric_tail_sup_at_tiny_efficiency(monkeypatch):
    # the scan used to take time proportional to k/eta: hours at eta = 1e-9
    _counted_weights(monkeypatch)
    start = time.perf_counter()
    res = operator_norm_distance(DetectorConfig(4, 1e-9), 3, 16)
    assert time.perf_counter() - start < 1.0
    # the mode's weight tends to k^k e^-k / k! as eta -> 0
    assert povm._photoelectric_tail_sup(1e-9, 3, 16) == pytest.approx(4.5 * math.exp(-3))
    assert res.tail_bound == 1.0  # the click tail bound saturates here


def _log_tail_sup(eta, k, start):
    """sup_{m >= start} C(m, k) eta^k (1-eta)^(m-k) near the mode floor(k/eta),
    in logarithms: log C(m, k) = sum_i log(m - i) - lgamma(k + 1)."""
    mode = max(start, math.floor(k / eta))
    return max(
        math.exp(
            sum(math.log(m - i) for i in range(k)) - math.lgamma(k + 1)
            + k * math.log(eta) + (m - k) * math.log1p(-eta)
        )
        for m in range(max(start, mode - 3), mode + 4)
    )


def test_photoelectric_tail_sup_where_one_minus_eta_rounds_to_one():
    # 1.0 - 1e-17 == 1.0: the weights used to lose their (1-eta)^(m-k) ~ e^-k
    # factor, and the distance read 4.5, beyond any difference of weights in [0, 1]
    assert povm._photoelectric_tail_sup(1e-17, 3, 16) == pytest.approx(4.5 * math.exp(-3), rel=1e-9)
    res = operator_norm_distance(DetectorConfig(4, 1e-17), 3, 16)
    assert res.value <= 1.0 and res.tail_bound <= 1.0


@pytest.mark.parametrize("eta", [1e-17, 1e-12, 1e-6])
def test_photoelectric_tail_sup_matches_log_reference(eta):
    for k in range(1, 6):
        expect = _log_tail_sup(eta, k, 16)
        assert povm._photoelectric_tail_sup(eta, k, 16) == pytest.approx(expect, rel=1e-12), k
