"""Phase-space mixture maps: closed forms, pointwise correctness, closure."""

import math

import numpy as np
import pytest

from clickcraft import (
    AdditionSpec,
    AmplifySpec,
    BeamSplitterConfig,
    DeltaTerm,
    DetectorConfig,
    GaussianTerm,
    GridSpec,
    NumericalError,
    PhaseSpaceMixture,
    ProcessOutcome,
    SqueezerConfig,
    SubtractionSpec,
    add,
    amplify_closed_form,
    convolve_noise,
    evaluate_grid,
    husimi_smooth,
    husimi_unsmooth,
    integral,
    moment,
    multiply_click_factor,
    probability_table,
    scale_loss,
    subtract,
)

RNG = np.random.default_rng(20240817)


def random_mixture(n_gauss=3, n_delta=0) -> PhaseSpaceMixture:
    gaussians = tuple(
        GaussianTerm(
            c=float(RNG.uniform(-1, 2)),
            z=complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1)),
            a=float(RNG.uniform(0.2, 3.0)),
        )
        for _ in range(n_gauss)
    )
    deltas = tuple(
        DeltaTerm(c=float(RNG.uniform(0.1, 1)), z=complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1)))
        for _ in range(n_delta)
    )
    return PhaseSpaceMixture.from_terms(gaussians, deltas)


def random_points(n=200) -> np.ndarray:
    return RNG.uniform(-2, 2, n) + 1j * RNG.uniform(-2, 2, n)


# --- scale_loss -------------------------------------------------------------


def test_loss_maps_thermal_to_scaled_thermal():
    out = scale_loss(PhaseSpaceMixture.thermal(0.5), 0.7)
    expect = PhaseSpaceMixture.thermal(0.49 * 0.5)
    pts = random_points()
    assert np.allclose(out.evaluate(pts), expect.evaluate(pts), rtol=1e-13)
    assert integral(out) == pytest.approx(1.0, abs=1e-13)


def test_loss_identity_at_unit_transmission():
    mix = random_mixture(3, 1)
    out = scale_loss(mix, 1.0)
    assert out.gaussians == mix.gaussians
    assert out.deltas == mix.deltas


def test_loss_moves_delta():
    out = scale_loss(PhaseSpaceMixture.coherent(0.4 + 0.2j), 0.5)
    assert out.deltas[0].z == pytest.approx(0.2 + 0.1j)
    assert out.deltas[0].c == 1.0


def test_loss_rejects_bad_transmission():
    mix = PhaseSpaceMixture.vacuum()
    for t in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            scale_loss(mix, t)


# --- convolve_noise ---------------------------------------------------------


def test_noise_regularizes_coherent_delta():
    mu = 1.4
    out = convolve_noise(PhaseSpaceMixture.coherent(0.8), mu)
    assert not out.deltas
    (g,) = out.gaussians
    assert g.z == pytest.approx(mu * 0.8)
    assert 1.0 / g.a == pytest.approx(mu * mu - 1.0, rel=1e-13)
    assert integral(out) == pytest.approx(1.0, rel=1e-13)


def test_noise_on_thermal_gives_amplified_variance():
    mu, nbar = 1.4, 0.5
    out = convolve_noise(PhaseSpaceMixture.thermal(nbar), mu)
    (g,) = out.gaussians
    assert 1.0 / g.a == pytest.approx(mu * mu * (nbar + 1.0) - 1.0, rel=1e-13)


def test_noise_preserves_integral():
    mix = random_mixture(4, 2)
    out = convolve_noise(mix, 1.3)
    assert integral(out) == pytest.approx(integral(mix), rel=1e-12)


def test_noise_rejects_mu_below_one_and_warns_at_one():
    with pytest.raises(ValueError):
        convolve_noise(PhaseSpaceMixture.vacuum(), 0.9)
    with pytest.warns(UserWarning):
        out = convolve_noise(PhaseSpaceMixture.vacuum(), 1.0)
    assert out == PhaseSpaceMixture.vacuum()


# --- multiply_click_factor --------------------------------------------------


def click_factor(eta_eff, n, k, alpha):
    e = np.exp(-eta_eff * np.abs(alpha) ** 2 / n)
    return math.comb(n, k) * e ** (n - k) * (1 - e) ** k


@pytest.mark.parametrize("k", [0, 1, 3])
def test_click_factor_is_pointwise(k):
    mix = random_mixture(3)
    out = multiply_click_factor(mix, 0.6, 8, k)
    pts = random_points()
    assert np.allclose(
        out.evaluate(pts), click_factor(0.6, 8, k, pts) * mix.evaluate(pts), atol=1e-12
    )


def test_click_factor_on_delta_scales_weight():
    beta = 0.7 - 0.4j
    out = multiply_click_factor(PhaseSpaceMixture.coherent(beta), 0.45, 8, 0)
    assert out.deltas[0].c == pytest.approx(math.exp(-0.45 * abs(beta) ** 2), rel=1e-14)
    assert out.deltas[0].z == beta


def test_click_factor_zero_efficiency():
    mix = random_mixture(2, 1)
    assert multiply_click_factor(mix, 0.0, 4, 0) == mix
    out = multiply_click_factor(mix, 0.0, 4, 2)
    assert out.n_terms == 0


def test_click_factor_term_count():
    mix = random_mixture(3)
    for k in range(4):
        out = multiply_click_factor(mix, 0.5, 8, k)
        assert len(out.gaussians) == 3 * (k + 1)
        assert out.dropped == mix.dropped  # pruning removed no term


def test_click_factor_validation():
    mix = PhaseSpaceMixture.thermal(0.2)
    with pytest.raises(ValueError):
        multiply_click_factor(mix, -0.1, 4, 0)
    with pytest.raises(ValueError):
        multiply_click_factor(mix, 0.5, 4, 5)
    with pytest.raises(ValueError, match="at least one diode"):
        multiply_click_factor(mix, 0.5, 0, 0)
    # finite inputs whose products pass the float range
    huge = PhaseSpaceMixture.from_terms((GaussianTerm(1e308, 0.5 + 0j, 1.0),))
    with pytest.raises(ValueError, match="coefficient must be finite"):
        multiply_click_factor(huge, 0.5, 8, 4)


# --- husimi smoothing pair --------------------------------------------------


def test_husimi_roundtrip():
    mix = random_mixture(4)
    back = husimi_unsmooth(husimi_smooth(mix))
    for g, h in zip(mix.gaussians, back.gaussians):
        assert h.c == pytest.approx(g.c, rel=1e-13)
        assert h.a == pytest.approx(g.a, rel=1e-13)
        assert h.z == pytest.approx(g.z)


def test_husimi_smooth_is_unit_convolution():
    # a delta becomes the unit vacuum Gaussian
    out = husimi_smooth(PhaseSpaceMixture.coherent(0.3))
    (g,) = out.gaussians
    assert g.a == 1.0
    assert g.z == pytest.approx(0.3)
    assert g.c == pytest.approx(1.0 / math.pi)


def test_husimi_unsmooth_rejects_wide_terms():
    too_wide = PhaseSpaceMixture.from_terms((GaussianTerm(1.0, 0j, 1.0),))
    with pytest.raises(ValueError, match="delta-shaped"):
        husimi_unsmooth(too_wide)
    with pytest.raises(ValueError):
        husimi_unsmooth(PhaseSpaceMixture.coherent(0.1))


# --- integral / moment ------------------------------------------------------


def test_integral_gaussian_closed_form():
    mix = PhaseSpaceMixture.from_terms((GaussianTerm(1.0, 0.7 + 0.1j, 2.0),))
    assert integral(mix) == pytest.approx(math.pi / 2)


def test_integral_of_normalized_states():
    assert integral(PhaseSpaceMixture.thermal(1.3)) == pytest.approx(1.0)
    assert integral(PhaseSpaceMixture.displaced_thermal(0.5j, 0.2)) == pytest.approx(1.0)


def test_integral_past_float_range_is_numerical_error():
    # finite weights 0.9e308 each, whose sum overflows inside fsum
    c = 0.9e308 / math.pi
    mix = PhaseSpaceMixture.from_terms((GaussianTerm(c, 0j, 1.0), GaussianTerm(c, 0.5 + 0j, 1.0)))
    with pytest.raises(NumericalError, match="float range"):
        integral(mix)


def test_moment_thermal_mean():
    assert moment(PhaseSpaceMixture.thermal(0.8), 1, 1) == pytest.approx(0.8)


def test_moment_thermal_higher_orders():
    # <a^dag^2 a^2> = 2 nbar^2 for a thermal state
    nbar = 0.6
    assert moment(PhaseSpaceMixture.thermal(nbar), 2, 2) == pytest.approx(2 * nbar**2)


def test_moment_delta():
    beta = 0.4 + 0.9j
    val = moment(PhaseSpaceMixture.coherent(beta), 2, 1)
    assert val == pytest.approx(beta.conjugate() ** 2 * beta)


def test_moment_displaced_thermal_mean():
    val = moment(PhaseSpaceMixture.displaced_thermal(0.5 + 0.5j, 0.3), 1, 1)
    assert val == pytest.approx(0.5 + 0.3)


def test_moment_order_cap():
    with pytest.raises(ValueError):
        moment(PhaseSpaceMixture.vacuum(), 4, 3)


# --- grid evaluation --------------------------------------------------------


def test_grid_single_gaussian_center_value():
    mix = PhaseSpaceMixture.from_terms((GaussianTerm(1.0, 0j, 1.0),))
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, 1, 1)
    vals = evaluate_grid(mix, grid)
    assert vals.shape == (1, 1)
    assert vals[0, 0] == pytest.approx(1.0)


def test_grid_symmetry():
    mix = PhaseSpaceMixture.from_terms(
        (GaussianTerm(1.0, 0.5, 1.0), GaussianTerm(1.0, -0.5, 1.0), GaussianTerm(-0.4, 0j, 2.0))
    )
    grid = GridSpec(-2, 2, -2, 2, 40, 40)
    vals = evaluate_grid(mix, grid)
    assert np.allclose(vals, vals[::-1, ::-1], atol=1e-12)


def test_grid_matches_naive_pointwise_summation():
    # extrema of a conditioned output located independently, cell by cell
    out = subtract(
        PhaseSpaceMixture.thermal(0.5),
        SubtractionSpec(BeamSplitterConfig(0.7), DetectorConfig(16, 0.8), 2),
    )
    grid = GridSpec(-2.5, 2.5, -2.5, 2.5, 41, 41)
    fast = evaluate_grid(out.state, grid)
    re, im = grid.centers()
    naive = np.zeros_like(fast)
    for i in range(grid.n_im):
        for j in range(grid.n_re):
            alpha = complex(re[j], im[i])
            naive[i, j] = math.fsum(
                g.c * math.exp(-g.a * abs(alpha - g.z) ** 2) for g in out.state.gaussians
            )
    assert np.allclose(fast, naive, rtol=1e-11, atol=1e-15)
    assert np.argmax(fast) == np.argmax(naive)
    assert np.argmin(fast) == np.argmin(naive)


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        GridSpec(0, 0, -1, 1, 10, 10)
    with pytest.raises(ValueError):
        GridSpec(-1, 1, -1, 1, 0, 10)


# --- pruning and composed-map properties -------------------------------------


def test_pruning_reports_dropped_mass():
    mix = PhaseSpaceMixture.from_terms(
        (GaussianTerm(1.0, 0j, 1.0), GaussianTerm(1e-18, 0.5, 1.0))
    )
    out = mix.pruned()
    assert len(out.gaussians) == 1
    assert out.dropped == pytest.approx(1e-18 * math.pi, rel=1e-12)


def test_composed_maps_pointwise():
    # loss then click conditioning evaluates to the analytic product of factors
    t, eta_eff, n, k = 0.8, 0.9, 6, 2
    mix = random_mixture(3)
    out = multiply_click_factor(scale_loss(mix, t), eta_eff, n, k)
    pts = random_points()
    direct = click_factor(eta_eff, n, k, pts) * mix.evaluate(pts / t) / t**2
    assert np.allclose(out.evaluate(pts), direct, rtol=1e-10, atol=1e-13)


def test_maps_keep_mixtures_finite_and_real():
    mix = random_mixture(3, 1)
    out = multiply_click_factor(convolve_noise(scale_loss(mix, 0.9), 1.2), 0.7, 4, 3)
    vals = out.evaluate(random_points(50))
    assert np.all(np.isfinite(vals))
    assert vals.dtype.kind == "f"


# --- term algebra bits --------------------------------------------------------


def _reference_pruned(mixture, rel_tol=1e-15):
    """Pruning with |weight| recomputed per test, term by term."""
    sizes = [abs(g.weight) for g in mixture.gaussians] + [abs(d.c) for d in mixture.deltas]
    scale = math.fsum(sizes)
    if scale == 0.0:
        return mixture
    cut = rel_tol * scale
    keep_g = tuple(g for g in mixture.gaussians if abs(g.weight) > cut)
    keep_d = tuple(d for d in mixture.deltas if abs(d.c) > cut)
    lost = math.fsum(
        [abs(g.weight) for g in mixture.gaussians if abs(g.weight) <= cut]
        + [abs(d.c) for d in mixture.deltas if abs(d.c) <= cut]
    )
    return PhaseSpaceMixture.from_terms(keep_g, keep_d, mixture.dropped + lost)


def _reference_click_factor(mixture, eta_eff, n, k, prune=True):
    """The click factor expanded term by term, coefficients rebuilt per Gaussian."""
    if eta_eff == 0.0:
        return mixture if k == 0 else PhaseSpaceMixture.from_terms((), (), mixture.dropped)
    cnk = math.comb(n, k)
    gaussians = []
    for g in mixture.gaussians:
        for j in range(k + 1):
            coeff = cnk * math.comb(k, j) * (-1 if (k - j) & 1 else 1)
            gexp = eta_eff * (1.0 - j / n)
            if gexp == 0.0:
                gaussians.append(GaussianTerm(coeff * g.c, g.z, g.a))
                continue
            anew = g.a + gexp
            cnew = coeff * g.c * math.exp(-g.a * gexp * abs(g.z) ** 2 / anew)
            gaussians.append(GaussianTerm(cnew, (g.a / anew) * g.z, anew))
    deltas = []
    for d in mixture.deltas:
        e = math.exp(-eta_eff * abs(d.z) ** 2 / n)
        deltas.append(DeltaTerm(d.c * (cnk * e ** (n - k) * (1.0 - e) ** k), d.z))
    out = PhaseSpaceMixture.from_terms(tuple(gaussians), tuple(deltas), mixture.dropped)
    return _reference_pruned(out) if prune else out


def _reference_moment(mixture, p, q):
    total = 0j
    for d in mixture.deltas:
        total += d.c * d.z.conjugate() ** p * d.z**q
    for g in mixture.gaussians:
        zc = g.z.conjugate()
        acc = 0j
        for i in range(min(p, q) + 1):
            acc += (
                math.comb(p, i) * math.comb(q, i) * math.factorial(i)
                * g.a**-i * zc ** (p - i) * g.z ** (q - i)
            )
        total += g.weight * acc
    return total


def _bits(mixture):
    """Every float of a mixture as its bit pattern, in term order."""
    floats = [x for g in mixture.gaussians for x in (g.c, g.z.real, g.z.imag, g.a)]
    floats += [x for d in mixture.deltas for x in (d.c, d.z.real, d.z.imag)]
    floats.append(mixture.dropped)
    return np.array(floats).view(np.uint64).tolist()


def _spread_mixture(rng, n_gauss, n_delta):
    """Terms whose weights span twenty decades, so pruning drops some."""
    gaussians = tuple(
        GaussianTerm(
            c=float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20, 0)),
            z=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            a=float(rng.uniform(0.05, 4.0)),
        )
        for _ in range(n_gauss)
    )
    deltas = tuple(
        DeltaTerm(c=float(10.0 ** rng.uniform(-20, 0)), z=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        for _ in range(n_delta)
    )
    return PhaseSpaceMixture.from_terms(gaussians, deltas, float(rng.uniform(0, 1e-12)))


def _bits_complex(value):
    return np.array([value.real, value.imag]).view(np.uint64).tolist()


def test_term_algebra_bit_identical_to_per_term_loops():
    rng = np.random.default_rng(20140321)
    dropped_any = False
    # (N, k, eta_eff): k = N reaches j = N, where the exponent is 0
    for n, k, eta_eff in [(1, 1, 0.7), (4, 4, 1.3), (8, 0, 0.37), (8, 3, 0.0),
                          (16, 16, 0.8), (24, 7, 2.5), (12, 12, 0.01)]:
        for n_gauss, n_delta in [(0, 2), (3, 0), (5, 2)]:
            mixture = _spread_mixture(rng, n_gauss, n_delta)
            out = multiply_click_factor(mixture, eta_eff, n, k)
            expect = _reference_click_factor(mixture, eta_eff, n, k)
            assert _bits(out) == _bits(expect), (n, k, eta_eff, n_gauss, n_delta)
            dropped_any |= out.dropped > mixture.dropped
            for rel_tol in (1e-15, 1e-6):
                expect = _reference_pruned(mixture, rel_tol)
                assert _bits(mixture.pruned(rel_tol)) == _bits(expect)
            # moments of the full expansion, before pruning drops any term
            full = _reference_click_factor(mixture, eta_eff, n, k, prune=False)
            for p in range(7):
                for q in range(7 - p):
                    got, ref = moment(full, p, q), _reference_moment(full, p, q)
                    assert _bits_complex(got) == _bits_complex(ref), (p, q)
    assert dropped_any  # pruning removed terms somewhere


@pytest.mark.parametrize(
    "build",
    [
        lambda: PhaseSpaceMixture.coherent(complex(math.inf, 0.0)),
        lambda: PhaseSpaceMixture.displaced_thermal(complex("nan"), 0.5),
        lambda: PhaseSpaceMixture.thermal(math.inf),
        lambda: GridSpec(-1.0, math.inf, -1.0, 1.0, 2, 2),
    ],
    ids=["coherent-inf", "displaced-nan", "thermal-inf", "grid-inf"],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


# --- flat-field maps against per-term references --------------------------------


def _reference_scale_loss(mixture, t):
    t2 = t * t
    return PhaseSpaceMixture.from_terms(
        [GaussianTerm(g.c / t2, t * g.z, g.a / t2) for g in mixture.gaussians],
        [DeltaTerm(d.c, t * d.z) for d in mixture.deltas],
        mixture.dropped,
    )


def _reference_convolve(mixture, gain, variance):
    gaussians = []
    for g in mixture.gaussians:
        denom = gain * gain + g.a * variance
        gaussians.append(GaussianTerm(g.c / denom, gain * g.z, g.a / denom))
    for d in mixture.deltas:
        gaussians.append(GaussianTerm(d.c / (math.pi * variance), gain * d.z, 1.0 / variance))
    return PhaseSpaceMixture.from_terms(gaussians, (), mixture.dropped)


def _reference_husimi_unsmooth(mixture):
    assert not mixture.deltas
    gaussians = [GaussianTerm(g.c / (1.0 - g.a), g.z, g.a / (1.0 - g.a)) for g in mixture.gaussians]
    return PhaseSpaceMixture.from_terms(gaussians, (), mixture.dropped)


def _reference_integral(mixture):
    return math.fsum([g.weight for g in mixture.gaussians] + [d.c for d in mixture.deltas])


def _reference_subtract(p_in, spec):
    lost = _reference_scale_loss(p_in, spec.bs.t)
    out = _reference_click_factor(lost, spec.eta_eff, spec.det.N, spec.k)
    return ProcessOutcome(out, _reference_integral(out))


def _reference_add(p_in, spec):
    mu = spec.sq.mu
    smoothed = _reference_convolve(_reference_convolve(p_in, mu, mu * mu - 1.0), 1.0, 1.0)
    conditioned = _reference_click_factor(smoothed, spec.eta_eff, spec.det.N, spec.k)
    out = _reference_husimi_unsmooth(conditioned)
    return ProcessOutcome(out, _reference_integral(out))


def _reference_probability_table(spec, beta):
    n2 = spec.sub.det.N
    rows = []
    for k1 in range(spec.add.det.N + 1):
        addition = AdditionSpec(spec.add.sq, spec.add.det, k1)
        added = _reference_add(PhaseSpaceMixture.coherent(beta), addition)
        lost = _reference_scale_loss(added.state, spec.sub.bs.t)
        conditioned = [_reference_click_factor(lost, spec.sub.eta_eff, n2, k2) for k2 in range(n2 + 1)]
        rows.append([ProcessOutcome(None, _reference_integral(m)).probability for m in conditioned])
    return np.array(rows)


def _same_bits(x, y):
    return _bits_complex(complex(x)) == _bits_complex(complex(y))


def test_maps_bit_identical_to_per_term_references():
    rng = np.random.default_rng(20140611)
    for n_gauss, n_delta in [(0, 1), (1, 0), (3, 0), (5, 2), (12, 3)]:
        for _ in range(4):
            mixture = _spread_mixture(rng, n_gauss, n_delta)
            assert _same_bits(integral(mixture), _reference_integral(mixture))
            for t in (1.0, 0.9, float(rng.uniform(0.3, 1.0))):
                assert _bits(scale_loss(mixture, t)) == _bits(_reference_scale_loss(mixture, t))
            for mu in (1.05, float(rng.uniform(1.1, 2.0))):
                expect = _reference_convolve(mixture, mu, mu * mu - 1.0)
                assert _bits(convolve_noise(mixture, mu)) == _bits(expect)
            assert _bits(husimi_smooth(mixture)) == _bits(_reference_convolve(mixture, 1.0, 1.0))
            # after the noise map every width is finite, so every smoothed
            # width is below 1 and unsmoothing is defined
            smoothed = husimi_smooth(convolve_noise(mixture, mu))
            assert _bits(husimi_unsmooth(smoothed)) == _bits(_reference_husimi_unsmooth(smoothed))
            assert _same_bits(integral(smoothed), _reference_integral(smoothed))


def _outcome_bits(build):
    """Bits of a protocol outcome's state and probability, or the error it raised."""
    try:
        outcome = build()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return _bits(outcome.state), _bits_complex(complex(outcome.probability))


SIGNED_ZERO_CENTRES = (complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, -0.9))


def test_protocols_bit_identical_to_reference_maps():
    rng = np.random.default_rng(20140927)
    for n in (1, 4, 8, 12):
        for _ in range(3):
            eta, t, mu = (float(x) for x in rng.uniform([0.3, 0.55, 1.1], [0.95, 0.9, 1.8]))
            alpha0 = complex(*rng.uniform(-1.2, 1.2, 2))
            nbar = float(rng.uniform(0.2, 1.5))
            inputs = [
                PhaseSpaceMixture.thermal(nbar),
                PhaseSpaceMixture.coherent(alpha0),
                PhaseSpaceMixture.displaced_thermal(alpha0, nbar),
            ]
            # signed-zero centres: every map multiplies centres by its gain,
            # husimi_unsmooth's gain 1.0 included, and keeps these bits
            for z in SIGNED_ZERO_CENTRES:
                inputs += [PhaseSpaceMixture.coherent(z), PhaseSpaceMixture.displaced_thermal(z, nbar)]
            for p_in in inputs:
                for k in range(n + 1):
                    sub = SubtractionSpec(BeamSplitterConfig(t), DetectorConfig(n, eta), k)
                    got = _outcome_bits(lambda: subtract(p_in, sub))
                    assert got == _outcome_bits(lambda: _reference_subtract(p_in, sub)), (n, k)
                    addition = AdditionSpec(SqueezerConfig.from_mu(mu), DetectorConfig(n, eta), k)
                    got = _outcome_bits(lambda: add(p_in, addition))
                    assert got == _outcome_bits(lambda: _reference_add(p_in, addition)), (n, k)
    for n in (1, 3, 6):
        for _ in range(3):
            low, high = [0.4, 0.4, 1.2, 0.55], [0.8, 0.8, 1.8, 0.8]
            eta1, eta2, mu, t = (float(x) for x in rng.uniform(low, high))
            spec = AmplifySpec(
                AdditionSpec(SqueezerConfig.from_mu(mu), DetectorConfig(n, eta1), 0),
                SubtractionSpec(BeamSplitterConfig(t), DetectorConfig(n, eta2), 0),
            )
            beta = complex(*rng.uniform(-1.2, 1.2, 2))
            got, expect = probability_table(spec, beta), _reference_probability_table(spec, beta)
            assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist(), (n, beta)


BAD_GAUSSIANS = {
    "c-inf": ((math.inf, 0.3j, 0.5), "coefficient must be finite"),
    "c-nan": ((math.nan, 0.3j, 0.5), "coefficient must be finite"),
    "a-zero": ((1.0, 0.3j, 0.0), "inverse width must be positive"),
    "a-negative": ((1.0, 0.3j, -0.3), "inverse width must be positive"),
    "a-nan": ((1.0, 0.3j, math.nan), "inverse width must be positive"),
}
MAPS = {
    "scale_loss": lambda m: scale_loss(m, 0.5),
    "convolve_noise": lambda m: convolve_noise(m, 1.2),
    "husimi_smooth": husimi_smooth,
    "husimi_unsmooth": husimi_unsmooth,
    # k = N keeps each input width for j = N
    "multiply_click_factor": lambda m: multiply_click_factor(m, 0.5, 4, 4),
}


@pytest.mark.parametrize("fields, message", BAD_GAUSSIANS.values(), ids=BAD_GAUSSIANS.keys())
def test_invalid_gaussian_rejected_by_from_terms_and_every_map(fields, message):
    with pytest.raises(ValueError, match=message):
        PhaseSpaceMixture.from_terms((GaussianTerm(*fields),))
    with pytest.raises(ValueError, match=message):
        PhaseSpaceMixture.from_fields(*([x] for x in fields))
    # the plain constructor checks nothing; each map checks what it builds
    unchecked = PhaseSpaceMixture(*([x] for x in fields))
    for apply in MAPS.values():
        with pytest.raises(ValueError, match=message):
            apply(unchecked)


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_invalid_delta_rejected_by_from_terms_and_every_map(c):
    with pytest.raises(ValueError, match="coefficient must be finite"):
        PhaseSpaceMixture.from_terms((), (DeltaTerm(c, 0.3j),))
    unchecked = PhaseSpaceMixture(dc=(c,), dz=(0.3j,))
    for name, apply in MAPS.items():
        # the smoothed side carries no deltas at all
        match = "delta terms" if name == "husimi_unsmooth" else "coefficient must be finite"
        with pytest.raises(ValueError, match=match):
            apply(unchecked)


@pytest.mark.parametrize("a", [-0.5, -1.0, -2.0, -4.0, math.inf])
def test_negative_or_infinite_width_rejected_by_from_fields_and_every_map(a):
    # d = gain^2 + a variance <= 0 used to pass the positive-variance maps:
    # husimi_smooth turned a = -2 into c = -1, a = 2 and raised
    # ZeroDivisionError at a = -1, convolve_noise turned a = -4 into a = 12.5;
    # multiply_click_factor divided by a + eta_eff = 0 at a = -0.5, and
    # from_fields accepted a = inf
    with pytest.raises(ValueError, match="inverse width"):
        PhaseSpaceMixture.from_fields((1.0,), (0.1j,), (a,))
    unchecked = PhaseSpaceMixture(c=(1.0,), z=(0.1j,), a=(a,))
    for apply in MAPS.values():
        with pytest.raises(ValueError, match="inverse width"):
            apply(unchecked)


def test_closed_form_amplifier_rejects_non_finite_coefficients():
    spec = AmplifySpec(
        AdditionSpec(SqueezerConfig.from_mu(1.4), DetectorConfig(4, 0.5), 1),
        SubtractionSpec(BeamSplitterConfig(0.7), DetectorConfig(4, 0.5), 1),
    )
    with pytest.raises(ValueError, match="coefficient must be finite"):
        amplify_closed_form(complex(math.nan, 0.0), spec)


# one weight past the float range, and two finite weights whose sum is
HUGE_MIXTURES = {
    "weight": PhaseSpaceMixture.from_terms((GaussianTerm(1e308, 0.5 + 0j, 1.0),)),
    "sum": PhaseSpaceMixture.from_terms((GaussianTerm(3e307, 0j, 1.0), GaussianTerm(3e307, 0.5 + 0j, 1.0))),
}


@pytest.mark.parametrize("huge", HUGE_MIXTURES.values(), ids=HUGE_MIXTURES.keys())
def test_overflowing_weights_raise_instead_of_pruning_to_nothing(huge):
    with pytest.raises(NumericalError, match="not finite"):
        huge.pruned()
    spec = SubtractionSpec(BeamSplitterConfig(0.9999), DetectorConfig(8, 0.5), 0)
    with pytest.raises(NumericalError, match="not finite"):
        subtract(huge, spec)
