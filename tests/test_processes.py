"""Protocol tests: heralding, subtraction, addition, composed amplification."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import clickcraft
import clickcraft.fock
from clickcraft import (
    AdditionSpec,
    AmplifySpec,
    BeamSplitterConfig,
    CutoffError,
    DetectorConfig,
    NumericalError,
    PhaseSpaceMixture,
    ProcessOutcome,
    SqueezerConfig,
    SubtractionSpec,
    add,
    amplify,
    amplify_closed_form,
    apply_beam_splitter,
    apply_two_mode_squeezer,
    condition_on_clicks,
    effective_sigma2,
    herald_tmsv_distribution,
    make_state,
    moment,
    normally_ordered_moment,
    nu_for_sigma2,
    photon_distribution,
    probability_addition_displaced_thermal,
    probability_subtraction_displaced_thermal,
    probability_table,
    subtract,
    tensor_product,
)

RNG = np.random.default_rng(7)

DET16 = DetectorConfig(16, 0.8)
BS07 = BeamSplitterConfig(0.7)
SQ14 = SqueezerConfig.from_mu(1.4)

# composed-amplifier example set: both detectors N=4 at eta=0.5, mu=3/2, t=2/3
DET4 = DetectorConfig(4, 0.5)
SQ15 = SqueezerConfig.from_mu(1.5)
BS23 = BeamSplitterConfig(2.0 / 3.0)


def amplify_spec(k1=0, k2=0) -> AmplifySpec:
    return AmplifySpec(AdditionSpec(SQ15, DET4, k1), SubtractionSpec(BS23, DET4, k2))


# --- heralding ---------------------------------------------------------------


def test_herald_closed_form_matches_fock():
    det = DetectorConfig(64, 0.95)
    state = make_state("phase_diffused_tmsv", 26, omega=0.25)
    for k in (0, 1, 4):
        closed = herald_tmsv_distribution(0.25, det, k)
        oracle = photon_distribution(condition_on_clicks(state, det, k).state)
        assert np.abs(closed.weights[:26] - oracle).max() < 1e-10


def test_herald_no_click_distribution_is_geometric():
    det = DetectorConfig(32, 0.7)
    res = herald_tmsv_distribution(0.4, det, 0)
    ratio = res.weights[1:10] / res.weights[:9]
    assert np.allclose(ratio, 0.4 * (1 - 0.7), rtol=1e-12)


def test_herald_peaks_at_click_number():
    det = DetectorConfig(64, 0.95)
    for k in (0, 1, 4, 16):
        res = herald_tmsv_distribution(0.25, det, k)
        assert int(np.argmax(res.normalized)) == k


def test_herald_probabilities_partition():
    det = DetectorConfig(16, 0.85)
    total = math.fsum(
        herald_tmsv_distribution(0.25, det, k).probability for k in range(17)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_herald_explicit_cutoff_below_tail_is_cutoff_error():
    # omega = 0.9 at cutoff 10 would keep k = 0..4 probabilities summing to 0.651
    det = DetectorConfig(4, 0.9)
    with pytest.raises(CutoffError, match="cutoff 10"):
        herald_tmsv_distribution(0.9, det, 1, 10)
    with pytest.raises(ValueError):
        herald_tmsv_distribution(0.9, det, 1, 0)
    # 0.9**219 is below 1e-10; 0.9**218 is not
    assert herald_tmsv_distribution(0.9, det, 1, 219).weights.size == 219
    with pytest.raises(CutoffError):
        herald_tmsv_distribution(0.9, det, 1, 218)


def test_herald_fidelity_grows_with_diode_count():
    fidelities = [
        herald_tmsv_distribution(0.25, DetectorConfig(n, 1.0), 1).normalized[1]
        for n in (64, 256, 1024)
    ]
    assert fidelities[0] < fidelities[1] < fidelities[2]
    assert fidelities[-1] > 0.99


# --- subtraction -------------------------------------------------------------


def test_subtraction_thermal_closed_form():
    # thermal input: conditioned output P is the k-click factor at eta' times
    # the attenuated thermal Gaussian with nbar0 = t^2 nbar
    nbar = 0.5
    nbar0 = BS07.t**2 * nbar
    eta_p = DET16.eta * BS07.r**2 / BS07.t**2
    alphas = RNG.uniform(-2, 2, 100) + 1j * RNG.uniform(-2, 2, 100)
    for k in range(4):
        out = subtract(PhaseSpaceMixture.thermal(nbar), SubtractionSpec(BS07, DET16, k))
        e = np.exp(-eta_p * np.abs(alphas) ** 2 / DET16.N)
        direct = (
            math.comb(DET16.N, k)
            * e ** (DET16.N - k)
            * (1 - e) ** k
            * np.exp(-np.abs(alphas) ** 2 / nbar0)
            / (math.pi * nbar0)
        )
        assert np.allclose(out.state.evaluate(alphas), direct, rtol=1e-11, atol=1e-12)


def test_subtraction_coherent_no_click():
    beta = 0.9 + 0.2j
    spec = SubtractionSpec(BS07, DET16, 0)
    out = subtract(PhaseSpaceMixture.coherent(beta), spec)
    ((c, z),) = zip(out.state.dc, out.state.dz)
    assert z == pytest.approx(BS07.t * beta)
    assert c == pytest.approx(math.exp(-DET16.eta * BS07.r**2 * abs(beta) ** 2), rel=1e-13)


def test_subtraction_vacuum_probabilities():
    for k in range(3):
        out = subtract(PhaseSpaceMixture.vacuum(), SubtractionSpec(BS07, DET16, k))
        assert out.probability == pytest.approx(1.0 if k == 0 else 0.0, abs=1e-14)


def test_subtraction_probability_partition():
    p_in = PhaseSpaceMixture.displaced_thermal(0.5 + 0.1j, 0.7)
    total = math.fsum(
        subtract(p_in, SubtractionSpec(BS07, DET16, k)).probability
        for k in range(DET16.N + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_subtraction_effective_efficiency():
    spec = SubtractionSpec(BS07, DET16, 1)
    assert spec.eta_eff == pytest.approx(0.8 * 0.51 / 0.49)


# --- addition ----------------------------------------------------------------


def test_addition_zero_click_variance_matches_sigma2():
    beta = 0.4 - 0.3j
    out = add(PhaseSpaceMixture.coherent(beta), AdditionSpec(SQ14, DET16, 0))
    (a,) = out.state.a
    assert 1.0 / a == pytest.approx(effective_sigma2(SQ14, DET16.eta), rel=1e-12)
    # the same number through the moment channel of the normalized output
    var = (
        moment(out.state, 1, 1) / out.probability
        - abs(moment(out.state, 0, 1) / out.probability) ** 2
    )
    assert var.real == pytest.approx(effective_sigma2(SQ14, DET16.eta), rel=1e-10)


def test_addition_thermal_noise_scale():
    # k = 0 on thermal input: Gaussian part keeps the amplified width through
    # the conditioning identity 1/a = (nbar0 (1-eta') + eta'...) closed form;
    # cross-check against the Fock oracle instead of trusting algebra
    d = 48
    joint = apply_two_mode_squeezer(
        tensor_product(make_state("thermal", d, nbar=0.5), make_state("vacuum", d)), SQ14
    )
    for k in range(4):
        pipe = add(PhaseSpaceMixture.thermal(0.5), AdditionSpec(SQ14, DET16, k))
        oracle = condition_on_clicks(joint, DET16, k)
        assert pipe.probability == pytest.approx(oracle.probability, rel=1e-9)
        for p, q in [(1, 1), (2, 2)]:
            assert moment(pipe.state, p, q).real == pytest.approx(
                normally_ordered_moment(oracle.state, p, q).real, rel=1e-8
            )


def test_addition_radial_oscillations_count_clicks():
    r = np.linspace(0, 6, 4001).astype(complex)
    for k in range(4):
        out = add(PhaseSpaceMixture.thermal(0.5), AdditionSpec(SQ14, DET16, k))
        vals = out.state.evaluate(r)
        signs = np.sign(vals[np.abs(vals) > 1e-30])
        assert int(np.sum(signs[1:] != signs[:-1])) == k


def test_addition_rejects_unpumped():
    with pytest.raises(ValueError):
        AdditionSpec(SqueezerConfig(0.0), DET16, 0)


def test_addition_probability_partition():
    p_in = PhaseSpaceMixture.coherent(0.6)
    total = math.fsum(
        add(p_in, AdditionSpec(SQ14, DET16, k)).probability for k in range(DET16.N + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_structural_duality_of_effective_efficiencies():
    # the two pipelines share the click-factor core and differ only in the
    # attenuation-vs-noise front end and their effective efficiency
    sub_spec = SubtractionSpec(BS07, DET16, 2)
    add_spec = AdditionSpec(SQ14, DET16, 2)
    assert sub_spec.eta_eff == pytest.approx(DET16.eta * BS07.r**2 / BS07.t**2)
    assert add_spec.eta_eff == pytest.approx(DET16.eta * SQ14.nu**2 / SQ14.mu**2)


# --- closed-form probabilities ----------------------------------------------


ALPHA_NBAR_SET = [(0.0, 0.0), (0.0, 0.5), (0.8 + 0.3j, 0.0), (0.8 + 0.3j, 0.5)]


@pytest.mark.parametrize("alpha0,nbar", ALPHA_NBAR_SET)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_subtraction_probability_closed_form(alpha0, nbar, k):
    spec = SubtractionSpec(BS07, DET16, k)
    closed = probability_subtraction_displaced_thermal(alpha0, nbar, spec)
    pipeline = subtract(PhaseSpaceMixture.displaced_thermal(alpha0, nbar), spec)
    assert closed == pytest.approx(pipeline.probability, abs=1e-10)


@pytest.mark.parametrize("alpha0,nbar", ALPHA_NBAR_SET)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_addition_probability_closed_form(alpha0, nbar, k):
    spec = AdditionSpec(SQ14, DET16, k)
    closed = probability_addition_displaced_thermal(alpha0, nbar, spec)
    pipeline = add(PhaseSpaceMixture.displaced_thermal(alpha0, nbar), spec)
    assert closed == pytest.approx(pipeline.probability, abs=1e-10)


def test_vacuum_input_never_clicks():
    spec = SubtractionSpec(BS07, DET16, 0)
    assert probability_subtraction_displaced_thermal(0.0, 0.0, spec) == pytest.approx(1.0)
    for k in (1, 2):
        spec = SubtractionSpec(BS07, DET16, k)
        assert probability_subtraction_displaced_thermal(0.0, 0.0, spec) == pytest.approx(
            0.0, abs=1e-14
        )


def test_addition_spontaneous_pair_probabilities_sum():
    # vacuum input: clicks come from spontaneously generated pairs only
    total = math.fsum(
        probability_addition_displaced_thermal(0.0, 0.0, AdditionSpec(SQ14, DET16, k))
        for k in range(DET16.N + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


# --- composed amplification ---------------------------------------------------


def test_amplify_composition_matches_closed_form_pointwise():
    beta = 1 / math.sqrt(2)
    alphas = RNG.uniform(-2.5, 2.5, 1000) + 1j * RNG.uniform(-2.5, 2.5, 1000)
    for k1 in range(5):
        for k2 in range(5):
            composed = amplify(beta, amplify_spec(k1, k2)).state
            direct = amplify_closed_form(beta, amplify_spec(k1, k2))
            a = composed.evaluate(alphas)
            b = direct.evaluate(alphas)
            scale = np.abs(b).max()
            assert np.allclose(a, b, rtol=1e-8, atol=1e-8 * scale)


def test_amplify_accepts_mixture_input():
    out1 = amplify(0.5 + 0.0j, amplify_spec(1, 1))
    out2 = amplify(PhaseSpaceMixture.coherent(0.5), amplify_spec(1, 1))
    assert out1.probability == pytest.approx(out2.probability, rel=1e-14)


def test_amplify_rejects_unit_efficiency_first_detector():
    with pytest.raises(ValueError, match="delta"):
        AmplifySpec(
            AdditionSpec(SQ15, DetectorConfig(4, 1.0), 0), SubtractionSpec(BS23, DET4, 0)
        )


def test_probability_table_sums_to_one():
    table = probability_table(amplify_spec(), 1 / math.sqrt(2))
    assert table.shape == (5, 5)
    assert table.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(table >= 0)


def test_probability_table_rows_marginalize_to_addition_only():
    beta = 1 / math.sqrt(2)
    table = probability_table(amplify_spec(), beta)
    for k1 in range(5):
        expect = probability_addition_displaced_thermal(
            beta, 0.0, AdditionSpec(SQ15, DET4, k1)
        )
        assert table[k1].sum() == pytest.approx(expect, abs=1e-12)


def test_probability_table_phase_invariant():
    t1 = probability_table(amplify_spec(), 0.7)
    t2 = probability_table(amplify_spec(), 0.7 * np.exp(0.83j))
    assert np.abs(t1 - t2).max() < 1e-12


def _per_cell_table(spec, beta):
    """The amplifier table as the (k1, k2) pipelines give it, one cell at a time."""
    n1, n2 = spec.add.det.N, spec.sub.det.N
    table = np.zeros((n1 + 1, n2 + 1))
    for k1 in range(n1 + 1):
        added = add(PhaseSpaceMixture.coherent(beta), AdditionSpec(spec.add.sq, spec.add.det, k1))
        for k2 in range(n2 + 1):
            sub = SubtractionSpec(spec.sub.bs, spec.sub.det, k2)
            table[k1, k2] = subtract(added.state, sub).probability
    return table


def test_probability_table_bit_identical_to_per_cell_pipeline():
    rng = np.random.default_rng(20141119)
    sizes = (1, 2, 3, 4, 8)
    for i in range(16):
        n1, n2 = int(rng.choice(sizes)), int(rng.choice(sizes))
        # beta = 0 and eta2 = 0 (no conditioning power in the subtraction) included
        beta = 0j if i % 4 == 0 else complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        eta2 = 0.0 if i % 5 == 0 else float(rng.uniform(0.3, 0.9))
        spec = AmplifySpec(
            AdditionSpec(SqueezerConfig.from_mu(float(rng.uniform(1.1, 1.8))),
                         DetectorConfig(n1, float(rng.uniform(0.3, 0.9))), 0),
            SubtractionSpec(BeamSplitterConfig(float(rng.uniform(0.55, 0.9))),
                            DetectorConfig(n2, eta2), 0),
        )
        table = probability_table(spec, beta)
        assert np.array_equal(table, _per_cell_table(spec, beta)), (n1, n2, beta, eta2)
    for n in sizes:  # the table1 optics at every size
        spec = AmplifySpec(AdditionSpec(SQ15, DetectorConfig(n, 0.5), 0),
                           SubtractionSpec(BS23, DetectorConfig(n, 0.5), 0))
        beta = 2 / math.sqrt(2)
        assert np.array_equal(probability_table(spec, beta), _per_cell_table(spec, beta)), n


def test_probability_table_cancellation_is_numerical_error():
    # at N1 = N2 = 16 the alternating expansion drives a cell below -1e-9
    det16 = DetectorConfig(16, 0.5)
    spec = AmplifySpec(AdditionSpec(SQ15, det16, 0), SubtractionSpec(BS23, det16, 0))
    with pytest.raises(NumericalError, match="outside"):
        probability_table(spec, 1 / math.sqrt(2))


@pytest.mark.parametrize("p_in", [PhaseSpaceMixture.coherent(0.5), PhaseSpaceMixture.thermal(0.5)],
                         ids=["coherent", "thermal"])
def test_click_factor_past_float_range_is_numerical_error(p_in):
    # C(1100, 550) ~ 1e329 is no float; it used to escape as an OverflowError
    det = DetectorConfig(1100, 0.5)
    with pytest.raises(NumericalError, match="float range"):
        subtract(p_in, SubtractionSpec(BeamSplitterConfig(0.7), det, 550))
    with pytest.raises(NumericalError, match="float range"):
        add(p_in, AdditionSpec(SqueezerConfig.from_mu(1.2), det, 550))


DET1100 = DetectorConfig(1100, 0.5)
CLOSED_FORMS_1100 = {
    "subtraction": lambda: probability_subtraction_displaced_thermal(
        0.5, 0.5, SubtractionSpec(BS07, DET1100, 550)),
    "addition": lambda: probability_addition_displaced_thermal(
        0.5, 0.5, AdditionSpec(SqueezerConfig.from_mu(1.2), DET1100, 550)),
    "amplifier": lambda: amplify_closed_form(0.5, AmplifySpec(
        AdditionSpec(SqueezerConfig.from_mu(1.2), DET1100, 550), SubtractionSpec(BS07, DET1100, 550))),
}


@pytest.mark.parametrize("closed_form", CLOSED_FORMS_1100.values(), ids=CLOSED_FORMS_1100.keys())
def test_closed_form_past_float_range_is_numerical_error(closed_form):
    # C(1100, 550) ~ 1e329 is no float; the closed forms leaked an OverflowError
    with pytest.raises(NumericalError, match="float range"):
        closed_form()


def test_amplify_negativity_grows_with_addition_clicks():
    # conditioned outputs develop negative fringes once k1 >= 1
    r = np.linspace(0, 4, 2001).astype(complex)
    mins = []
    for k1 in range(3):
        out = amplify(1 / math.sqrt(2), amplify_spec(k1, 0))
        mins.append(out.state.evaluate(r).min())
    assert mins[0] >= -1e-15
    assert mins[1] < -1e-3 and mins[2] < -1e-3


def test_amplify_against_fock_oracle_spot():
    # d = 56: the all-clicks elements keep the raw amplified tail (their
    # saturating term has no kernel suppression), so fourth-order moments
    # need more basis headroom than the probabilities do
    beta, d = 1 / math.sqrt(2), 56
    joint = apply_two_mode_squeezer(
        tensor_product(make_state("coherent", d, alpha=beta), make_state("vacuum", d)), SQ15
    )
    vac = make_state("vacuum", d)
    for k1, k2 in [(0, 0), (1, 1), (2, 0), (4, 4)]:
        after_add = condition_on_clicks(joint, DET4, k1).state
        joint2 = apply_beam_splitter(tensor_product(after_add, vac), BS23)
        oracle = condition_on_clicks(joint2, DET4, k2)
        outcome = amplify(beta, amplify_spec(k1, k2))
        assert outcome.probability == pytest.approx(oracle.probability, abs=5e-9)
        for p, q in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            o = normally_ordered_moment(oracle.state, p, q)
            if abs(o) > 1e-10:
                assert moment(outcome.state, p, q) == pytest.approx(o, rel=1e-6)


# --- sigma^2 relation ---------------------------------------------------------


def test_sigma2_limits():
    assert effective_sigma2(SQ14, 1.0) == 0.0
    assert effective_sigma2(SQ14, 0.0) == pytest.approx(SQ14.nu**2, rel=1e-12)


def test_sigma2_value():
    assert effective_sigma2(SQ14, 0.8) == pytest.approx(0.96 * 0.2 / 1.768, rel=1e-10)


def test_sigma2_inverse_lookup():
    for eta in (0.0, 0.3, 0.8):
        for xi in (0.2, 0.9):
            sq = SqueezerConfig(xi)
            sigma2 = effective_sigma2(sq, eta)
            assert nu_for_sigma2(sigma2, eta) == pytest.approx(sq.nu, rel=1e-12)
    with pytest.raises(ValueError):
        nu_for_sigma2(0.5, 1.0)


NAN = math.nan
NON_FINITE_INPUTS = {
    "make_state-coherent-alpha": lambda: make_state("coherent", 16, alpha=complex(NAN, 0.0)),
    "make_state-thermal-nbar-nan": lambda: make_state("thermal", 16, nbar=NAN),
    "make_state-thermal-nbar-inf": lambda: make_state("thermal", 16, nbar=math.inf),
    "make_state-displaced-alpha": lambda: make_state("displaced_thermal", 16, alpha=NAN, nbar=0.2),
    "make_state-displaced-nbar": lambda: make_state("displaced_thermal", 16, alpha=0.5, nbar=NAN),
    "subtraction-alpha": lambda: probability_subtraction_displaced_thermal(
        complex(0.0, NAN), 0.5, SubtractionSpec(BS07, DET16, 1)),
    "subtraction-nbar-nan": lambda: probability_subtraction_displaced_thermal(
        0.5, NAN, SubtractionSpec(BS07, DET16, 1)),
    "subtraction-nbar-inf": lambda: probability_subtraction_displaced_thermal(
        0.5, math.inf, SubtractionSpec(BS07, DET16, 1)),
    "addition-alpha": lambda: probability_addition_displaced_thermal(
        NAN, 0.5, AdditionSpec(SQ14, DET16, 1)),
    "addition-nbar-nan": lambda: probability_addition_displaced_thermal(
        0.5, NAN, AdditionSpec(SQ14, DET16, 1)),
    "addition-nbar-inf": lambda: probability_addition_displaced_thermal(
        0.5, math.inf, AdditionSpec(SQ14, DET16, 1)),
    "nu_for_sigma2": lambda: nu_for_sigma2(NAN, 0.5),
}


@pytest.mark.parametrize("call", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_is_value_error(call):
    with pytest.raises(ValueError, match="finite|reachable"):
        call()


# --- spec validation ----------------------------------------------------------


def test_spec_click_bounds():
    with pytest.raises(ValueError):
        SubtractionSpec(BS07, DET16, 17)
    with pytest.raises(ValueError):
        AdditionSpec(SQ14, DET16, -1)


# --- module structure ----------------------------------------------------------


def _modules_named(node) -> set[str]:
    """Every module an import statement may name: ``from .fock import x`` and
    ``from . import fock`` both give ``.fock``."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    base = "." * node.level + (node.module or "")
    sep = "" if base.endswith(".") else "."
    return {base} | {base + sep + alias.name for alias in node.names}


@pytest.mark.parametrize("module", ["dsymbol", "povm", "pfunc", "processes"])
def test_production_modules_do_not_import_the_fock_oracle(module):
    # statements outside function bodies run at import time
    pending = list(ast.parse(Path(clickcraft.__file__).with_name(f"{module}.py").read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not {".fock", "clickcraft.fock"} & _modules_named(node), (module, node.lineno)
        pending.extend(ast.iter_child_nodes(node))


def test_process_types_are_defined_by_processes():
    for cls in (BeamSplitterConfig, SqueezerConfig, ProcessOutcome):
        assert cls.__module__ == "clickcraft.processes"
    # the oracle uses the same classes, not copies
    assert clickcraft.fock.ProcessOutcome is clickcraft.ProcessOutcome


def test_every_name_the_benchmark_tracer_patches_exists():
    # bench/tracing.py wraps each (module, attribute) of PATCHES by name, so a
    # renamed function would otherwise fail only a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    # the tracer counts a mixture's Gaussian terms with len(mixture.gaussians)
    assert len(PhaseSpaceMixture.thermal(0.5).gaussians) == 1
    # _table_cells reads a kernel table's kmax and mmax, _dense_bytes a
    # two-mode state's cutoffs[0]
    table = clickcraft.d_recursive(clickcraft.DSymbolParams(4, 0.5, 0.5), 3, 6)
    assert (table.kmax, table.mmax) == (3, 6) == tuple(n - 1 for n in table.values.shape)
    assert tracing._table_cells((), {}, table) == table.values.size
    joint = clickcraft.tensor_product(make_state("vacuum", 5), make_state("vacuum", 5))
    assert joint.cutoffs[0] == 5
    assert tracing._dense_bytes((joint,), {}, None) == 16 * 5**4
