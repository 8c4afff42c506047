"""Truncated-Fock oracle: constructors, unitaries, conditioning, moments."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from clickcraft import (
    BeamSplitterConfig,
    CutoffError,
    DetectorConfig,
    NumericalError,
    SqueezerConfig,
    TwoModeDensityMatrix,
    apply_beam_splitter,
    apply_two_mode_squeezer,
    condition_on_clicks,
    make_state,
    normally_ordered_moment,
    photon_distribution,
    tensor_product,
    trace_out_detector_mode,
)
from clickcraft.fock import _expm_tridiagonal


def coherent_vacuum(alpha, d):
    return tensor_product(make_state("coherent", d, alpha=alpha), make_state("vacuum", d))


# --- constructors -----------------------------------------------------------


def test_vacuum_state():
    rho = make_state("vacuum", 8)
    assert rho[0, 0] == 1.0
    assert abs(rho).sum() == 1.0


def test_thermal_state_geometric():
    rho = make_state("thermal", 48, nbar=0.5)
    p = photon_distribution(rho)
    n = np.arange(48)
    assert np.allclose(p, (1 / 1.5) * (0.5 / 1.5) ** n, rtol=1e-12)


def test_phase_diffused_tmsv_weights():
    state = make_state("phase_diffused_tmsv", 24, omega=0.25)
    for n in range(5):
        assert state.entries[n, n, n, n].real == pytest.approx(0.75 * 0.25**n, rel=1e-13)
    assert np.trace(trace_out_detector_mode(state)).real == pytest.approx(1.0, abs=1e-10)


def test_coherent_poisson_distribution():
    p = photon_distribution(make_state("coherent", 32, alpha=1.0))
    expect = np.array([math.exp(-1) / math.factorial(k) for k in range(32)])
    assert np.allclose(p, expect, atol=1e-14)


def test_fock_distribution():
    p = photon_distribution(make_state("fock", 8, n=2))
    assert p[2] == 1.0 and p.sum() == 1.0


def test_cutoff_errors():
    with pytest.raises(CutoffError):
        make_state("thermal", 8, nbar=2.0)
    with pytest.raises(CutoffError):
        make_state("coherent", 4, alpha=3.0)
    with pytest.raises(CutoffError):
        make_state("fock", 4, n=6)
    with pytest.raises(CutoffError):
        make_state("phase_diffused_tmsv", 6, omega=0.9)


@pytest.mark.parametrize("n", [-1, 2.5, True], ids=["negative", "fraction", "bool"])
def test_fock_state_needs_a_photon_number(n):
    # n = -1 raised CutoffError, 2.5 an IndexError, and True gave a trace of 8
    with pytest.raises(ValueError, match="integer >= 0") as info:
        make_state("fock", 8, n=n)
    assert not isinstance(info.value, NumericalError)


# (kind, the keywords it reads, a keyword it does not read, a value for that)
UNREAD_KEYWORDS = {
    "vacuum-n": ("vacuum", {}, "n", 3),
    "fock-alpha": ("fock", {"n": 2}, "alpha", 1.0),
    "coherent-nbar": ("coherent", {"alpha": 0.5}, "nbar", 0.5),
    "thermal-alpha": ("thermal", {"nbar": 0.5}, "alpha", 1.0),
    "displaced-omega": ("displaced_thermal", {"alpha": 0.5, "nbar": 0.2}, "omega", 0.3),
    "pair-n": ("phase_diffused_tmsv", {"omega": 0.25}, "n", 1),
}


# each returned a state or ran the unitary (NaN), or raised a CutoffError
# that blamed the tolerance -1.0
TAIL_TOL_USERS = {
    "thermal": lambda tol: make_state("thermal", 30, nbar=0.2, tail_tol=tol),
    "vacuum": lambda tol: make_state("vacuum", 8, tail_tol=tol),
    "beam_splitter": lambda tol: apply_beam_splitter(
        coherent_vacuum(0.5, 16), BeamSplitterConfig(0.7), tail_tol=tol
    ),
    "squeezer": lambda tol: apply_two_mode_squeezer(
        coherent_vacuum(0.5, 16), SqueezerConfig(0.1), tail_tol=tol
    ),
    "squeezer_identity": lambda tol: apply_two_mode_squeezer(
        coherent_vacuum(0.5, 16), SqueezerConfig(0.0), tail_tol=tol
    ),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("user", sorted(TAIL_TOL_USERS))
def test_tail_tolerance_must_be_a_number_at_least_zero(user, tol):
    with pytest.raises(ValueError, match="tail tolerance must be a number >= 0") as info:
        TAIL_TOL_USERS[user](tol)
    assert not isinstance(info.value, CutoffError)
    TAIL_TOL_USERS[user](1.0)  # the tolerance that switches the guard off


@pytest.mark.parametrize("case", UNREAD_KEYWORDS)
def test_make_state_rejects_keyword_its_kind_does_not_read(case):
    # each used to be ignored; the keyword at its default 0 is still accepted
    kind, reads, name, value = UNREAD_KEYWORDS[case]
    with pytest.raises(ValueError, match=f"takes no {name}"):
        make_state(kind, 32, **reads, **{name: value})
    make_state(kind, 32, **reads, **{name: 0})


def test_displaced_thermal_matches_moments():
    alpha0, nbar = 0.6 + 0.2j, 0.4
    rho = make_state("displaced_thermal", 40, alpha=alpha0, nbar=nbar)
    assert normally_ordered_moment(rho, 0, 1) == pytest.approx(alpha0, abs=1e-10)
    mean_n = normally_ordered_moment(rho, 1, 1).real
    assert mean_n == pytest.approx(abs(alpha0) ** 2 + nbar, rel=1e-10)


# --- beam splitter ----------------------------------------------------------


def test_beam_splitter_coherent_image():
    d, alpha, t = 28, 0.8, 0.7
    out = apply_beam_splitter(coherent_vacuum(alpha, d), BeamSplitterConfig(t))
    r = math.sqrt(1 - t * t)
    target = tensor_product(
        make_state("coherent", d, alpha=t * alpha), make_state("coherent", d, alpha=r * alpha)
    )
    fidelity = np.einsum("pqrs,qpsr->", out.entries, target.entries).real
    assert fidelity >= 1 - 1e-8


def test_beam_splitter_single_photon_split():
    t = 0.6
    r = math.sqrt(1 - t * t)
    inp = tensor_product(make_state("fock", 6, n=1), make_state("vacuum", 6))
    out = apply_beam_splitter(inp, BeamSplitterConfig(t))
    assert out.entries[1, 1, 0, 0].real == pytest.approx(t * t, abs=1e-12)
    assert out.entries[0, 0, 1, 1].real == pytest.approx(r * r, abs=1e-12)
    assert out.entries[1, 0, 0, 1].real == pytest.approx(t * r, abs=1e-12)


def test_beam_splitter_hong_ou_mandel():
    # |1, 1> on a balanced beam splitter: the two photons leave together
    d = 4
    inp = tensor_product(make_state("fock", d, n=1), make_state("fock", d, n=1))
    out = apply_beam_splitter(inp, BeamSplitterConfig(1 / math.sqrt(2)))
    joint = np.einsum("j,jpr->pr", out.weights, np.abs(out.kets) ** 2)
    assert joint[1, 1] <= 1e-14
    assert joint[2, 0] == pytest.approx(0.5, abs=1e-14)
    assert joint[0, 2] == pytest.approx(0.5, abs=1e-14)


def test_beam_splitter_keeps_vacuum():
    vac = tensor_product(make_state("vacuum", 6), make_state("vacuum", 6))
    out = apply_beam_splitter(vac, BeamSplitterConfig(0.5))
    assert np.allclose(out.entries, vac.entries, atol=1e-14)


def test_beam_splitter_heisenberg_moments():
    # first and second moments of coherent inputs follow the linear mode map
    d, alpha, t = 30, 0.9 + 0.3j, 0.75
    r = math.sqrt(1 - t * t)
    out = apply_beam_splitter(coherent_vacuum(alpha, d), BeamSplitterConfig(t))
    rho_a = trace_out_detector_mode(out)
    assert normally_ordered_moment(rho_a, 0, 1) == pytest.approx(t * alpha, abs=1e-8)
    assert normally_ordered_moment(rho_a, 1, 1) == pytest.approx(abs(t * alpha) ** 2, abs=1e-8)
    rho_b = trace_out_detector_mode(
        TwoModeDensityMatrix(out.weights, out.kets.transpose(0, 2, 1))
    )
    assert normally_ordered_moment(rho_b, 0, 1) == pytest.approx(r * alpha, abs=1e-8)


def test_beam_splitter_preserves_trace_and_hermiticity():
    mixed = tensor_product(make_state("thermal", 24, nbar=0.4), make_state("vacuum", 24))
    out = apply_beam_splitter(mixed, BeamSplitterConfig(0.7))
    assert np.trace(trace_out_detector_mode(out)).real == pytest.approx(1.0, abs=1e-10)
    assert np.abs(out.entries - out.entries.conj().transpose(1, 0, 3, 2)).max() < 1e-10


def test_beam_splitter_rejects_mismatched_cutoffs():
    bad = tensor_product(make_state("vacuum", 6), make_state("vacuum", 8))
    with pytest.raises(ValueError):
        apply_beam_splitter(bad, BeamSplitterConfig(0.7))


def test_beam_splitter_config_validation():
    for t in (0.0, 1.0, 1.3):
        with pytest.raises(ValueError):
            BeamSplitterConfig(t)


# --- two-mode squeezer ------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: SqueezerConfig(math.nan),
        lambda: SqueezerConfig(math.inf),
        lambda: SqueezerConfig.from_mu(math.nan),
        lambda: SqueezerConfig.from_mu(math.inf),
    ],
    ids=["xi-nan", "xi-inf", "mu-nan", "mu-inf"],
)
def test_squeezer_rejects_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_squeezer_vacuum_image():
    mu = 1.5
    sq = SqueezerConfig.from_mu(mu)
    vac = tensor_product(make_state("vacuum", 40), make_state("vacuum", 40))
    out = apply_two_mode_squeezer(vac, sq)
    assert out.entries[0, 0, 0, 0].real == pytest.approx(1 / mu**2, rel=1e-12)
    for m in (1, 2, 5):
        expect = (1 / mu**2) * (sq.nu / mu) ** (2 * m)
        assert out.entries[m, m, m, m].real == pytest.approx(expect, rel=1e-11)


def test_squeezer_zero_strength_is_identity():
    state = coherent_vacuum(0.5, 12)
    out = apply_two_mode_squeezer(state, SqueezerConfig(0.0))
    assert out is state


def test_squeezer_amplifies_mean_photon_number():
    mu, alpha, d = 1.5, 0.8, 64
    out = apply_two_mode_squeezer(coherent_vacuum(alpha, d), SqueezerConfig.from_mu(mu))
    rho_a = trace_out_detector_mode(out)
    mean_n = normally_ordered_moment(rho_a, 1, 1).real
    expect = mu**2 * alpha**2 + (mu**2 - 1)
    assert mean_n == pytest.approx(expect, abs=1e-6)


def test_squeezer_trace_preserved():
    mixed = tensor_product(make_state("thermal", 48, nbar=0.3), make_state("vacuum", 48))
    out = apply_two_mode_squeezer(mixed, SqueezerConfig.from_mu(1.3))
    assert np.trace(trace_out_detector_mode(out)).real == pytest.approx(1.0, abs=1e-10)


def test_squeezer_cutoff_guard():
    small = coherent_vacuum(0.8, 16)
    with pytest.raises(CutoffError):
        apply_two_mode_squeezer(small, SqueezerConfig.from_mu(1.5))


def test_beam_splitter_cutoff_guard():
    # |5> at cutoff 6 leaves 0.0628 of its weight on the boundary; |4> none
    state = tensor_product(make_state("fock", 6, n=5), make_state("vacuum", 6))
    with pytest.raises(CutoffError, match="boundary occupancy 0.0628 "):
        apply_beam_splitter(state, BeamSplitterConfig(0.7))
    state = tensor_product(make_state("fock", 6, n=4), make_state("vacuum", 6))
    apply_beam_splitter(state, BeamSplitterConfig(0.7))


# --- conditioning -----------------------------------------------------------


def test_condition_factorizes_on_product_states():
    det = DetectorConfig(8, 0.7)
    rho_a = make_state("thermal", 20, nbar=0.4)
    rho_b = make_state("coherent", 20, alpha=0.9)
    joint = tensor_product(rho_a, rho_b)
    from clickcraft import click_povm_element

    for k in (0, 1, 3):
        outcome = condition_on_clicks(joint, det, k)
        weight = photon_distribution(rho_b) @ click_povm_element(det, k, 20)
        assert outcome.probability == pytest.approx(np.trace(rho_a).real * weight, rel=1e-12)
        assert np.allclose(outcome.state, rho_a * weight, atol=1e-14)


def test_condition_tmsv_diagonal():
    det = DetectorConfig(64, 0.95)
    state = make_state("phase_diffused_tmsv", 24, omega=0.25)
    outcome = condition_on_clicks(state, det, 2)
    from clickcraft import click_kernel_table

    kernel = click_kernel_table(det, 2, 23).values[2]
    expect = 0.75 * 0.25 ** np.arange(24) * kernel
    assert np.allclose(np.diag(outcome.state).real, expect, rtol=1e-12)
    offdiag = outcome.state - np.diag(np.diag(outcome.state))
    assert np.abs(offdiag).max() == 0.0


def test_condition_partitions_trace():
    det = DetectorConfig(4, 0.6)
    state = apply_beam_splitter(coherent_vacuum(1.1, 32), BeamSplitterConfig(0.8))
    total = sum(condition_on_clicks(state, det, k).probability for k in range(5))
    assert total == pytest.approx(np.trace(trace_out_detector_mode(state)).real, abs=1e-9)


def test_condition_rejects_bad_k():
    state = make_state("phase_diffused_tmsv", 16, omega=0.2)
    with pytest.raises(ValueError):
        condition_on_clicks(state, DetectorConfig(4, 0.5), 5)


# --- moments ----------------------------------------------------------------


def test_moment_coherent_mean_photon():
    rho = make_state("coherent", 32, alpha=1.2)
    assert normally_ordered_moment(rho, 1, 1).real == pytest.approx(1.44, rel=1e-10)


def test_moment_thermal_second_order():
    rho = make_state("thermal", 64, nbar=0.5)
    assert normally_ordered_moment(rho, 2, 2).real == pytest.approx(0.5, rel=1e-10)


def test_moment_vacuum_vanishes():
    rho = make_state("vacuum", 8)
    for p, q in [(1, 0), (1, 1), (2, 2)]:
        assert abs(normally_ordered_moment(rho, p, q)) == 0.0


@pytest.mark.parametrize(
    "p, q", [(1.5, 1), (0.0, 0), (True, 1), (1, 1.5), (0, False), (-1, 0)]
)
def test_moment_order_is_an_integer_at_least_zero(p, q):
    # a float escaped as a TypeError, and True read as the order 1
    with pytest.raises(ValueError, match="moment order [pq] must be an integer >= 0"):
        normally_ordered_moment(make_state("coherent", 16, alpha=0.5), p, q)


def test_moment_warns_when_truncation_bites():
    rho = make_state("thermal", 24, nbar=1.8, tail_tol=1e-2)
    with pytest.warns(UserWarning, match="cutoff"):
        normally_ordered_moment(rho, 2, 2)


def test_moments_converge_in_cutoff():
    # doubling the cutoff moves low-order moments by less than 1e-8
    for d in (32,):
        small = apply_beam_splitter(coherent_vacuum(0.8, d), BeamSplitterConfig(0.7))
        big = apply_beam_splitter(coherent_vacuum(0.8, 2 * d), BeamSplitterConfig(0.7))
        for p, q in [(1, 1), (2, 2), (2, 1)]:
            m_small = normally_ordered_moment(trace_out_detector_mode(small), p, q)
            m_big = normally_ordered_moment(trace_out_detector_mode(big), p, q)
            assert abs(m_small - m_big) < 1e-8


# --- ket ensemble against the dense definition --------------------------------


def _dense_unitary(gen):
    # exp(G) of the full truncated two-mode generator, no block structure used
    w, v = np.linalg.eigh(-1j * gen)
    return (v * np.exp(1j * w)) @ v.conj().T


@pytest.mark.parametrize("d", [8, 12])
def test_ket_unitaries_match_dense_definition(d):
    a1 = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    a, b = np.kron(a1, eye), np.kron(eye, a1)
    rho_a = make_state("displaced_thermal", d, alpha=0.4 - 0.2j, nbar=0.15, tail_tol=1e-3)
    inp = tensor_product(rho_a, make_state("vacuum", d))
    dense_in = np.kron(rho_a, make_state("vacuum", d))
    theta, xi = math.acos(0.7), SqueezerConfig.from_mu(1.1).xi
    bs_out = apply_beam_splitter(inp, BeamSplitterConfig(0.7), tail_tol=1.0)
    sq_out = apply_two_mode_squeezer(inp, SqueezerConfig(xi), tail_tol=1.0)
    cases = [(bs_out, theta * (a @ b.T - a.T @ b)), (sq_out, xi * (a.T @ b.T - a @ b))]
    for out, gen in cases:
        u = _dense_unitary(gen)
        expect = (u @ dense_in @ u.conj().T).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        assert np.abs(out.entries - expect).max() < 1e-12


@pytest.mark.parametrize("d", [8, 12])
def test_ket_unitaries_match_dense_definition_on_full_blocks(d):
    # thermal light in both modes puts amplitude on every conserved-number
    # block, so no block is skipped as empty
    a1 = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    a, b = np.kron(a1, eye), np.kron(eye, a1)
    rho_a = make_state("displaced_thermal", d, alpha=0.4 - 0.2j, nbar=0.6, tail_tol=1.0)
    rho_b = make_state("thermal", d, nbar=0.8, tail_tol=1.0)
    inp = tensor_product(rho_a, rho_b)
    dense_in = np.kron(rho_a, rho_b)
    theta, xi = math.acos(0.7), SqueezerConfig.from_mu(1.1).xi
    bs_out = apply_beam_splitter(inp, BeamSplitterConfig(0.7), tail_tol=1.0)
    sq_out = apply_two_mode_squeezer(inp, SqueezerConfig(xi), tail_tol=1.0)
    cases = [(bs_out, theta * (a @ b.T - a.T @ b)), (sq_out, xi * (a.T @ b.T - a @ b))]
    for out, gen in cases:
        u = _dense_unitary(gen)
        expect = (u @ dense_in @ u.conj().T).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        assert np.abs(out.entries - expect).max() < 1e-12


@pytest.mark.parametrize("mode_b", ["fock", "coherent"])
def test_squeezer_on_populated_mode_b_matches_dense_definition(mode_b):
    # mode B is not vacuum, so a conserved-difference block holds one
    # populated column (|1> in B) or several (a coherent B)
    d = 12
    a1 = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    a, b = np.kron(a1, eye), np.kron(eye, a1)
    rho_a = make_state("coherent", d, alpha=0.3 + 0.1j)
    rho_b = make_state(mode_b, d, **({"n": 1} if mode_b == "fock" else {"alpha": -0.2j}))
    xi = SqueezerConfig.from_mu(1.1).xi
    out = apply_two_mode_squeezer(tensor_product(rho_a, rho_b), SqueezerConfig(xi), tail_tol=1.0)
    u = _dense_unitary(xi * (a.T @ b.T - a @ b))
    expect = (u @ np.kron(rho_a, rho_b) @ u.conj().T).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    assert np.abs(out.entries - expect).max() < 1e-12


def _expm_eigh_phase(s):
    # with P = diag(i^j), P^dag G P = -i T for the real symmetric tridiagonal
    # T with off-diagonal s, so exp(G) = P v exp(-i w) v^T P^dag
    w, v = np.linalg.eigh(np.diag(s, -1))
    phase = np.array([1, 1j, -1, -1j])[np.arange(s.size + 1) % 4]
    return ((v * np.exp(-1j * w)) @ v.T) * np.outer(phase, phase.conj())


COUPLINGS = {
    "displacement": lambda n: 0.8 * np.sqrt(np.arange(1.0, n)),
    "squeezer": lambda n: 0.44 * np.sqrt(np.arange(1.0, n) * np.arange(3.0, n + 2)),
    "beam_splitter": lambda n: -0.8 * np.sqrt(np.arange(1.0, n) * np.arange(n - 1.0, 0, -1)),
}


# 1: no coupling; 2, 64: square B; 3, 65: B with one more even index than
# odd ones; 160: the displacement of make_state at cutoff 64
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 160])
@pytest.mark.parametrize("coupling", sorted(COUPLINGS))
def test_expm_tridiagonal_is_real_orthogonal_and_matches_eigh_with_phase(n, coupling):
    s = COUPLINGS[coupling](n)
    e = _expm_tridiagonal(s)
    assert e.dtype == np.float64 and e.shape == (n, n)
    assert np.abs(e @ e.T - np.eye(n)).max() <= 1e-14
    assert np.abs(e - _expm_eigh_phase(s)).max() <= 1e-13
    cols = np.unique([n - 1, 0, n // 2])
    part = _expm_tridiagonal(s, cols)
    assert part.shape == (n, cols.size)
    assert np.abs(part - e[:, cols]).max() <= 1e-15


def test_moment_matches_matrix_power_definition():
    d = 12
    rng = np.random.default_rng(5)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    rho = rho / np.trace(rho).real
    a1 = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    for p in range(5):
        for q in range(5 - p):
            op = np.linalg.matrix_power(a1.T, p) @ np.linalg.matrix_power(a1, q)
            expect = np.trace(rho @ op)
            with warnings.catch_warnings():
                # a random matrix fills the top levels, so the guard fires
                warnings.simplefilter("ignore", UserWarning)
                got = normally_ordered_moment(rho, p, q)
            assert abs(got - expect) <= 1e-12 * abs(expect)


def test_tensor_product_keeps_diagonal_rank():
    d = 24
    joint = tensor_product(make_state("thermal", d, nbar=0.5), make_state("vacuum", d))
    assert joint.kets.shape == (d, d, d)
    assert joint.weights.shape == (d,)
    pairs = make_state("phase_diffused_tmsv", d, omega=0.1)
    assert pairs.kets.shape == (d, d, d)


# --- memory -----------------------------------------------------------------


def _allocated(call):
    # peak bytes traced during the call beyond what was held before it
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _displaced_thermal_vacuum(d):
    rho = make_state("displaced_thermal", d, alpha=0.8 + 0.3j, nbar=0.5)
    return tensor_product(rho, make_state("vacuum", d))


def test_tensor_product_kets_are_c_contiguous():
    # the eigenvector kets of a non-diagonal input are a transposed view
    joint = _displaced_thermal_vacuum(48)
    assert joint.kets.flags.c_contiguous


def test_unitaries_allocate_only_their_output():
    # an output copy of the kets plus block-sized work, nothing else ket-sized
    inp = _displaced_thermal_vacuum(48)
    unitaries = [
        lambda: apply_beam_splitter(inp, BeamSplitterConfig(0.7)),
        lambda: apply_two_mode_squeezer(inp, SqueezerConfig.from_mu(1.4), tail_tol=1e-6),
    ]
    for unitary in unitaries:
        assert _allocated(unitary) <= 1.25 * inp.kets.nbytes


def test_conditioning_allocates_one_block_stack():
    det = DetectorConfig(16, 0.6)
    joint = apply_two_mode_squeezer(
        _displaced_thermal_vacuum(48), SqueezerConfig.from_mu(1.4), tail_tol=1e-6
    )

    def condition_every_k():
        for k in range(det.N + 1):
            condition_on_clicks(joint, det, k)

    assert _allocated(condition_every_k) <= 1.25 * joint.kets.nbytes
