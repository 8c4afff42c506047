"""Truncated Fock-space oracle: states, mode unitaries, POVM conditioning.

Everything here is brute force on a finite photon-number basis |0..d-1> and
serves as the independent cross-check for the closed-form phase-space
pipeline.  Two-mode states are weighted ket ensembles,
rho = sum_j w_j |psi_j><psi_j|, so a d x d pair costs n d^2 amplitudes for an
ensemble of n kets rather than d^4 matrix entries.  Unitaries are built by
exponentiating the truncated generator; both generators conserve an integer
label (total photon number for the beam splitter, photon-number difference
for the two-mode squeezer), so the exponential is taken block by block, which
is exact, and each block acts on the kets alone: O(n d^3) work and O(n d^2)
memory per application.  Every block is real, antisymmetric and tridiagonal,
so its exponential comes from one real symmetric tridiagonal eigensolve, and
a block is built only when the kets have amplitude on it (a unitary maps zero
to zero).  Normally ordered moments read one offset diagonal of rho: O(d).

Truncation is never silent: state constructors fail when the requested cutoff
leaves more than ``tail_tol`` of probability outside the basis, and the
unitaries fail when the output accumulates more than ``tail_tol`` of weight on
the cutoff boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dsymbol import CutoffError, NumericalError
from .povm import DetectorConfig, click_povm_element

__all__ = [
    "BeamSplitterConfig",
    "CutoffError",
    "DensityMatrix",
    "NumericalError",
    "ProcessOutcome",
    "SqueezerConfig",
    "TwoModeDensityMatrix",
    "apply_beam_splitter",
    "apply_two_mode_squeezer",
    "condition_on_clicks",
    "make_state",
    "normally_ordered_moment",
    "photon_distribution",
    "suggest_cutoff",
    "tensor_product",
    "trace_out_detector_mode",
]

DEFAULT_TAIL_TOL = 1e-10
UNITARY_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class BeamSplitterConfig:
    """Beam splitter with real amplitude transmission t in (0, 1); r = sqrt(1-t^2)."""

    t: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"transmission must lie strictly in (0, 1), got t={self.t}")

    @property
    def r(self) -> float:
        return math.sqrt(1.0 - self.t * self.t)


@dataclass(frozen=True)
class SqueezerConfig:
    """Two-mode squeezer of strength xi >= 0; mu = cosh(xi), nu = sinh(xi)."""

    xi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.xi < math.inf:
            raise ValueError(f"squeezing strength must be finite and >= 0, got xi={self.xi}")

    @classmethod
    def from_mu(cls, mu: float) -> "SqueezerConfig":
        if not 1.0 <= mu < math.inf:
            raise ValueError(f"gain must be finite with mu >= 1, got {mu}")
        return cls(math.acosh(mu))

    @property
    def mu(self) -> float:
        return math.cosh(self.xi)

    @property
    def nu(self) -> float:
        return math.sinh(self.xi)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Single-mode operator on the truncated basis |0..cutoff-1>.

    Unnormalized conditional states (trace < 1) are allowed; the trace of a
    conditioned output is the probability of the conditioning event.
    """

    cutoff: int
    entries: np.ndarray  # (d, d) complex

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def validate(self) -> None:
        """Check Hermiticity, positivity and trace bounds; raise on violation."""
        h = np.abs(self.entries - self.entries.conj().T).max()
        if h > 1e-12:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {h}")
        evals = np.linalg.eigvalsh(self.entries)
        if evals.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {evals.min()}")
        if not 0.0 < self.trace <= 1.0 + 1e-12:
            raise ValueError(f"trace {self.trace} outside (0, 1]")


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Two-mode operator rho = sum_j weights[j] |psi_j><psi_j|, with
    kets[j, p, r] = <p, r|psi_j>.

    Weights are real and may carry roundoff-sized negative values from an
    eigendecomposition.  ``entries[p, q, r, s] <-> |p><q| (x) |r><s|`` is the
    dense form, built on demand.
    """

    cutoffs: tuple[int, int]
    weights: np.ndarray  # (n,) real
    kets: np.ndarray  # (n, dA, dB) complex

    @property
    def entries(self) -> np.ndarray:
        d_a, d_b = self.cutoffs
        flat = self.kets.reshape(-1, d_a * d_b)
        mat = (flat.T * self.weights) @ flat.conj()
        return _readonly(mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3))

    @property
    def trace(self) -> float:
        return float(self.weights @ (np.abs(self.kets) ** 2).sum(axis=(1, 2)))

    @cached_property
    def _detector_blocks(self) -> np.ndarray:
        """G[m, p, q] = <p, m| rho |q, m>, the B-diagonal blocks (dB, dA, dA)."""
        x = self.kets.transpose(2, 1, 0)  # (dB, dA, n)
        return _readonly((x * self.weights) @ x.conj().transpose(0, 2, 1))

    def validate(self) -> None:
        if not np.isrealobj(self.weights):
            raise ValueError("not Hermitian: ensemble weights must be real")
        d_a, d_b = self.cutoffs
        # rho = Q (R W R^dag) Q^dag with kets^T = Q R: same non-zero spectrum
        _, r = np.linalg.qr(self.kets.reshape(-1, d_a * d_b).T)
        evals = np.linalg.eigvalsh((r * self.weights) @ r.conj().T)
        if evals.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {evals.min()}")
        if not 0.0 < self.trace <= 1.0 + 1e-12:
            raise ValueError(f"trace {self.trace} outside (0, 1]")


@dataclass(frozen=True)
class ProcessOutcome:
    """Unnormalized conditional state plus its trace = probability of the event.

    Rare click patterns can land a hair below zero through roundoff of the
    alternating closed forms; anything beyond 1e-9 is rejected.
    """

    state: object  # DensityMatrix or PhaseSpaceMixture
    probability: float

    def __post_init__(self) -> None:
        if not -1e-9 <= self.probability <= 1.0 + 1e-9:
            raise NumericalError(f"probability {self.probability} outside [0, 1]")


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def _expm_tridiagonal(s: np.ndarray) -> np.ndarray:
    """exp(G) for the real antisymmetric tridiagonal G with G[i+1, i] = s[i]
    and G[i, i+1] = -s[i].

    With P = diag(i^j), P^dag G P = -i T for the real symmetric tridiagonal T
    with off-diagonal s, so exp(G) = P v exp(-i w) v^T P^dag from one real
    eigendecomposition T = v diag(w) v^T.
    """
    w, v = np.linalg.eigh(np.diag(s, -1))
    phase = np.array([1, 1j, -1, -1j])[np.arange(s.size + 1) % 4]
    return ((v * np.exp(-1j * w)) @ v.T) * np.outer(phase, phase.conj())


def _coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    amps = np.zeros(d, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, d):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def make_state(
    kind: str,
    cutoff: int,
    *,
    alpha: complex = 0j,
    nbar: float = 0.0,
    omega: float = 0.0,
    n: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> DensityMatrix | TwoModeDensityMatrix:
    """Build a normalized truncated state.

    Kinds: ``vacuum``, ``fock`` (photon number n), ``coherent`` (amplitude
    alpha), ``thermal`` (mean photon number nbar), ``displaced_thermal``
    (alpha, nbar) and the two-mode ``phase_diffused_tmsv`` (pair-correlation
    omega, diagonal (1-omega) sum omega^n |n,n><n,n|).

    Raises CutoffError when the truncated trace would fall below 1 - tail_tol.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    d = cutoff
    if kind == "vacuum":
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        return DensityMatrix(d, _readonly(rho))
    if kind == "fock":
        if not 0 <= n < d:
            raise CutoffError(f"|{n}> needs cutoff > {n}, got {d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[n, n] = 1.0
        return DensityMatrix(d, _readonly(rho))
    if kind == "coherent":
        amps = _coherent_amplitudes(alpha, d)
        norm = float(np.vdot(amps, amps).real)
        if norm < 1.0 - tail_tol:
            raise CutoffError(
                f"coherent |alpha|={abs(alpha):.4g} keeps only {norm:.12f} of its "
                f"weight below cutoff {d}; try {suggest_cutoff('coherent', alpha=alpha, tail_tol=tail_tol)}"
            )
        return DensityMatrix(d, _readonly(np.outer(amps, amps.conj())))
    if kind == "thermal":
        if nbar < 0:
            raise ValueError(f"mean photon number must be >= 0, got {nbar}")
        if nbar == 0:
            return make_state("vacuum", d)
        q = nbar / (nbar + 1.0)
        if q**d > tail_tol:
            raise CutoffError(
                f"thermal nbar={nbar} has tail {q ** d:.3g} at cutoff {d}; "
                f"try {suggest_cutoff('thermal', nbar=nbar, tail_tol=tail_tol)}"
            )
        probs = (1.0 - q) * q ** np.arange(d)
        return DensityMatrix(d, _readonly(np.diag(probs).astype(complex)))
    if kind == "displaced_thermal":
        if nbar == 0:
            return make_state("coherent", d, alpha=alpha, tail_tol=tail_tol)
        work = 2 * d + 32
        thermal = make_state("thermal", work, nbar=nbar, tail_tol=1e-14)
        # D(alpha) = R D(|alpha|) R^dag with R = exp(i arg(alpha) a^dag a)
        rot = np.exp(1j * np.angle(alpha) * np.arange(work))
        disp = _expm_tridiagonal(abs(alpha) * np.sqrt(np.arange(1.0, work)))
        disp = rot[:, None] * disp * rot.conj()
        full = disp @ thermal.entries @ disp.conj().T
        rho = full[:d, :d].copy()
        kept = float(np.trace(rho).real)
        if kept < 1.0 - tail_tol:
            raise CutoffError(
                f"displaced thermal (|alpha|={abs(alpha):.4g}, nbar={nbar}) keeps "
                f"only {kept:.12f} below cutoff {d}"
            )
        return DensityMatrix(d, _readonly(rho))
    if kind == "phase_diffused_tmsv":
        if not 0.0 < omega < 1.0:
            raise ValueError(f"pair weight must satisfy 0 < omega < 1, got {omega}")
        if omega**d > tail_tol:
            raise CutoffError(
                f"phase-diffused pair state omega={omega} has tail {omega ** d:.3g} "
                f"at cutoff {d}"
            )
        kets = np.zeros((d, d, d), dtype=complex)
        m = np.arange(d)
        kets[m, m, m] = 1.0
        weights = (1.0 - omega) * omega**m
        return TwoModeDensityMatrix((d, d), _readonly(weights), _readonly(kets))
    raise ValueError(f"unknown state kind {kind!r}")


def suggest_cutoff(
    kind: str,
    *,
    alpha: complex = 0j,
    nbar: float = 0.0,
    omega: float = 0.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    squeezer: SqueezerConfig | None = None,
) -> int:
    """Smallest cutoff holding the state's tail below tail_tol, with a x1.5
    headroom factor when a squeezer will amplify the state afterwards."""
    if kind == "coherent":
        lam = abs(alpha) ** 2
        d = max(8, int(lam + 12.0 * math.sqrt(lam + 1.0)))
        amps = _coherent_amplitudes(alpha, d)
        while float(np.vdot(amps, amps).real) < 1.0 - tail_tol:
            d = int(d * 1.5) + 1
            amps = _coherent_amplitudes(alpha, d)
        base_nbar = lam
    elif kind in ("thermal", "displaced_thermal"):
        q = nbar / (nbar + 1.0) if nbar > 0 else 0.0
        d = 8 if q == 0 else max(8, math.ceil(math.log(tail_tol) / math.log(q)))
        d += int(2 * abs(alpha) ** 2 + 10 * abs(alpha)) if kind == "displaced_thermal" else 0
        base_nbar = nbar + abs(alpha) ** 2
    elif kind == "phase_diffused_tmsv":
        d = max(8, math.ceil(math.log(tail_tol) / math.log(omega)))
        base_nbar = omega / (1.0 - omega)
    elif kind in ("vacuum", "fock"):
        d, base_nbar = 8, 0.0
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    if squeezer is not None:
        amplified = squeezer.mu**2 * (base_nbar + 1.0) - 1.0
        q = amplified / (amplified + 1.0)
        d_sq = math.ceil(math.log(tail_tol) / math.log(q)) if q > 0 else 8
        d = max(d, d_sq)
        d = math.ceil(1.5 * d)
    return d


def _ensemble(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(weights, kets as rows) with rho = sum_j w_j |k_j><k_j|.

    A diagonal rho keeps only its non-zero diagonal entries with basis kets;
    anything else is eigendecomposed, keeping every signed eigenvalue.
    """
    diag = np.diag(rho.entries)
    if np.array_equal(rho.entries, np.diag(diag)):
        nz = np.flatnonzero(diag)
        return diag[nz].real, np.eye(rho.cutoff, dtype=complex)[nz]
    w, v = np.linalg.eigh(rho.entries)
    return w, v.T


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> TwoModeDensityMatrix:
    w_a, k_a = _ensemble(a)
    w_b, k_b = _ensemble(b)
    kets = np.einsum("ip,jr->ijpr", k_a, k_b).reshape(-1, a.cutoff, b.cutoff)
    weights = np.outer(w_a, w_b).reshape(-1)
    return TwoModeDensityMatrix((a.cutoff, b.cutoff), _readonly(weights), _readonly(kets))


def photon_distribution(state: DensityMatrix) -> np.ndarray:
    """p_n = <n|rho|n>; non-negative up to roundoff, sums to the trace."""
    return np.diag(state.entries).real.copy()


# ---------------------------------------------------------------------------
# mode unitaries via block exponentiation of the truncated generator
# ---------------------------------------------------------------------------


def _apply_blockwise(
    state: TwoModeDensityMatrix,
    blocks: list[tuple[np.ndarray, np.ndarray]],
    tail_tol: float,
    what: str,
) -> TwoModeDensityMatrix:
    """|psi_j> -> U |psi_j> for U = direct sum of blocks exp(G), each given as
    (indices, coupling vector of G); blocks the kets leave empty are skipped."""
    d_a, d_b = state.cutoffs
    flat = state.kets.reshape(-1, d_a * d_b).copy()
    for idx, s in blocks:
        sub = flat[:, idx]
        if sub.any():
            flat[:, idx] = sub @ _expm_tridiagonal(s).T
    kets = flat.reshape(-1, d_a, d_b)

    diag = np.einsum("j,jps->ps", state.weights, np.abs(kets) ** 2)
    boundary = float(diag[-1, :].sum() + diag[:, -1].sum() - diag[-1, -1])
    total = float(diag.sum())
    if total > 0 and boundary > tail_tol * total:
        raise CutoffError(
            f"{what}: boundary occupancy {boundary / total:.3g} exceeds the tail "
            f"tolerance {tail_tol}; increase the cutoff"
        )
    return TwoModeDensityMatrix(state.cutoffs, state.weights, _readonly(kets))


def _beam_splitter_blocks(theta: float, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks of exp(theta (a b^dag - a^dag b)); total photon number conserved."""
    blocks = []
    for total in range(2 * d - 1):
        ps = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        p, r = ps[:-1], total - ps[:-1]
        # -a^dag b couples (p+1, r-1) <- (p, r) with amplitude -sqrt((p+1) r);
        # this orientation sends |alpha, 0> to |t alpha, +r alpha>
        blocks.append((ps * d + (total - ps), -theta * np.sqrt((p + 1) * r)))
    return blocks


def _squeezer_blocks(xi: float, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks of exp(xi (a^dag b^dag - a b)); photon-number difference conserved."""
    blocks = []
    for diff in range(-(d - 1), d):
        ps = np.arange(max(0, diff), min(d, d + diff))
        p, r = ps[:-1], ps[:-1] - diff
        # a^dag b^dag couples (p+1, r+1) <- (p, r): amplitude sqrt((p+1)(r+1))
        blocks.append((ps * d + (ps - diff), xi * np.sqrt((p + 1) * (r + 1))))
    return blocks


def apply_beam_splitter(
    state: TwoModeDensityMatrix,
    bs: BeamSplitterConfig,
    tail_tol: float = UNITARY_TAIL_TOL,
) -> TwoModeDensityMatrix:
    """Mix the two modes on a beam splitter; |alpha, 0> maps to |t alpha, r alpha>.

    Built as exp(theta (a b^dag - a^dag b)) with t = cos(theta), exponentiated
    block by block over the conserved total photon number.
    """
    if state.cutoffs[0] != state.cutoffs[1]:
        raise ValueError(f"cutoffs must match, got {state.cutoffs}")
    theta = math.acos(bs.t)
    blocks = _beam_splitter_blocks(theta, state.cutoffs[0])
    return _apply_blockwise(state, blocks, tail_tol, "beam splitter")


def apply_two_mode_squeezer(
    state: TwoModeDensityMatrix,
    sq: SqueezerConfig,
    tail_tol: float = UNITARY_TAIL_TOL,
) -> TwoModeDensityMatrix:
    """Two-mode squeezing exp(xi (a^dag b^dag - a b)).

    Vacuum input acquires weights (1/mu^2) (nu/mu)^(2m) on |m, m>; mode
    amplitudes transform with gain mu = cosh(xi).
    """
    if state.cutoffs[0] != state.cutoffs[1]:
        raise ValueError(f"cutoffs must match, got {state.cutoffs}")
    if sq.xi == 0.0:
        return state
    blocks = _squeezer_blocks(sq.xi, state.cutoffs[0])
    return _apply_blockwise(state, blocks, tail_tol, "two-mode squeezer")


# ---------------------------------------------------------------------------
# conditioning and moments
# ---------------------------------------------------------------------------


def condition_on_clicks(
    state: TwoModeDensityMatrix, det: DetectorConfig, k: int
) -> ProcessOutcome:
    """Condition mode B on a k-click event of the detector system.

    Returns the unnormalized mode-A state sum_m D[k, m] <m|_B rho |m>_B whose
    trace is the probability of seeing k clicks.
    """
    d_a, d_b = state.cutoffs
    weights = click_povm_element(det, k, d_b)  # checks 0 <= k <= N
    out = np.tensordot(weights, state._detector_blocks, axes=1)
    reduced = DensityMatrix(d_a, _readonly(out))
    return ProcessOutcome(state=reduced, probability=reduced.trace)


def trace_out_detector_mode(state: TwoModeDensityMatrix) -> DensityMatrix:
    """Unconditional reduced state of mode A."""
    out = state._detector_blocks.sum(axis=0)
    return DensityMatrix(state.cutoffs[0], _readonly(out))


def normally_ordered_moment(state: DensityMatrix, p: int, q: int) -> complex:
    """tr(rho a^dag^p a^q) on the truncated basis,
    sum_j rho[j+q, j+p] sqrt((j+p)! (j+q)!) / j!.

    Warns when the top p+q Fock levels contribute more than 1e-8 of the
    moment, i.e. when the truncation starts to bite.
    """
    if p < 0 or q < 0:
        raise ValueError("moment orders must be non-negative")
    d = state.cutoff
    band = np.diagonal(state.entries, p - q)[min(p, q) :]
    j = np.arange(band.size, dtype=float)[:, None]
    rising = lambda n: np.prod(j + np.arange(1, n + 1), axis=1)  # (j+n)!/j!
    terms = band * np.sqrt(rising(p) * rising(q))
    val = complex(terms.sum())
    # terms reaching a level >= d - (p+q), i.e. j + max(p, q) >= that guard
    top = complex(terms[max(0, d - (p + q) - max(p, q)) :].sum())
    if abs(top) > 1e-8 * max(abs(val), 1e-300):
        warnings.warn(
            f"moment <a^dag^{p} a^{q}> draws {abs(top):.3g} from the top "
            f"{p + q} Fock levels; increase the cutoff",
            stacklevel=2,
        )
    return val
