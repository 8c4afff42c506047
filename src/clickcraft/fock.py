"""Truncated Fock-space oracle: states, mode unitaries, POVM conditioning.

Everything here is brute force on a finite photon-number basis |0..d-1> and
serves as the independent cross-check for the closed-form phase-space
pipeline.  A one-mode state is a read-only (d, d) complex array; a
conditioned one is unnormalized, its trace the probability of the
conditioning event.  Two-mode states are weighted ket ensembles,
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

# both exported, as a cutoff failure is one kind of numerical failure
from .dsymbol import CutoffError, NumericalError  # noqa: F401
from .pfunc import check_displaced_thermal
from .povm import DetectorConfig, click_povm_element
from .processes import DEFAULT_TAIL_TOL, BeamSplitterConfig, ProcessOutcome, SqueezerConfig

UNITARY_TAIL_TOL = 1e-8
# the keywords each state kind of ``make_state`` reads
_KIND_KEYWORDS = {
    "vacuum": (),
    "fock": ("n",),
    "coherent": ("alpha",),
    "thermal": ("nbar",),
    "displaced_thermal": ("alpha", "nbar"),
    "phase_diffused_tmsv": ("omega",),
}


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Two-mode operator rho = sum_j weights[j] |psi_j><psi_j|, with
    kets[j, p, r] = <p, r|psi_j>.

    Weights are real and may carry roundoff-sized negative values from an
    eigendecomposition.  ``entries[p, q, r, s] <-> |p><q| (x) |r><s|`` is the
    dense form, built on demand.
    """

    weights: np.ndarray  # (n,) real
    kets: np.ndarray  # (n, dA, dB) complex

    @property
    def cutoffs(self) -> tuple[int, int]:
        return self.kets.shape[1:]

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


def make_state(
    kind: str,
    cutoff: int,
    *,
    alpha: complex = 0j,
    nbar: float = 0.0,
    omega: float = 0.0,
    n: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> np.ndarray | TwoModeDensityMatrix:
    """Build a normalized truncated state: a (d, d) array for a one-mode kind.

    Kinds: ``vacuum``, ``fock`` (photon number n), ``coherent`` (amplitude
    alpha), ``thermal`` (mean photon number nbar), ``displaced_thermal``
    (alpha, nbar) and the two-mode ``phase_diffused_tmsv`` (pair-correlation
    omega, diagonal (1-omega) sum omega^n |n,n><n,n|).

    Raises CutoffError when the truncated trace would fall below 1 - tail_tol,
    and ValueError for a keyword the kind does not read that is not 0, a
    non-finite alpha or an nbar that is not finite and >= 0.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    if kind not in _KIND_KEYWORDS:
        raise ValueError(f"unknown state kind {kind!r}")
    for name, value in (("alpha", alpha), ("nbar", nbar), ("omega", omega), ("n", n)):
        if value != 0 and name not in _KIND_KEYWORDS[kind]:
            raise ValueError(f"a {kind} state takes no {name}, got {name}={value!r}")
    d = cutoff
    if kind in ("vacuum", "fock"):
        if not 0 <= n < d:
            raise CutoffError(f"|{n}> needs cutoff > {n}, got {d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[n, n] = 1.0
        return _readonly(rho)
    if kind in ("coherent", "thermal", "displaced_thermal"):
        check_displaced_thermal(alpha, nbar)
    if kind == "coherent":
        amps = np.zeros(d, dtype=complex)
        amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for m in range(1, d):
            amps[m] = amps[m - 1] * alpha / math.sqrt(m)
        norm = float(np.vdot(amps, amps).real)
        if norm < 1.0 - tail_tol:
            raise CutoffError(
                f"coherent |alpha|={abs(alpha):.4g} keeps only {norm:.12f} of its "
                f"weight below cutoff {d}"
            )
        return _readonly(np.outer(amps, amps.conj()))
    if kind == "thermal":
        if nbar == 0:
            return make_state("fock", d)
        q = nbar / (nbar + 1.0)
        if q**d > tail_tol:
            raise CutoffError(f"thermal nbar={nbar} has tail {q ** d:.3g} at cutoff {d}")
        probs = (1.0 - q) * q ** np.arange(d)
        return _readonly(np.diag(probs).astype(complex))
    if kind == "displaced_thermal":
        if nbar == 0:
            return make_state("coherent", d, alpha=alpha, tail_tol=tail_tol)
        work = 2 * d + 32
        thermal = make_state("thermal", work, nbar=nbar, tail_tol=1e-14)
        # D(alpha) = R D(|alpha|) R^dag with R = exp(i arg(alpha) a^dag a)
        rot = np.exp(1j * np.angle(alpha) * np.arange(work))
        disp = _expm_tridiagonal(abs(alpha) * np.sqrt(np.arange(1.0, work)))
        disp = rot[:, None] * disp * rot.conj()
        full = disp @ thermal @ disp.conj().T
        rho = full[:d, :d].copy()
        kept = float(np.trace(rho).real)
        if kept < 1.0 - tail_tol:
            raise CutoffError(
                f"displaced thermal (|alpha|={abs(alpha):.4g}, nbar={nbar}) keeps "
                f"only {kept:.12f} below cutoff {d}"
            )
        return _readonly(rho)
    # phase_diffused_tmsv
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
    return TwoModeDensityMatrix(_readonly(weights), _readonly(kets))


def _ensemble(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, kets as rows) with rho = sum_j w_j |k_j><k_j|.

    A diagonal rho keeps only its non-zero diagonal entries with basis kets;
    anything else is eigendecomposed, keeping every signed eigenvalue.
    """
    diag = np.diag(rho)
    if np.array_equal(rho, np.diag(diag)):
        nz = np.flatnonzero(diag)
        return diag[nz].real, np.eye(len(rho), dtype=complex)[nz]
    w, v = np.linalg.eigh(rho)
    return w, v.T


def tensor_product(a: np.ndarray, b: np.ndarray) -> TwoModeDensityMatrix:
    w_a, k_a = _ensemble(a)
    w_b, k_b = _ensemble(b)
    kets = np.einsum("ip,jr->ijpr", k_a, k_b).reshape(-1, len(a), len(b))
    weights = np.outer(w_a, w_b).reshape(-1)
    return TwoModeDensityMatrix(_readonly(weights), _readonly(kets))


def photon_distribution(state: np.ndarray) -> np.ndarray:
    """p_n = <n|rho|n>; non-negative up to roundoff, sums to the trace."""
    return np.diag(state).real.copy()


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
    return TwoModeDensityMatrix(state.weights, _readonly(kets))


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
    return ProcessOutcome(state=_readonly(out), probability=float(np.trace(out).real))


def trace_out_detector_mode(state: TwoModeDensityMatrix) -> np.ndarray:
    """Unconditional reduced state of mode A."""
    return _readonly(state._detector_blocks.sum(axis=0))


def normally_ordered_moment(state: np.ndarray, p: int, q: int) -> complex:
    """tr(rho a^dag^p a^q) on the truncated basis,
    sum_j rho[j+q, j+p] sqrt((j+p)! (j+q)!) / j!.

    Warns when the top p+q Fock levels contribute more than 1e-8 of the
    moment, i.e. when the truncation starts to bite.
    """
    if p < 0 or q < 0:
        raise ValueError("moment orders must be non-negative")
    d = len(state)
    band = np.diagonal(state, p - q)[min(p, q) :]
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
