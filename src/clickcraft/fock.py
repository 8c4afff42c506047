"""Truncated Fock-space oracle: states, mode unitaries, POVM conditioning.

Everything here is brute force on a finite photon-number basis |0..d-1> and
serves as the independent cross-check for the closed-form phase-space
pipeline.  A one-mode state is a read-only (d, d) complex array; a
conditioned one is unnormalized, its trace the probability of the
conditioning event.  A displaced thermal state is D(alpha) applied to
thermal weights on a 2d + 32-level work basis.  At nbar = 0, the coherent
state D(alpha)|0>, its amplitudes come from their ratios on that basis, each
to a few ulp of itself, in O(d).  Two-mode states are weighted ket ensembles,
rho = sum_j w_j |psi_j><psi_j|: n d^2 amplitudes for n kets rather than d^4
matrix entries.  Each optical element is one generator, coupling (p, r) to
(p+1, r+dr): dr = -1 for the beam splitter (total photon number conserved),
+1 for the two-mode squeezer (photon-number difference conserved).  So the
truncated generator splits into 2d - 1 chains, exponentiated one by one,
exactly.  Every chain is real, antisymmetric and tridiagonal, so its
exponential is real and comes from one real SVD of its half-size bidiagonal
coupling, O(d^3) per chain.  Only the columns at basis states the kets
populate are built and applied: O(n d c) per chain for c populated columns,
and c = 1 for every rho (x) |0> (a unitary maps zero to zero, so a chain the
kets leave empty costs nothing).  A unitary holds its input kets and its
output kets and nothing else ket-sized; the detector stage holds its kets
and one (d_B, d_A, d_A) block stack.  Normally ordered moments read one
offset diagonal of rho: O(d).

Truncation is never silent: state constructors fail when the requested cutoff
leaves more than ``tail_tol`` of probability outside the basis, and the
unitaries fail when the output accumulates more than ``tail_tol`` of weight on
the cutoff boundary.  A ``tail_tol`` that is NaN or negative is a ValueError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dsymbol import CutoffError, check_count
from .pfunc import check_displaced_thermal
from .povm import DetectorConfig, click_povm_element
from .processes import _KIND_KEYWORDS, DEFAULT_TAIL_TOL, BeamSplitterConfig, ProcessOutcome
from .processes import SqueezerConfig, geometric_weights

UNITARY_TAIL_TOL = 1e-8


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_tail_tol(tail_tol: float) -> None:
    """A tail tolerance is a number >= 0; NaN and a negative raise ``ValueError``."""
    if not tail_tol >= 0:
        raise ValueError(f"tail tolerance must be a number >= 0, got {tail_tol}")


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

    @cached_property
    def _detector_blocks(self) -> np.ndarray:
        """G[m, p, q] = <p, m| rho |q, m>, the B-diagonal blocks (dB, dA, dA).

        Each block is multiplied over the span of rows p the kets reach at m;
        outside it the block is exactly zero."""
        d_a, d_b = self.cutoffs
        x = self.kets.transpose(2, 1, 0)  # (dB, dA, n)
        blocks = np.zeros((d_b, d_a, d_a), dtype=complex)
        for m, reached in enumerate(x.any(axis=2)):
            rows = np.flatnonzero(reached)
            if rows.size:
                span = slice(rows[0], rows[-1] + 1)
                blocks[m, span, span] = (x[m, span] * self.weights) @ x[m, span].conj().T
        return _readonly(blocks)


# --- state constructors ------------------------------------------------------


def _expm_tridiagonal(s: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """exp(G)[:, cols] (every column by default) for the real antisymmetric
    tridiagonal G with G[i+1, i] = s[i] and G[i, i+1] = -s[i].

    G couples even indices to odd ones only, through the bidiagonal
    B = G[1::2, 0::2].  One real SVD B = U diag(sigma) V^T (Golub & Kahan)
    gives exp(G) as V cos V^T on the even indices, U cos U^T on the odd ones,
    U sin V^T from even to odd and -V sin U^T back; the null vectors of a
    non-square B take cos = 1.  Q holds V on the even rows and U on the odd
    ones, so exp(G)[:, cols] = Q M Q[cols]^T for the rotation M of sigma.
    """
    n = s.size + 1
    m = n // 2  # odd indices; the even ones number n - m >= m
    b = np.zeros((m, n - m))  # B[a, a] = s[2a], B[a, a+1] = -s[2a+1]
    np.fill_diagonal(b, s[0::2])
    np.fill_diagonal(b[:, 1:], -s[1::2])
    u, sigma, vt = np.linalg.svd(b)
    q = np.zeros((n, n))
    q[0::2, : n - m] = vt.T
    q[1::2, n - m :] = u
    x = q.T if cols is None else q[cols].T
    cos, sin = np.cos(sigma)[:, None], np.sin(sigma)[:, None]
    y = x.copy()
    y[:m] = cos * x[:m] - sin * x[n - m :]
    y[n - m :] = sin * x[:m] + cos * x[n - m :]
    return q @ y


def _displaced_thermal_kept(r: float, nbar: float, d: int) -> float:
    """The weight below cutoff d of the displaced thermal state at |alpha| = r
    and nbar >= 0, from its Glauber-Lachs photon distribution p(n) = nbar^n
    (1+nbar)^-(n+1) e^(-r^2/(1+nbar)) sum_k C(n, k) y^k / k!, y = r^2 /
    (nbar (1+nbar)), or at nbar = 0 the Poisson law e^(-r^2) r^(2n) / n!:
    positive terms, each summed from its logarithm, so no |alpha|^2 leaves
    the float range on the way to it.  Past the Poisson mode (d > r^2) the
    weight is 1 minus the falling tail over n >= d, summed until a term is
    below 2^-53 of the tail, so a weight near 1 keeps the tail's digits."""
    log_r2 = 2 * math.log(r or 1.0)
    if nbar == 0 and 0 < r * r < d:
        tail, n = 0.0, d
        while (term := math.exp(n * log_r2 - r * r - math.lgamma(n + 1.0))) > tail * 2**-53:
            tail, n = tail + term, n + 1
        return 1.0 - tail
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(d)])
    if nbar == 0:
        n = np.arange(d if r else 1)  # at alpha = 0 only n = 0 holds weight
        return float(np.exp(n * log_r2 - r * r - log_fact[n]).sum())
    n = np.arange(d)[:, None]
    k = np.arange(d if r else 1)  # at alpha = 0 only k = 0 holds weight
    log_nbar, log_1p = math.log(nbar), math.log1p(nbar)
    log_y = log_r2 - log_nbar - log_1p
    logs = (n * log_nbar - (n + 1) * log_1p - r * r / (1 + nbar)
            + log_fact[n] - 2 * log_fact[k] - log_fact[np.maximum(n - k, 0)] + k * log_y)
    return float(np.exp(logs[k <= n]).sum())


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
    omega, diagonal (1-omega) sum omega^n |n,n><n,n|).  A coherent state is
    the displaced thermal state at nbar = 0, the displaced vacuum, built in
    O(d) from its amplitude ratios; nbar > 0 takes one real SVD of the
    2d + 32-level work basis, O(d^3).

    Raises CutoffError when the truncated trace would fall below 1 - tail_tol,
    and ValueError for a keyword the kind does not read that is not 0, an n
    not an integer >= 0, an alpha not finite or an nbar not finite and >= 0.
    """
    check_count(cutoff, "cutoff")
    _check_tail_tol(tail_tol)
    if kind not in _KIND_KEYWORDS:
        raise ValueError(f"unknown state kind {kind!r}")
    for name, value in (("alpha", alpha), ("nbar", nbar), ("omega", omega), ("n", n)):
        if value != 0 and name not in _KIND_KEYWORDS[kind]:
            raise ValueError(f"a {kind} state takes no {name}, got {name}={value!r}")
    d = cutoff
    if kind in ("vacuum", "fock"):
        check_count(n, "photon number n", 0)
        if n >= d:
            raise CutoffError(f"|{n}> needs cutoff > {n}, got {d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[n, n] = 1.0
        return _readonly(rho)
    if kind == "phase_diffused_tmsv":
        if not 0.0 < omega < 1.0:
            raise ValueError(f"pair weight must satisfy 0 < omega < 1, got {omega}")
        weights = geometric_weights(omega, d, tail_tol, f"phase-diffused pair state omega={omega}")
        kets = np.zeros((d, d, d), dtype=complex)
        m = np.arange(d)
        kets[m, m, m] = 1.0
        return TwoModeDensityMatrix(_readonly(weights), _readonly(kets))
    check_displaced_thermal(alpha, nbar)
    # + 0.0 makes nbar = -0.0 a q of +0.0, whose weights are the vacuum's bits
    q = nbar / (nbar + 1.0) + 0.0
    if kind == "thermal":
        probs = geometric_weights(q, d, tail_tol, f"thermal nbar={nbar}")
        return _readonly(np.diag(probs).astype(complex))
    r, work = abs(alpha), 2 * d + 32
    name, weight = ((f"coherent |alpha|={r:.4g}", " of its weight") if nbar == 0 else
                    (f"displaced thermal (|alpha|={r:.4g}, nbar={nbar})", ""))
    # the work basis keeps its own 1e-14 guard, whatever tail_tol is
    probs = geometric_weights(q, work, 1e-14, f"{name} at cutoff {d} in its {work}-level work basis")
    kept = _displaced_thermal_kept(r, nbar, d)
    if kept < 1.0 - tail_tol:
        raise CutoffError(f"{name} keeps only {kept:.12g}{weight} below cutoff {d}")
    # D(alpha) = R D(|alpha|) R^dag with R = exp(i arg(alpha) a^dag a)
    rot = np.exp(1j * np.angle(alpha) * np.arange(d))
    if nbar == 0:
        # |<n|alpha>| outward from the largest, at n = m, by the ratios r/sqrt(n),
        # then normalized on the work basis: each amplitude keeps its relative
        # digits, and neither e^(-r^2/2) nor e^(r^2/2) is ever formed
        m, s = int(min(r * r, work - 1)), np.sqrt(np.arange(1.0, work))
        amps = np.concatenate((np.cumprod(s[:m][::-1] / r)[::-1], [1.0], np.cumprod(r / s[m:])))
        amps = rot * amps[:d] / np.linalg.norm(amps)
        return _readonly(np.outer(amps, amps.conj()))
    # D(|alpha|) is real; its kept rows are the first columns of D(|alpha|)^T
    # = D(-|alpha|)
    disp = _expm_tridiagonal(-r * np.sqrt(np.arange(1.0, work)), np.arange(d)).T
    return _readonly(rot[:, None] * ((disp * probs) @ disp.T) * rot.conj())


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
    kets = np.einsum("ip,jr->ijpr", k_a, k_b, order="C").reshape(-1, len(a), len(b))
    weights = np.outer(w_a, w_b).reshape(-1)
    return TwoModeDensityMatrix(_readonly(weights), _readonly(kets))


def photon_distribution(state: np.ndarray) -> np.ndarray:
    """p_n = <n|rho|n>; non-negative up to roundoff, sums to the trace."""
    return np.diag(state).real.copy()


# --- mode unitaries via chain exponentiation of the truncated generator ------


def _apply_chains(
    state: TwoModeDensityMatrix, dr: int, g: float, tail_tol: float, what: str
) -> TwoModeDensityMatrix:
    """|psi_j> -> exp(G) |psi_j> for the real antisymmetric G that couples
    (p, r) to (p+1, r+dr) with amplitude g sqrt((p+1) max(r, r+dr)).

    G conserves r - dr p, so it splits into 2d - 1 tridiagonal chains.  Only
    the columns of a chain's exponential at basis states the kets populate are
    built, so a chain the kets leave empty costs nothing.
    """
    _check_tail_tol(tail_tol)
    if state.cutoffs[0] != state.cutoffs[1]:
        raise ValueError(f"cutoffs must match, got {state.cutoffs}")
    if g == 0.0:
        return state
    d = state.cutoffs[0]
    flat = np.array(state.kets, order="C").reshape(-1, d * d)  # the one output copy
    populated = flat.any(axis=0)
    p = np.arange(d)
    first = min(0, -dr * (d - 1))  # the least chain label r - dr p
    for label in range(first, first + 2 * d - 1):
        r = label + dr * p
        idx = (p * d + r)[(r >= 0) & (r < d)]
        cols = np.flatnonzero(populated[idx])
        if cols.size:
            ps, rs = np.divmod(idx[:-1], d)
            s = g * np.sqrt((ps + 1) * np.maximum(rs, rs + dr))
            flat[:, idx] = flat[:, idx[cols]] @ _expm_tridiagonal(s, cols).T

    f = flat.view(float)  # real and imaginary parts side by side, not copied
    diag = np.einsum("j,jx,jx->x", state.weights, f, f).reshape(d, d, 2).sum(axis=2)
    boundary = float(diag[-1, :].sum() + diag[:, -1].sum() - diag[-1, -1])
    total = float(diag.sum())
    if total > 0 and boundary > tail_tol * total:
        raise CutoffError(
            f"{what}: boundary occupancy {boundary / total:.3g} exceeds the tail "
            f"tolerance {tail_tol}; increase the cutoff"
        )
    return TwoModeDensityMatrix(state.weights, _readonly(flat.reshape(-1, d, d)))


def apply_beam_splitter(
    state: TwoModeDensityMatrix,
    bs: BeamSplitterConfig,
    tail_tol: float = UNITARY_TAIL_TOL,
) -> TwoModeDensityMatrix:
    """Mix the two modes on a beam splitter; |alpha, 0> maps to |t alpha, r alpha>.

    Built as exp(theta (a b^dag - a^dag b)) with t = cos(theta), exponentiated
    chain by chain over the conserved total photon number.
    """
    return _apply_chains(state, -1, -math.acos(bs.t), tail_tol, "beam splitter")


def apply_two_mode_squeezer(
    state: TwoModeDensityMatrix,
    sq: SqueezerConfig,
    tail_tol: float = UNITARY_TAIL_TOL,
) -> TwoModeDensityMatrix:
    """Two-mode squeezing exp(xi (a^dag b^dag - a b)), exponentiated chain by
    chain over the conserved photon-number difference.

    Vacuum input acquires weights (1/mu^2) (nu/mu)^(2m) on |m, m>; mode
    amplitudes transform with gain mu = cosh(xi).
    """
    return _apply_chains(state, 1, sq.xi, tail_tol, "two-mode squeezer")


# --- conditioning and moments ------------------------------------------------


def condition_on_clicks(
    state: TwoModeDensityMatrix, det: DetectorConfig, k: int
) -> ProcessOutcome:
    """Condition mode B on a k-click event of the detector system.

    Returns the unnormalized mode-A state sum_m D[k, m] <m|_B rho |m>_B whose
    trace is the probability of seeing k clicks.
    """
    weights = click_povm_element(det, k, state.cutoffs[1])  # checks 0 <= k <= N
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
    check_count(p, "moment order p", 0)
    check_count(q, "moment order q", 0)
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
