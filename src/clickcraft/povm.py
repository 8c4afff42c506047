"""Click-counting POVM elements and statistics for N-diode detector systems.

A light field split equally onto N on-off diodes with quantum efficiency eta
produces k in {0..N} simultaneous clicks.  All POVM elements are diagonal in
the Fock basis, so an element is its read-only weight vector over m; the
weights are the click kernel in the detector regime,

    Pi_k = sum_m D[k, m](tau=1-eta, sigma=eta) |m><m| ,

and sum to the identity.  The photoelectric (Poissonian) counting POVM

    P_k = sum_{m>=k} C(m, k) eta^k (1-eta)^(m-k) |m><m|

is the infinite-N limit; ``operator_norm_distance`` bounds the deviation
|tr(rho Pi_k) - tr(rho P_k)| <= ||P_k - Pi_k||_op for any state (both elements
are diagonal in a common basis, so the operator norm is a sup over m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsymbol import DSymbolParams, DSymbolTable, check_clicks, check_count, d_recursive

NORM_CUTOFF = 512  # the Fock cutoff of ``operator_norm_distance`` when none is given


def check_efficiency(eta: float) -> None:
    """A quantum efficiency lies in [0, 1]; NaN and anything outside raise ``ValueError``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"quantum efficiency must lie in [0, 1], got {eta}")


@dataclass(frozen=True)
class DetectorConfig:
    """One click-detector system: N on-off diodes of quantum efficiency eta."""

    N: int
    eta: float

    def __post_init__(self) -> None:
        check_count(self.N, "the diode count N")
        check_efficiency(self.eta)


@dataclass(frozen=True)
class ClickDistribution:
    """Probabilities of k = 0..N clicks, entries in [0, 1]; they sum to the
    input photon distribution's total, one for a complete distribution."""

    probs: np.ndarray


def click_kernel_table(det: DetectorConfig, kmax: int, mmax: int) -> DSymbolTable:
    """Kernel table in the detector regime tau = 1 - eta, sigma = eta."""
    return d_recursive(DSymbolParams(det.N, 1.0 - det.eta, det.eta), kmax, mmax)


@lru_cache(maxsize=16)
def _full_kernel_table(det: DetectorConfig, cutoff: int) -> DSymbolTable:
    """All N+1 kernel rows on |0..cutoff-1>, shared by every element of ``det``.

    Row k of the recursion depends only on rows 0..k, so it is bit-identical
    to the row of a table built with kmax = k.
    """
    return click_kernel_table(det, det.N, cutoff - 1)


def click_povm_element(det: DetectorConfig, k: int, cutoff: int) -> np.ndarray:
    """Diagonal weights of Pi_k on the truncated Fock basis |0..cutoff-1>:
    a read-only row of the cached kernel table, not a copy."""
    check_clicks(k, det.N)
    check_count(cutoff, "cutoff")
    return _full_kernel_table(det, cutoff).values[k]


def click_statistics(photon_dist: np.ndarray, det: DetectorConfig) -> ClickDistribution:
    """Click-counting distribution c_k = sum_m D[k, m] p_m of a photon distribution.

    No table: column m of D is A^m e_0 for the recursion's bidiagonal step A
    (diagonal 1 - eta + eta k/N, subdiagonal eta (N-k+1)/N), so Horner's rule
    c <- A c + p_m e_0, m = M-1 down to 0, sums it.  A is non-negative with
    unit column sums, so nothing cancels: each c_k has a relative error of at
    most about (2M + N) 2**-53, and is exactly 0 above the last nonzero p_m.
    """
    p = np.asarray(photon_dist, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("photon distribution must be a non-empty vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("photon distribution has non-finite entries")
    if np.any(p < 0):
        raise ValueError("photon distribution has negative entries")
    if p.sum() > 1.0 + 1e-10:
        raise ValueError(f"photon distribution sums to {p.sum()} > 1")
    n, eta = det.N, det.eta
    k = np.arange(n + 1, dtype=float)
    diag, sub = (1.0 - eta) + eta * k / n, eta * (n - k[1:] + 1.0) / n
    probs, carried = np.zeros(n + 1), np.empty(n)
    for pm in p[::-1].tolist():
        np.multiply(sub, probs[:-1], out=carried)
        probs *= diag
        probs[1:] += carried
        probs[0] += pm
    probs.flags.writeable = False
    return ClickDistribution(probs)


def _comb_weight(n: int, k: int, a: float, b: float, q: int, log_b: float | None = None) -> float:
    """C(n, k) * a**k * b**q for a >= 0, b > 0; b**q = exp(q log_b) given ``log_b``.

    The plain float product wherever C(n, k) and a**k fit in a float; beyond
    that range it is taken from logarithms, and a result beyond the float
    range is +inf.
    """
    c = math.comb(n, k)
    try:
        return c * a**k * (b**q if log_b is None else math.exp(q * log_b))
    except OverflowError:
        if a == 0.0:  # k >= 1, since C(n, k) overflowed
            return 0.0
        log_w = math.log(c) + k * math.log(a) + q * (math.log(b) if log_b is None else log_b)
        return math.exp(log_w) if log_w < 709.0 else math.inf


def _photoelectric_weight(m: int, k: int, eta: float) -> float:
    """C(m, k) eta^k (1-eta)^(m-k) for 0 <= eta < 1.  Rounding 1 - eta to a
    float (off by up to 2**-54) costs the weights near m = k/eta a relative
    error of about k 2**-54 / eta; below eta = 2**-17, where that passes
    k 2**-37, the last factor comes from log1p(-eta)."""
    log_b = math.log1p(-eta) if 0.0 < eta < 2.0**-17 else None
    return _comb_weight(m, k, eta, 1.0 - eta, m - k, log_b)


def photoelectric_element(eta: float, k: int, cutoff: int) -> np.ndarray:
    """Read-only diagonal weights C(m,k) eta^k (1-eta)^(m-k), m = 0..cutoff-1,
    of the Poissonian counting element P_k.

    At eta = 1 this is the k-photon projector.  Defined for every k >= 0;
    only k <= N has a click-counting counterpart.
    """
    check_clicks(k, math.inf)
    check_efficiency(eta)
    check_count(cutoff, "cutoff")
    weights = np.zeros(cutoff)
    if eta == 1.0:
        weights[k : k + 1] = 1.0
    else:
        weights[k:] = [_photoelectric_weight(m, k, eta) for m in range(k, cutoff)]
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class OperatorNormDistance:
    """sup_m |P_k[m] - Pi_k[m]| with an explicit certificate for m >= cutoff.

    ``value`` = max(grid_sup, tail_bound); the tail bound is analytic (both
    weight sequences decay geometrically past the scanned range), so the sup
    is never silently truncated.
    """

    grid_sup: float
    tail_bound: float

    @property
    def value(self) -> float:
        return max(self.grid_sup, self.tail_bound)


def _photoelectric_tail_sup(eta: float, k: int, start: int) -> float:
    """sup_{m >= start} C(m,k) eta^k (1-eta)^(m-k), exact.

    The sequence rises up to its mode floor(k/eta) and decreases after it,
    so the sup is the largest float weight on start..top, top = ceil(k/eta)
    (or start + 1 past the mode).  Only the end of that range can hold it.
    ``_comb_weight`` is off by a relative error of at most
    2**-50 (2 + k (2 log top + 1)): a few ulps of its float products, or,
    past the float range, the error of its logarithms.  Two weights can
    tie only if their logs differ by less than tol, twice that.  The log
    weight is concave with curvature at least 1/var below top,
    var = top (top - k) / k ~ k (1 - eta) / eta**2, so a weight more than
    sqrt(2 tol var) + 2 below the mode cannot tie and is not evaluated.
    The window is capped at 2**16 weights, reached from eta of about 1e-10
    to 1e-11 at k <= 5; past that the result is the mode's weight or one
    within tol of it.
    """
    if eta == 1.0:
        return 1.0 if start <= k else 0.0
    top = max(start, math.ceil(k / eta) - 1) + 1
    tol = 2.0**-50 * (4 + 2 * k * (2 * math.log(top) + 1))
    half_width = math.ceil(min(math.sqrt(2 * tol * (top / k) * (top - k)), 2.0**16)) + 2
    lo = max(start, top - 1 - half_width)
    return max(_photoelectric_weight(m, k, eta) for m in range(lo, top + 1))


def operator_norm_distance(det: DetectorConfig, k: int, cutoff: int = NORM_CUTOFF) -> OperatorNormDistance:
    """Operator-norm distance between the click element Pi_k and the
    photoelectric element P_k of the same (eta, k).

    Vanishes for k = 0 (the elements coincide) and decreases with the number
    of diodes: Pi_k approaches P_k as N grows.
    """
    check_clicks(k, det.N)
    check_count(cutoff, "cutoff")
    if k == 0 or det.eta == 0.0:
        # k = 0: both elements are (1-eta)^m exactly.  eta = 0, k >= 1: both vanish.
        return OperatorNormDistance(0.0, 0.0)

    pe = photoelectric_element(det.eta, k, cutoff)
    # row k of the recursion needs rows 0..k only
    click = click_kernel_table(det, k, cutoff - 1).values[k]
    grid_sup = float(np.max(np.abs(pe - click)))

    # tail: both sequences are non-negative, so |P - Pi| <= max of their sups
    pe_tail = _photoelectric_tail_sup(det.eta, k, cutoff)
    base = 1.0 - det.eta * (1.0 - k / det.N)  # dominant geometric base of D[k, m]
    click_tail = min(1.0, _comb_weight(det.N, k, 2.0, base, cutoff))
    tail_bound = max(pe_tail, click_tail)
    return OperatorNormDistance(grid_sup, tail_bound)
