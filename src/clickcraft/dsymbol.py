"""Combinatorial click kernel D[k, m] for multiplexed on-off detector systems.

The kernel gives the weight with which an m-photon Fock component contributes
to a k-click event of a system of N on-off diodes.  For parameters (tau, sigma)
it is defined by the alternating binomial sum

    D[k, m] = C(N, k) * sum_{j=0..k} C(k, j) (-1)^(k-j) (tau + sigma*j/N)^m

and satisfies the two-term recursion

    D[k, m] = (tau + sigma*k/N) * D[k, m-1]
              + sigma*(N-k+1)/N * D[k-1, m-1]

with D[0, 0] = 1, D[k, 0] = 0 for k > 0 and D[0, m] = tau^m.  In the detector
regime tau = 1 - eta, sigma = eta the rows are conditional click probabilities
and sum to one over k.

The direct sum cancels catastrophically (for k = m the result is smaller than
the largest term by a factor of roughly k! * (sigma / (N*tau + sigma*k))^k),
so three routes are provided:

* ``d_recursive`` -- default path; double precision with compensated
  (error-tracked) accumulation.  Forward stable in the probability regime
  where all mixing coefficients are non-negative.  Tables are filled row by
  row in Python floats, at about 1 us per cell.
* ``d_direct`` -- the alternating sum, evaluated with error-free transforms
  (double-double powers, exact splitting of the integer coefficients) and an
  exact final summation.  Test/cross-check path.
* ``d_exact`` -- big-integer rational evaluation.  Validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


class NumericalError(ValueError):
    """A computed result is not trustworthy (e.g. a probability driven below
    zero by cancellation); the inputs themselves were valid."""


class CutoffError(NumericalError):
    """The requested truncation cannot represent the state to the tail tolerance."""


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float) -> tuple[float, float]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    s, t = _two_sum(p, e)
    return s, t


def _dd_pow(xh: float, xl: float, n: int) -> tuple[float, float]:
    rh, rl = 1.0, 0.0
    bh, bl = xh, xl
    while n > 0:
        if n & 1:
            rh, rl = _dd_mul(rh, rl, bh, bl)
        n >>= 1
        if n:
            bh, bl = _dd_mul(bh, bl, bh, bl)
    return rh, rl


def _dd_base(tau: float, sigma: float, j: int, n_diodes: int) -> tuple[float, float]:
    """tau + sigma*j/N as a double-double, tracking the division remainder."""
    qh = j / n_diodes
    p, e = _two_prod(qh, float(n_diodes))
    ql = ((j - p) - e) / n_diodes
    # sigma * (qh, ql)
    sh, se = _two_prod(sigma, qh)
    se += sigma * ql
    # + tau
    hi, lo = _two_sum(tau, sh)
    lo += se
    return _two_sum(hi, lo)


@dataclass(frozen=True)
class DSymbolParams:
    """Kernel parameters: N on-off diodes and the exponential weights (tau, sigma)."""

    N: int
    tau: float
    sigma: float

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"need at least one diode, got N={self.N}")
        if not (math.isfinite(self.tau) and math.isfinite(self.sigma)):
            raise ValueError("tau and sigma must be finite")

    @classmethod
    def for_detector(cls, n_diodes: int, eta: float) -> "DSymbolParams":
        """Probability-regime parameters tau = 1 - eta, sigma = eta."""
        return cls(n_diodes, 1.0 - eta, eta)


@dataclass(frozen=True)
class DSymbolTable:
    """Immutable dense table of D[k, m], 0 <= k <= kmax, 0 <= m <= mmax."""

    values: np.ndarray  # shape (kmax+1, mmax+1), read-only

    @property
    def kmax(self) -> int:
        return self.values.shape[0] - 1

    @property
    def mmax(self) -> int:
        return self.values.shape[1] - 1

    def value(self, k: int, m: int) -> float:
        if not (0 <= k <= self.kmax and 0 <= m <= self.mmax):
            raise IndexError(f"(k={k}, m={m}) outside table bounds")
        return float(self.values[k, m])

    def row(self, k: int) -> np.ndarray:
        """Weights D[k, 0..mmax] for a fixed click number k."""
        return self.values[k]


def _check_indices(params: DSymbolParams, k: int, m: int) -> None:
    if k < 0 or m < 0:
        raise ValueError(f"indices must be non-negative, got k={k}, m={m}")
    if k > params.N:
        raise ValueError(f"k={k} exceeds the number of diodes N={params.N}")


def d_direct(params: DSymbolParams, k: int, m: int) -> float:
    """Evaluate D[k, m] by the alternating binomial sum.

    Powers are computed in double-double arithmetic and the integer binomial
    coefficients are split exactly, so the summation itself introduces no
    error beyond the final rounding; this keeps the heavy cancellation of the
    alternating sum under control.
    """
    _check_indices(params, k, m)
    pieces: list[float] = []
    cnk = math.comb(params.N, k)
    for j in range(k + 1):
        coeff = cnk * math.comb(k, j)
        if (k - j) & 1:
            coeff = -coeff
        bh, bl = _dd_base(params.tau, params.sigma, j, params.N)
        ph, pl = _dd_pow(bh, bl, m)
        ch = float(coeff)
        cl = float(coeff - int(ch))
        for c in (ch, cl):
            if c == 0.0:
                continue
            p, e = _two_prod(c, ph)
            pieces.append(p)
            pieces.append(e)
            pieces.append(c * pl)
    return math.fsum(pieces)


def d_exact(
    n_diodes: int,
    tau: Fraction | int | str | float,
    sigma: Fraction | int | str | float,
    k: int,
    m: int,
) -> Fraction:
    """Exact rational evaluation of the direct sum.

    ``tau`` and ``sigma`` are taken as exact rationals; floats are converted
    via their exact binary value, which is what the floating-point routes
    actually operate on.
    """
    params = DSymbolParams(n_diodes, float(Fraction(tau)), float(Fraction(sigma)))
    _check_indices(params, k, m)
    tau_q = Fraction(tau)
    sigma_q = Fraction(sigma)
    total = Fraction(0)
    cnk = math.comb(n_diodes, k)
    for j in range(k + 1):
        base = tau_q + sigma_q * j / n_diodes
        term = cnk * math.comb(k, j) * base**m
        total += -term if (k - j) & 1 else term
    return total


def d_recursive(params: DSymbolParams, kmax: int, mmax: int) -> DSymbolTable:
    """Fill a (kmax+1) x (mmax+1) table of D[k, m] by the two-term recursion.

    Each cell is accumulated with error tracking: the two products carry
    their rounding remainders (Dekker's exact product), which are folded back
    before the next step.  The table is filled row by row in Python floats,
    at about 1 us per cell.

    A table that leaves the float range (large |tau| or sigma) raises
    ``NumericalError``; in the detector regime tau + sigma = 1 it cannot.
    """
    if kmax < 0 or mmax < 0:
        raise ValueError("table bounds must be non-negative")
    if kmax > params.N:
        raise ValueError(f"kmax={kmax} exceeds the number of diodes N={params.N}")

    n = params.N
    karr = np.arange(1, kmax + 1, dtype=float)
    ca = params.tau + params.sigma * karr / n
    cb = params.sigma * (n - karr + 1.0) / n
    with np.errstate(over="ignore", invalid="ignore"):
        row0 = np.ones(mmax + 1)
        row0[1:] = params.tau ** np.arange(1, mmax + 1)
        values = _fill_scalar(row0, ca, cb)
    if not np.isfinite(values).all():
        raise NumericalError(f"kernel table of {params} overflows the float range")
    values.flags.writeable = False
    return DSymbolTable(values)


def _fill_scalar(row0: np.ndarray, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Rows D[1..kmax, :] one after another, each cell in Python floats.

    Row k reads row k-1 as two lists, hi and lo; the cell D[k, m-1] that
    meets ca[k] is carried in locals.
    """
    values = np.empty((ca.size + 1, row0.size))
    values[0] = row0 + 0.0  # hi + lo with lo = 0, as the other rows
    hi, lo = row0.tolist(), [0.0] * row0.size
    for a, b, out in zip(ca.tolist(), cb.tolist(), values[1:]):
        ah = _SPLIT * a
        ah -= ah - a
        al = a - ah
        bh = _SPLIT * b
        bh -= bh - b
        bl = b - bh
        h = l = 0.0
        row_hi, row_lo = [h], [l]
        for ph, pl in zip(hi, lo[:-1]):
            # a * (h, l) and b * (ph, pl), each with Dekker's error of the hi part
            t1h = a * h
            c = _SPLIT * h
            xh = c - (c - h)
            xl = h - xh
            t1e = ((((ah * xh - t1h) + ah * xl) + al * xh) + al * xl) + a * l
            t2h = b * ph
            c = _SPLIT * ph
            xh = c - (c - ph)
            xl = ph - xh
            t2e = ((((bh * xh - t2h) + bh * xl) + bl * xh) + bl * xl) + b * pl
            # two-sum t1h + t2h, every remainder folded into err
            sh = t1h + t2h
            bb = sh - t1h
            err = (((t1h - (sh - bb)) + (t2h - bb)) + t1e) + t2e
            # two-sum sh + err is the cell
            h = sh + err
            bb = h - sh
            l = (sh - (h - bb)) + (err - bb)
            row_hi.append(h)
            row_lo.append(l)
        hi, lo = row_hi, row_lo
        out[:] = hi
        out += lo
    return values
