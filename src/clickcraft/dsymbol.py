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
so the production route is the recursion:

* ``d_recursive`` -- double precision with compensated (error-tracked)
  accumulation.  Forward stable in the probability regime where all mixing
  coefficients are non-negative.  Tables are filled row by row in Python
  floats, at about 1 us per cell.

The direct sum itself, in error-free transforms (``d_direct``) and in exact
rationals (``d_exact``), lives in ``clickcraft.validation`` as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


class NumericalError(ValueError):
    """A computed result is not trustworthy (e.g. a probability driven below
    zero by cancellation); the inputs themselves were valid."""


class CutoffError(NumericalError):
    """The requested truncation cannot represent the state to the tail tolerance."""


def check_count(value, what: str, least: int = 1) -> None:
    """A count (of diodes, of grid cells, of photons) is an int or a numpy
    integer >= ``least``; a bool, a float or anything else raises
    ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def check_clicks(k, n) -> None:
    """A click number of n diodes is an int or a numpy integer in 0..n."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= n:
        raise ValueError(f"click number k={k!r} outside 0..{n}")


@dataclass(frozen=True)
class DSymbolParams:
    """Kernel parameters: N on-off diodes and the exponential weights (tau, sigma)."""

    N: int
    tau: float
    sigma: float

    def __post_init__(self) -> None:
        check_count(self.N, "the diode count N")
        if not (math.isfinite(self.tau) and math.isfinite(self.sigma)):
            raise ValueError("tau and sigma must be finite")


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


def d_recursive(params: DSymbolParams, kmax: int, mmax: int) -> DSymbolTable:
    """Fill a (kmax+1) x (mmax+1) table of D[k, m] by the two-term recursion.

    Each cell is accumulated with error tracking: the two products carry
    their rounding remainders (Dekker's exact product), which are folded back
    before the next step.  The table is filled row by row in Python floats,
    at about 1 us per cell.

    A table that leaves the float range (large |tau| or sigma) raises
    ``NumericalError``; in the detector regime tau + sigma = 1 it cannot.
    """
    check_clicks(kmax, params.N)
    check_count(mmax, "mmax", 0)

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
