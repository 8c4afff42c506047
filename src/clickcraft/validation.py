"""Validation routes: the paper-style cross-checks of the production path.

Nothing in the package imports this module; the tests do, as
``from clickcraft.validation import ...``.

* ``d_direct`` -- the click kernel D[k, m] by its alternating binomial sum,
  evaluated with error-free transforms (double-double powers, exact splitting
  of the integer coefficients) and an exact final summation.  Cross-check of
  ``dsymbol.d_recursive``.
* ``d_exact`` -- the same sum in big-integer rationals.  Exact reference.
* ``amplify_closed_form`` -- the (k1, k2)-click amplifier output for a
  coherent input, built coefficient by coefficient.  Cross-check of
  ``processes.amplify``.
* ``probability_subtraction_displaced_thermal`` and
  ``probability_addition_displaced_thermal`` -- the alternating closed forms
  of the click probabilities for displaced thermal inputs.  Cross-checks of
  ``processes.subtract`` and ``processes.add``.

The truncated-Fock oracle (``clickcraft.fock``) is the remaining
cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dsymbol import _SPLIT, DSymbolParams, NumericalError, check_clicks, check_count
from .pfunc import PhaseSpaceMixture, check_displaced_thermal
from .processes import AdditionSpec, AmplifySpec, SubtractionSpec


# ---------------------------------------------------------------------------
# the click kernel by its alternating sum
# ---------------------------------------------------------------------------


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
    return _two_sum(p, e)


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


def d_direct(params: DSymbolParams, k: int, m: int) -> float:
    """Evaluate D[k, m] by the alternating binomial sum.

    Powers are computed in double-double arithmetic and the integer binomial
    coefficients are split exactly, so the summation itself introduces no
    error beyond the final rounding; this keeps the heavy cancellation of the
    alternating sum under control.
    """
    check_clicks(k, params.N)
    check_count(m, "photon number m", 0)
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
    check_clicks(k, params.N)
    check_count(m, "photon number m", 0)
    tau_q = Fraction(tau)
    sigma_q = Fraction(sigma)
    total = Fraction(0)
    cnk = math.comb(n_diodes, k)
    for j in range(k + 1):
        base = tau_q + sigma_q * j / n_diodes
        term = cnk * math.comb(k, j) * base**m
        total += -term if (k - j) & 1 else term
    return total


# ---------------------------------------------------------------------------
# the amplifier's closed form (coherent input)
# ---------------------------------------------------------------------------


def amplify_closed_form(beta: complex, spec: AmplifySpec) -> PhaseSpaceMixture:
    """Direct coefficient construction of the (k1, k2) output for a coherent
    input; validation channel for ``amplify`` (the two agree identically).

    Each (j1, j2) term of the double binomial expansion is the Gaussian
    (f / pi) exp(-l2 |alpha|^2 + 2 l1 Re(alpha conj(beta)) - l0 |beta|^2)
    completed to center (l1 / l2) beta.  eta1 = 1 is a ValueError, as in ``add``.

    The signed terms cancel, so floats hold it only for small N.  With the
    table1 optics (mu = 1.5, t = 2/3, eta = 0.5, beta = sqrt(2)) and
    N1 = N2 = N, the worst (k1, k2) probability is off by 1.5e-12 relative
    (against 50-digit arithmetic) at N = 4, 4.3e-7 at N = 8 and 28% at
    N = 12; the probabilities sum to 1 - 3.3e-11 at N = 8, 1 + 8.6e-4 at
    N = 16 and 0.40 at N = 20.
    """
    beta = complex(beta)
    mu, nu = spec.add.sq.mu, spec.add.sq.nu
    t, r = spec.sub.bs.t, spec.sub.bs.r
    n1, eta1, k1 = spec.add.det.N, spec.add.det.eta, spec.add.k
    n2, eta2, k2 = spec.sub.det.N, spec.sub.det.eta, spec.sub.k
    if eta1 == 1.0:  # den = 0 at j1 = 0
        raise ValueError("eta = 1 turns the delta term of a coherent input into zero-width terms")
    cs, zs, widths = [], [], []
    try:
        b2 = abs(beta) ** 2
        for j1 in range(k1 + 1):
            den = nu**2 * (1.0 - eta1 * (1.0 - j1 / n1))
            lam1 = mu / (t * den)
            lam0 = 1.0 + 1.0 / den
            for j2 in range(k2 + 1):
                f = (
                    math.comb(n1, k1)
                    * math.comb(n2, k2)
                    * math.comb(k1, j1)
                    * math.comb(k2, j2)
                    * (-1 if (k1 - j1 + k2 - j2) & 1 else 1)
                    / (t**2 * den)
                )
                lam2 = (1.0 + eta1 * nu**2 * (1.0 - j1 / n1)) / (t**2 * den) + (
                    eta2 * r**2 * (1.0 - j2 / n2) / t**2
                )
                cs.append((f / math.pi) * math.exp((lam1**2 / lam2 - lam0) * b2))
                zs.append((lam1 / lam2) * beta)
                widths.append(lam2)
    except OverflowError as exc:  # |beta|^2, a binomial coefficient or an exponential
        raise NumericalError(f"the ({k1}, {k2})-click closed form leaves the float range") from exc
    return PhaseSpaceMixture.from_fields(cs, zs, widths)


# ---------------------------------------------------------------------------
# closed-form probabilities (displaced thermal inputs)
# ---------------------------------------------------------------------------


def _gamma_sum(alpha0: complex, nbar: float, scale: float, n_diodes: int, k: int) -> float:
    """The alternating sum of both closed forms, with lam_j = scale (1 - j/N),
    gamma_j = 1 + lam_j nbar and exponent lam_j |alpha0|^2 / gamma_j."""
    lam = scale * (1.0 - np.arange(k + 1) / n_diodes)
    gammas = 1.0 + lam * nbar
    try:
        exponents = lam * abs(alpha0) ** 2 / gammas
        return math.fsum([
            math.comb(n_diodes, k)
            * math.comb(k, j)
            * (-1 if (k - j) & 1 else 1)
            * math.exp(-exponents[j])
            / gammas[j]
            for j in range(k + 1)
        ])
    except OverflowError as exc:  # |alpha0|^2 or a binomial coefficient past the float range
        raise NumericalError(f"the {k}-click closed form of N={n_diodes} leaves the float range") from exc


def probability_subtraction_displaced_thermal(
    alpha0: complex, nbar: float, spec: SubtractionSpec
) -> float:
    """Probability of k clicks when subtracting from a displaced thermal state.

    Closed form with gamma_j = 1 + eta r^2 nbar (1 - j/N); the exponent is
    written as eta r^2 (1 - j/N) |alpha0|^2 / gamma_j, which carries the
    nbar -> 0 (coherent input) limit without any 0/0.

    The alternating sum cancels, so floats hold it only for small N.  At
    alpha0 = 0.8+0.3i, nbar = 2, t = 0.7, eta = 0.8 the worst k is off by
    1.1e-10 relative (against 50-digit arithmetic) at N = 8, 2.3e-8 at N = 12
    and 7.3e-4 at N = 16; the sum over k is 1 + 4.0e-11 at N = 16, 1.011 at
    N = 32 and -7.6e12 at N = 64.
    """
    check_displaced_thermal(alpha0, nbar)
    return _gamma_sum(alpha0, nbar, spec.det.eta * spec.bs.r**2, spec.det.N, spec.k)


def probability_addition_displaced_thermal(
    alpha0: complex, nbar: float, spec: AdditionSpec
) -> float:
    """Probability of k clicks when adding onto a displaced thermal state.

    gamma_j = 1 + eta nu^2 (nbar + 1) (1 - j/N); the exponent
    eta nu^2 (1 - j/N) |alpha0|^2 / gamma_j is regular for every nbar >= 0.

    The alternating sum cancels, so floats hold it only for small N.  At
    alpha0 = 0.8+0.3i, nbar = 2, mu = 1.4, eta = 0.8 the worst k is off by
    1.1e-10 relative (against 50-digit arithmetic) at N = 12, 7.0e-8 at
    N = 16 and 2.4e-2 at N = 24; the sum over k is 1 + 2.9e-10 at N = 16,
    1.0023 at N = 32 and 1.7e12 at N = 64.
    """
    check_displaced_thermal(alpha0, nbar)
    return _gamma_sum(alpha0, nbar + 1.0, spec.det.eta * spec.sq.nu**2, spec.det.N, spec.k)
