"""Closed-form phase-space engine.

States are represented by their Glauber-Sudarshan P function as a finite
mixture of isotropic Gaussian terms ``c * exp(-a|alpha - z|^2)`` and delta
terms ``c * delta^2(alpha - z)`` (exact coherent components).  This family is
closed under every map used by the engineering protocols:

* ``scale_loss``, ``convolve_noise``, ``husimi_smooth`` and ``husimi_unsmooth``
  -- one affine map: centres times a gain, then a Gaussian convolution of a
  variance, at (gain, variance) = (t, 0) for beam-splitter attenuation
  P(alpha) -> P(alpha/t)/t^2, (mu, mu^2 - 1) for parametric-amplifier noise,
  and (1, 1) and (1, -1) between P and pi times the Husimi Q function; the
  click factor of a *pair-generation* stage acts on Q, not P
* ``multiply_click_factor`` -- pointwise multiplication by the k-click factor
  C(N,k) (e^{-g|a|^2/N})^{N-k} (1-e^{-g|a|^2/N})^k, expanded binomially so
  products stay Gaussian

plus exact ``integral`` (trace), normally ordered ``moment`` and grid
evaluation for rendering.

Coefficients may be negative: conditioned outputs are in general nonclassical
and their P functions oscillate.  Deltas stay exact until a convolution
regularizes them.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .dsymbol import NumericalError, check_clicks, check_count

PRUNE_RELATIVE = 1e-15
MAX_MOMENT_ORDER = 6
# (C(p, i) C(q, i) i!, -i, p - i, q - i) of each contraction order i of moment (p, q)
_CONTRACTIONS = {
    (p, q): [(math.comb(p, i) * math.comb(q, i) * math.factorial(i), -i, p - i, q - i)
             for i in range(min(p, q) + 1)]
    for p in range(MAX_MOMENT_ORDER + 1)
    for q in range(MAX_MOMENT_ORDER + 1 - p)
}


def check_displaced_thermal(alpha0: complex, nbar: float) -> None:
    """Reject a displaced thermal state whose amplitude is not finite or whose
    mean photon number is not finite and >= 0; every constructor and closed
    form of one takes its parameters through here."""
    alpha0 = complex(alpha0)
    if not (math.isfinite(alpha0.real) and math.isfinite(alpha0.imag)):
        raise ValueError(f"coherent amplitude must be finite, got {alpha0}")
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")


class PhaseSpaceMixture(NamedTuple):
    """Finite mixture of Gaussian and delta terms; immutable.

    Gaussian i is ``(c[i], z[i], a[i])`` and delta i is ``(dc[i], dz[i])``;
    ``dropped`` accumulates the absolute integral mass removed by pruning of
    negligible terms across the maps that multiplied term counts.  The plain
    constructor checks nothing; ``from_fields`` and the maps do.
    """

    c: tuple[float, ...] = ()
    z: tuple[complex, ...] = ()
    a: tuple[float, ...] = ()
    dc: tuple[float, ...] = ()
    dz: tuple[complex, ...] = ()
    dropped: float = 0.0

    @classmethod
    def from_fields(cls, c, z, a, dc=(), dz=(), dropped: float = 0.0) -> "PhaseSpaceMixture":
        """Mixture of these fields (equal lengths per term kind); ValueError unless every
        inverse width is > 0, NumericalError unless every inverse width and coefficient
        is finite: a map derives them from finite inputs, so past the float range they
        are a numerical failure."""
        mixture = cls(tuple(c), tuple(z), tuple(a), tuple(dc), tuple(dz), dropped)
        if not (len(mixture.c) == len(mixture.z) == len(mixture.a)
                and len(mixture.dc) == len(mixture.dz)):
            raise ValueError("each term kind needs fields of equal length")
        for width in mixture.a:
            if not 0 < width < math.inf:
                if width == math.inf:
                    raise NumericalError("inverse width leaves the float range")
                raise ValueError(f"inverse width must be positive, got a={width}")
        if not (all(map(math.isfinite, mixture.c)) and all(map(math.isfinite, mixture.dc))):
            raise NumericalError("coefficient must be finite")
        return mixture

    @classmethod
    def vacuum(cls) -> "PhaseSpaceMixture":
        return cls(dc=(1.0,), dz=(0j,))

    @classmethod
    def coherent(cls, alpha: complex) -> "PhaseSpaceMixture":
        return cls.displaced_thermal(alpha, 0.0)

    @classmethod
    def thermal(cls, nbar: float) -> "PhaseSpaceMixture":
        return cls.displaced_thermal(0j, nbar)

    @classmethod
    def displaced_thermal(cls, alpha0: complex, nbar: float) -> "PhaseSpaceMixture":
        alpha0 = complex(alpha0)
        check_displaced_thermal(alpha0, nbar)
        if nbar == 0:
            return cls(dc=(1.0,), dz=(alpha0,))
        c, a = 1.0 / (math.pi * nbar), 1.0 / nbar
        if c == 0.0 or a == math.inf:  # nbar above 1.797e308/pi, or subnormal
            raise NumericalError(f"the P function of nbar={nbar} leaves the float range")
        return cls.from_fields((c,), (alpha0,), (a,))

    @property
    def gaussians(self) -> tuple[tuple[float, complex, float], ...]:
        """(c, z, a) of each Gaussian; kept only because bench/tracing.py
        counts terms with ``len(result.gaussians)``."""
        return tuple(zip(self.c, self.z, self.a))

    def evaluate(self, alpha: complex | np.ndarray) -> float | np.ndarray:
        """Regular (Gaussian) part of P at alpha; delta terms are distributions
        and are not evaluated pointwise."""
        alpha = np.asarray(alpha, dtype=complex)
        out = np.zeros(alpha.shape)
        for c, z, a in zip(self.c, self.z, self.a):
            out += c * np.exp(-a * np.abs(alpha - z) ** 2)
        return out if out.shape else float(out)

    def pruned(self, rel_tol: float = PRUNE_RELATIVE) -> "PhaseSpaceMixture":
        """Drop terms whose |integral| contribution is below rel_tol of the
        mixture's absolute integral; the dropped mass is reported on the result.
        NumericalError if that absolute integral is not finite."""
        sizes = [abs(c * math.pi / a) for c, a in zip(self.c, self.a)] + list(map(abs, self.dc))
        # not finite where a size is, nor where the sizes overflow (there fsum would raise)
        if not math.isfinite(sum(sizes)):
            raise NumericalError("the absolute integral of the mixture is not finite")
        scale = math.fsum(sizes)
        cut = rel_tol * scale
        if scale == 0.0 or min(sizes) > cut:
            return self
        keep = [w > cut for w in sizes]
        g, d = keep[: len(self.c)], keep[len(self.c) :]
        # c, z, a keep the surviving Gaussians, dc, dz the surviving deltas
        fields = [tuple(compress(field, k)) for field, k in zip(self[:5], (g, g, g, d, d))]
        return PhaseSpaceMixture(*fields, self.dropped + math.fsum([w for w in sizes if w <= cut]))


def integral(mixture: PhaseSpaceMixture) -> float:
    """Exact integral of P over the phase plane (the trace of the operator).
    NumericalError if its partial sums leave the float range."""
    try:
        return math.fsum([c * math.pi / a for c, a in zip(mixture.c, mixture.a)] + list(mixture.dc))
    except OverflowError as exc:
        raise NumericalError("the integral of the mixture overflows the float range") from exc


def _convolve(mixture: PhaseSpaceMixture, gain: float, variance: float) -> PhaseSpaceMixture:
    """Amplify centres by ``gain`` > 0, then convolve with a normalized Gaussian
    of the given variance: (c, z, a) -> (c/d, gain z, a/d), d = gain^2 + a variance.
    Integral-preserving.  At variance 0 a delta moves to gain z, a positive
    variance makes it a Gaussian of inverse width 1/variance, and a negative one
    (a deconvolution) rejects deltas.  Every d <= 0 is rejected; valid inputs
    (a > 0) reach it only in a deconvolution.  An a > 0 whose a/d underflows
    to 0 is a NumericalError."""
    if variance < 0 and mixture.dc:
        raise ValueError("the smoothed representation cannot carry delta terms")
    cs, zs, widths = [], [], []
    for c, z, a in zip(mixture.c, mixture.z, mixture.a):
        # width gain^2/a from amplification, plus the kernel variance
        denom = gain * gain + a * variance
        if denom <= 0:
            raise ValueError(f"inverse width a={a} gives d = {denom} <= 0: a delta-shaped or "
                             "negative-width term (as from unit-efficiency conditioning of a "
                             "coherent input)")
        cs.append(c / denom)
        zs.append(gain * z)
        widths.append(a / denom)
    if variance == 0:
        dz = [gain * z for z in mixture.dz]
        return PhaseSpaceMixture.from_fields(cs, zs, widths, mixture.dc, dz, mixture.dropped)
    for c, z in zip(mixture.dc, mixture.dz):
        cs.append(c / (math.pi * variance))
        zs.append(gain * z)
        widths.append(1.0 / variance)
    # only the noise map's gain mu > 1 can carry a finite centre past the float
    # range, or an a > 0 below it; an a <= 0 or NaN the caller gave is left to
    # ``from_fields``
    if gain > 1 and not all(map(cmath.isfinite, zs)):
        raise NumericalError("centre leaves the float range")
    if gain > 1 and 0.0 in widths and all(a > 0 for a in mixture.a):
        raise NumericalError("inverse width leaves the float range")
    return PhaseSpaceMixture.from_fields(cs, zs, widths, dropped=mixture.dropped)


def scale_loss(mixture: PhaseSpaceMixture, t: float) -> PhaseSpaceMixture:
    """Attenuation by amplitude transmission t: P(alpha) -> P(alpha/t) / t^2.

    Thermal nbar maps to t^2 nbar; a coherent delta at z moves to t z.  The
    integral is preserved.
    """
    if not 0 < t <= 1:
        raise ValueError(f"transmission must satisfy 0 < t <= 1, got {t}")
    return _convolve(mixture, t, 0.0)


def convolve_noise(mixture: PhaseSpaceMixture, mu: float) -> PhaseSpaceMixture:
    """Noise map of a parametric amplifier with gain mu = cosh(xi).

    Coherent deltas at z become displaced thermal Gaussians centered mu*z with
    variance mu^2 - 1; Gaussian widths compose as mu^2/a + (mu^2 - 1).  The
    integral is preserved.  mu = 1 means no pump: identity, with a warning.
    """
    if mu < 1:
        raise ValueError(f"amplifier gain must satisfy mu >= 1, got mu={mu}")
    if mu == 1.0:
        warnings.warn("mu = 1 applies no pump; returning the input unchanged")
        return mixture
    return _convolve(mixture, mu, mu * mu - 1.0)


def husimi_smooth(mixture: PhaseSpaceMixture) -> PhaseSpaceMixture:
    """Convolve P with the unit vacuum Gaussian; the result is pi * Q (Husimi).

    On terms: (c, z, a) -> (c/(1+a), z, a/(1+a)); a delta becomes the unit
    Gaussian.  Integral-preserving.
    """
    return _convolve(mixture, 1.0, 1.0)


def husimi_unsmooth(mixture: PhaseSpaceMixture) -> PhaseSpaceMixture:
    """Inverse of husimi_smooth: recover P from pi * Q.

    Requires every inverse width a < 1 (a -> 1 is a delta-shaped, infinitely
    narrow contribution, reached only for unit detector efficiency on a
    coherent input).  Delta terms cannot appear on the Q side.

    Centres are multiplied by the gain 1.0.  That can flip only the sign of a
    zero part of a centre fewer than two real-by-complex products have made,
    such as a hand-made ``complex(-0.0, -0.0)``; ``add`` passes every centre
    through the noise map and the smoothing first wherever mu > 1.
    """
    return _convolve(mixture, 1.0, -1.0)


def _click_factor_value(eta_eff: float, n_diodes: int, k: int, abs2: float) -> float:
    """C(N,k) (e^{-g/N})^{N-k} (1 - e^{-g/N})^k at g = eta_eff * |alpha|^2,
    in product form (no alternating-sum cancellation)."""
    e = math.exp(-eta_eff * abs2 / n_diodes)
    return math.comb(n_diodes, k) * e ** (n_diodes - k) * (1.0 - e) ** k


def multiply_click_factor(
    mixture: PhaseSpaceMixture, eta_eff: float, n_diodes: int, k: int
) -> PhaseSpaceMixture:
    """Multiply pointwise by the k-click conditioning factor.

    Deltas pick up the factor evaluated at their center.  For Gaussians the
    k-th power is expanded binomially into k+1 exponentials
    ``C(N,k) C(k,j) (-1)^(k-j) exp(-eta_eff (1 - j/N) |alpha|^2)`` and each
    product of Gaussians is completed to a Gaussian again, so the term count
    multiplies by (k+1) before the result is ``pruned``.  NumericalError where
    the factor's binomial coefficients leave the float range.
    """
    if eta_eff < 0:
        raise ValueError(f"effective efficiency must be >= 0, got {eta_eff}")
    check_count(n_diodes, "the diode count N (at least one diode)")
    check_clicks(k, n_diodes)
    if eta_eff == 0.0:
        # no conditioning power: factor is 1 for k = 0 and 0 for k >= 1
        return mixture if k == 0 else PhaseSpaceMixture(dropped=mixture.dropped)
    # (C(N,k) C(k,j) (-1)^(k-j), exponent) of each term j, the coefficient
    # stepped exactly in integers from j to j + 1
    coeff, expansion = math.comb(n_diodes, k) * (-1 if k & 1 else 1), []
    for j in range(k + 1):
        expansion.append((coeff, eta_eff * (1.0 - j / n_diodes)))
        coeff = -coeff * (k - j) // (j + 1)
    cs, zs, widths = [], [], []
    try:
        for c, z, a in zip(mixture.c, mixture.z, mixture.a):
            abs2 = abs(z) ** 2
            for coeff, gexp in expansion:
                # a zero exponent keeps the Gaussian: x * 1.0 and a + 0.0 are exact
                anew = a + gexp
                cs.append(coeff * c * (math.exp(-a * gexp * abs2 / anew) if gexp else 1.0))
                zs.append((a / anew) * z if gexp else z)
                widths.append(anew)
        dc = [c * _click_factor_value(eta_eff, n_diodes, k, abs(z) ** 2)
              for c, z in zip(mixture.dc, mixture.dz)]
    except OverflowError as exc:  # an integer coefficient, or |z|^2, past the float range
        raise NumericalError(f"the {k}-click factor of N={n_diodes} leaves the float range") from exc
    except ZeroDivisionError as exc:  # a + gexp == 0 needs an inverse width a <= 0
        raise ValueError("inverse width must be positive, got a = -eta_eff (1 - j/N)") from exc
    return PhaseSpaceMixture.from_fields(cs, zs, widths, dc, mixture.dz, mixture.dropped).pruned()


def moment(mixture: PhaseSpaceMixture, p: int, q: int) -> complex:
    """Normally ordered moment <a^dag^p a^q> = integral P(alpha) conj(alpha)^p alpha^q.

    Closed form; supported up to total order p + q <= 6.  NumericalError
    where the result leaves the float range, as ``integral`` does.
    """
    check_count(p, "moment order p", 0)
    check_count(q, "moment order q", 0)
    contractions = _CONTRACTIONS.get((p, q))
    if contractions is None:
        raise ValueError(f"moment orders must satisfy p+q <= {MAX_MOMENT_ORDER}, got ({p}, {q})")
    total = 0j
    try:
        for c, z in zip(mixture.dc, mixture.dz):
            total += c * z.conjugate() ** p * z**q
        for c, z, a in zip(mixture.c, mixture.z, mixture.a):
            zc = z.conjugate()
            acc = 0j
            for count, minus_i, p_i, q_i in contractions:
                acc += count * a**minus_i * zc**p_i * z**q_i
            total += c * math.pi / a * acc
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise OverflowError
    except OverflowError as exc:  # a power of a centre, or the sum, past the float range
        raise NumericalError(f"the ({p}, {q}) moment of the mixture leaves the float range") from exc
    return total


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid; values are taken at cell centers."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int

    def __post_init__(self) -> None:
        extents = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, extents)):
            raise ValueError(f"grid extents must be finite, got {extents}")
        check_count(self.n_re, "the grid's n_re")
        check_count(self.n_im, "the grid's n_im")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("grid extents must be non-empty")

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        dre = (self.re_max - self.re_min) / self.n_re
        dim = (self.im_max - self.im_min) / self.n_im
        re = self.re_min + dre * (np.arange(self.n_re) + 0.5)
        im = self.im_min + dim * (np.arange(self.n_im) + 0.5)
        return re, im


def evaluate_grid(mixture: PhaseSpaceMixture, grid: GridSpec) -> np.ndarray:
    """Evaluate the regular part of P on the grid; shape (n_im, n_re).

    Delta terms are not rasterized; report them separately from
    ``mixture.dc`` and ``mixture.dz``.  The per-cell summation order is fixed (term order),
    so the result is deterministic.
    """
    re, im = grid.centers()
    return mixture.evaluate(re[None, :] + 1j * im[:, None])
