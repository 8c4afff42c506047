"""Closed-form phase-space engine.

States are represented by their Glauber-Sudarshan P function as a finite
mixture of isotropic Gaussian terms ``c * exp(-a|alpha - z|^2)`` and delta
terms ``c * delta^2(alpha - z)`` (exact coherent components).  This family is
closed under every map used by the engineering protocols:

* ``scale_loss``            -- beam-splitter attenuation, P(alpha) -> P(alpha/t)/t^2
* ``convolve_noise``        -- parametric-amplifier noise, convolution with a
                               thermal Gaussian of variance mu^2 - 1 plus
                               amplitude gain mu
* ``multiply_click_factor`` -- pointwise multiplication by the k-click factor
                               C(N,k) (e^{-g|a|^2/N})^{N-k} (1-e^{-g|a|^2/N})^k,
                               expanded binomially so products stay Gaussian
* ``husimi_smooth`` / ``husimi_unsmooth``
                            -- convert between the P function and pi times the
                               Husimi Q function (convolution with the unit
                               vacuum Gaussian and its inverse); the click
                               factor of a conditioned *pair-generation* stage
                               acts pointwise on the Q side, not on P

plus exact ``integral`` (trace), normally ordered ``moment`` and grid
evaluation for rendering.

Coefficients may be negative: conditioned outputs are in general nonclassical
and their P functions oscillate.  Deltas stay exact until a convolution
regularizes them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeltaTerm",
    "GaussianTerm",
    "GridSpec",
    "PhaseSpaceMixture",
    "click_factor_integrals",
    "convolve_noise",
    "evaluate_grid",
    "husimi_smooth",
    "husimi_unsmooth",
    "integral",
    "moment",
    "multiply_click_factor",
    "scale_loss",
]

PRUNE_RELATIVE = 1e-15
MAX_MOMENT_ORDER = 6


@dataclass(frozen=True)
class GaussianTerm:
    """One isotropic Gaussian: value at alpha is ``c * exp(-a*|alpha - z|^2)``."""

    c: float
    z: complex
    a: float  # inverse width, > 0

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"inverse width must be positive, got a={self.a}")
        if not math.isfinite(self.c):
            raise ValueError("coefficient must be finite")

    @property
    def weight(self) -> float:
        """Contribution to the integral: c * pi / a."""
        return self.c * math.pi / self.a


@dataclass(frozen=True)
class DeltaTerm:
    """One exact coherent component: ``c * delta^2(alpha - z)``."""

    c: float
    z: complex

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError("coefficient must be finite")


def _finite_amplitude(alpha: complex) -> complex:
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    return alpha


@dataclass(frozen=True)
class PhaseSpaceMixture:
    """Finite mixture of Gaussian and delta terms; immutable.

    ``dropped`` accumulates the absolute integral mass removed by pruning of
    negligible terms across the maps that multiplied term counts.
    """

    gaussians: tuple[GaussianTerm, ...] = ()
    deltas: tuple[DeltaTerm, ...] = ()
    dropped: float = 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(cls) -> "PhaseSpaceMixture":
        return cls(deltas=(DeltaTerm(1.0, 0j),))

    @classmethod
    def coherent(cls, alpha: complex) -> "PhaseSpaceMixture":
        return cls(deltas=(DeltaTerm(1.0, _finite_amplitude(alpha)),))

    @classmethod
    def thermal(cls, nbar: float) -> "PhaseSpaceMixture":
        return cls.displaced_thermal(0j, nbar)

    @classmethod
    def displaced_thermal(cls, alpha0: complex, nbar: float) -> "PhaseSpaceMixture":
        alpha0 = _finite_amplitude(alpha0)
        if not 0 <= nbar < math.inf:
            raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
        if nbar == 0:
            return cls.coherent(alpha0)
        return cls(gaussians=(GaussianTerm(1.0 / (math.pi * nbar), alpha0, 1.0 / nbar),))

    # -- basic queries ------------------------------------------------------

    def evaluate(self, alpha: complex | np.ndarray) -> float | np.ndarray:
        """Regular (Gaussian) part of P at alpha; delta terms are distributions
        and are not evaluated pointwise."""
        alpha = np.asarray(alpha, dtype=complex)
        out = np.zeros(alpha.shape)
        for g in self.gaussians:
            out += g.c * np.exp(-g.a * np.abs(alpha - g.z) ** 2)
        return out if out.shape else float(out)

    @property
    def n_terms(self) -> int:
        return len(self.gaussians) + len(self.deltas)

    def absolute_integral(self) -> float:
        return math.fsum(
            [abs(g.weight) for g in self.gaussians] + [abs(d.c) for d in self.deltas]
        )

    def pruned(self, rel_tol: float = PRUNE_RELATIVE) -> "PhaseSpaceMixture":
        """Drop terms whose |integral| contribution is below rel_tol of the
        mixture's absolute integral; the dropped mass is reported on the result."""
        sizes = [abs(g.weight) for g in self.gaussians] + [abs(d.c) for d in self.deltas]
        scale = math.fsum(sizes)
        if scale == 0.0:
            return self
        cut = rel_tol * scale
        n_g = len(self.gaussians)
        keep_g = tuple(g for g, w in zip(self.gaussians, sizes) if w > cut)
        keep_d = tuple(d for d, w in zip(self.deltas, sizes[n_g:]) if w > cut)
        lost = math.fsum([w for w in sizes if w <= cut])
        return PhaseSpaceMixture(keep_g, keep_d, self.dropped + lost)


def integral(mixture: PhaseSpaceMixture) -> float:
    """Exact integral of P over the phase plane (the trace of the operator)."""
    return math.fsum(
        [g.weight for g in mixture.gaussians] + [d.c for d in mixture.deltas]
    )


def scale_loss(mixture: PhaseSpaceMixture, t: float) -> PhaseSpaceMixture:
    """Attenuation by amplitude transmission t: P(alpha) -> P(alpha/t) / t^2.

    Thermal nbar maps to t^2 nbar; a coherent delta at z moves to t z.  The
    integral is preserved.
    """
    if not 0 < t <= 1:
        raise ValueError(f"transmission must satisfy 0 < t <= 1, got {t}")
    t2 = t * t
    gaussians = tuple(
        GaussianTerm(g.c / t2, t * g.z, g.a / t2) for g in mixture.gaussians
    )
    deltas = tuple(DeltaTerm(d.c, t * d.z) for d in mixture.deltas)
    return PhaseSpaceMixture(gaussians, deltas, mixture.dropped)


def _convolve(mixture: PhaseSpaceMixture, gain: float, variance: float) -> PhaseSpaceMixture:
    """Convolve with a normalized Gaussian kernel of the given variance while
    amplifying centers by ``gain``; integral-preserving."""
    gaussians = []
    for g in mixture.gaussians:
        # width gain^2/a from amplification, plus the kernel variance
        denom = gain * gain + g.a * variance
        gaussians.append(GaussianTerm(g.c / denom, gain * g.z, g.a / denom))
    for d in mixture.deltas:
        gaussians.append(
            GaussianTerm(d.c / (math.pi * variance), gain * d.z, 1.0 / variance)
        )
    return PhaseSpaceMixture(tuple(gaussians), (), mixture.dropped)


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
    """
    if mixture.deltas:
        raise ValueError("the smoothed representation cannot carry delta terms")
    gaussians = []
    for g in mixture.gaussians:
        rem = 1.0 - g.a
        if rem <= 0:
            raise ValueError(
                "delta-shaped contribution: a conditioned term has collapsed to "
                "zero width (unit-efficiency conditioning of a coherent input); "
                "the P function is no longer a regular Gaussian mixture"
            )
        gaussians.append(GaussianTerm(g.c / rem, g.z, g.a / rem))
    return PhaseSpaceMixture(tuple(gaussians), (), mixture.dropped)


def _click_factor_value(eta_eff: float, n_diodes: int, k: int, abs2: float) -> float:
    """C(N,k) (e^{-g/N})^{N-k} (1 - e^{-g/N})^k at g = eta_eff * |alpha|^2,
    in product form (no alternating-sum cancellation)."""
    e = math.exp(-eta_eff * abs2 / n_diodes)
    return math.comb(n_diodes, k) * e ** (n_diodes - k) * (1.0 - e) ** k


def _click_expansion(eta_eff: float, n_diodes: int, k: int) -> list[tuple[int, float]]:
    """(signed binomial coefficient, exponent) of each term j = 0..k of the
    expanded k-click factor; the exponent does not depend on k."""
    if eta_eff < 0:
        raise ValueError(f"effective efficiency must be >= 0, got {eta_eff}")
    if n_diodes < 1:
        raise ValueError(f"need at least one diode, got N={n_diodes}")
    if not 0 <= k <= n_diodes:
        raise ValueError(f"click number k={k} outside 0..{n_diodes}")
    cnk = math.comb(n_diodes, k)
    return [
        (cnk * math.comb(k, j) * (-1 if (k - j) & 1 else 1), eta_eff * (1.0 - j / n_diodes))
        for j in range(k + 1)
    ]


def multiply_click_factor(
    mixture: PhaseSpaceMixture,
    eta_eff: float,
    n_diodes: int,
    k: int,
    prune: bool = True,
) -> PhaseSpaceMixture:
    """Multiply pointwise by the k-click conditioning factor.

    Deltas pick up the factor evaluated at their center.  For Gaussians the
    k-th power is expanded binomially into k+1 exponentials
    ``C(N,k) C(k,j) (-1)^(k-j) exp(-eta_eff (1 - j/N) |alpha|^2)`` and each
    product of Gaussians is completed to a Gaussian again, so the term count
    multiplies by (k+1).
    """
    expansion = _click_expansion(eta_eff, n_diodes, k)
    if eta_eff == 0.0:
        # no conditioning power: factor is 1 for k = 0 and 0 for k >= 1
        return mixture if k == 0 else PhaseSpaceMixture((), (), mixture.dropped)

    gaussians = []
    for g in mixture.gaussians:
        a, z, c = g.a, g.z, g.c
        abs2 = abs(z) ** 2
        for coeff, gexp in expansion:
            if gexp == 0.0:
                gaussians.append(GaussianTerm(coeff * c, z, a))
                continue
            anew = a + gexp
            cnew = coeff * c * math.exp(-a * gexp * abs2 / anew)
            gaussians.append(GaussianTerm(cnew, (a / anew) * z, anew))
    deltas = tuple(
        DeltaTerm(d.c * _click_factor_value(eta_eff, n_diodes, k, abs(d.z) ** 2), d.z)
        for d in mixture.deltas
    )
    out = PhaseSpaceMixture(tuple(gaussians), deltas, mixture.dropped)
    return out.pruned() if prune else out


def click_factor_integrals(mixture: PhaseSpaceMixture, eta_eff: float, n_diodes: int) -> list[float]:
    """``integral(multiply_click_factor(mixture, eta_eff, n_diodes, k))`` for
    k = 0..N, bit for bit, without building terms: each Gaussian's product
    with exponential j is completed once for all k >= j, and the weights take
    the IEEE operations, pruning cut and correctly rounded sum of the terms."""
    exponents = [gexp for _, gexp in _click_expansion(eta_eff, n_diodes, n_diodes)]
    if eta_eff == 0.0:
        return [integral(mixture)] + [0.0] * n_diodes
    # per term j, (c, exp factor, completed inverse width) of each Gaussian;
    # a zero exponent leaves the Gaussian as it is (a factor 1.0 is exact)
    products = [
        [(g.c, math.exp(-g.a * gexp * abs(g.z) ** 2 / (g.a + gexp)) if gexp else 1.0, g.a + gexp)
         for g in mixture.gaussians]
        for gexp in exponents
    ]
    integrals = []
    for k in range(n_diodes + 1):
        pairs = zip(_click_expansion(eta_eff, n_diodes, k), products)
        terms = [(coeff * c * e, anew) for (coeff, _), row in pairs for c, e, anew in row]
        deltas = [
            d.c * _click_factor_value(eta_eff, n_diodes, k, abs(d.z) ** 2) for d in mixture.deltas
        ]
        if not all(map(math.isfinite, [c for c, _ in terms] + deltas)):
            raise ValueError("coefficient must be finite")
        weights = [c * math.pi / anew for c, anew in terms] + deltas
        scale = math.fsum(map(abs, weights))
        cut = PRUNE_RELATIVE * scale
        integrals.append(math.fsum([w for w in weights if abs(w) > cut] if scale else weights))
    return integrals


def moment(mixture: PhaseSpaceMixture, p: int, q: int) -> complex:
    """Normally ordered moment <a^dag^p a^q> = integral P(alpha) conj(alpha)^p alpha^q.

    Closed form; supported up to total order p + q <= 6.
    """
    if p < 0 or q < 0:
        raise ValueError("moment orders must be non-negative")
    if p + q > MAX_MOMENT_ORDER:
        raise ValueError(f"moments of order p+q > {MAX_MOMENT_ORDER} are unsupported")
    total = 0j
    for d in mixture.deltas:
        total += d.c * d.z.conjugate() ** p * d.z**q
    # C(p, i) C(q, i) i! of each contraction order i
    counts = [
        (i, math.comb(p, i) * math.comb(q, i) * math.factorial(i))
        for i in range(min(p, q) + 1)
    ]
    for g in mixture.gaussians:
        a, z = g.a, g.z
        zc = z.conjugate()
        acc = 0j
        for i, count in counts:
            acc += count * a**-i * zc ** (p - i) * z ** (q - i)
        total += g.weight * acc
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
        if self.n_re < 1 or self.n_im < 1:
            raise ValueError("grid must have at least one cell per axis")
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
    ``mixture.deltas``.  The per-cell summation order is fixed (term order),
    so the result is deterministic.
    """
    re, im = grid.centers()
    return mixture.evaluate(re[None, :] + 1j * im[:, None])
