"""Engineering protocols: heralding, multi-photon subtraction and addition
with click-detector conditioning, and their composition into a click-
conditioned amplifier.

Every operation returns the unnormalized conditional state together with its
trace (= the probability of the conditioning event); normalization is a
separate, explicit step via ``ProcessOutcome``.

Subtraction taps the signal off a beam splitter and conditions the reflected
arm; the surviving state undergoes the plain loss map and a pointwise
multiplication of its P function by the click factor at the effective
efficiency eta' = eta r^2/t^2.

Addition sends the signal through a pumped pair-generation stage and
conditions the twin arm at eta' = eta nu^2/mu^2.  The two pipelines share the
same click-factor core, but the pair-generation stage entangles the output
with the detected mode, so there the factor acts pointwise on the smoothed
(Husimi) side of the state rather than on the P function directly; smoothing
in and out is exact on the Gaussian mixtures.  This reproduces the closed
forms for click-conditioned thermal states (including the noise scaling
nbar0 = mu^2 (nbar + 1) - 1 and the k = 0 output variance
sigma^2 = nu^2 (1 - eta) / (1 + eta nu^2)) and agrees with the truncated-Fock
oracle; applying the factor on the P side directly does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dsymbol import CutoffError, NumericalError
from .povm import DetectorConfig, click_kernel_table
from .pfunc import (
    PhaseSpaceMixture,
    check_displaced_thermal,
    convolve_noise,
    husimi_smooth,
    husimi_unsmooth,
    integral,
    multiply_click_factor,
    scale_loss,
)


# tail probability a cutoff may leave outside the truncated basis
DEFAULT_TAIL_TOL = 1e-10


def __getattr__(name: str):
    # bench/tracing.py patches clickcraft.processes.condition_on_clicks by
    # attribute; fock imports this module, so the oracle resolves on first use
    if name == "condition_on_clicks":
        from .fock import condition_on_clicks

        return condition_on_clicks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


@dataclass(frozen=True)
class ProcessOutcome:
    """Unnormalized conditional state plus its trace = probability of the event.

    Rare click patterns can land a hair below zero through roundoff of the
    alternating closed forms; anything beyond 1e-9 is rejected.
    """

    state: object  # PhaseSpaceMixture, or a one-mode (d, d) array of fock
    probability: float

    def __post_init__(self) -> None:
        if not -1e-9 <= self.probability <= 1.0 + 1e-9:
            raise NumericalError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class SubtractionSpec:
    """k-click photon subtraction: beam splitter tap plus detector system."""

    bs: BeamSplitterConfig
    det: DetectorConfig
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.det.N:
            raise ValueError(f"click number k={self.k} outside 0..{self.det.N}")

    @property
    def eta_eff(self) -> float:
        """Effective efficiency eta r^2 / t^2 seen in the output variable."""
        return self.det.eta * self.bs.r**2 / self.bs.t**2


@dataclass(frozen=True)
class AdditionSpec:
    """k-click photon addition: pumped pair generation plus detector system."""

    sq: SqueezerConfig
    det: DetectorConfig
    k: int

    def __post_init__(self) -> None:
        if self.sq.xi == 0.0:
            raise ValueError("xi = 0 generates no pairs; addition needs a pump")
        if not 0 <= self.k <= self.det.N:
            raise ValueError(f"click number k={self.k} outside 0..{self.det.N}")

    @property
    def eta_eff(self) -> float:
        """Effective efficiency eta nu^2 / mu^2."""
        return self.det.eta * self.sq.nu**2 / self.sq.mu**2


@dataclass(frozen=True)
class AmplifySpec:
    """Addition stage (k1 clicks on detector 1) followed by a subtraction
    stage (k2 clicks on detector 2)."""

    add: AdditionSpec
    sub: SubtractionSpec

    def __post_init__(self) -> None:
        if self.add.det.eta >= 1.0:
            raise ValueError(
                "eta1 = 1 produces delta-shaped contributions (zero-width terms "
                "in the output P function); the first detector must have eta1 < 1"
            )


# ---------------------------------------------------------------------------
# heralding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeraldedDistribution:
    """Photon distribution of a heralded mode: unnormalized weights, their sum
    (the click probability) and the renormalized distribution."""

    weights: np.ndarray

    @property
    def probability(self) -> float:
        return float(self.weights.sum())

    @property
    def normalized(self) -> np.ndarray:
        probability = self.probability
        return self.weights / probability if probability > 0 else self.weights


def herald_tmsv_distribution(
    omega: float, det: DetectorConfig, k: int, cutoff: int | None = None
) -> HeraldedDistribution:
    """Heralded photon distribution of a fully phase-diffused pair source.

    The joint state is diagonal, (1-omega) sum omega^n |n,n><n,n| with
    0 < omega < 1, so conditioning on k clicks gives the closed form
    p_n = (1-omega) omega^n D[k, n] without any Fock-space truncation beyond
    the geometric tail.  An explicit ``cutoff`` that leaves more than the
    oracle's tail tolerance, omega**cutoff > 1e-10, raises ``CutoffError``.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"pair weight must satisfy 0 < omega < 1, got {omega}")
    if not 0 <= k <= det.N:
        raise ValueError(f"click number k={k} outside 0..{det.N}")
    if cutoff is None:
        cutoff = max(k + 8, math.ceil(math.log(1e-18) / math.log(omega)))
    elif cutoff < 1:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    elif omega**cutoff > DEFAULT_TAIL_TOL:
        raise CutoffError(
            f"phase-diffused pair state omega={omega} has tail {omega ** cutoff:.3g} "
            f"at cutoff {cutoff}"
        )
    table = click_kernel_table(det, k, cutoff - 1)
    return HeraldedDistribution((1.0 - omega) * omega ** np.arange(cutoff) * table.row(k))


# ---------------------------------------------------------------------------
# subtraction / addition / composition
# ---------------------------------------------------------------------------


def subtract(p_in: PhaseSpaceMixture, spec: SubtractionSpec) -> ProcessOutcome:
    """k-click photon subtraction of a state given by its P function."""
    out = multiply_click_factor(scale_loss(p_in, spec.bs.t), spec.eta_eff, spec.det.N, spec.k)
    return ProcessOutcome(state=out, probability=integral(out))


def add(p_in: PhaseSpaceMixture, spec: AdditionSpec) -> ProcessOutcome:
    """k-click photon addition of a state given by its P function.

    Pipeline: amplifier noise convolution, then the click factor applied on
    the smoothed (Husimi) side, then exact unsmoothing back to a P function.
    """
    smoothed = husimi_smooth(convolve_noise(p_in, spec.sq.mu))
    conditioned = multiply_click_factor(smoothed, spec.eta_eff, spec.det.N, spec.k)
    out = husimi_unsmooth(conditioned)
    return ProcessOutcome(state=out, probability=integral(out))


def amplify(
    state: PhaseSpaceMixture | complex, spec: AmplifySpec
) -> ProcessOutcome:
    """(k1, k2)-click conditioned amplification: addition then subtraction.

    ``state`` may be a coherent amplitude (complex number) or any mixture.
    The joint probability is the integral of the final unnormalized output.
    """
    if not isinstance(state, PhaseSpaceMixture):
        state = PhaseSpaceMixture.coherent(complex(state))
    return subtract(add(state, spec.add).state, spec.sub)


def amplify_closed_form(beta: complex, spec: AmplifySpec) -> PhaseSpaceMixture:
    """Direct coefficient construction of the (k1, k2) output for a coherent
    input; validation channel for ``amplify`` (the two agree identically).

    Each (j1, j2) term of the double binomial expansion is the Gaussian
    (f / pi) exp(-l2 |alpha|^2 + 2 l1 Re(alpha conj(beta)) - l0 |beta|^2)
    completed to center (l1 / l2) beta.
    """
    beta = complex(beta)
    mu, nu = spec.add.sq.mu, spec.add.sq.nu
    t, r = spec.sub.bs.t, spec.sub.bs.r
    n1, eta1, k1 = spec.add.det.N, spec.add.det.eta, spec.add.k
    n2, eta2, k2 = spec.sub.det.N, spec.sub.det.eta, spec.sub.k
    b2 = abs(beta) ** 2

    cs, zs, widths = [], [], []
    try:
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
    except OverflowError as exc:  # a binomial coefficient, or an exponential, past the float range
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
    exponents = lam * abs(alpha0) ** 2 / gammas
    try:
        return math.fsum([
            math.comb(n_diodes, k)
            * math.comb(k, j)
            * (-1 if (k - j) & 1 else 1)
            * math.exp(-exponents[j])
            / gammas[j]
            for j in range(k + 1)
        ])
    except OverflowError as exc:  # a binomial coefficient past the float range
        raise NumericalError(f"the {k}-click closed form of N={n_diodes} leaves the float range") from exc


def probability_subtraction_displaced_thermal(
    alpha0: complex, nbar: float, spec: SubtractionSpec
) -> float:
    """Probability of k clicks when subtracting from a displaced thermal state.

    Closed form with gamma_j = 1 + eta r^2 nbar (1 - j/N); the exponent is
    written as eta r^2 (1 - j/N) |alpha0|^2 / gamma_j, which carries the
    nbar -> 0 (coherent input) limit without any 0/0.
    """
    check_displaced_thermal(alpha0, nbar)
    return _gamma_sum(alpha0, nbar, spec.det.eta * spec.bs.r**2, spec.det.N, spec.k)


def probability_addition_displaced_thermal(
    alpha0: complex, nbar: float, spec: AdditionSpec
) -> float:
    """Probability of k clicks when adding onto a displaced thermal state.

    gamma_j = 1 + eta nu^2 (nbar + 1) (1 - j/N); the exponent
    eta nu^2 (1 - j/N) |alpha0|^2 / gamma_j is regular for every nbar >= 0.
    """
    check_displaced_thermal(alpha0, nbar)
    return _gamma_sum(alpha0, nbar + 1.0, spec.det.eta * spec.sq.nu**2, spec.det.N, spec.k)


def probability_table(spec: AmplifySpec, beta: complex) -> np.ndarray:
    """Joint probabilities of every (k1, k2) click pair for a coherent input.

    Entry [k1, k2] is the trace of the (k1, k2)-conditioned output; the whole
    (N1+1) x (N2+1) table sums to one.  A row runs the addition and the loss
    once, and each cell is what ``subtract`` makes of them.
    """
    p_in = PhaseSpaceMixture.coherent(complex(beta))
    rows = []
    for k1 in range(spec.add.det.N + 1):
        lost = scale_loss(add(p_in, replace(spec.add, k=k1)).state, spec.sub.bs.t)
        outs = (multiply_click_factor(lost, spec.sub.eta_eff, spec.sub.det.N, k2)
                for k2 in range(spec.sub.det.N + 1))
        rows.append([ProcessOutcome(out, integral(out)).probability for out in outs])
    return np.array(rows)


def effective_sigma2(sq: SqueezerConfig, eta: float) -> float:
    """Variance sigma^2 = nu^2 (1 - eta) / (1 + eta nu^2) of the thermalized
    output P function of a zero-click addition on a coherent input."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"quantum efficiency must lie in [0, 1], got {eta}")
    nu2 = sq.nu**2
    return nu2 * (1.0 - eta) / (1.0 + eta * nu2)


def nu_for_sigma2(sigma2: float, eta: float) -> float:
    """Invert the sigma^2 relation: the pair-generation strength nu = sinh(xi)
    that produces the observed zero-click output variance."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"inversion needs 0 <= eta < 1, got {eta}")
    denom = 1.0 - eta - eta * sigma2
    if not (sigma2 >= 0 and denom > 0):
        raise ValueError(f"sigma^2 = {sigma2} is not reachable at eta = {eta}")
    return math.sqrt(sigma2 / denom)
