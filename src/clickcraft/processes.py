"""Engineering protocols: heralding, multi-photon subtraction and addition
with click-detector conditioning, and their composition into a click-
conditioned amplifier.

Every operation returns the unnormalized conditional state together with its
trace (= the probability of the conditioning event) as a ``ProcessOutcome``,
which normalizes nothing; only ``HeraldedDistribution.normalized`` divides
by the probability, for a heralded photon distribution.

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

The alternating closed forms that cross-check these pipelines
(``amplify_closed_form`` and the displaced-thermal click probabilities) live
in ``clickcraft.validation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dsymbol import CutoffError, NumericalError, check_clicks, check_count
from .povm import DetectorConfig, check_efficiency, click_kernel_table
from .pfunc import (
    PhaseSpaceMixture,
    convolve_noise,
    husimi_smooth,
    husimi_unsmooth,
    integral,
    multiply_click_factor,
    scale_loss,
)


# tail probability a cutoff may leave outside the truncated basis
DEFAULT_TAIL_TOL = 1e-10
# the keywords each state kind of ``fock.make_state`` reads; the CLI input nodes share it
_KIND_KEYWORDS = {
    "vacuum": (),
    "fock": ("n",),
    "coherent": ("alpha",),
    "thermal": ("nbar",),
    "displaced_thermal": ("alpha", "nbar"),
    "phase_diffused_tmsv": ("omega",),
}


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
    """Two-mode squeezer of strength xi >= 0; mu = cosh(xi), nu = sinh(xi);
    NumericalError where mu^2 leaves the float range (xi above about 355.6)."""

    xi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.xi < math.inf:
            raise ValueError(f"squeezing strength must be finite and >= 0, got xi={self.xi}")
        try:  # mu^2 bounds every value derived from xi: mu, nu, nu^2 and the noise variance
            math.cosh(self.xi) ** 2
        except OverflowError as exc:
            raise NumericalError(f"mu^2 leaves the float range at xi={self.xi}") from exc

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

    The probability is the pipeline's ``integral`` of the output mixture, or
    the oracle's trace of the output matrix.  Rare click patterns land a hair
    below zero through roundoff; anything beyond 1e-9 is rejected.
    """

    state: object  # PhaseSpaceMixture, or a one-mode (d, d) array of fock
    probability: float

    def __post_init__(self) -> None:
        if not -1e-9 <= self.probability <= 1.0 + 1e-9:
            raise NumericalError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class SubtractionSpec:
    """k-click photon subtraction: beam splitter tap plus detector system;
    NumericalError where t^2 or eta_eff leaves the float range."""

    bs: BeamSplitterConfig
    det: DetectorConfig
    k: int

    def __post_init__(self) -> None:
        check_clicks(self.k, self.det.N)
        # t^2 scales the loss map and divides eta_eff
        if self.bs.t**2 == 0.0 or self.eta_eff == math.inf:
            raise NumericalError(f"eta r^2/t^2 leaves the float range at t={self.bs.t}")

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
        check_clicks(self.k, self.det.N)

    @property
    def eta_eff(self) -> float:
        """Effective efficiency eta nu^2 / mu^2."""
        return self.det.eta * self.sq.nu**2 / self.sq.mu**2


@dataclass(frozen=True)
class AmplifySpec:
    """Addition stage (k1 clicks on detector 1), then a subtraction stage (k2
    clicks on detector 2); at eta1 = 1 ``add`` refuses an input with deltas."""

    add: AdditionSpec
    sub: SubtractionSpec


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


def geometric_weights(q: float, cutoff: int, tail_tol: float, what: str) -> np.ndarray:
    """The geometric photon distribution (1-q) q^n, n < cutoff, of a thermal
    state (q = nbar/(nbar+1)) or of either arm of the pair source (q = omega);
    ``CutoffError`` naming ``what`` when its tail q**cutoff exceeds ``tail_tol``."""
    if q**cutoff > tail_tol:
        raise CutoffError(f"{what} has tail {q ** cutoff:.3g} at cutoff {cutoff}")
    return (1.0 - q) * q ** np.arange(cutoff)


def herald_tmsv_distribution(
    omega: float, det: DetectorConfig, k: int, cutoff: int | None = None
) -> HeraldedDistribution:
    """Heralded photon distribution of a fully phase-diffused pair source.

    The joint state is diagonal, (1-omega) sum omega^n |n,n><n,n| with
    0 < omega < 1, so conditioning on k clicks gives the closed form
    p_n = (1-omega) omega^n D[k, n] without any Fock-space truncation beyond
    the geometric tail.  An explicit ``cutoff`` that leaves a tail above
    ``DEFAULT_TAIL_TOL``, omega**cutoff > 1e-10, raises ``CutoffError``.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"pair weight must satisfy 0 < omega < 1, got {omega}")
    check_clicks(k, det.N)
    if cutoff is None:  # a tail of at most 1e-18
        cutoff = max(k + 8, math.ceil(math.log(1e-18) / math.log(omega)))
    check_count(cutoff, "cutoff")
    what = f"phase-diffused pair state omega={omega}"
    pairs = geometric_weights(omega, cutoff, DEFAULT_TAIL_TOL, what)
    return HeraldedDistribution(pairs * click_kernel_table(det, k, cutoff - 1).values[k])


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
    if spec.det.eta == 1.0 and p_in.dc:
        raise ValueError("eta = 1 turns the delta terms of a coherent or vacuum input into "
                         "zero-width output terms; addition onto such an input needs eta < 1")
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


def probability_table(spec: AmplifySpec, beta: complex) -> np.ndarray:
    """``amplify``'s probability of every (k1, k2) click pair for a coherent
    input, bit for bit; the ``k`` fields of ``spec`` are ignored.  The whole
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
    check_efficiency(eta)
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
