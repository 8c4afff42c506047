"""Reference computations for the benchmark, written apart from clickcraft.

Nothing here imports clickcraft.  Click probabilities are computed as

    c_k = sum_m D[k, m] p_m

where D is the click kernel of an N-diode detector of efficiency eta, filled
by its two-term recursion in plain double precision

    D[k, m] = (1 - eta + eta k/N) D[k, m-1] + eta (N-k+1)/N D[k-1, m-1],

with D[0, 0] = 1 (all coefficients are non-negative, so the recursion is
forward stable), and p_m is the Glauber-Lachs photon distribution of the
detected arm, a displaced thermal state of amplitude alpha and thermal mean
nbar:

    p_m = nbar^m / (1+nbar)^(m+1) exp(-|alpha|^2/(1+nbar)) L_m(-|alpha|^2/(nbar(1+nbar))),

built with the Laguerre three-term recursion.  Every term is positive, so no
digit is lost to cancellation.

For the protocols:

* subtraction on a beam splitter of transmission t taps (r alpha0, r^2 nbar);
* addition on a pair source of gain mu = cosh(xi) leaves the idler in
  (nu alpha0*, nu^2 (nbar + 1)), nu = sinh(xi).
"""

from __future__ import annotations

import math

import numpy as np

# the photon distribution is cut where its certified tail is below this
TAIL_MASS = 1e-40


def kernel_table(n_diodes: int, eta: float, mmax: int) -> np.ndarray:
    """D[k, m] for k = 0..N, m = 0..mmax, shape (N+1, mmax+1)."""
    k = np.arange(n_diodes + 1, dtype=float)
    stay = 1.0 - eta + eta * k / n_diodes
    move = eta * (n_diodes - k[1:] + 1.0) / n_diodes
    table = np.zeros((n_diodes + 1, mmax + 1))
    table[0, 0] = 1.0
    for m in range(1, mmax + 1):
        table[:, m] = stay * table[:, m - 1]
        table[1:, m] += move * table[:-1, m - 1]
    return table


def glauber_lachs(alpha_abs2: float, nbar: float) -> np.ndarray:
    """Photon distribution of a displaced thermal state, cut at a certified tail.

    The recursion for p_m follows from (m+1) L_{m+1}(-x) = (2m+1+x) L_m(-x)
    - m L_{m-1}(-x).  Past the mean the ratio p_{m+1}/p_m falls towards
    nbar/(1+nbar) (or 0 for a coherent state), so p_m rho/(1-rho) bounds the
    remaining mass once the ratio rho is below one and falling.
    """
    if nbar < 0 or alpha_abs2 < 0:
        raise ValueError("need nbar >= 0 and |alpha|^2 >= 0")
    s = alpha_abs2 / (1.0 + nbar)
    mean = nbar + alpha_abs2
    probs = [math.exp(-s) / (1.0 + nbar)]
    prev = 0.0
    m = 0
    while True:
        nxt = ((2 * m + 1) * nbar + s) * probs[m] - m * nbar * nbar * prev / (1.0 + nbar)
        nxt /= (m + 1) * (1.0 + nbar)
        prev = probs[m]
        probs.append(nxt)
        m += 1
        ratio = nxt / prev if prev > 0 else 0.0
        if m > mean and ratio < 1.0 and nxt * ratio / (1.0 - ratio) < TAIL_MASS:
            break
        if m > 100_000:
            raise RuntimeError("photon distribution did not converge")
    return np.asarray(probs)


def click_probabilities(n_diodes: int, eta: float, alpha_abs2: float, nbar: float) -> np.ndarray:
    """c_k for k = 0..N of a displaced thermal state on an N-diode detector."""
    p = glauber_lachs(alpha_abs2, nbar)
    return kernel_table(n_diodes, eta, p.size - 1) @ p


def subtraction_probabilities(
    n_diodes: int, eta: float, t: float, alpha0: complex, nbar: float
) -> np.ndarray:
    """k-click probabilities of subtracting from a displaced thermal input."""
    r2 = 1.0 - t * t
    return click_probabilities(n_diodes, eta, r2 * abs(alpha0) ** 2, r2 * nbar)


def addition_probabilities(
    n_diodes: int, eta: float, mu: float, alpha0: complex, nbar: float
) -> np.ndarray:
    """k-click probabilities of adding onto a displaced thermal input."""
    nu2 = mu * mu - 1.0
    return click_probabilities(n_diodes, eta, nu2 * abs(alpha0) ** 2, nu2 * (nbar + 1.0))


def amplifier_marginals(
    n1: int, eta1: float, mu: float, n2: int, eta2: float, t: float, beta: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column marginals of the (k1, k2) amplifier table.

    Rows: the idler of the pair source, (nu beta*, nu^2).  Columns: the
    unconditioned signal (mu beta, nu^2) tapped on the beam splitter.
    """
    rows = addition_probabilities(n1, eta1, mu, beta, 0.0)
    nu2 = mu * mu - 1.0
    cols = subtraction_probabilities(n2, eta2, t, mu * beta, nu2)
    return rows, cols


def herald_weights(omega: float, n_diodes: int, eta: float, k: int, size: int) -> np.ndarray:
    """(1 - omega) omega^n D[k, n] for n = 0..size-1."""
    table = kernel_table(n_diodes, eta, size - 1)
    return (1.0 - omega) * omega ** np.arange(size) * table[k]


def gaussian_sum(
    terms: list[tuple[float, complex, float]], re: np.ndarray, im: np.ndarray
) -> tuple[np.ndarray, float]:
    """sum c exp(-a |alpha - z|^2) at the points re + i im, and sum |c|."""
    out = np.zeros(np.broadcast(re, im).shape)
    scale = 0.0
    for c, z, a in terms:
        out += c * np.exp(-a * ((re - z.real) ** 2 + (im - z.imag) ** 2))
        scale += abs(c)
    return out, scale


def mixture_integral(gaussians: list[tuple[float, complex, float]], deltas: list[float]) -> tuple[float, float]:
    """sum c pi / a + sum of delta weights, and the sum of absolute values."""
    parts = [c * math.pi / a for c, _, a in gaussians] + list(deltas)
    return math.fsum(parts), math.fsum(abs(x) for x in parts)
