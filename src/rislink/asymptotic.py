"""Closed-form large-N SNR laws for both phase designs.

With many elements the randomly-phased received amplitude is a complex
Gaussian by the CLT, so the SNR is exponential; the co-phased amplitude
is Gaussian on the line with a nonzero mean, so the SNR is a scaled
one-degree noncentral chi-square.  OP, BER, and EC then come out in
closed form.  Both models describe the RIS sum alone; the CLI's engine
table lists them as RIS-sum-only, so it offers no asymptotic row for a
scenario with a direct path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numerics as nm
from .rps import LN2, Modulation, path_moment
from .scenario import DoubleNakagami


def zt_stats(dn: DoubleNakagami) -> tuple:
    """(mean, variance) of one double-Nakagami summand."""
    mean = path_moment(dn, 1)
    variance = path_moment(dn, 2) - mean * mean
    return mean, max(variance, 0.0)


@dataclass(frozen=True)
class LargeNRps:
    """Exponential SNR model: gamma ~ Exp(mean 2 sigma1_sq)."""

    sigma1_sq: float

    def __post_init__(self) -> None:
        if not self.sigma1_sq > 0.0:
            raise ValueError(f"sigma1_sq must be positive, got {self.sigma1_sq}")

    @classmethod
    def from_element(cls, element: DoubleNakagami, n_elements: int,
                     rho: float) -> "LargeNRps":
        """Model of ``n_elements`` copies of ``element`` at SNR scale rho."""
        return cls(0.5 * n_elements * rho * element.mean_power)


@dataclass(frozen=True)
class LargeNOps:
    """Noncentral-chi-square SNR model: s*gamma ~ chi2_1(noncentrality xi)."""

    xi: float
    s: float

    def __post_init__(self) -> None:
        if not self.xi >= 0.0:
            raise ValueError(f"noncentrality must be nonnegative, got {self.xi}")
        if not self.s > 0.0:
            raise ValueError(f"scale s must be positive, got {self.s}")

    @classmethod
    def from_element(cls, element: DoubleNakagami, n_elements: int,
                     rho: float) -> "LargeNOps":
        """Model of ``n_elements`` copies of ``element`` at SNR scale rho."""
        mean, variance = zt_stats(element)
        if variance <= 0.0:
            raise ValueError("degenerate summand: zero variance")
        return cls(xi=n_elements * mean * mean / variance,
                   s=1.0 / (rho * n_elements * variance))


def largen_rps_cdf(model: LargeNRps, x: float) -> float:
    """P(gamma <= x) for the exponential model."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return -math.expm1(-x / (2.0 * model.sigma1_sq))


def largen_rps_ber(model: LargeNRps, modulation: Modulation) -> float:
    """Closed-form average BER 0.5 - 0.5 q^p (q + 0.5/sigma1_sq)^-p.

    Evaluated through expm1/log1p so the high-SNR tail keeps relative
    accuracy instead of cancelling against 0.5.
    """
    p, q = modulation.p, modulation.q
    b = 0.5 / model.sigma1_sq
    return -0.5 * math.expm1(p * math.log1p(-b / (q + b)))


def largen_rps_ec(model: LargeNRps) -> float:
    """Ergodic capacity of the exponential model, e^z E1(z)/ln2."""
    return nm.exp_scaled_e1(0.5 / model.sigma1_sq) / LN2


def largen_ops_cdf(model: LargeNOps, x: float) -> float:
    """P(gamma <= x) = Q(sqrt(xi)-sqrt(sx)) - Q(sqrt(xi)+sqrt(sx))."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    root = math.sqrt(model.s * x)
    a = math.sqrt(model.xi)
    val = nm.gauss_q(a - root) - nm.gauss_q(a + root)
    return min(max(val, 0.0), 1.0)
