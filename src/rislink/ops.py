"""Exact statistics of the coherently-combined (optimal-phase) link.

With co-phased elements the received amplitude is the plain sum
A = sum_n X_n + |h_d|, handled through its characteristic function
Psi_A(t) = Psi_d(t) * prod_n Psi_n(t) and Fourier (Gil-Pelaez style)
inversion of the distribution.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from . import numerics as nm
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec
from .rps import Modulation, TransformProduct, x_moment
from .scenario import DoubleNakagami, NakagamiParams


def nakagami_moment(params: NakagamiParams, k: int) -> float:
    """k-th raw moment of a Nakagami-m envelope."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    lam = params.omega / params.m
    return lam ** (k / 2.0) * math.exp(
        math.lgamma(params.m + k / 2.0) - math.lgamma(params.m))


def chf_direct(params: NakagamiParams, t):
    """E[e^{jt|h_d|}] for a Nakagami-m envelope."""
    arr = np.asarray(t, dtype=float)
    lam = params.omega / params.m
    x = -0.25 * lam * arr * arr
    even = nm.hyp1f1(params.m, 0.5, x)
    odd = nm.hyp1f1(params.m + 0.5, 1.5, x)
    coef = math.sqrt(lam) * math.exp(
        math.lgamma(params.m + 0.5) - math.lgamma(params.m))
    out = even + 1j * coef * arr * odd
    return out if np.ndim(t) else complex(out)


def _cascade_closed_form(dn: DoubleNakagami, circle) -> np.ndarray:
    """Closed form of the double-Nakagami CHF around its 2F1 factor.

    ``circle(c0)`` maps c0 = 2/sqrt(Lambda) to the caller's circle
    variable Z and the base c0 - jt of the power factor.  The hop shapes
    are interchangeable, so they are ordered to make the hypergeometric
    parameter difference nonnegative, the configuration with well-behaved
    connection formulas.
    """
    mh, mg = dn.hop_h.m, dn.hop_g.m
    if mh > mg:
        mh, mg = mg, mh
    c0 = 2.0 / math.sqrt(dn.lambda_n)
    z_circ, zden = circle(c0)
    gauss = nm.hyp2f1(2.0 * mh, mh - mg + 0.5, mh + mg + 0.5, z_circ)
    log_pref = (math.lgamma(mh + 0.5) + math.lgamma(mg + 0.5)
                - math.lgamma(mh + mg + 0.5) - 0.5 * math.log(math.pi))
    power = np.exp(2.0 * mh * (math.log(2.0 * c0) - np.log(zden)))
    return math.exp(log_pref) * power * gauss


def chf_cascade(dn: DoubleNakagami, t):
    """E[e^{jtX}] for a double-Nakagami envelope.

    The closed form has a Gauss-hypergeometric factor evaluated on the
    unit circle at Z = (-jt - c0)/(-jt + c0) with c0 = 2/sqrt(Lambda),
    computed here as -exp(2j arctan(t/c0)).
    """
    arr = np.asarray(t, dtype=float)
    out = _cascade_closed_form(dn, lambda c0: (
        -np.exp(2j * np.arctan(arr / c0)), c0 - 1j * arr))
    return out if np.ndim(t) else complex(out)


def _chf_cascade_complex(dn: DoubleNakagami, z: np.ndarray) -> np.ndarray:
    """chf_cascade continued to complex arguments with Im z > 0.

    Same closed form; the circle variable is computed from its rational
    definition (no arctan), which maps the upper half-plane strictly
    inside the unit disk.
    """
    minus_jz = -1j * z
    return _cascade_closed_form(dn, lambda c0: (
        (minus_jz - c0) / (minus_jz + c0), c0 + minus_jz))


def _chf_direct_complex(params: NakagamiParams, z: np.ndarray) -> np.ndarray:
    """E[e^{jz|h_d|}] for uniformly damped complex z (constant Im z > 0).

    Direct quadrature of the damped oscillatory density integral; the
    damping e^{-Im(z) r} keeps the effective support short, so panels of
    a few radians each reach machine accuracy.
    """
    imz = float(z.imag[0])
    if imz <= 0.0:
        raise ValueError("complex CHF path requires Im z > 0")
    m, om = params.m, params.omega
    b = m / om
    r_density = math.sqrt((m + 20.0 * math.sqrt(m) + 40.0) / b)
    r_core = min(r_density, 12.0 / imz)
    r_max = min(r_density, 50.0 / imz)
    re_max = float(np.max(np.abs(z.real)))

    def _panel_edges(lo, hi, per_panel):
        n = int(np.clip(math.ceil(re_max * (hi - lo) / per_panel) + 2, 4, 512))
        return np.linspace(lo, hi, n + 1)

    # coarse panels are fine once e^{-imz r} has dropped a dozen e-folds
    edges = _panel_edges(0.0, r_core, 5.0)
    if r_max > r_core * 1.0001:
        edges = np.concatenate([edges, _panel_edges(r_core, r_max, 25.0)[1:]])
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    r = (mid[:, None] + half[:, None] * nm._GL_NODES[None, :]).ravel()
    w = (half[:, None] * nm._GL_WEIGHTS[None, :]).ravel()
    log_f = (math.log(2.0) + m * math.log(b) + (2.0 * m - 1.0) * np.log(r)
             - b * r * r - math.lgamma(m))
    return np.exp(1j * z[:, None] * r[None, :]) @ (np.exp(log_f) * w)


def _moments_to_cumulants(mom: Sequence[float]) -> List[float]:
    # mom[0] = 1, mom[j] = raw moment of order j
    n = len(mom) - 1
    kap = [0.0] * (n + 1)
    for j in range(1, n + 1):
        acc = mom[j]
        for i in range(1, j):
            acc -= math.comb(j - 1, i - 1) * kap[i] * mom[j - i]
        kap[j] = acc
    return kap


def _cumulants_to_moments(kap: Sequence[float]) -> List[float]:
    n = len(kap) - 1
    mom = [1.0] + [0.0] * n
    for j in range(1, n + 1):
        mom[j] = sum(math.comb(j - 1, i - 1) * kap[i] * mom[j - i]
                     for i in range(1, j + 1))
    return mom


class AmplitudeChf(TransformProduct):
    """Characteristic function of the amplitude sum A = sum X_n + |h_d|.

    This is the CHF of the *amplitude*, not of the SNR; every consumer
    squares/scales accordingly.
    """

    cascade_factor = staticmethod(chf_cascade)
    direct_factor = staticmethod(chf_direct)
    scalar = complex

    def amplitude_moment(self, k: int) -> float:
        """Raw moment E[A^k], k <= 8, by cumulant accumulation."""
        if k != int(k) or not 0 <= k <= 8:
            raise ValueError(f"amplitude moment order must be in 0..8, got {k}")
        k = int(k)
        key = ("amplitude_moment", k)
        got = self._derived.get(key)
        if got is None:
            kap = [0.0] * (k + 1)
            for el, count in self._groups:
                mom = [1.0] + [x_moment(el, j) for j in range(1, k + 1)]
                for j, kj in enumerate(_moments_to_cumulants(mom)):
                    kap[j] += count * kj
            if self.direct is not None:
                mom = [1.0] + [nakagami_moment(self.direct, j)
                               for j in range(1, k + 1)]
                for j, kj in enumerate(_moments_to_cumulants(mom)):
                    kap[j] += kj
            got = _cumulants_to_moments(kap)[k]
            self._derived[key] = got
        return got

    def value_complex(self, z: np.ndarray) -> np.ndarray:
        """CHF on a horizontal line Im z = const > 0 (damped evaluation)."""
        return self._product(z, _chf_cascade_complex, _chf_direct_complex)


def _kernel_breakpoints(freqs: Sequence[float], span: float) -> np.ndarray:
    parts = [2.0 ** np.arange(-6.0, math.ceil(math.log2(span)) + 1.0)]
    for f in freqs:
        h = math.pi / max(f, 0.02)
        count = int(min(4096, max(4, math.ceil(span / h))))
        parts.append(h * np.arange(1, count + 1))
    bps = np.unique(np.concatenate(parts))
    return bps[bps <= span * 1.0001]


def _envelope_end(chf: "AmplitudeChf", sigma: float, var_t: float,
                  span: float) -> float:
    """First tau where |Psi_A(tau/sigma)| has decayed below 1e-3.

    One coarse vectorized probe.  Its arguments are functions of the CHF
    alone, so the result is kept with the CHF's derived quantities and
    every later CDF on the same CHF reuses it.
    """
    key = ("envelope_end", sigma, var_t, span)
    got = chf._derived.get(key)
    if got is None:
        cap = min(span, 40.0 * max(1.0, 1.0 / math.sqrt(var_t)))
        taus = np.geomspace(1.0, cap, 96)
        small = np.flatnonzero(np.abs(chf(taus / sigma)) < 1e-3)
        got = max(8.0, taus[small[0]] if small.size else cap)
        chf._derived[key] = got
    return got


def _inversion_breakpoints(rt: float, mt: float, bulk_end: float,
                           span: float) -> np.ndarray:
    """Panel edges for the CDF inversion integrand.

    In the bulk the CHF envelope still oscillates (beat frequency
    |mt - rt| plus the carrier mt); past the envelope the CHF phase is
    constant, so the surviving oscillation of e^{-j rt tau} has the fixed
    half-period pi/rt.  The far ladder is kept *pure* -- a union of
    incommensurate ladders would split half-periods into same-sign runs
    and defeat the alternating-series acceleration.
    """
    bulk_end = min(span, bulk_end)
    parts = [2.0 ** np.arange(-6.0, max(1.0, math.ceil(math.log2(bulk_end))))]
    for f in (abs(mt - rt), mt):
        h = math.pi / max(f, 0.02)
        count = int(min(4096, max(2, math.ceil(bulk_end / h))))
        parts.append(h * np.arange(1, count + 1))
    bulk = np.unique(np.concatenate(parts))
    bulk = bulk[bulk <= bulk_end]
    h_far = math.pi / rt if rt > 0 else math.inf
    if h_far < span - bulk_end:
        count = int(min(4096, math.ceil((span - bulk_end) / h_far)))
        far = bulk_end + h_far * np.arange(1, count + 1)
    else:
        far = bulk_end * 2.0 ** np.arange(1, 14)
        far = far[far <= span * 1.0001]
    return np.concatenate([bulk, far])


def gamma_c_cdf(chf: AmplitudeChf, gamma: float, rho: float) -> float:
    """CDF of the coherent-combining SNR by CHF inversion.

    The inversion integral is evaluated in the normalized variable
    tau = t * sqrt(E[A^2]) so that both the oscillation frequencies and
    the decay length are O(1)-scaled regardless of the physical units;
    the 0/0 at the origin is removed by an analytic patch below tau0.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    r = math.sqrt(gamma / rho)
    # Markov: P(A > r) <= E[A^4] / r^4 < 1e-12, tested as fourth roots
    # since r^4 overflows once r passes about 1e77
    if math.sqrt(math.sqrt(chf.amplitude_moment(4))) < 1e-3 * r:
        return 1.0
    sigma = math.sqrt(chf.amplitude_moment(2))
    rt = r / sigma
    mt = chf.amplitude_moment(1) / sigma
    var_t = max(1.0 - mt * mt, 1e-12)
    span = min(9000.0, max(64.0, 30.0 / math.sqrt(var_t),
                           1e9 ** (1.0 / max(chf.tail_exponent, 2.0))))
    bulk_end = _envelope_end(chf, sigma, var_t, span)
    bps = _inversion_breakpoints(rt, mt, bulk_end, span)
    tau0 = 1e-6

    def integrand(tau):
        return np.imag(np.exp(-1j * rt * tau) * chf(tau / sigma)) / tau

    val = nm.integrate_semi_infinite(integrand, breakpoints=bps, lower=tau0)
    cdf = 0.5 - (tau0 * (mt - rt) + val) / math.pi
    return min(max(cdf, 0.0), 1.0)


def _amplitude_square_laplace(chf: AmplitudeChf, lam: float,
                              spec: Optional[QuadratureSpec] = None) -> float:
    """E[e^{-lam A^2}] by a Gaussian average of the CHF on a shifted line.

    The Gaussian identity turns the Laplace transform into
    (2 pi)^{-1/2} int e^{-z^2/2} Psi_A(z sqrt(2 lam)) dz.  On the real
    axis the lobes are O(1) while the sum can be exponentially small, so
    the line is shifted to Im z = c, where the damped CHF both kills the
    cancellation and slows the oscillation to a frequency ~ e/c set by
    the density power e at the origin.
    """
    if lam <= 0.0:
        raise ValueError("laplace argument must be positive")
    spec = spec or DEFAULT_QUADRATURE
    s = math.sqrt(2.0 * lam)
    e = chf.tail_exponent
    c = min(10.0, max(1.0, math.sqrt(e)))
    span = math.sqrt(c * c + 2.0 * math.log(1.0 / max(spec.rel_tol, 1e-14))
                     + 20.0)
    f_eff = max(0.05, min(s * chf.amplitude_moment(1), e / c + 4.0))
    bps = _kernel_breakpoints([f_eff], span)

    kern_floor = 1e-40 * math.exp(0.5 * c * c)

    def integrand(u):
        kern = np.exp(-0.5 * (u + 1j * c) ** 2)
        live = np.abs(kern) > kern_floor
        out = np.zeros(u.shape)
        if live.any():
            z = s * (u[live] + 1j * c)
            out[live] = np.real(kern[live] * chf.value_complex(z))
        return out

    val = nm.integrate_semi_infinite(integrand, spec, breakpoints=bps)
    return min(max(math.sqrt(2.0 / math.pi) * val, 0.0), 1.0)


def ber_ops(chf: AmplitudeChf, rho: float, modulation: Modulation) -> float:
    """Average BER under optimal phases.

    BDPSK's 0.5 E[e^{-gamma}] is half the Laplace transform of the SNR
    (averaging the outage CDF against the differential-detection weight
    integrates by parts into it).  A coherent modulation uses the
    Gaussian-kernel inversion 1/2 - (1/pi) int t^-1 e^{-t^2/2}
    Im{Psi_A(t sqrt(2 a rho))} dt with a the modulation SNR scale.  The
    half-minus-integral form carries an absolute noise floor around
    1e-8; smaller results are recomputed relatively accurately through
    the Craig average of the squared-amplitude Laplace transform.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not modulation.coherent:
        return min(0.5 * _amplitude_square_laplace(chf, rho), 0.5)
    s = math.sqrt(2.0 * modulation.snr_scale * rho)
    omega = s * chf.amplitude_moment(1)
    span = 16.0
    bps = _kernel_breakpoints([omega], span)
    tau0 = 1e-8 / max(1.0, omega)

    def integrand(t):
        return np.exp(-0.5 * t * t) * np.imag(chf(s * t)) / t

    val = nm.integrate_semi_infinite(integrand, breakpoints=bps, lower=tau0)
    ber = 0.5 - (tau0 * omega + val) / math.pi
    if ber >= 1e-7:
        return min(ber, 0.5)
    return _ber_ops_craig(chf, modulation.snr_scale * rho)


_GL12_NODES, _GL12_WEIGHTS = np.polynomial.legendre.leggauss(12)
_CRAIG_INNER = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-7)


def _ber_ops_craig(chf: AmplitudeChf, a_rho: float) -> float:
    # (1/pi) int_0^{pi/2} E[e^{-a rho A^2 / sin^2 th}] dth; the integrand
    # behaves like sin(th)^e, so panels shrink geometrically toward pi/2
    # where high diversity orders concentrate the mass.
    delta = min(0.5, 3.0 / math.sqrt(max(chf.tail_exponent, 4.0)))
    offsets = [0.0]
    while offsets[-1] < 0.5 * math.pi:
        offsets.append(min(0.5 * math.pi,
                           max(4.0 * offsets[-1], delta)))
    edges = 0.5 * math.pi - np.array(offsets[::-1])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        for node, weight in zip(_GL12_NODES, _GL12_WEIGHTS):
            th = mid + half * node
            total += (half * weight *
                      _amplitude_square_laplace(chf, a_rho / math.sin(th) ** 2,
                                                _CRAIG_INNER))
    return min(max(total / math.pi, 0.0), 0.5)
