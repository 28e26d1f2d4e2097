"""Exact statistics of the coherently-combined (optimal-phase) link.

With co-phased elements the received amplitude is the plain sum of the
link's path envelopes, A = sum_n X_n + |h_d|, handled through its
characteristic function Psi_A(t) = Psi_e(t)^N Psi_d(t) and Fourier
(Gil-Pelaez style) inversion of the distribution, behind the outage cuts
it shares with the random-phase design (`rps._outage`) and a Chernoff
cut of its own from the closed-form E[e^{-cA}].  The element factor
Psi_e is one closed form, `chf_cascade`, at real t and at Im t > 0
alike.  The saddle-point line integral of the BER, `_gaussian_average`,
runs over one segment [0, span], bisected to tolerance.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from . import numerics as nm
from .rps import _BER_QUADRATURE, Modulation, TransformProduct, _outage
from .scenario import DoubleNakagami, NakagamiParams, PhaseDesign


def chf_direct(params: NakagamiParams, t):
    """E[e^{jt|h_d|}] for a Nakagami-m envelope."""
    arr = np.asarray(t, dtype=float)
    lam = params.lambda_n
    x = -0.25 * lam * arr * arr
    even = nm.hyp1f1(params.m, 0.5, x)
    odd = nm.hyp1f1(params.m + 0.5, 1.5, x)
    coef = math.sqrt(lam) * math.exp(
        math.lgamma(params.m + 0.5) - math.lgamma(params.m))
    out = even + 1j * coef * arr * odd
    return out if np.ndim(t) else complex(out)


def chf_cascade(dn: DoubleNakagami, t):
    """E[e^{jtX}] for a double-Nakagami envelope, at real t or Im t > 0.

    The closed form has a Gauss-hypergeometric factor at the circle
    variable Z = (-jt - c0)/(-jt + c0), c0 = 2/sqrt(Lambda), and a power of
    the base c0 - jt.  Real t puts Z on the unit circle and Im t > 0 puts
    it strictly inside.  The hop shapes are interchangeable, so they are
    ordered to make the hypergeometric parameter difference nonnegative,
    the configuration with well-behaved connection formulas.
    """
    mh, mg = dn.hop_h.m, dn.hop_g.m
    if mh > mg:
        mh, mg = mg, mh
    c0 = 2.0 / math.sqrt(dn.lambda_n)
    minus_jt = -1j * np.asarray(t)
    zden = np.asarray(c0 + minus_jt)
    z_circ = (minus_jt - c0) / zden
    pref = math.exp(math.lgamma(mh + 0.5) + math.lgamma(mg + 0.5)
                    - math.lgamma(mh + mg + 0.5) - 0.5 * math.log(math.pi))
    # once |1 - Z| = 2 c0 / |c0 - jt| is below 1e-8, 1 - Z has lost half
    # its digits to cancellation and the 2F1, divergent at Z = 1 for equal
    # shapes, with it; the Pfaff transform of the same closed form, which
    # has no circle variable, stays accurate there
    far = np.abs(1.0 - z_circ) < 1e-8
    gauss = nm.hyp2f1(2.0 * mh, mh - mg + 0.5, mh + mg + 0.5,
                      np.where(far, 0.0, z_circ))
    power = np.exp(2.0 * mh * (math.log(2.0 * c0) - np.log(zden)))
    out = np.asarray(pref * power * gauss)
    if np.any(far):
        out[far] = pref * nm.hyp2f1(2.0 * mh, 2.0 * mg, mh + mg + 0.5,
                                    1.0 - zden[far] / (2.0 * c0))
    return out if np.ndim(t) else complex(out)


def _chf_direct_complex(params: NakagamiParams, z: np.ndarray) -> np.ndarray:
    """E[e^{jz|h_d|}] for complex z with Im z > 0.

    Direct quadrature of the damped oscillatory density integral; the
    damping e^{-Im(z) r} keeps the effective support short, so panels of
    a few radians each reach machine accuracy.  Each distinct Im z gets
    its own panel set, sized for the largest |Re z|.
    """
    m, om = params.m, params.omega
    b = m / om
    r_density = math.sqrt((m + 20.0 * math.sqrt(m) + 40.0) / b)
    re_max = float(np.max(np.abs(z.real)))

    def _panel_edges(lo, hi, per_panel):
        n = int(np.clip(math.ceil(re_max * (hi - lo) / per_panel) + 2, 4, 512))
        return np.linspace(lo, hi, n + 1)

    out = np.empty(z.shape, dtype=complex)
    for imz in nm._sorted_unique(z.imag).tolist():
        if imz <= 0.0:
            raise ValueError("complex CHF path requires Im z > 0")
        r_core = min(r_density, 12.0 / imz)
        r_max = min(r_density, 50.0 / imz)
        # coarse panels are fine once e^{-imz r} has dropped a dozen e-folds
        edges = _panel_edges(0.0, r_core, 5.0)
        if r_max > r_core * 1.0001:
            edges = np.concatenate(
                [edges, _panel_edges(r_core, r_max, 25.0)[1:]])
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        r = mid[:, None] + half[:, None] * nm._GL_NODES[None, :]
        # log of each node's weight times the density power r^{2m-1}
        log_w = (np.log(half[:, None] * nm._GL_WEIGHTS[None, :])
                 + (2.0 * m - 1.0) * np.log(r))
        # the first panel starts at 0, where a non-integer power stalls
        # Gauss-Legendre: its rule takes the power as its weight
        x, wj = nm._gauss_jacobi(2.0 * m - 1.0)
        r[0] = half[0] * (1.0 + x)
        log_w[0] = np.log(wj) + 2.0 * m * math.log(half[0])
        r, log_w = r.ravel(), log_w.ravel()
        log_f = (math.log(2.0) + m * math.log(b) + log_w - b * r * r
                 - math.lgamma(m))
        on_line = z.imag == imz
        out[on_line] = (np.exp(1j * z[on_line][:, None] * r[None, :])
                        @ np.exp(log_f))
    return out


def _path_chf(path, t):
    """E[e^{jtX}] of a path's envelope at real t or Im t > 0: the cascade
    closed form, or the direct factor's closed form at real t and its
    continuation at complex t."""
    if len(path.hops) == 2:
        return chf_cascade(path, t)
    return (_chf_direct_complex if np.iscomplexobj(t) else chf_direct)(path, t)


class AmplitudeChf(TransformProduct):
    """Characteristic function of the amplitude sum A = sum X_n + |h_d|.

    This is the CHF of the *amplitude*, not of the SNR; every consumer
    squares/scales accordingly.
    """

    factor = staticmethod(_path_chf)
    scalar = complex
    design = PhaseDesign("ops")

    def value_complex(self, z: np.ndarray) -> np.ndarray:
        """Damped CHF Psi_A(z) / Psi_A(jy) on a line Im z = y > 0.

        This is the CHF at Re z of the amplitude law tilted by e^{-yA}.
        Each factor is divided by its own value at jy, so the product
        neither underflows at large N nor exceeds 1 in modulus.
        """
        return self._product(z, lambda path, arr: (
            _path_chf(path, arr) / _path_chf(path, 1j * arr.imag[:1]).real))


def _kernel_breakpoints(freqs: Sequence[float], span: float) -> np.ndarray:
    parts = [2.0 ** np.arange(-6.0, math.ceil(math.log2(span)) + 1.0)]
    for f in freqs:
        h = math.pi / max(f, 0.02)
        count = int(min(4096, max(4, math.ceil(span / h))))
        parts.append(h * np.arange(1, count + 1))
    bps = nm._sorted_unique(np.concatenate(parts))
    return bps[bps <= span * 1.0001]


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
    bulk = nm._sorted_unique(np.concatenate(parts))
    bulk = bulk[bulk <= bulk_end]
    h_far = math.pi / rt if rt > 0 else math.inf
    if h_far < span - bulk_end:
        count = int(min(4096, math.ceil((span - bulk_end) / h_far)))
        far = bulk_end + h_far * np.arange(1, count + 1)
    else:
        far = bulk_end * 2.0 ** np.arange(1, 14)
        far = far[far <= span * 1.0001]
    return np.concatenate([bulk, far])


def _inversion_scales(chf: AmplitudeChf) -> tuple:
    """(sigma, mt, span, bulk_end) of the CDF inversion, kept per CHF:
    sigma = sqrt(E[A^2]), mt = E[A] / sigma, the span in tau = t sigma,
    and where the CHF envelope has decayed, the first tau of a coarse
    vectorized probe with |Psi_A(tau / sigma)| < 1e-3."""
    got = chf._derived.get("inversion_scales")
    if got is None:
        mean, mean_sq, _ = chf.moments
        sigma = math.sqrt(mean_sq)
        mt = mean / sigma
        var_t = max(1.0 - mt * mt, 1e-12)
        span = min(9000.0, max(64.0, 30.0 / math.sqrt(var_t),
                               1e9 ** (1.0 / max(chf.tail_exponent, 2.0))))
        cap = min(span, 40.0 * max(1.0, 1.0 / math.sqrt(var_t)))
        taus = np.geomspace(1.0, cap, 96)
        small = np.flatnonzero(np.abs(chf(taus / sigma)) < 1e-3)
        got = chf._derived["inversion_scales"] = (
            sigma, mt, span, max(8.0, taus[small[0]] if small.size else cap))
    return got


def _log_chernoff(chf: AmplitudeChf, r: float) -> float:
    """ln min_c e^{cr} E[e^{-cA}], a bound on ln P(A <= r), over
    c r = 2^0 ... 2^30.  Any c > 0 gives a bound; c stops at 1e14 c0,
    c0 = 2/sqrt(Lambda) of an element, inside the closed forms' tested
    range."""
    c = np.minimum(2.0 ** np.arange(31.0) / r,
                   2e14 / math.sqrt(chf.element.lambda_n))
    return float(np.min(c * r + _log_damped_mean(chf, c)))


def gamma_c_cdf(chf: AmplitudeChf, gamma: float, rho: float) -> float:
    """CDF of the coherent-combining SNR by CHF inversion, behind the cuts
    of `rps._outage`.

    Below the mean amplitude a Chernoff bound (`_log_chernoff`) under the
    quadrature's absolute tolerance gives 0, as the disk cut does.  The
    inversion runs in tau = t sqrt(E[A^2]), so the oscillation frequencies
    and the decay length are O(1) whatever the units; an analytic patch
    below tau0 removes the 0/0 at the origin.
    """
    def invert(r):
        if (r < chf.moments[0] and _log_chernoff(chf, r)
                < math.log(nm.DEFAULT_QUADRATURE.abs_tol)):
            return 0.0
        sigma, mt, span, bulk_end = _inversion_scales(chf)
        rt, tau0 = r / sigma, 1e-6

        def integrand(tau):
            return np.imag(np.exp(-1j * rt * tau) * chf(tau / sigma)) / tau

        val = nm.integrate_semi_infinite(
            integrand, lower=tau0,
            breakpoints=_inversion_breakpoints(rt, mt, bulk_end, span))
        return 0.5 - (tau0 * (mt - rt) + val) / math.pi

    return _outage(chf, gamma, rho, invert)


# contour shifts searched for the saddle point: 0.25 * 2^(k/4), k = 0..30.
# Past the last one the bound is below e^{-c^2/2} = e^{-1024}, so a saddle
# beyond the grid only ever meets the zero below.
_SHIFTS = 0.25 * 2.0 ** (np.arange(31) / 4.0)


def _log_damped_mean(chf: AmplitudeChf, t: np.ndarray) -> np.ndarray:
    """ln E[e^{-tA}] = ln Psi_A(jt) at each t > 0, summed over the
    factors, since their product underflows at large N."""
    out = np.zeros(t.shape)
    # a factor that underflows gives -inf, a bound on a zero row
    with np.errstate(divide="ignore"):
        for path, count in chf.paths:
            out += count * np.log(np.real(_path_chf(path, 1j * t)))
    return out


def _gaussian_average(chf: AmplitudeChf, s: float, q_kernel: bool) -> float:
    """E[Q(sA)] with ``q_kernel``, else E[e^{-s^2 A^2 / 2}].

    Both are one Laplace-inversion integral along the line w = u + jc,
    for any c > 0:
      E[Q(sA)] = (1/pi) int_0^inf Re[j e^{-w^2/2} Psi_A(sw) / w] du,
      E[e^{-s^2 A^2 / 2}] = sqrt(2/pi) int_0^inf Re[e^{-w^2/2} Psi_A(sw)] du.
    At u = 0 the integrand is real, e^{c^2/2} E[e^{-csA}] (over c for Q),
    and B = e^{c^2/2} E[e^{-csA}] is a Chernoff bound on both quantities.
    c is taken where that peak is lowest, the saddle point (Helstrom, IEEE
    Trans. AES 14(4), 1978).  There the integral is of the order of its
    largest term, so the result is relatively accurate however small it
    is.  The integrand is carried over B, as e^{-u^2/2 - jcu} times the
    damped CHF `AmplitudeChf.value_complex`, so nothing underflows; a B
    below the smallest normal double returns 0.
    """
    log_bound = 0.5 * _SHIFTS ** 2 + _log_damped_mean(chf, s * _SHIFTS)
    k = int(np.argmin(log_bound - np.log(_SHIFTS) if q_kernel else log_bound))
    if log_bound[k] < math.log(sys.float_info.min):
        return 0.0
    c = float(_SHIFTS[k])
    # |integrand| <= e^{-u^2/2} (over c for Q): past span nothing is left
    span = math.sqrt(2.0 * math.log(1.0 / _BER_QUADRATURE.rel_tol) + 20.0)

    def integrand(u):
        w = u + 1j * c
        vals = np.exp(-0.5 * u ** 2 - 1j * c * u) * chf.value_complex(s * w)
        return np.real(1j * vals / w if q_kernel else vals)

    # [0, span] is one panel, bisected to tolerance: on a ladder of panels
    # the stop test can accept at a zero crossing of the decaying lobes
    spec, los, his = _BER_QUADRATURE, np.zeros(1), np.array([span])
    mids, left, right, disc = nm._halve(integrand, los, his)
    val = float(left[0] + right[0])
    tol = max(spec.abs_tol, spec.rel_tol * abs(val)) / 8.0
    if disc[0] > tol:
        val, _, _ = nm._refine(integrand, los, mids, his, left, right,
                               0.5 * tol, nm.MAX_SUBINTERVALS, 0.0,
                               float(disc[0]))
    scale = 1.0 / math.pi if q_kernel else math.sqrt(2.0 / math.pi)
    return scale * math.exp(log_bound[k]) * val


def ber_ops(chf: AmplitudeChf, rho: float, modulation: Modulation) -> float:
    """Average BER under optimal phases.

    BDPSK's 0.5 E[e^{-gamma}] is half the Laplace transform of the SNR
    (averaging the outage CDF against the differential-detection weight
    integrates by parts into it), E[e^{-rho A^2}] by `_gaussian_average`.
    A coherent modulation uses the Gaussian-kernel inversion
    1/2 - (1/pi) int t^-1 e^{-t^2/2} Im{Psi_A(t sqrt(2 q rho))} dt with q
    the modulation's SNR scale.  That half-minus-integral form carries an
    absolute noise floor around 1e-8, so a result below 1e-7 is
    recomputed as E[Q(sqrt(2 q rho) A)] by `_gaussian_average`: one line
    integral, relatively accurate down to the smallest normal double.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not modulation.coherent:
        val = _gaussian_average(chf, math.sqrt(2.0 * rho), False)
        return min(max(0.5 * val, 0.0), 0.5)
    s = math.sqrt(2.0 * modulation.q * rho)
    omega = s * chf.moments[0]
    span = 16.0
    bps = _kernel_breakpoints([omega], span)
    tau0 = 1e-8 / max(1.0, omega)

    def integrand(t):
        return np.exp(-0.5 * t * t) * np.imag(chf(s * t)) / t

    val = nm.integrate_semi_infinite(integrand, breakpoints=bps, lower=tau0)
    ber = 0.5 - (tau0 * omega + val) / math.pi
    if ber >= 1e-7:
        return min(ber, 0.5)
    return min(max(_gaussian_average(chf, s, True), 0.0), 0.5)
