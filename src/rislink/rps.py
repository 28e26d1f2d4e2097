"""Exact statistics of the randomly-phase-shifted link.

With random per-element phases the received amplitude is an isotropic
planar random walk whose step lengths are double-Nakagami envelopes.
Every distribution result below is an inversion of the product of the
per-step envelope transforms H(t) = Phi_d(t) * prod_n Phi_n(t), where
Phi(t) = E[J0(t X)].
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Optional, Sequence

import numpy as np

from . import numerics as nm
from .numerics import QuadratureSpec
from .scenario import DoubleNakagami, NakagamiParams

LN2 = math.log(2.0)
# BER spans many decades across a power sweep: drive its quadrature by
# relative tolerance alone
_BER_QUADRATURE = QuadratureSpec(abs_tol=1e-280)
# The BER's t-lattice: half-octave panels [a 2^(k/2), a 2^((k+1)/2)]
# anchored at the transform's decay scale a, with H tabulated in aligned
# chunks of _CHUNK panels, one transform call per chunk, so that a row's
# value does not depend on which rows filled the table before it
_CHUNK = 8
# half-octaves of margin: below min(s, decay scale) at the low end, and at
# the top past the point from which the tail bound's decay rate holds
_MARGIN = 8
# past that margin, a row runs on until that rate has cut panels by
# 2^-_TAIL_BITS
_TAIL_BITS = 40


class Modulation(enum.Enum):
    """Binary modulations with conditional-BER parameters (p, q).

    ``snr_scale`` is the argument scale a in the coherent error kernel
    Q(sqrt(2 a gamma)); it is None for the noncoherent BDPSK kernel
    0.5 exp(-gamma).
    """

    BPSK = ("bpsk", 0.5, 1.0, 1.0)
    BFSK = ("bfsk", 0.5, 0.5, 0.5)
    BDPSK = ("bdpsk", 1.0, 1.0, None)

    def __init__(self, label: str, p: float, q: float,
                 snr_scale: Optional[float]):
        self.label = label
        self.p = p
        self.q = q
        self.snr_scale = snr_scale

    @property
    def coherent(self) -> bool:
        return self.snr_scale is not None

    @classmethod
    def from_label(cls, label: str) -> "Modulation":
        for mod in cls:
            if mod.label == label.lower():
                return mod
        raise ValueError(f"unknown modulation {label!r}")


def x_moment(dn: DoubleNakagami, k: int) -> float:
    """k-th raw moment of the double-Nakagami envelope."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    mh, mg = dn.hop_h.m, dn.hop_g.m
    lg = math.lgamma
    return dn.lambda_n ** (k / 2.0) * math.exp(
        lg(mh + k / 2.0) + lg(mg + k / 2.0) - lg(mh) - lg(mg))


def hankel_cascade(dn: DoubleNakagami, t):
    """E[J0(t X)] for a double-Nakagami step length."""
    z = -0.25 * dn.lambda_n * np.square(t)
    return nm.hyp2f1(dn.hop_h.m, dn.hop_g.m, 1.0, z)


def hankel_direct(params: NakagamiParams, t):
    """E[J0(t X)] for a plain Nakagami-m step length."""
    lam = params.omega / params.m
    return nm.hyp1f1(params.m, 1.0, -0.25 * lam * np.square(t))


def _cascade_series(dn: DoubleNakagami, order: int) -> list:
    # Maclaurin coefficients of E[J0(tX)] in the variable u = t^2
    mh, mg, lam = dn.hop_h.m, dn.hop_g.m, dn.lambda_n
    coeffs, c = [1.0], 1.0
    for j in range(order):
        c *= (mh + j) * (mg + j) / ((j + 1.0) ** 2) * (-0.25 * lam)
        coeffs.append(c)
    return coeffs


def _direct_series(params: NakagamiParams, order: int) -> list:
    m, lam = params.m, params.omega / params.m
    coeffs, c = [1.0], 1.0
    for j in range(order):
        c *= (m + j) / ((j + 1.0) ** 2) * (-0.25 * lam)
        coeffs.append(c)
    return coeffs


class TransformProduct:
    """Product of per-path transforms over the elements and the direct path.

    Identical cascade factors are grouped and raised to an integer power,
    so homogeneous surfaces cost one transform evaluation regardless of N.
    Subclasses name the two factor functions ``(params, t) -> values`` and
    the scalar type, ``float`` or ``complex``, of the values.
    """

    def __init__(self, elements: Sequence[DoubleNakagami],
                 direct: Optional[NakagamiParams] = None):
        self.elements = tuple(elements)
        self.direct = direct
        if not self.elements and direct is None:
            raise ValueError("need at least one cascade element or a direct path")
        groups: dict = {}
        for el in self.elements:
            groups[el] = groups.get(el, 0) + 1
        self._groups = list(groups.items())
        # quantities derived from the factors (series, moments, probes,
        # the BER lattice's H tables)
        self._derived: dict = {}

    @property
    def tail_exponent(self) -> float:
        """Algebraic decay rate of the product: O(t^-e) as t grows."""
        e = sum(2.0 * min(el.hop_h.m, el.hop_g.m) for el in self.elements)
        if self.direct is not None:
            e += 2.0 * self.direct.m
        return e

    def __call__(self, t) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        got = self._product(arr, self.cascade_factor, self.direct_factor)
        return got if np.ndim(t) else self.scalar(got[0])

    def _product(self, arr: np.ndarray, cascade, direct) -> np.ndarray:
        out = np.ones(arr.shape, dtype=self.scalar)
        for el, count in self._groups:
            fac = np.asarray(cascade(el, arr))
            out = out * (fac ** count if count > 1 else fac)
        if self.direct is not None:
            out = out * np.asarray(direct(self.direct, arr))
        return out


class HankelProduct(TransformProduct):
    """H(t): product of the per-element transforms E[J0(t X)] and the
    optional direct one."""

    cascade_factor = staticmethod(hankel_cascade)
    direct_factor = staticmethod(hankel_direct)
    scalar = float

    @property
    def decay_scale(self) -> float:
        """t-scale on which the fastest factor rolls off from 1."""
        scales = [2.0 / math.sqrt(el.mean_power) for el in self.elements]
        if self.direct is not None:
            scales.append(2.0 / math.sqrt(self.direct.omega))
        return min(scales)

    def maclaurin_u(self, order: int) -> np.ndarray:
        """Coefficients of H as a series in u = t^2, through u^order."""
        key = ("maclaurin_u", order)
        got = self._derived.get(key)
        if got is None:
            series = [_cascade_series(el, order) for el in self.elements]
            if self.direct is not None:
                series.append(_direct_series(self.direct, order))
            got = nm.taylor_coefficients_product(series, order)
            self._derived[key] = got
        return got

    @property
    def algebraic_scale(self) -> float:
        """t beyond which every factor is in its algebraic tail.

        A cascade factor 2F1(m_h, m_g; 1; -(t/c)^2 / (m_h m_g)), with c
        its roll-off scale, reaches its power law once the argument passes
        m_h m_g; a direct factor 1F1(m; 1; -(t/c)^2 / m) once it passes m.
        """
        scales = [2.0 / math.sqrt(el.mean_power)
                  * max(1.0, el.hop_h.m * el.hop_g.m) for el in self.elements]
        if self.direct is not None:
            scales.append(2.0 / math.sqrt(self.direct.omega)
                          * max(1.0, self.direct.m))
        return max(scales)

    def lattice_chunk(self, index: int) -> tuple:
        """H on panels index*_CHUNK ... of the BER's t-lattice.

        Returns (los, his, half, t, h): the panels' ends, with a head
        panel [0, first edge] in front of them; the half-widths of each
        whole panel and of its two halves, shape (_CHUNK + 1, 3); and the
        20 Gauss-Legendre nodes of each of those and H there, shape
        (_CHUNK + 1, 3, 20).  Built with one transform call and kept.
        """
        key = ("lattice_chunk", index)
        got = self._derived.get(key)
        if got is None:
            edges = self.decay_scale * 2.0 ** (
                np.arange(index * _CHUNK, (index + 1) * _CHUNK + 1) / 2.0)
            los = np.concatenate([[0.0], edges[:-1]])
            his = np.concatenate([edges[:1], edges[1:]])
            mids = 0.5 * (los + his)
            starts = np.stack([los, los, mids], axis=1)
            ends = np.stack([his, mids, his], axis=1)
            half = 0.5 * (ends - starts)
            t = (starts + half)[..., None] + half[..., None] * nm._GL_NODES
            got = (los, his, half, t, self(t.ravel()).reshape(t.shape))
            self._derived[key] = got
        return got


@functools.lru_cache(maxsize=64)
def _j_zeros(order: int, count: int) -> np.ndarray:
    return nm.bessel_zeros(order, count)


def _oscillatory_breakpoints(u_scale: float) -> np.ndarray:
    # enough J1-zero panels to let series acceleration see the tail out
    # to many times the H roll-off point, plus dyadics resolving that roll-off
    count = 64 * int(max(2, min(94, math.ceil(24.0 * max(u_scale, 1.0)
                                              / (64.0 * math.pi)))))
    zeros = _j_zeros(1, count)
    dy = u_scale * 2.0 ** np.arange(-10.0, 5.0)
    dy = dy[(dy > 1e-9) & (dy < zeros[-1])]
    return np.union1d(zeros, dy)


def _nakagami_cdf(params: NakagamiParams, x):
    """Envelope CDF: regularized lower incomplete gamma at m x^2 / Omega."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    for i, v in enumerate(arr.ravel().tolist()):
        # Python floats overflow to inf quietly, and P(m, inf) = 1
        y = params.m * v * v / params.omega if v > 0.0 else 0.0
        out.flat[i] = nm.regularized_lower_gamma(params.m, y)
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(x) else float(out[0])


def _single_cascade_cdf(dn: DoubleNakagami, r: float) -> float:
    """P(X_h X_g <= r) by conditioning on the first hop.

    A lone cascade factor gives the inversion integral slowly decaying
    signed lobes that dwarf a steep CDF value, so sharp shapes cannot be
    recovered from it; this positive-integrand form has no cancellation.
    """
    m, omega = dn.hop_h.m, dn.hop_h.omega
    ln_c = math.log(2.0) + m * math.log(m / omega) - math.lgamma(m)

    def integrand(u):
        pdf = np.exp(ln_c + (2.0 * m - 1.0) * np.log(u) - m * u * u / omega)
        return pdf * _nakagami_cdf(dn.hop_g, r / u)

    bps = math.sqrt(omega) * 2.0 ** np.arange(-12.0, 6.0)
    return nm.integrate_semi_infinite(integrand, breakpoints=list(bps))


def _phasor_disk_bound(dn: DoubleNakagami, r: float) -> float:
    """An upper bound on P(|S| <= r) for a random-phase sum S with the
    element dn among its terms.

    Given the other terms, the element's phasor a e^{j phi} has to land in
    a disk of radius r, which a uniform phase does with probability at most
    r / (2a) once a > r.  So P(|S| <= r) <= P(a <= delta) + r / (2 delta)
    for any delta >= r.  With a = X_h X_g, P(a <= delta) is at most the
    sum of the hops' P(X <= y) <= (m y^2 / Omega)^m / Gamma(m + 1), taken at
    y_h^2 / Omega_h = y_g^2 / Omega_g = delta / sqrt(Omega_h Omega_g).  In
    that scale-free unit the bound uses delta = sqrt(r), which is >= r for
    r <= 1.
    """
    rt = r / math.sqrt(dn.mean_power)
    if rt == 0.0:
        return 0.0
    if rt >= 1.0:
        return 1.0
    kappa = math.sqrt(rt)
    # a hop's term bounds a probability, so capping it at 1 keeps it a bound
    hops = sum(math.exp(min(0.0, hop.m * math.log(hop.m * kappa)
                            - math.lgamma(hop.m + 1.0)))
               for hop in (dn.hop_h, dn.hop_g))
    return hops + 0.5 * kappa


def gamma_r_cdf(hp: HankelProduct, gamma: float, rho: float) -> float:
    """CDF of the e2e SNR under random phases.

    Genuine phasor sums go through Hankel inversion of the transform
    product.  Degenerate sums (one path in total) have phase-free
    magnitudes, so they use the direct envelope law instead, which stays
    accurate for shapes far too sharp for the oscillatory route.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    r = math.sqrt(gamma / rho)
    # Markov: P(R > r) <= E[R^4] / r^4 < 1e-12, tested as fourth roots
    # since r^4 overflows; E[R^4] = 64 h_2 from H's series in u = t^2
    if math.sqrt(math.sqrt(64.0 * hp.maclaurin_u(2)[2])) < 1e-3 * r:
        return 1.0
    if not hp.elements:
        return _nakagami_cdf(hp.direct, r)
    if len(hp.elements) == 1 and hp.direct is None:
        val = _single_cascade_cdf(hp.elements[0], r)
        return min(max(val, 0.0), 1.0)
    # far below the amplitude scale the CDF is below the quadrature's
    # absolute tolerance, and u / r would overflow the transform argument
    if _phasor_disk_bound(hp.elements[0], r) < nm.DEFAULT_QUADRATURE.abs_tol:
        return 0.0
    bps = _oscillatory_breakpoints(r * hp.decay_scale)
    val = nm.integrate_semi_infinite(
        lambda u: nm.bessel_j(1, u) * hp(u / r), breakpoints=bps)
    return min(max(val, 0.0), 1.0)


def gamma_r_moment(hp: HankelProduct, k: int, rho: float) -> float:
    """k-th raw SNR moment (k <= 4) from the exact Maclaurin data of H."""
    if k != int(k) or not 1 <= k <= 4:
        raise ValueError(f"moment order must be an integer in 1..4, got {k}")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    k = int(k)
    h = hp.maclaurin_u(k)
    return rho ** k * (-4.0) ** k * math.factorial(k) ** 2 * float(h[k])


def _lattice_span(hp: HankelProduct, s: float, p: float) -> tuple:
    """(k_lo, k_hi, ratio): the BER row at kernel scale s integrates the
    lattice panels k_lo <= k < k_hi, and past k_hi each panel contributes
    at most ``ratio`` times the one before it.

    The kernel M(1+p; 2; -x^2) is positive and decreasing, and falls as
    x^-2(1+p) (BDPSK's exp(-x^2) faster still), while H falls as
    t^-e, e the tail exponent.  So past both s and the algebraic scale a
    half-octave panel of t M H dt shrinks by 2^-(e+2p)/2, and when e > 2
    past the algebraic scale alone by 2^-(e-2)/2; the nearer end wins,
    which keeps H off t far beyond its own scales at high power.
    """
    e, anchor, reach = hp.tail_exponent, hp.decay_scale, hp.algebraic_scale
    options = [(max(s, reach), e + 2.0 * p)]
    if e > 2.0:
        options.append((reach, e - 2.0))
    k_hi, rate = min(
        (math.ceil(2.0 * math.log2(start / anchor)) + _MARGIN
         + math.ceil(2.0 * _TAIL_BITS / rate), rate)
        for start, rate in options)
    k_lo = math.floor(2.0 * math.log2(min(s, anchor) / anchor)) - _MARGIN
    return k_lo, k_hi, 2.0 ** (-0.5 * rate)


def ber_rps(hp: HankelProduct, rho: float, modulation: Modulation) -> float:
    """Average BER under random phases.

    The transform-domain average collapses to one integral,
    BER = (p / s^2) int_0^inf t M(1+p; 2; -t^2/s^2) H(t) dt with
    s = sqrt(4 q rho); for BDPSK (p = 1) the confluent kernel M(2; 2; -x^2)
    is exactly exp(-x^2), and `nm.hyp1f1` computes it as such.

    Only the kernel depends on rho, so H sits on a fixed lattice of
    half-octave t-panels, each with 20 Gauss-Legendre nodes for the whole
    panel and for both halves.  The transform tabulates H there once, in
    chunks of `_CHUNK` panels (`HankelProduct.lattice_chunk`), and every
    row of a power sweep reads the same table: a row costs one kernel call
    and a weighted sum.  A row spans the panels `_lattice_span` gives it,
    after a head panel [0, first edge].

    Error control: a panel whose whole and halves differ by more than
    1/8 of rel 1e-9 of the total is bisected with fresh H values, as
    `integrate_semi_infinite` does, and the row raises `ConvergenceError`
    when that bisection runs out of budget.  Past the last panel the
    tail is bounded by the geometric decay `_lattice_span` gives; a row
    whose last panel is larger than the one before it, or whose tail
    bound exceeds that same tolerance, raises `ConvergenceError` with
    its best estimate.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    p, q = modulation.p, modulation.q
    s = math.sqrt(4.0 * q * rho)
    k_lo, k_hi, ratio = _lattice_span(hp, s, p)
    first = k_lo // _CHUNK
    chunks = [hp.lattice_chunk(c) for c in range(first, -(-k_hi // _CHUNK))]
    # the first chunk's head panel, then every chunk's panels up to k_hi
    count = k_hi - first * _CHUNK + 1
    los, his, half, t, h = (
        np.concatenate([chunks[0][i]] + [c[i][1:] for c in chunks[1:]])[:count]
        for i in range(5))

    def kernel(x):
        return x * nm.hyp1f1(1.0 + p, 2.0, -np.square(x / s))

    whole, left, right = (half * ((kernel(t) * h) @ nm._GL_WEIGHTS)).T
    contrib = left + right
    total = float(np.sum(contrib))
    spec = _BER_QUADRATURE
    tol = max(spec.abs_tol, spec.rel_tol * abs(total)) / 8.0
    to_ber = p / (s * s)
    disc = np.abs(contrib - whole)
    bad = disc > tol
    if bad.any():
        try:
            fixed, _, _ = nm._refine(
                lambda x: kernel(x) * hp(x), los[bad],
                0.5 * (los + his)[bad], his[bad], left[bad], right[bad],
                0.5 * tol, nm.MAX_SUBINTERVALS,
                total - float(np.sum(contrib[bad])), float(np.sum(disc[bad])))
        except nm.ConvergenceError as exc:
            raise nm.ConvergenceError(
                str(exc), best_estimate=to_ber * exc.best_estimate,
                error_bound=to_ber * exc.error_bound) from exc
        total += fixed - float(np.sum(contrib[bad]))
    end, before = abs(contrib[-1]), abs(contrib[-2])
    tail = end * ratio / (1.0 - ratio)
    if end > before or tail > tol:
        raise nm.ConvergenceError("BER lattice does not bound its tail",
                                  best_estimate=to_ber * total,
                                  error_bound=to_ber * tail)
    return min(max(to_ber * total, 0.0), 0.5)


def ec_taylor(mu1: float, mu2: float) -> float:
    """Second-order ergodic-capacity approximation from two SNR moments.

    E[log2(1+g)] ~ log2(1+mu1) - (mu2-mu1^2) / (2 (1+mu1)^2 ln 2), the
    delta-method expansion of the log about the mean.
    """
    if mu1 < 0.0:
        raise ValueError("mean SNR must be nonnegative")
    var = mu2 - mu1 * mu1
    if var < -1e-9 * max(mu2, 1.0):
        raise ValueError(f"negative SNR variance ({var:g}): inconsistent moments")
    var = max(var, 0.0)
    return (math.log1p(mu1) - var / (2.0 * (1.0 + mu1) ** 2)) / LN2


# --- quantized phase shifting ----------------------------------------

def quantized_phase_factors(bits: int) -> tuple:
    """(E[e^{j phi}], E[e^{2j phi}]) for the two-hop b-bit residual phase.

    Each hop phase estimate leaves an independent error uniform on
    [-pi/2^b, pi/2^b), so phi is their sum and both factors are squared
    single-hop sinc terms.
    """
    if bits != int(bits) or bits < 1:
        raise ValueError(f"quantizer bits must be a positive integer, got {bits}")
    a = math.pi / 2.0 ** bits
    c1 = (math.sin(a) / a) ** 2
    c2 = (math.sin(2.0 * a) / (2.0 * a)) ** 2
    return c1, c2


def gamma_q_moment(dn: DoubleNakagami, n_elements: int, rho: float,
                   bits: int, k: int) -> float:
    """k-th raw SNR moment (k in {1, 2}) under b-bit quantized phases.

    Homogeneous elements, no direct path: the moments of |sum X_n
    e^{j phi_n}|^2 follow from the index-pattern expansion with phase
    factors c1, c2.
    """
    if k not in (1, 2):
        raise ValueError("quantized moments available for k = 1 or 2")
    if n_elements < 1:
        raise ValueError("need at least one element")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    c1, c2 = quantized_phase_factors(bits)
    mu = [x_moment(dn, j) for j in range(5)]
    n = float(n_elements)
    if k == 1:
        s2 = n * mu[2] + n * (n - 1.0) * mu[1] ** 2 * c1 * c1
        return rho * s2
    s4 = (n * mu[4]
          + n * (n - 1.0) * (2.0 * mu[2] ** 2 + mu[2] ** 2 * c2 * c2
                             + 4.0 * mu[3] * mu[1] * c1 * c1)
          + n * (n - 1.0) * (n - 2.0) * (2.0 * mu[2] * mu[1] ** 2 * c2 * c1 * c1
                                         + 4.0 * mu[2] * mu[1] ** 2 * c1 * c1)
          + n * (n - 1.0) * (n - 2.0) * (n - 3.0) * mu[1] ** 4 * c1 ** 4)
    return rho * rho * s4
