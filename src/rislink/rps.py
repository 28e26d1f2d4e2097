"""Exact statistics of the randomly-phase-shifted link.

With random per-element phases the received amplitude is an isotropic
planar random walk whose steps are the link's paths: N double-Nakagami
element envelopes and an optional Nakagami direct one.  Every
distribution result below is an inversion of the product of the
per-path envelope transforms H(t) = Phi_e(t)^N Phi_d(t), where
Phi(t) = E[J0(t X)].  The outage of both phase designs passes through one
front end, `_outage`, which settles every row a bound or a path law can
before the design's own inversion runs.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Optional

import numpy as np

from . import numerics as nm
from .numerics import QuadratureSpec
from .scenario import DoubleNakagami, NakagamiParams, PhaseDesign

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
    """Binary modulations, conditional BER Gamma(p, q gamma) / (2 Gamma(p)).

    p = 1/2 is a coherent kernel, Q(sqrt(2 q gamma)); p = 1 is the
    noncoherent BDPSK kernel 0.5 exp(-gamma).
    """

    BPSK = ("bpsk", 0.5, 1.0)
    BFSK = ("bfsk", 0.5, 0.5)
    BDPSK = ("bdpsk", 1.0, 1.0)

    def __init__(self, label: str, p: float, q: float):
        self.label = label
        self.p = p
        self.q = q

    @property
    def coherent(self) -> bool:
        return self.p == 0.5

    @classmethod
    def from_label(cls, label: str) -> "Modulation":
        for mod in cls:
            if mod.label == label.lower():
                return mod
        raise ValueError(f"unknown modulation {label!r}")


# A path is a product of independent Nakagami hop envelopes: one hop
# (NakagamiParams) for the direct link, two (DoubleNakagami) for an RIS
# element.  Both give their ``hops``, ``mean_power`` = prod Omega and
# ``lambda_n`` = prod Omega / prod m.

def path_moment(path, k: int) -> float:
    """k-th raw moment of a path's envelope."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    log_ratio = 0.0
    for hop in path.hops:
        log_ratio += math.lgamma(hop.m + k / 2.0)
    for hop in path.hops:
        log_ratio -= math.lgamma(hop.m)
    return path.lambda_n ** (k / 2.0) * math.exp(log_ratio)


def hankel_factor(path, t):
    """E[J0(t X)] for a path's envelope X: 2F1(m_h, m_g; 1; z) for two
    hops, 1F1(m; 1; z) for one, at z = -lambda_n t^2 / 4."""
    shapes = [hop.m for hop in path.hops]
    special = nm.hyp2f1 if len(shapes) == 2 else nm.hyp1f1
    return special(*shapes, 1.0, -0.25 * path.lambda_n * np.square(t))


def _phase_factors(design: PhaseDesign, path) -> tuple:
    """(c1, c2), c_k = E[e^{jk phi}], for a path's residual phase phi.

    Random phases average out; co-phased paths, and the direct path under
    every design but rps, keep phi = 0.  A b-bit quantized element's phi
    is the sum of two hop errors uniform on [-a, a), a = pi/2^b, so c_k is
    a squared sinc.
    """
    if design.kind == "rps":
        return 0.0, 0.0
    if design.kind == "ops" or len(path.hops) == 1:
        return 1.0, 1.0
    a = math.pi / 2.0 ** design.bits
    return tuple((math.sin(k * a) / (k * a)) ** 2 for k in (1, 2))


def phasor_moments(paths, design: PhaseDesign) -> tuple:
    """(E[S], E|S|^2, E|S|^4) of the received phasor S = sum X e^{j phi}
    over ``paths``, (path, count) pairs of independent paths.

    The joint cumulants K_ab of (S, conj S) add over independent paths.
    A path's come from its moments E[Y^a conj(Y)^b] = mu_{a+b} c_{a-b},
    mu_k = `path_moment` and c_k from `_phase_factors`, real and even in k.
    """
    k10 = k20 = k11 = k21 = k22 = 0.0
    for path, count in paths:
        c1, c2 = _phase_factors(design, path)
        mu1, p, mu3, q = (path_moment(path, k) for k in range(1, 5))
        m, s, r = mu1 * c1, p * c2, mu3 * c1
        k10 += count * m
        k20 += count * (s - m * m)
        k11 += count * (p - m * m)
        k21 += count * (r - s * m - 2.0 * p * m + 2.0 * m ** 3)
        k22 += count * (q - 4.0 * r * m - s * s - 2.0 * p * p
                        + 4.0 * s * m * m + 8.0 * p * m * m - 6.0 * m ** 4)
    return k10, k11 + k10 * k10, (
        k22 + 4.0 * k21 * k10 + k20 * k20 + 2.0 * k11 * k11
        + 2.0 * k20 * k10 * k10 + 4.0 * k11 * k10 * k10 + k10 ** 4)


class TransformProduct:
    """Product of per-path transforms over a homogeneous link: ``n``
    i.i.d. RIS elements and an optional direct path.

    ``paths`` lists (path, count): (element, n) when n > 0, then
    (direct, 1) when there is a direct path.  Every derived quantity is
    one fold over it, so a surface costs one factor evaluation whatever
    N is.  Subclasses name the factor function ``(path, t) -> values``,
    the scalar type, ``float`` or ``complex``, of the values, and the
    phase design whose moments they keep.
    """

    def __init__(self, element: Optional[DoubleNakagami], n: int,
                 direct: Optional[NakagamiParams] = None):
        if n != int(n) or n < 0:
            raise ValueError(
                f"element count must be a nonnegative integer, got {n!r}")
        self.element, self.n, self.direct = element, int(n), direct
        self.paths = [(path, count)
                      for path, count in ((element, self.n), (direct, 1))
                      if count > 0 and path is not None]
        if not self.paths:
            raise ValueError("need at least one cascade element or a direct path")
        # quantities derived from the factors (moments, probes, the BER
        # lattice's H tables)
        self._derived: dict = {}

    @property
    def moments(self) -> tuple:
        """`phasor_moments` of the link under the subclass's design."""
        got = self._derived.get("moments")
        if got is None:
            got = self._derived["moments"] = phasor_moments(self.paths,
                                                            self.design)
        return got

    @property
    def lone_path(self):
        """The link's path when it has one path in total, else None."""
        (path, count), *others = self.paths
        return path if count == 1 and not others else None

    @property
    def tail_exponent(self) -> float:
        """Algebraic decay rate of the product: O(t^-e) as t grows."""
        return sum(count * 2.0 * min(hop.m for hop in path.hops)
                   for path, count in self.paths)

    def __call__(self, t) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        got = self._product(arr, self.factor)
        return got if np.ndim(t) else self.scalar(got[0])

    def _product(self, arr: np.ndarray, factor) -> np.ndarray:
        out = np.ones(arr.shape, dtype=self.scalar)
        for path, count in self.paths:
            fac = np.asarray(factor(path, arr))
            out = out * (fac ** count if count > 1 else fac)
        return out


class HankelProduct(TransformProduct):
    """H(t): product of the per-path transforms E[J0(t X)]."""

    factor = staticmethod(hankel_factor)
    scalar = float
    design = PhaseDesign("rps")

    @property
    def decay_scale(self) -> float:
        """t-scale on which the fastest factor rolls off from 1."""
        return min(2.0 / math.sqrt(path.mean_power) for path, _ in self.paths)

    @property
    def algebraic_scale(self) -> float:
        """t beyond which every factor is in its algebraic tail.

        A factor 2F1(m_h, m_g; 1; -(t/c)^2 / (m_h m_g)) or
        1F1(m; 1; -(t/c)^2 / m), with c its roll-off scale, reaches its
        power law once the argument passes the product of its shapes.
        """
        return max(2.0 / math.sqrt(path.mean_power)
                   * max(1.0, math.prod(hop.m for hop in path.hops))
                   for path, _ in self.paths)

    def lattice_chunk(self, index: int) -> tuple:
        """H on panels index*_CHUNK ... of the BER's t-lattice, with a
        head panel [0, first edge] in front of them.

        Returns (half, t, h): the half-widths of each whole panel and of
        its two halves, shape (_CHUNK + 1, 3); and the 20 Gauss-Legendre
        nodes of each of those and H there, shape (_CHUNK + 1, 3, 20).
        Built with one transform call and kept.
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
            got = (half, t, self(t.ravel()).reshape(t.shape))
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
    return nm._sorted_unique(np.concatenate([zeros, dy]))


def _lone_path_cdf(hops: tuple, r):
    """P(X <= r) for the product X of independent Nakagami hop envelopes.

    One hop is the regularized lower incomplete gamma at m r^2 / Omega;
    more are conditioned on the first, a positive integrand with no
    cancellation.  A link of one path in total has a phase-free SNR, and
    its lone factor gives the inversion integrals slowly decaying signed
    lobes that dwarf a steep CDF value, so both designs use this form there.
    """
    m, omega, rest = hops[0].m, hops[0].omega, hops[1:]
    if not rest:
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(arr)
        for i, v in enumerate(arr.ravel().tolist()):
            # Python floats overflow to inf quietly, and P(m, inf) = 1
            y = m * v * v / omega if v > 0.0 else 0.0
            out.flat[i] = nm.regularized_lower_gamma(m, y)
        out = np.clip(out, 0.0, 1.0)
        return out if np.ndim(r) else float(out[0])
    ln_c = math.log(2.0) + m * math.log(m / omega) - math.lgamma(m)

    def integrand(u):
        pdf = np.exp(ln_c + (2.0 * m - 1.0) * np.log(u) - m * u * u / omega)
        return pdf * _lone_path_cdf(rest, r / u)

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
               for hop in dn.hops)
    return hops + 0.5 * kappa


def _outage(transform: TransformProduct, gamma: float, rho: float,
            invert) -> float:
    """P(rho |S|^2 <= gamma) under either design, ``invert(r)`` being its
    inversion for P(|S| <= r), after the cuts: a fourth-moment Markov bound
    gives 1, a link of one path in total its phase-free envelope law
    (`_lone_path_cdf`), and `_phasor_disk_bound` under the quadrature's
    absolute tolerance 0.  The disk bound holds for the co-phased amplitude
    too: A = sum X + D >= |sum X e^{j phi} + D e^{j phi_d}| path by path.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    r = math.sqrt(gamma / rho)
    # Markov: P(|S| > r) <= E|S|^4 / r^4 < 1e-12, tested as fourth roots
    # since r^4 overflows
    if math.sqrt(math.sqrt(transform.moments[2])) < 1e-3 * r:
        return 1.0
    lone = transform.lone_path
    if lone is None and (_phasor_disk_bound(transform.element, r)
                         < nm.DEFAULT_QUADRATURE.abs_tol):
        return 0.0
    val = invert(r) if lone is None else _lone_path_cdf(lone.hops, r)
    return min(max(val, 0.0), 1.0)


def gamma_r_cdf(hp: HankelProduct, gamma: float, rho: float) -> float:
    """CDF of the e2e SNR under random phases: Hankel inversion of the
    transform product, P(|S| <= r) = r int_0^inf J1(r t) H(t) dt, behind
    the shared cuts of `_outage`."""
    # u / r would overflow the transform argument far below the amplitude
    # scale, where the disk cut has already settled the row
    return _outage(hp, gamma, rho, lambda r: nm.integrate_semi_infinite(
        lambda u: nm.bessel_j(1, u) * hp(u / r),
        breakpoints=_oscillatory_breakpoints(r * hp.decay_scale)))


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

    Error control: the row settles on the tabulated panels or raises.
    Past the last panel the tail is bounded by the geometric decay
    `_lattice_span` gives.  A row raises `ConvergenceError`, with its
    lattice sum as the best estimate, when a panel's whole and halves
    differ by more than 1/8 of rel 1e-9 of the total, when its last
    panel is larger than the one before it, or when its tail bound
    exceeds that same tolerance.
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
    half, t, h = (
        np.concatenate([chunks[0][i]] + [c[i][1:] for c in chunks[1:]])[:count]
        for i in range(3))

    def kernel(x):
        return x * nm.hyp1f1(1.0 + p, 2.0, -np.square(x / s))

    whole, left, right = (half * ((kernel(t) * h) @ nm._GL_WEIGHTS)).T
    contrib = left + right
    total = float(np.sum(contrib))
    spec = _BER_QUADRATURE
    tol = max(spec.abs_tol, spec.rel_tol * abs(total)) / 8.0
    to_ber = p / (s * s)
    end, before = abs(contrib[-1]), abs(contrib[-2])
    tail = end * ratio / (1.0 - ratio)
    disc = np.abs(contrib - whole)
    bad = disc > tol
    if bad.any():
        # panel i, the head panel included, ends at edge first*_CHUNK + i
        edge = first * _CHUNK + int(np.argmax(bad))
        raise nm.ConvergenceError(
            f"BER lattice panel ending at t = "
            f"{hp.decay_scale * 2.0 ** (edge / 2.0):.6g} misses its tolerance",
            best_estimate=to_ber * total,
            error_bound=to_ber * (float(np.sum(disc[bad])) + tail))
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
