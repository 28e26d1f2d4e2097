"""Test-side helpers: the CLI's scenario view and independent oracles.

`link` builds transforms and large-N models the way the CLI's engine
table does.  The other functions are reference forms that no CLI path
runs; the suites compare the engines against them.
"""

import functools
import math

import numpy as np
from scipy import special
from scipy.integrate import quad

from rislink import cli
from rislink import montecarlo as mc
from rislink import numerics as nm
from rislink import rps
from rislink.scenario import link_parts


def link(config):
    """The scenario as the CLI's engines read it: its `link_parts`, with
    ``.hankel()``, ``.chf()`` and ``.largen(model)`` building the
    transforms and large-N models from them."""
    return cli._Link(config, *link_parts(config))


def outage_memo(outage, transform, rho):
    """``gamma -> outage(transform, gamma, rho)`` of `rps.gamma_r_cdf` or
    `ops.gamma_c_cdf`, computed once per amplitude threshold.

    Both engines see a positive gamma only through r = sqrt(gamma / rho),
    so thresholds that round to the same r share one value.  Bisections
    towards several targets on one transform revisit thresholds: they
    share their first midpoints, a converged bracket repeats its end
    points, and the final check reads the threshold the bisection
    converged on.  A call that raises stores nothing, so asking again
    raises again.
    """
    memo = {}

    def f(gamma):
        r = math.sqrt(gamma / rho)
        got = memo.get(r)
        if got is None:
            got = memo[r] = outage(transform, gamma, rho)
        return got
    return f


def op_grid(config, thresholds, n_trials, seed):
    """Simulated outage at several thresholds from one shared sample set."""
    return mc.estimate_group([mc.McQuery(config, "op", float(th))
                              for th in thresholds], n_trials, seed)


def snr_batch(config, count, rng):
    """``count`` SNR draws of one config through the simulator's own draw
    and SNR kernels."""
    rho, element, direct_path = link_parts(config)
    amp = mc._hop_amplitudes(config, count, rng)
    sums = mc._element_sums(amp, mc._phase_draws(config, amp, rng))
    base = mc._snr_base(element, direct_path, sums,
                        mc._direct_draws(config, count, rng))
    return mc._snr(base, rho, config.phase_design.kind == "ops")


# ---------------------------------------------------------------------
# Nakagami hop phases: Eq. (2) with its hop phase laws drawn out
# ---------------------------------------------------------------------

_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)


def nakagami_phase_const(m):
    """Normalization Gamma(m) / (2^m Gamma(m/2)^2) of the Nakagami phase
    density; equals 1/(2pi) at m = 1."""
    return math.exp(math.lgamma(m) - m * rps.LN2 - 2.0 * math.lgamma(0.5 * m))


@functools.lru_cache(maxsize=16)
def _phase_table(m):
    """Monotone inverse-CDF knots for the singular m < 1 phase density."""
    edges = np.linspace(-math.pi, math.pi, (1 << 16) + 1)
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    theta = mid[:, None] + half * _GL5_NODES[None, :]
    dens = np.abs(np.sin(2.0 * theta)) ** (m - 1.0)
    mass = (dens @ _GL5_WEIGHTS) * half
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf /= cdf[-1]
    return cdf, edges


def sample_nakagami_phase(m, rng, size=None):
    """Draw(s) from f(theta) = C(m) |sin 2 theta|^(m-1) on [-pi, pi).

    Rejection against a flat envelope for m >= 1; the m < 1 density has
    integrable poles at multiples of pi/2, so it is inverted through a
    precomputed monotone CDF table instead.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape m must be >= 0.5, got {m}")
    count = 1 if size is None else int(np.prod(size))
    if m == 1.0:
        out = rng.uniform(-math.pi, math.pi, count)
    elif m < 1.0:
        cdf, edges = _phase_table(m)
        out = np.interp(rng.uniform(0.0, 1.0, count), cdf, edges)
    else:
        const = nakagami_phase_const(m)
        grid = np.linspace(-math.pi, math.pi, 10000)
        fmax = 1.01 * const * float(
            np.max(np.abs(np.sin(2.0 * grid)) ** (m - 1.0)))
        out = np.empty(count)
        filled = 0
        while filled < count:
            k = int((count - filled) * 2.0 * math.pi * fmax * 1.2) + 16
            theta = rng.uniform(-math.pi, math.pi, k)
            height = rng.uniform(0.0, fmax, k)
            dens = const * np.abs(np.sin(2.0 * theta)) ** (m - 1.0)
            acc = theta[height < dens]
            take = min(len(acc), count - filled)
            out[filled:filled + take] = acc[:take]
            filled += take
    if size is None:
        return float(out[0])
    return out.reshape(size)


def nakagami_phase_snr(config, amp, rng):
    """The simulator's SNR draws for the variates that follow the hop
    draws of ``amp`` when Eq. (2) is drawn term by term: phi = theta_h +
    theta_g - theta_n with Nakagami hop phases and a uniform applied
    phase, and theta_hd - theta_d on the direct path.  Same draw order
    as the simulator's random-phase design: element phases, then the
    direct path's power and phase.  The phases are drawn whole and reach
    the simulator's blocked element sums as per-block slices; its
    `_snr_base` and `_snr` turn the sums into SNR draws."""
    count, n = amp.shape
    theta_h = sample_nakagami_phase(config.m_h, rng, (count, n))
    theta_g = sample_nakagami_phase(config.m_g, rng, (count, n))
    phi = theta_h + theta_g - rng.uniform(0.0, 2.0 * math.pi, (count, n))
    sums = mc._element_sums(amp, lambda rows: phi[rows])
    direct = None
    if config.geometry.direct_link:
        hd = np.sqrt(rng.standard_gamma(config.m_d, count))
        theta_hd = sample_nakagami_phase(config.m_d, rng, (count,))
        phi_d = theta_hd - rng.uniform(0.0, 2.0 * math.pi, count)
        direct = hd * np.cos(phi_d), hd * np.sin(phi_d)
    rho, element, direct_path = link_parts(config)
    return mc._snr(mc._snr_base(element, direct_path, sums, direct), rho,
                   False)


def nakagami_phase_op_grid(config, thresholds, n_trials, seed):
    """Simulated random-phase outage at several thresholds with the
    residual phases drawn through `nakagami_phase_snr`.

    Chunk i reads `RngStream(seed, i)` over `_chunk_size(N)` trials: the
    simulator's hop amplitudes, then the Eq. (2) phases, then its SNR
    kernels.  The counts are estimated by `McQuery.estimate`, so the
    values are the ones the simulator gave when it drew hop phases.
    """
    if config.phase_design.kind != "rps":
        raise ValueError("Nakagami hop phases apply to random phase shifting")
    queries = [mc.McQuery(config, "op", float(th)) for th in thresholds]
    cs = mc._chunk_size(config.n_elements)
    totals = [0] * len(queries)
    for i in range(-(-n_trials // cs)):
        rng = mc.RngStream(seed, i).generator()
        amp = mc._hop_amplitudes(config, min(cs, n_trials - i * cs), rng)
        g = nakagami_phase_snr(config, amp, rng)
        totals = [t + q.partial(g) for t, q in zip(totals, queries)]
    return [q.estimate(t, n_trials, seed) for q, t in zip(queries, totals)]


def gamma_r_pdf(hp, gamma, rho):
    """PDF of the random-phase SNR by order-0 Hankel inversion of H."""
    r = math.sqrt(gamma / rho)
    # the J1-zero ladder of `rps._oscillatory_breakpoints` on J0's zeros
    u_scale = r * hp.decay_scale
    count = 64 * int(max(2, min(94, math.ceil(24.0 * max(u_scale, 1.0)
                                              / (64.0 * math.pi)))))
    zeros = nm.bessel_zeros(0, count)
    dy = u_scale * 2.0 ** np.arange(-10.0, 5.0)
    bps = np.union1d(zeros, dy[(dy > 1e-9) & (dy < zeros[-1])])
    val = nm.integrate_semi_infinite(
        lambda u: u * nm.bessel_j(0, u) * hp(u / r), breakpoints=bps)
    return max(val / (2.0 * rho * r * r), 0.0)


def gamma_product_cdf(dn, y):
    """P(g_h g_g <= y) for the hop power gains g = X^2 of a double-Nakagami
    element: E[P(g_g <= y / g_h)], by scipy quadrature over ln of the
    normalized first-hop gain."""
    m_h, m_g = dn.hop_h.m, dn.hop_g.m
    c = y * m_h * m_g / (dn.hop_h.omega * dn.hop_g.omega)
    ln_norm = math.lgamma(m_h)

    def integrand(s):
        return (special.gammainc(m_g, c * math.exp(-s))
                * math.exp(m_h * s - math.exp(s) - ln_norm))

    lo, hi = -60.0 / m_h, math.log(750.0)
    cuts = {lo, hi, math.log(m_h), 0.5 * math.log(c), math.log(c)}
    cuts |= set(range(-80, 8, 4))
    cuts = sorted(p for p in cuts if lo <= p <= hi)
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts, cuts[1:]))



def gamma_product_ber(dn, rho, modulation):
    """E[P_b(rho g_h g_g)] for the hop power gains g = X^2 of a
    double-Nakagami element: the error kernel averaged over the
    gain-product law.

    Given g_h, the second hop's gain is gamma-distributed, so the inner
    average is closed form: (1/2) I_x(m_g, 1/2) at x = m_g / (m_g + g)
    for the coherent kernel Q(sqrt(2 q gamma)), and
    (1/2) (1 + g / m_g)^-m_g for BDPSK's exp(-gamma) / 2, with g the mean
    of q gamma given g_h.  The outer average over the normalized first-hop gain
    runs by scipy quadrature over its log, as in `gamma_product_cdf`.
    """
    m_h, m_g = dn.hop_h.m, dn.hop_g.m
    # mean of q gamma given g_h, per unit of the normalized gain
    # m_h g_h / Omega_h
    unit = modulation.q * rho * dn.mean_power / m_h
    ln_norm = math.lgamma(m_h)

    def inner(mean):
        if modulation.coherent:
            return 0.5 * special.betainc(m_g, 0.5, m_g / (m_g + mean))
        return 0.5 * math.exp(-m_g * math.log1p(mean / m_g))

    def integrand(s):
        return inner(unit * math.exp(s)) * math.exp(m_h * s - math.exp(s)
                                                    - ln_norm)

    # below the gain at which the mean SNR reaches m_g the inner average
    # is flat, so the mass can sit anywhere down to there
    knee = math.log(m_g / unit)
    lo, hi = min(knee, 0.0) - 60.0 / m_h, math.log(750.0)
    cuts = {lo, hi, math.log(m_h), knee}
    cuts |= set(np.arange(math.floor(lo), hi, 2.0).tolist())
    cuts = sorted(p for p in cuts if lo <= p <= hi)
    # a rough pass sets the absolute floor, so that pieces far below the
    # total are not held to a relative tolerance at rounding level
    pieces = list(zip(cuts, cuts[1:]))
    rough = sum(quad(integrand, a, b, epsrel=1e-6)[0] for a, b in pieces)
    return sum(quad(integrand, a, b, epsabs=1e-16 * rough, epsrel=1e-13,
                    limit=200)[0] for a, b in pieces)


def tail_integral(hp):
    """int_0^inf t H(t) dt, the rho-free constant of the high-SNR BER
    p / (4 q rho) * int t H(t) dt under random phases.

    The integrand decays like t^(2-e) with e the tail exponent, so the
    walk stops at a fixed multiple of the roll-off scale and the
    remainder is completed with the locally measured power law.
    """
    if hp.tail_exponent <= 2.0 + 1e-12:
        raise ValueError("the high-SNR constant diverges for tail exponent "
                         f"{hp.tail_exponent:g} <= 2")
    t_h = hp.decay_scale
    cut = 4096.0
    body = nm.integrate_semi_infinite(
        lambda w: np.where(w <= cut, w * hp(t_h * w), 0.0),
        nm.QuadratureSpec(abs_tol=1e-280),
        breakpoints=2.0 ** np.arange(-8.0, 13.0))
    h_cut = hp(t_h * cut)
    h_2cut = hp(2.0 * t_h * cut)
    tail = 0.0
    if h_cut * h_2cut > 0.0 and abs(h_2cut) < abs(h_cut):
        p_hat = math.log(abs(h_cut / h_2cut)) / math.log(2.0)
        if p_hat > 2.05:
            tail = h_cut * cut * cut / (p_hat - 2.0)
    if tail == 0.0 and abs(h_cut) * cut * cut > 1e-6 * abs(body):
        raise nm.ConvergenceError(
            "tail of t*H(t) is not in its power-law regime yet")
    return t_h * t_h * (body + tail)


def gamma_c_moment_multinomial(config, k):
    """Literal multinomial expansion of E[gamma^k] = rho^k E[(sum X_n +
    |h_d|)^(2k)] under coherent combining.

    Exponential term count, so k > 2 with more than 8 elements is refused.
    """
    if k != int(k) or not 1 <= k <= 4:
        raise ValueError(f"moment order must be an integer in 1..4, got {k}")
    n = config.n_elements
    if k > 2 and n > 8:
        raise ValueError("multinomial expansion too large for k > 2 with N > 8")
    rho, element, direct = link_parts(config)
    power = 2 * int(k)
    part_moments = [[1.0] + [rps.path_moment(element, j)
                             for j in range(1, power + 1)]] * n
    if direct is not None:
        part_moments.append([1.0] + [rps.path_moment(direct, j)
                                     for j in range(1, power + 1)])

    def expand(idx, remaining):
        if idx == len(part_moments) - 1:
            return part_moments[idx][remaining] / math.factorial(remaining)
        return sum(part_moments[idx][j] / math.factorial(j)
                   * expand(idx + 1, remaining - j)
                   for j in range(remaining + 1))

    return rho ** k * math.factorial(power) * expand(0, power)


def cumulant_amplitude_moment(paths, k):
    """E[A^k] of the co-phased amplitude A = sum of the envelopes of
    ``paths``, (path, count) pairs: each path's raw moments to cumulants
    by the moment recursion, cumulants summed over the paths with their
    counts, then back to a raw moment."""
    kap = [0.0] * (k + 1)
    for path, count in paths:
        mom = [1.0] + [rps.path_moment(path, j) for j in range(1, k + 1)]
        cum = [0.0] * (k + 1)
        for j in range(1, k + 1):
            acc = mom[j]
            for i in range(1, j):
                acc -= math.comb(j - 1, i - 1) * cum[i] * mom[j - i]
            cum[j] = acc
        for j, kj in enumerate(cum):
            kap[j] += count * kj
    mom = [1.0] + [0.0] * k
    for j in range(1, k + 1):
        mom[j] = sum(math.comb(j - 1, i - 1) * kap[i] * mom[j - i]
                     for i in range(1, j + 1))
    return mom[k]


def largen_mean(model):
    """Mean SNR of a large-N model: 2 sigma1^2 for the exponential law,
    (1 + xi) / s for the noncentral chi-square one."""
    if hasattr(model, "sigma1_sq"):
        return 2.0 * model.sigma1_sq
    return (1.0 + model.xi) / model.s


def largen_rps_chf(model, t):
    """E[exp(j t gamma)] of the exponential large-N model."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = 1.0 / (1.0 - 2.0j * model.sigma1_sq * arr)
    return out if np.ndim(t) else complex(out[0])


def largen_ops_chf(model, t):
    """E[exp(j t gamma)] of the noncentral-chi-square large-N model."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = (np.exp(-model.xi * arr / (1j * model.s + 2.0 * arr))
           / np.sqrt(1.0 - 2.0j * arr / model.s))
    return out if np.ndim(t) else complex(out[0])


def largen_ops_pdf(model, x):
    """Density of the noncentral-chi-square large-N model at x > 0.

    cosh is folded into two Gaussian exponents, the larger of which is
    -(sqrt(xi)-sqrt(sx))^2/2 <= 0, so nothing overflows at any xi.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    root = math.sqrt(model.s * x)
    a = math.sqrt(model.xi)
    both = math.exp(-0.5 * (a - root) ** 2) + math.exp(-0.5 * (a + root) ** 2)
    return model.s * both / (2.0 * math.sqrt(2.0 * math.pi) * root)


def series_loop(nums, dens, z, *, count=None, budget=4000, peak=False,
                deriv=False):
    """`numerics._series` with a new array per operation, as it was
    before its term loop wrote in place: the reference the in-place loop
    must match bit for bit."""
    total = np.ones_like(z)
    term = np.ones_like(z)
    top = np.ones(z.shape) if peak else None
    slope = np.zeros_like(z) if deriv else None
    for k in range(budget if count is None else count):
        num = 1.0
        for p in nums:
            num *= p + k
        den = k + 1.0
        for q in dens:
            den *= q + k
        term = term * (num / den) * z
        total = total + term
        if deriv:
            slope = slope + (k + 1.0) * term / z
        # the stop test runs every 4th term; np.maximum.reduce is the
        # reduction of ndarray.max without its Python-level frame.  An
        # overflowed sum would pass it (any term is below 1e-17 * inf).
        if count is None and k % 4 == 3:
            size = np.maximum.reduce(np.abs(total), axis=None)
            if not math.isfinite(size):
                raise nm._not_converged(total)
            if peak:
                top = np.maximum(top, np.abs(term))
            if np.maximum.reduce(np.abs(term), axis=None) \
                    <= 1e-17 * max(size, 1e-300):
                break
    else:
        if count is None:
            raise nm._not_converged(total)
    extras = [x for x in (top, slope) if x is not None]
    return (total, *extras) if extras else total


def euler_accelerate_array(terms):
    """`numerics._euler_accelerate` over numpy arrays, as it was before
    the stop test moved to Python floats."""
    partial = np.cumsum(terms)
    best = partial[-1]
    err = abs(terms[-1]) if len(terms) else np.inf
    row = partial.astype(float)
    while len(row) >= 2:
        row = 0.5 * (row[:-1] + row[1:])
        delta = abs(row[-1] - best)
        if delta <= err:
            err = delta
            best = row[-1]
        if err == 0.0:
            break
    return best, err


def alternating_array(tail):
    """`numerics._alternating` over numpy arrays."""
    if len(tail) < 4:
        return False
    signs = np.sign(tail)
    if np.any(signs == 0.0):
        return False
    return bool(np.all(signs[1:] * signs[:-1] < 0))


def uniform_widths_array(widths):
    """`numerics._uniform_widths` over numpy arrays."""
    w = np.asarray(widths)
    lo = float(np.min(w))
    return lo > 0 and float(np.max(w)) <= 1.5 * lo


def termination_check_array(contributions, widths, peak, total, spec):
    """`numerics._termination_check` over a list of contributions, with
    numpy arrays for its tail tests and `np.sum` for its head sum: the
    reference the scalar stop test must match."""
    n = len(contributions)
    if n < 6:
        return None, None
    target = max(spec.abs_tol, spec.rel_tol * abs(total))
    start = max(0, n - 12)
    tail = np.asarray(contributions[start:])
    if alternating_array(tail) and abs(tail[-1]) <= 0.2 * (peak + 1e-300) \
            and uniform_widths_array(widths[start:]):
        head = float(np.sum(contributions[:n - len(tail)]))
        est, unc = euler_accelerate_array(tail)
        if unc <= target:
            return head + est, unc
    last = abs(contributions[-1])
    if last <= target and last <= 0.01 * (peak + 1e-300):
        mags = np.abs(np.asarray(contributions[-5:]))
        if np.all(mags[:-1] > 0):
            ratios = mags[1:] / mags[:-1]
            rmax = float(np.max(ratios))
            if rmax < 0.9 and last * rmax / (1.0 - rmax) <= target:
                return total, last * rmax / (1.0 - rmax)
    return None, None
