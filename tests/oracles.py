"""Test-side helpers: the CLI's scenario view and independent oracles.

`link` builds transforms and large-N models the way the CLI's engine
table does.  The other functions are reference forms that no CLI path
runs; the suites compare the engines against them.
"""

import math

import numpy as np
from scipy import special
from scipy.integrate import quad

from rislink import cli
from rislink import montecarlo as mc
from rislink import numerics as nm
from rislink import rps
from rislink.ops import nakagami_moment
from rislink.scenario import link_parts


def link(config):
    """The scenario as the CLI's engines read it: its `link_parts`, with
    ``.hankel()``, ``.chf()`` and ``.largen(model)`` building the
    transforms and large-N models from them."""
    d, element, direct = link_parts(config)
    return cli._Link(config, d.rho, element, direct)


def outage_memo(outage, transform, rho):
    """``gamma -> outage(transform, gamma, rho)`` of `rps.op_rps` or
    `ops.op_ops`, computed once per amplitude threshold.

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


def op_grid(config, phase_model, thresholds, n_trials, seed):
    """Simulated outage at several thresholds from one shared sample set."""
    return mc.estimate_group([mc.McQuery(config, phase_model, "op", float(th))
                              for th in thresholds], n_trials, seed)


def snr_batch(config, phase_model, count, rng):
    """``count`` SNR draws of one config through the simulator's own draw
    and SNR-base kernels."""
    rho, scales = mc._link_scales(config)
    amp = mc._hop_amplitudes(config, count, rng)
    base, = mc._snr_bases(mc._draw(config, phase_model, amp, rng), [scales])
    return mc._snr(base, rho, config.phase_design.kind == "ops")


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
    d, element, direct = link_parts(config)
    power = 2 * int(k)
    part_moments = [[1.0] + [rps.x_moment(element, j)
                             for j in range(1, power + 1)]] * n
    if direct is not None:
        part_moments.append([1.0] + [nakagami_moment(direct, j)
                                     for j in range(1, power + 1)])

    def expand(idx, remaining):
        if idx == len(part_moments) - 1:
            return part_moments[idx][remaining] / math.factorial(remaining)
        return sum(part_moments[idx][j] / math.factorial(j)
                   * expand(idx + 1, remaining - j)
                   for j in range(remaining + 1))

    return d.rho ** k * math.factorial(power) * expand(0, power)


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


def one_minus_z_log_loop(a, b, m, w):
    """`numerics._one_minus_z_log` summed one term per step, returning
    (value, peak, k) with k the index of the last term added."""
    c = a + b + m
    head = np.zeros_like(w)
    if m >= 1:
        pre_h = (math.gamma(float(m)) * math.gamma(c)
                 / (math.gamma(a + m) * math.gamma(b + m)))
        head = pre_h * nm._series((a, b), (1.0 - m,), w, count=m - 1)
    pre_t = ((-1.0) ** m) * math.gamma(c) / (math.gamma(a) * math.gamma(b))
    log_w = np.log(w)
    psi_k1 = nm.digamma(1.0)
    psi_km1 = nm.digamma(m + 1.0)
    psi_akm = nm.digamma(a + m)
    psi_bkm = nm.digamma(b + m)
    poch = 1.0 / math.gamma(m + 1.0)
    wpow = np.ones_like(w)
    total = np.zeros_like(w)
    peak = np.zeros(w.shape)
    scale = 1e-300
    for k in range(3000):
        e_k = psi_k1 + psi_km1 - psi_akm - psi_bkm
        term = poch * (e_k - log_w) * wpow
        total = total + term
        peak = np.maximum(peak, np.abs(term))
        scale = max(scale, float(np.max(np.abs(total))))
        if k > 2 and np.max(np.abs(term)) <= 1e-17 * scale:
            break
        poch *= (a + m + k) * (b + m + k) / ((k + 1.0) * (k + m + 1.0))
        psi_k1 += 1.0 / (k + 1.0)
        psi_km1 += 1.0 / (k + m + 1.0)
        psi_akm += 1.0 / (a + m + k)
        psi_bkm += 1.0 / (b + m + k)
        wpow = wpow * w
    else:
        raise nm.ConvergenceError("log-sum budget reached",
                                  best_estimate=total)
    peak = np.abs(head) + abs(pre_t) * np.abs(w) ** m * peak
    return head + pre_t * (w ** m) * total, peak, k


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
        if peak:
            top = np.maximum(top, np.abs(term))
        if deriv:
            slope = slope + (k + 1.0) * term / z
        # the stop test runs every 4th term; np.maximum.reduce is the
        # reduction of ndarray.max without its Python-level frame.  An
        # overflowed sum would pass it (any term is below 1e-17 * inf).
        if count is None and k % 4 == 3:
            size = np.maximum.reduce(np.abs(total), axis=None)
            if not math.isfinite(size):
                raise nm._not_converged(total)
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
