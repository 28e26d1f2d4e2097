"""Self-contained special functions and semi-infinite quadrature.

Everything the analytical link models need lives here: digamma, the
upper incomplete gamma function, erfc and the Gaussian Q function, Bessel
functions J0/J1 (with zero tables for oscillatory panel placement), Kummer's
confluent function 1F1, the Gauss hypergeometric function 2F1 on the real
line and in the complex plane off its cut, plus an adaptive panel-based
integrator for semi-infinite oscillatory integrals with Euler / van
Wijngaarden acceleration of alternating panel sums.

Only the C math library (math.lgamma, exp/log/trig, and math.erfc for
scalar Q) and numpy array plumbing are used; no special-function library
is imported.  The array erfc is a numpy port of fdlibm's piecewise
rational erfc (the algorithm of glibc's erfc), within 4 ulp of
math.erfc, so the simulator's BER kernel makes no Python call per draw
and holds no interpreter lock.  All routes were calibrated against
high-precision references before the regression values in the test
suite were frozen.

The 2F1 implementation is the delicate part.  Arguments arrive either as
large negative reals (Hankel-transform factors) or on the unit circle
(cascade characteristic function), so the engine routes per element:

* terminating series when a numerator parameter is a nonpositive integer,
  directly or after an Euler transformation;
* the Gauss series for small ``|z|`` and the Pfaff transform for moderate
  ``|z/(z-1)|``;
* connection formulas in ``1 - z`` (generic two-term, and the logarithmic
  form when ``c - a - b`` is an integer) near ``z = 1``;
* for ``|z| >= 3``, the Pfaff transform, whose ``c`` minus its numerators
  is ``b - a``, into the same ``1 - z`` connection formulas at
  ``1/(1 - z)``;
* a vectorized Taylor-step analytic continuation of the hypergeometric ODE
  for the remaining annulus, for ``c - a - b`` within 0.02 of an integer
  near ``z = 1``, and for every value of the four series routes above
  whose largest term exceeds it by more than 1e3 (the cancellation check).

One term recurrence, ``_series``, is the series engine for 1F1 and 2F1:
it sums the convergent and terminating 1F1 series, the Gauss, Pfaff and
terminating 2F1 series, the power series of the non-logarithmic
connection formulas and of the logarithmic 1 - z form's head, and the
continuation anchor (with its z-derivative).  It tests for convergence
every 4th term, and reads the largest term for the cancellation check
off those tests.  A series that reaches its term budget, or whose
partial sum is no longer finite at a stop test, raises
`ConvergenceError`; `_series` never returns a truncated or overflowed
sum.  Its term loop, and that of the
1F1 asymptotic expansion, update the term, sum and peak arrays in place
with the operands of the allocating form in the same order, so the sums
are the same to the bit.  The digamma log-sum of the logarithmic 1 - z
form keeps its own term loop, one term per step, since its coefficients
need digamma recurrences that `_series` does not carry.  No term loop
calls ``ndarray.max`` (a Python frame per call): the stop tests use
``np.maximum.reduce``.

1F1 at a negative argument -X uses the Kummer series e^-X M(b-a; b; X),
which needs about X terms, up to a switch point X0(a, b), and the
algebraic asymptotic expansion (DLMF 13.7) beyond it.  X0 is the
smallest X, capped at 600, at which the expansion's terms fall below
1e-17 before they grow and the exponentially small part it drops is
below 1e-17 relative; it is found by bisection and cached per (a, b).
Where the expansion cannot reach 1e-17 (X > 600 with X0 capped) it
raises `ConvergenceError`.

The integrator walks panels in blocks of 16, scoring each panel by its
20-point Gauss-Legendre (GL) value against the sum of its two halves.  A
panel that misses its tolerance is refined level by level, without
recursion: each level halves every pending sub-panel in one integrand
call, reusing the value each sub-panel already has as its parent's half.
The subinterval budget counts GL panels, 2 per halved panel.

Vectorized callers (characteristic functions on quadrature grids) pass
ndarray arguments and get ndarrays back; scalars stay scalars.  Integrands
are expected to be rescaled by the caller so that the significant support
is O(1)-sized: `TRUNCATION_CAP` assumes as much.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "EULER_GAMMA",
    "digamma",
    "erfc",
    "gauss_q",
    "upper_incomplete_gamma",
    "regularized_lower_gamma",
    "exp_scaled_e1",
    "bessel_j",
    "bessel_zeros",
    "hyp1f1",
    "hyp2f1",
    "taylor_coefficients_product",
    "integrate_semi_infinite",
]

EULER_GAMMA = 0.5772156649015328606


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to reach the requested tolerance.

    Attributes
    ----------
    best_estimate : float or complex or None
        The value accumulated before giving up, when meaningful.
    error_bound : float or None
        A (crude) bound on the error of ``best_estimate``.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


MAX_SUBINTERVALS = 4096
TRUNCATION_CAP = 1e4


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for `integrate_semi_infinite`."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


# =====================================================================
# Gamma family
# =====================================================================

# Asymptotic tail of psi(x): ln x - 1/(2x) - sum B_2n / (2n x^2n).
_PSI_TAIL = (
    1.0 / 12.0,        # B2/2
    -1.0 / 120.0,      # B4/4
    1.0 / 252.0,       # B6/6
    -1.0 / 240.0,      # B8/8
    1.0 / 132.0,       # B10/10
    -691.0 / 32760.0,  # B12/12
)


def digamma(x):
    """Digamma function for real noninteger x (and positive integers)."""
    x = float(x)
    reflect = 0.0
    if x <= 0:
        if x == math.floor(x):
            raise ValueError("digamma pole at nonpositive integer")
        # reflection psi(x) = psi(1-x) - pi/tan(pi x), argument range-reduced
        reflect = math.pi / math.tan(math.pi * (x - round(x)))
        x = 1.0 - x
    result = 0.0
    while x < 10.0:
        result -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for coeff in _PSI_TAIL:
        tail -= coeff * p
        p *= inv2
    return (result + math.log(x) - 0.5 / x + tail) - reflect


# erfc: fdlibm's s_erf.c (Sun Microsystems, 1993), the algorithm of the
# glibc erfc behind math.erfc.  Polynomial coefficients are listed highest
# degree first, for Horner's rule; the S and Q denominators end in 1.
_ERX = 8.45062911510467529297e-01
_ERFC_PP = (-2.37630166566501626084e-05, -5.77027029648944159157e-03,
            -2.84817495755985104766e-02, -3.25042107247001499370e-01,
            1.28379167095512558561e-01)
_ERFC_QQ = (-3.96022827877536812320e-06, 1.32494738004321644526e-04,
            5.08130628187576562776e-03, 6.50222499887672944485e-02,
            3.97917223959155352819e-01, 1.0)
_ERFC_PA = (-2.16637559486879084300e-03, 3.54783043256182359371e-02,
            -1.10894694282396677476e-01, 3.18346619901161753674e-01,
            -3.72207876035701323847e-01, 4.14856118683748331666e-01,
            -2.36211856075265944077e-03)
_ERFC_QA = (1.19844998467991074170e-02, 1.36370839120290507362e-02,
            1.26171219808761642112e-01, 7.18286544141962662868e-02,
            5.40397917702171048937e-01, 1.06420880400844228286e-01, 1.0)
_ERFC_RA = (-9.81432934416914548592e+00, -8.12874355063065934246e+01,
            -1.84605092906711035994e+02, -1.62396669462573470355e+02,
            -6.23753324503260060396e+01, -1.05586262253232909814e+01,
            -6.93858572707181764372e-01, -9.86494403484714822705e-03)
_ERFC_SA = (-6.04244152148580987438e-02, 6.57024977031928170135e+00,
            1.08635005541779435134e+02, 4.29008140027567833386e+02,
            6.45387271733267880336e+02, 4.34565877475229228821e+02,
            1.37657754143519042600e+02, 1.96512716674392571292e+01, 1.0)
_ERFC_RB = (-4.83519191608651397019e+02, -1.02509513161107724954e+03,
            -6.37566443368389627722e+02, -1.60636384855821916062e+02,
            -1.77579549177547519889e+01, -7.99283237680523006574e-01,
            -9.86494292470009928597e-03)
_ERFC_SB = (-2.24409524465858183362e+01, 4.74528541206955367215e+02,
            2.55305040643316442583e+03, 3.19985821950859553908e+03,
            1.53672958608443695994e+03, 3.25792512996573918826e+02,
            3.03380607434824582924e+01, 1.0)
# lower ends of fdlibm's ranges of |x| after the first: 2^-56, 0.84375,
# 1.25, about 1/0.35 (0x4006DB6D00000000) and 28
_ERFC_EDGES = (2.0 ** -56, 0.84375, 1.25, 2.8571414947509765625, 28.0)
_ERFC_BLOCK = 16384                 # elements per pass, bounding temporaries
_LOW_WORD_CLEAR = np.int64(-(1 << 32))


def _horner(coeffs, t):
    """Polynomial in t, coefficients highest degree first, stepped in place
    in the order of fdlibm's nested form."""
    r = t * coeffs[0]
    r += coeffs[1]
    for c in coeffs[2:]:
        r *= t
        r += c
    return r


def _erfc_small(x):
    # |x| < 0.84375: erfc = 1 - x - x y with y = P(x^2) / Q(x^2)
    z = x * x
    y = _horner(_ERFC_PP, z)
    y /= _horner(_ERFC_QQ, z)
    y *= x
    return np.where(x < 0.25, 1.0 - (x + y), 0.5 - (y + (x - 0.5)))


def _erfc_mid(x):
    # 0.84375 <= |x| < 1.25: erf(|x|) = erx + P(s) / Q(s), s = |x| - 1
    s = np.abs(x) - 1.0
    pq = _horner(_ERFC_PA, s)
    pq /= _horner(_ERFC_QA, s)
    return np.where(x > 0, (1.0 - _ERX) - pq, 1.0 + (_ERX + pq))


def _erfc_tail(num, den):
    def tail(x):
        # exp(-x^2 - 0.5625 + R/S) / |x| with s = 1/x^2, split at z = x
        # with its low 32 bits cleared so that z*z is exact
        ax = np.abs(x)
        s = ax * ax
        np.divide(1.0, s, out=s)
        rs = _horner(num, s)
        rs /= _horner(den, s)
        z = (ax.view(np.int64) & _LOW_WORD_CLEAR).view(np.float64)
        s = z - ax
        s *= z + ax
        s += rs
        r = np.exp(s, out=s)
        z *= z
        np.subtract(-0.5625, z, out=z)  # -z*z - 0.5625
        r *= np.exp(z, out=z)
        r /= ax
        # fdlibm returns 2 for x <= -6, which 2 - r rounds to already
        return np.where(x > 0, r, 2.0 - r)
    return tail


# one evaluator per range; NaN, below every edge, goes to the first and
# +-inf to the last
_ERFC_RANGES = (
    lambda x: 1.0 - x,
    _erfc_small,
    _erfc_mid,
    _erfc_tail(_ERFC_RA, _ERFC_SA),
    _erfc_tail(_ERFC_RB, _ERFC_SB),
    lambda x: np.where(x > 0, 0.0, 2.0),
)


def erfc(x):
    """Complementary error function over a float array, elementwise.

    fdlibm's ranges, each evaluated only on its own elements; within 4 ulp
    of `math.erfc` (glibc), exact at +-0, +-inf and NaN.  Pure numpy, so it
    runs without the interpreter lock.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _ERFC_BLOCK):
        part = flat[lo:lo + _ERFC_BLOCK]
        which = np.zeros(part.shape, dtype=np.uint8)
        size = np.abs(part)
        for edge in _ERFC_EDGES:
            which += size >= edge
        for b, evaluate in enumerate(_ERFC_RANGES):
            idx = np.flatnonzero(which == b)
            if idx.size:
                out[lo + idx] = evaluate(part[idx])
    return out.reshape(arr.shape)


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def gauss_q(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) * _SQRT1_2)
    arr = np.asarray(x, dtype=float)
    return 0.5 * erfc(arr * _SQRT1_2)


def _e1_series(x):
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!), small x
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 80):
        term *= -x / k
        piece = -term / k
        total += piece
        if abs(piece) < 1e-17 * max(abs(total), 1e-300):
            return total
    raise ConvergenceError("E1 series did not converge", best_estimate=total)


def _gamma_series(a, x):
    """sum_k x^k / (a (a+1) ... (a+k)), so that gamma(a, x) = x^a e^-x
    times it; converges fast for x < a + 1."""
    total = 1.0 / a
    term = total
    ap = a
    for _ in range(500):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total
    raise ConvergenceError("incomplete-gamma series stalled")


def _gamma_fraction(a, x):
    """Lentz continued fraction h, so that Gamma(a, x) = x^a e^-x h;
    converges fast for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError("incomplete-gamma continued fraction stalled")


def upper_incomplete_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x) for a >= 0, x > 0.

    Lentz continued fraction for x >= a + 1, series complement below, and
    the E1 series for a == 0 with small x.  Returns 0.0 for x = inf and
    wherever x^a e^-x underflows.
    """
    a = float(a)
    x = float(x)
    if a < 0:
        raise ValueError("upper_incomplete_gamma requires a >= 0")
    if x <= 0:
        raise ValueError("upper_incomplete_gamma requires x > 0")
    if a == 0.0 and x < 1.2:
        return _e1_series(x)
    if x < a + 1.0:
        # lower-function series, then complement
        lower = _gamma_series(a, x) * math.exp(-x + a * math.log(x))
        return math.exp(math.lgamma(a)) - lower
    # x^a e^-x underflows: every x there that the fraction converges on
    # gives exactly 0.0, and far out (x >= ~2.3e16) its stop test
    # |delta - 1| < 1e-16, below the spacing of doubles above 1, can stall
    if x == math.inf or a * math.log(x) - x < -746.0:
        return 0.0
    h = _gamma_fraction(a, x)
    return math.exp(-x + a * math.log(x)) * h if a > 0 else math.exp(-x) * h


def regularized_lower_gamma(a, x):
    """P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0.

    The prefactor x^a e^-x / Gamma(a) is formed as one exponential of
    a ln x - x - lgamma(a), so no shape overflows Gamma(a).  Below
    x = a + 1 the series gives P with full relative accuracy; above it
    the continued fraction gives 1 - P.
    """
    a = float(a)
    x = float(x)
    if not a > 0:
        raise ValueError("regularized_lower_gamma requires a > 0")
    if not x >= 0:
        raise ValueError("regularized_lower_gamma requires x >= 0")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    log_pre = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        return min(_gamma_series(a, x) * math.exp(log_pre), 1.0)
    # 1 - P underflows (see upper_incomplete_gamma on the fraction's stall)
    if log_pre < -746.0:
        return 1.0
    return 1.0 - _gamma_fraction(a, x) * math.exp(log_pre)


def exp_scaled_e1(z):
    """e^z * E1(z) for z > 0, overflow-safe for large z."""
    z = float(z)
    if z <= 0:
        raise ValueError("exp_scaled_e1 requires z > 0")
    if z < 50.0:
        return math.exp(z) * upper_incomplete_gamma(0.0, z)
    # asymptotic series (1/z) sum (-1)^k k! / z^k, cut at the smallest term
    total = 0.0
    term = 1.0 / z
    for k in range(0, 40):
        total += term
        nxt = term * -(k + 1) / z
        if abs(nxt) >= abs(term):
            break
        term = nxt
    return total


# =====================================================================
# Bessel J0 / J1
# =====================================================================

_BESSEL_M = 48
_BESSEL_THETA = (np.arange(_BESSEL_M) + 0.5) * (math.pi / _BESSEL_M)
_BESSEL_SIN_THETA = np.sin(_BESSEL_THETA)
_BESSEL_SWITCH = 45.0


def _bessel_small(order, ax):
    # midpoint rule on the cosine integral form; spectrally accurate
    # because the periodically extended integrand is entire
    arg = ax[:, None] * _BESSEL_SIN_THETA[None, :]
    if order == 1:
        arg = arg - _BESSEL_THETA[None, :]
    return np.cos(arg).mean(axis=1)


def _bessel_large(order, ax):
    # Hankel asymptotic expansion with recursively built P and Q sums
    mu = 4.0 * order * order
    inv8x = 1.0 / (8.0 * ax)
    p = np.ones_like(ax)
    q = np.zeros_like(ax)
    term = np.ones_like(ax)
    for k in range(1, 19):
        term = term * ((mu - (2 * k - 1) ** 2) / k) * inv8x
        if k % 2 == 1:
            q = q + (-term if k % 4 == 3 else term)
        else:
            p = p + (-term if k % 4 == 2 else term)
        if np.maximum.reduce(np.abs(term), axis=None) < 1e-17:
            break
    omega = ax - (2 * order + 1) * (math.pi / 4.0)
    amp = np.sqrt(2.0 / (math.pi * ax))
    return amp * (p * np.cos(omega) - q * np.sin(omega))


def _require_real(name, x):
    # casting to float would drop the imaginary part with only a warning
    if np.iscomplexobj(x):
        raise ValueError(f"{name} takes a real argument x, got complex {x!r}")


def bessel_j(order, x):
    """Bessel function of the first kind, order 0 or 1, real argument."""
    if order not in (0, 1):
        raise ValueError("bessel_j supports orders 0 and 1 only")
    _require_real("bessel_j", x)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    ax = np.abs(flat)
    out = np.empty_like(ax)
    small = ax <= _BESSEL_SWITCH
    if small.any():
        out[small] = _bessel_small(order, ax[small])
    if (~small).any():
        out[~small] = _bessel_large(order, ax[~small])
    if order == 1:
        out = out * np.sign(flat)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def bessel_zeros(order, count):
    """First `count` positive zeros of J0 or J1 (McMahon start + Newton)."""
    if order not in (0, 1):
        raise ValueError("bessel_zeros supports orders 0 and 1 only")
    if count < 1:
        raise ValueError("count must be positive")
    k = np.arange(1, count + 1, dtype=float)
    beta = (k + 0.5 * order - 0.25) * math.pi
    mu = 4.0 * order * order
    x = beta - (mu - 1.0) / (8.0 * beta) \
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    for _ in range(3):
        if order == 0:
            f = bessel_j(0, x)
            fp = -bessel_j(1, x)
        else:
            f = bessel_j(1, x)
            fp = bessel_j(0, x) - f / x
        x = x - f / fp
    return x


# =====================================================================
# Hypergeometric series
# =====================================================================

def _not_converged(partial_sum) -> ConvergenceError:
    return ConvergenceError("hypergeometric series did not converge",
                            best_estimate=partial_sum)


def _series(nums, dens, z, *, count=None, budget=4000, peak=False,
            deriv=False):
    """Sum_k prod (p)_k / (prod (q)_k k!) z^k over the ndarray z.

    Term k+1 is term k times prod(p + k) / ((k + 1) prod(q + k)) times z,
    with the products formed left to right.  With ``count`` the sum stops
    after that many ratio steps (terminating series).  Otherwise it stops
    at the first step k = 3 (mod 4) whose newest term's largest magnitude
    is at most 1e-17 of the partial sum's, and `ConvergenceError` is
    raised if ``budget`` steps are not enough or a stop test finds the
    partial sum not finite.  ``peak`` adds the largest magnitude of term 0
    and of the terms the stop tests read (so not with ``count``), and
    ``deriv`` the z-derivative, to the return value, in that order.
    """
    if peak and count is not None:
        raise ValueError("a terminating series has no stop test for peak")
    total = np.ones_like(z)
    term = np.ones_like(z)
    top = np.ones(z.shape) if peak else None
    slope = np.zeros_like(z) if deriv else None
    size = np.empty(z.shape)            # |total| or |term|, reused
    step = np.empty_like(z) if deriv else None
    for k in range(budget if count is None else count):
        num = 1.0
        for p in nums:
            num *= p + k
        den = k + 1.0
        for q in dens:
            den *= q + k
        np.multiply(term, num / den, out=term)
        np.multiply(term, z, out=term)
        np.add(total, term, out=total)
        if deriv:
            np.multiply(k + 1.0, term, out=step)
            np.divide(step, z, out=step)
            np.add(slope, step, out=slope)
        # the stop test runs every 4th term; np.maximum.reduce is the
        # reduction of ndarray.max without its Python-level frame.  An
        # overflowed sum would pass it (any term is below 1e-17 * inf).
        if count is None and k % 4 == 3:
            big = np.maximum.reduce(np.abs(total, out=size), axis=None)
            if not math.isfinite(big):
                raise _not_converged(total)
            np.abs(term, out=size)
            if peak:
                np.maximum(top, size, out=top)
            if np.maximum.reduce(size, axis=None) <= 1e-17 * max(big, 1e-300):
                break
    else:
        if count is None:
            raise _not_converged(total)
    extras = [x for x in (top, slope) if x is not None]
    return (total, *extras) if extras else total


# =====================================================================
# Confluent hypergeometric 1F1
# =====================================================================

_KUMMER_MAX = 600.0
_LOG_1E17 = math.log(1e-17)


def _is_nonpos_int(v, tol=1e-9):
    return v <= tol and abs(v - round(v)) < tol


def _hyp1f1_asym_neg(a, b, big_x):
    """M(a,b,-X) ~ G(b)/G(b-a) X^-a sum_k (a)_k (1+a-b)_k / (k! X^k).

    Raises `ConvergenceError` unless the terms fall below 1e-17 within 60
    steps without growing first; the exponentially small part
    G(b)/G(a) e^-X X^(a-b) is dropped, which `_kummer_switch` accounts for.
    """
    lead = math.gamma(b) / math.gamma(b - a) * np.exp(-a * np.log(big_x))
    total = np.ones_like(big_x)
    term = np.ones_like(big_x)
    size = np.empty_like(big_x)
    last = 1.0                          # largest |term| of the last step
    for k in range(0, 60):
        np.multiply(term, (a + k) * (1.0 + a - b + k) / (k + 1.0), out=term)
        np.divide(term, big_x, out=term)
        top = np.maximum.reduce(np.abs(term, out=size), axis=None)
        if top >= last:
            raise ConvergenceError("1F1 asymptotic terms grow before 1e-17",
                                   best_estimate=lead * total)
        np.add(total, term, out=total)
        if top < 1e-17:
            return lead * total
        last = top
    raise ConvergenceError("1F1 asymptotic expansion did not converge",
                           best_estimate=lead * total)


@functools.lru_cache(maxsize=256)
def _kummer_switch(a, b):
    """X0(a, b): the smallest integer X, capped at `_KUMMER_MAX`, from
    which `_hyp1f1_asym_neg` gives M(a; b; -X) to 1e-17.

    At X0 the algebraic terms fall below 1e-17 before they grow, and the
    dropped part |G(b-a)|/G(a) e^-X X^(2a-b) is below 1e-17 relative.  Both
    bounds only tighten as X grows past 2a - b, so bisection finds X0.
    """
    log_ratio = math.lgamma(b - a) - math.lgamma(a)

    def accurate(x):
        if log_ratio - x + (2.0 * a - b) * math.log(x) >= _LOG_1E17:
            return False
        try:
            _hyp1f1_asym_neg(a, b, np.array([float(x)]))
        except ConvergenceError:
            return False
        return True

    lo = max(math.ceil(2.0 * a - b), 1)
    hi = int(_KUMMER_MAX)
    if lo >= hi or not accurate(hi):
        return _KUMMER_MAX
    if accurate(lo):
        return float(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accurate(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def hyp1f1(a, b, x):
    """Kummer confluent hypergeometric M(a; b; x), real parameters.

    Scalar or ndarray x.  Negative arguments -X go through the Kummer
    transformation e^-X M(b-a; b; X) up to the switch point X0(a, b) of
    `_kummer_switch` and through the algebraic asymptotic expansion beyond
    it, which raises `ConvergenceError` where it cannot reach 1e-17.
    """
    a = float(a)
    b = float(b)
    if _is_nonpos_int(b):
        raise ValueError("1F1 undefined for nonpositive integer b")
    _require_real("hyp1f1", x)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    if _is_nonpos_int(a):
        out[:] = _series((a,), (b,), flat, count=round(-a))
    elif _is_nonpos_int(b - a):
        # Kummer reflection terminates: M(a,b,x) = e^x M(b-a, b, -x)
        out[:] = np.exp(flat) * _series((b - a,), (b,), -flat,
                                        count=round(a - b))
    else:
        pos = flat >= 0.0
        if pos.any():
            out[pos] = _series((a,), (b,), flat[pos], budget=10000)
        neg = ~pos
        if neg.any():
            big_x = -flat[neg]
            sub = np.empty_like(big_x)
            moderate = big_x <= _kummer_switch(a, b)
            if moderate.any():
                xm = big_x[moderate]
                sub[moderate] = np.exp(-xm) * _series((b - a,), (b,), xm,
                                                      budget=10000)
            if (~moderate).any():
                sub[~moderate] = _hyp1f1_asym_neg(a, b, big_x[~moderate])
            out[neg] = sub
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


# =====================================================================
# Gauss hypergeometric 2F1
# =====================================================================

_INT_TOL = 1e-9          # distance below which integer connection forms apply
_DEGENERATE_BAND = 0.02  # nearly-integer d near z = 1 walks the continuation
_CANCEL_LIMIT = 1e3      # peak-term / result ratio tolerated before rerouting


def _terminating_series(a, b, c, z):
    """Series that terminates because a and/or b is a nonpositive integer."""
    candidates = []
    if _is_nonpos_int(a):
        candidates.append(int(round(-a)))
    if _is_nonpos_int(b):
        candidates.append(int(round(-b)))
    degree = min(candidates)
    if _is_nonpos_int(c) and -round(c) < degree:
        raise ValueError("2F1 singular: nonpositive-integer c reached before "
                         "the series terminates")
    return _series((a, b), (c,), z, count=degree)


def _cancels(vals, peak):
    """Where the peak term exceeds the value by more than `_CANCEL_LIMIT`."""
    return peak > _CANCEL_LIMIT * (np.abs(vals) + 1e-300)


def _one_minus_z_two_term(a, b, c, w):
    """Connection in w = 1 - z for noninteger d = c - a - b."""
    d = c - a - b
    pre1 = (math.gamma(c) * math.gamma(d)
            / (math.gamma(c - a) * math.gamma(c - b)))
    pre2 = (math.gamma(c) * math.gamma(-d)
            / (math.gamma(a) * math.gamma(b)))
    s1, p1 = _series((a, b), (a + b - c + 1.0,), w, budget=3000, peak=True)
    s2, p2 = _series((c - a, c - b), (d + 1.0,), w, budget=3000, peak=True)
    wd = np.exp(d * np.log(w))
    peak = abs(pre1) * p1 + abs(pre2) * np.abs(wd) * p2
    return pre1 * s1 + pre2 * wd * s2, peak


def _one_minus_z_log(a, b, m, w):
    """Connection in w = 1 - z for integer d = m >= 0 (c = a + b + m)."""
    c = a + b + m
    head = np.zeros_like(w)
    if m >= 1:
        pre_h = (math.gamma(float(m)) * math.gamma(c)
                 / (math.gamma(a + m) * math.gamma(b + m)))
        head = pre_h * _series((a, b), (1.0 - m,), w, count=m - 1)
    pre_t = ((-1.0) ** m) * math.gamma(c) / (math.gamma(a) * math.gamma(b))
    log_w = np.log(w)
    psi_k1 = digamma(1.0)
    psi_km1 = digamma(m + 1.0)
    psi_akm = digamma(a + m)
    psi_bkm = digamma(b + m)
    poch = 1.0 / math.gamma(m + 1.0)    # (a+m)_k (b+m)_k / (k! (k+m)!), k = 0
    wpow = np.ones_like(w)
    total = np.zeros_like(w)
    peak = np.zeros(w.shape)
    scale = 1e-300
    for k in range(3000):
        e_k = psi_k1 + psi_km1 - psi_akm - psi_bkm
        term = poch * (e_k - log_w) * wpow
        total = total + term
        mag = np.abs(term)
        peak = np.maximum(peak, mag)
        # max(scale, nan) is scale: a NaN sum leaves the scale alone
        scale = max(scale, float(np.maximum.reduce(np.abs(total), axis=None)))
        if k > 2 and np.maximum.reduce(mag, axis=None) <= 1e-17 * scale:
            break
        poch *= (a + m + k) * (b + m + k) / ((k + 1.0) * (k + m + 1.0))
        psi_k1 += 1.0 / (k + 1.0)
        psi_km1 += 1.0 / (k + m + 1.0)
        psi_akm += 1.0 / (a + m + k)
        psi_bkm += 1.0 / (b + m + k)
        wpow = wpow * w
    else:
        raise _not_converged(total)
    wm = np.abs(w) ** m
    peak = np.abs(head) + abs(pre_t) * wm * peak
    return head + pre_t * (w ** m) * total, peak


def _connection(a, b, c, w):
    """2F1(a, b; c; 1 - w) as (values, peak) by a 1 - w connection formula.

    Integer d = c - a - b takes the log form (after Euler's flip if d < 0),
    other d the two-term form; `peak` is for the cancellation check.
    """
    d = c - a - b
    m = round(d)
    if abs(d - m) >= _INT_TOL:
        return _one_minus_z_two_term(a, b, c, w)
    if m >= 0:
        return _one_minus_z_log(a, b, m, w)
    flip, peak = _one_minus_z_log(c - a, c - b, -m, w)
    wd = np.exp(d * np.log(w))
    return wd * flip, np.abs(wd) * peak


def _continuation_vec(a, b, c, targets):
    """Taylor-step continuation of the hypergeometric ODE toward `targets`.

    Vectorized over targets; each element walks along its own ray from
    its anchor, at |z| = 0.5 or, where the Gauss series cancels there,
    moved in by 4x until it does not (down to 1e-6), with steps bounded
    by 0.35x the distance to the singular points {0, 1}, carrying (F, F')
    through the second-order recurrence for the local Taylor terms
    d_n = c_n h^n.  The terms shrink like 0.35^n at any |z|, where c_n
    and h^n alone under- and overflow once |z| passes about 1e10.  A step
    grows |z| by up to 1.35x, so the step budget grows with the farthest
    target over the nearest anchor.  Past |z| = 1e150 the step products
    would overflow.  Each Taylor sum more than 1e3 below the batch's
    largest stops on its own terms, the others on the largest.
    """
    far = float(np.maximum.reduce(np.abs(targets), axis=None))
    if not far <= 1e150:
        raise ConvergenceError("2F1 continuation target out of range")
    direction = targets / np.abs(targets)
    anchor = np.full(targets.shape, 0.5)
    z0 = 0.5 * direction
    f, peak, fp = _series((a, b), (c,), z0, peak=True, deriv=True)
    move = np.flatnonzero(_cancels(f, peak))
    while move.size:
        anchor[move] = np.maximum(0.25 * anchor[move], 1e-6)
        z0[move] = anchor[move] * direction[move]
        f[move], peak, fp[move] = _series((a, b), (c,), z0[move], peak=True,
                                          deriv=True)
        move = move[_cancels(f[move], peak) & (anchor[move] > 1e-6)]
    near = float(np.minimum.reduce(anchor, axis=None))
    for _ in range(120 + int(math.log(max(far, 0.5) / near) / math.log(1.35))):
        rem = targets - z0
        dist_rem = np.abs(rem)
        if np.maximum.reduce(dist_rem, axis=None) <= 1e-15:
            return f
        radius = np.minimum(np.abs(z0), np.abs(z0 - 1.0))
        step_len = np.minimum(0.35 * radius, dist_rem)
        safe = np.where(dist_rem > 0, dist_rem, 1.0)
        h = step_len * rem / safe
        dn, dn1 = f, fp * h
        total = dn + dn1
        # sum of n d_n: F'(z0 + h) = (d_1 + 2 d_2 + ...) / h
        slope = dn1
        hh = h * h
        denom_base = z0 * (1.0 - z0)
        tilt, shift = 1.0 - 2.0 * z0, (a + b + 1.0) * z0
        ok = False
        for n in range(160):
            dn2 = ((n + a) * (n + b) * hh * dn
                   - (n + 1.0) * (tilt * n + c - shift) * h * dn1) \
                / (denom_base * (n + 2.0) * (n + 1.0))
            slope = slope + (n + 2.0) * dn2
            total = total + dn2
            dn, dn1 = dn1, dn2
            # the batch-wide test, which every per-element pass implies
            size, mag = np.abs(total), np.abs(dn2)
            big = max(np.maximum.reduce(size, axis=None), 1e-300)
            if np.maximum.reduce(mag, axis=None) <= 1e-17 * big and np.all(
                    mag <= 1e-17 * np.where(size * 1e3 < big,
                                            np.maximum(size, 1e-300), big)):
                ok = True
                break
        if not ok:
            raise ConvergenceError("2F1 continuation step did not converge")
        z0 = z0 + h
        f = total
        # a target already reached takes a zero step and keeps F'
        fp = np.where(h == 0.0, fp, slope / np.where(h == 0.0, 1.0, h))
    raise ConvergenceError("2F1 continuation exceeded the step budget")


def _hyp2f1_cast(out, arr, scalar, real_in):
    if real_in:
        out = np.real(out)
    out = out.reshape(arr.shape)
    if scalar:
        return float(out[()]) if real_in else complex(out[()])
    return out


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z), scalar or ndarray z.

    Real z must satisfy z <= 1 (z = 1 requires c - a - b > 0); complex z
    may sit anywhere off the cut (1, inf).  Real input gives float output,
    complex input gives complex output.  Values the cancellation check
    sends to the continuation carry its rounding, worst next to sign
    changes, without raising: 2F1(m, m; 1; z) on [-1e4, -0.3] is up to
    4e-12 off at m = 5.76, 1.5e-10 at 10.76, 3.3e-9 at 20.75 and 7.5e-4
    at 30.5, and 2F1(5.76, 5.7601; 1; 1e4 e^0.5j) 1.3e-5; the unchecked
    Euler polynomial cancels from shapes of about 40.
    """
    a = float(a)
    b = float(b)
    c = float(c)
    if a > b:
        a, b = b, a
    arr = np.asarray(z)
    scalar = arr.ndim == 0
    real_in = not np.iscomplexobj(arr)
    zc = np.atleast_1d(arr).ravel().astype(complex)

    if real_in and np.any(np.real(zc) > 1.0):
        raise ConvergenceError("2F1 argument on the branch cut (1, inf)")

    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _hyp2f1_cast(_terminating_series(a, b, c, zc), arr, scalar,
                            real_in)
    if _is_nonpos_int(c):
        raise ValueError("2F1 pole: c is a nonpositive integer")
    if _is_nonpos_int(c - a) or _is_nonpos_int(c - b):
        # Euler transformation yields a terminating series
        ap, bp = c - a, c - b
        if ap > bp:
            ap, bp = bp, ap
        poly = _terminating_series(ap, bp, c, zc)
        out = np.exp((c - a - b) * np.log(1.0 - zc)) * poly
        return _hyp2f1_cast(out, arr, scalar, real_in)

    out = np.empty_like(zc)
    absz = np.abs(zc)
    done = np.zeros(zc.shape, dtype=bool)
    # elements where a series route lost precision to cancellation (peak
    # term >> result) are rerouted to the continuation
    lossy = np.zeros(zc.shape, dtype=bool)

    def _accept(mask, vals, peak):
        bad = _cancels(vals, peak)
        out[mask] = vals
        done[mask] = True
        if bad.any():
            lossy[np.flatnonzero(mask)[bad]] = True

    direct = absz <= 0.75
    if direct.any():
        _accept(direct, *_series((a, b), (c,), zc[direct], peak=True))

    with np.errstate(divide="ignore", invalid="ignore"):
        w_pfaff = zc / (zc - 1.0)
        pfaff_ok = np.abs(w_pfaff) <= 0.90
    pfaff = (~done) & np.where(np.isfinite(np.abs(w_pfaff)), pfaff_ok, False)
    if pfaff.any():
        pre = np.exp(-a * np.log(1.0 - zc[pfaff]))
        vals, peak = _series((a, c - b), (c,), w_pfaff[pfaff], peak=True)
        _accept(pfaff, pre * vals, np.abs(pre) * peak)

    d = c - a - b
    near_one = (~done) & (np.abs(1.0 - zc) <= 0.95)
    # near z = 1 a noninteger d inside the band walks the continuation: on
    # the cascade CHF's families it is within 7e-15 there, where the
    # two-term form's Gamma(d) and Gamma(-d) terms cancel to 6e-14 .. 8e-5
    in_band = _INT_TOL <= abs(d - round(d)) < _DEGENERATE_BAND
    if near_one.any() and not in_band:
        w = 1.0 - zc[near_one]
        vals = np.empty_like(w)
        peak = np.zeros(w.shape)
        at_one = np.abs(w) == 0.0
        if at_one.any():
            if d <= 0:
                raise ConvergenceError("2F1 diverges at z = 1 for c-a-b <= 0")
            vals[at_one] = (math.gamma(c) * math.gamma(d)
                            / (math.gamma(c - a) * math.gamma(c - b)))
        off = ~at_one
        if off.any():
            vals[off], peak[off] = _connection(a, b, c, w[off])
        _accept(near_one, vals, peak)

    far = (~done) & (absz >= 3.0)
    if far.any():
        # Pfaff, F = (1 - z)^-a 2F1(a, c - b; c; z / (z - 1)), whose c minus
        # its numerators is b - a: the 1 - z connection at v = 1 / (1 - z)
        zf = zc[far].real if real_in else zc[far]
        v = 1.0 / (1.0 - zf)
        vals, peak = _connection(a, c - b, c, v)
        _accept(far, v ** a * vals, np.abs(v) ** a * peak)

    rest = (~done) | lossy
    if rest.any():
        out[rest] = _continuation_vec(a, b, c, zc[rest])

    return _hyp2f1_cast(out, arr, scalar, real_in)


# =====================================================================
# Series helpers
# =====================================================================

def taylor_coefficients_product(series_list, order):
    """Coefficients of the product of truncated Maclaurin series.

    Each input must supply at least ``order + 1`` coefficients; the result
    is exact through ``order`` (higher cross terms are discarded).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = np.zeros(order + 1)
    acc[0] = 1.0
    for series in series_list:
        coeffs = np.asarray(series, dtype=float)
        if coeffs.shape[0] < order + 1:
            raise ValueError("series length mismatch: need at least "
                             f"{order + 1} coefficients, got {coeffs.shape[0]}")
        acc = np.convolve(acc, coeffs[:order + 1])[:order + 1]
    return acc


# =====================================================================
# Semi-infinite quadrature
# =====================================================================

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# The CLI's walks stop after 11 to about 80 panels, so a block of 16
# evaluates far panels (where the transforms take their slowest routes)
# only when the walk reaches them.  Blocks of 8 or 12 move a fig2 row by
# 1 ulp, because `_series` stops on a test over the whole batch.
_PANEL_BLOCK = 16


@functools.lru_cache(maxsize=32)
def _gauss_jacobi(beta: float):
    """20-point Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    (1 + x)^beta, beta > -1, by Golub-Welsch: the eigenvalues of the
    Jacobi matrix of the P^(0, beta) recurrence, and the weight's mass
    2^(beta+1) / (beta + 1) times the squared first components of its
    eigenvectors."""
    k = np.arange(1.0, 20.0)
    s = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)],
                           beta * beta / (s * (s + 2.0))])
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                 + np.diag(off, -1))
    weights = 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2
    # the cache hands these arrays to every caller
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gl_batch(f, los, his):
    """20-point Gauss-Legendre on each [lo, hi] panel with one f call."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


def _euler_accelerate(terms):
    """van Wijngaarden averaging of the partial sums of `terms`, a
    nonempty sequence of floats.

    Returns (estimate, uncertainty); effective when the terms alternate in
    sign with slowly decaying magnitude.
    """
    row = list(itertools.accumulate(terms))
    best, err = row[-1], abs(terms[-1])
    while len(row) >= 2:
        row = [0.5 * (a + b) for a, b in zip(row, row[1:])]
        delta = abs(row[-1] - best)
        if delta <= err:
            err = delta
            best = row[-1]
        if err == 0.0:
            break
    return best, err


def _alternating(tail):
    # compare signs, not products: a product of tiny terms underflows to 0
    if len(tail) < 4:
        return False
    signs = [(x > 0.0) - (x < 0.0) for x in tail]
    return 0 not in signs and all(a != b for a, b in zip(signs, signs[1:]))


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of a NaN-free array, flattened and ascending:
    what np.unique returns, without its import of numpy.ma."""
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def _build_edges(breakpoints, lower, cap):
    if breakpoints is not None:
        edges = [lower]
        for point in breakpoints:
            point = float(point)
            if point <= edges[-1]:
                continue
            if point > cap:
                break
            edges.append(point)
    else:
        edges = [lower]
    # extend with doubling panels so finite breakpoint lists or default
    # edges can still reach the truncation cap
    width = edges[-1] - edges[-2] if len(edges) >= 2 else 1.0
    width = max(width, 1e-3)
    while edges[-1] < cap:
        edges.append(min(edges[-1] + width, cap))
        width *= 2.0
    return edges


def _halve(f, los, his, whole=None):
    """(mids, left, right, |left + right - whole|) with one integrand call;
    without ``whole`` the whole panels are integrated in that same call."""
    mids = 0.5 * (los + his)
    starts, ends = [los, mids], [mids, his]
    if whole is None:
        starts, ends = [los] + starts, [his] + ends
    parts = _gl_batch(f, np.concatenate(starts),
                      np.concatenate(ends)).reshape(len(starts), -1)
    left, right = parts[-2:]
    if whole is None:
        whole = parts[0]
    return mids, left, right, np.abs(left + right - whole)


def _refine(f, los, mids, his, left, right, tol, budget, running, disc):
    """Bisect panels split at ``mids`` into halves ``left`` and ``right``,
    one integrand call per level, until every half is within ``tol``
    (halved per level).  Returns (value, error, budget left); a level the
    budget cannot pay for raises `ConvergenceError` with every known value."""
    value = err = 0.0
    while len(los):
        los, his = np.concatenate([los, mids]), np.concatenate([mids, his])
        vals = np.concatenate([left, right])
        if 2 * len(los) > budget:
            raise ConvergenceError("subinterval budget exhausted",
                                   best_estimate=running + value
                                   + float(np.sum(vals)), error_bound=disc)
        budget -= 2 * len(los)
        mids, left, right, discs = _halve(f, los, his, vals)
        keep = (discs > tol) & (his - los > 1e-14 * np.maximum(1.0, abs(his)))
        value += float(np.sum((left + right)[~keep]))
        err += float(np.sum(discs[~keep])) / 63.0
        disc = float(np.sum(discs[keep]))
        los, mids, his, left, right = (a[keep] for a in
                                       (los, mids, his, left, right))
        tol *= 0.5
    return value, err, budget


def _uniform_widths(widths) -> bool:
    cap = 1.5 * min(widths)
    return all(0.0 < w <= cap for w in widths)


def _termination_check(contributions, widths, peak, total, spec):
    """Decide whether the panel walk can stop; returns (result, residual).

    ``contributions`` is the float64 array of panel contributions so far;
    the stop tests read at most its last 12 entries, as Python floats.  The
    alternating-series shortcut is only trusted on a run of
    near-uniform panel widths (a consistent half-period ladder); mixed
    ladders can produce coincidental sign patterns that extrapolate to the
    wrong limit.  The geometric shortcut likewise wants several
    consecutive decaying ratios, not one lucky pair.
    """
    n = len(contributions)
    if n < 6:
        return None, None
    target = max(spec.abs_tol, spec.rel_tol * abs(total))
    start = max(0, n - 12)
    tail = contributions[start:].tolist()
    if _alternating(tail) and abs(tail[-1]) <= 0.2 * (peak + 1e-300) \
            and _uniform_widths(widths[start:]):
        head = float(np.add.reduce(contributions[:start]))
        est, unc = _euler_accelerate(tail)
        if unc <= target:
            return head + est, unc
    last = abs(tail[-1])
    if last <= target and last <= 0.01 * (peak + 1e-300):
        mags = [abs(c) for c in tail[-5:]]
        if all(m > 0 for m in mags[:-1]):
            ratios = [b / a for a, b in zip(mags, mags[1:])]
            if all(r < 0.9 for r in ratios):
                rmax = max(ratios)
                if last * rmax / (1.0 - rmax) <= target:
                    return total, last * rmax / (1.0 - rmax)
    return None, None


def integrate_semi_infinite(f, spec=None, *, breakpoints=None, lower=0.0,
                            full_output=False):
    """Integrate a vectorized real integrand over [lower, infinity).

    Panels come either from an iterable of increasing breakpoints (e.g.
    scaled Bessel zeros for oscillatory kernels) or from a default doubling
    sequence.  Panels are evaluated in blocks of `_PANEL_BLOCK` (16) by
    adaptive Gauss-Legendre, with one integrand call per block that takes
    the whole panels and both their halves at once, so a walk evaluates at
    most one block past the panel it stops at; a panel that misses
    its tolerance is bisected level by level, one integrand call per
    level, at half the tolerance per level.  The running sequence
    of panel contributions is summed directly when it decays geometrically
    and through Euler / van Wijngaarden averaging when it alternates, which
    is what makes slowly decaying oscillatory tails affordable; that stop
    test runs after every panel, on Python floats.  Raises
    `ConvergenceError` (carrying the best estimate) when the truncation cap
    is reached first and the last panel is not already within the target,
    or when the next level costs more than is left of the budget of
    `MAX_SUBINTERVALS` GL panels (each halved panel costs 2).

    With ``full_output=True`` returns ``(value, error_bound)``.
    """
    spec = spec or DEFAULT_QUADRATURE
    lower = float(lower)
    if lower < 0:
        raise ValueError("lower limit must be nonnegative")
    edges = _build_edges(breakpoints, lower, TRUNCATION_CAP)
    n_edges = len(edges)
    budget = MAX_SUBINTERVALS

    # panel contributions in one float64 buffer: np.add.reduce over it is
    # the pairwise sum np.sum forms, without a list-to-array copy a panel
    contributions = np.empty(max(n_edges - 1, 0))
    n = 0
    widths = []
    total = 0.0
    peak = 0.0
    err_total = 0.0
    result = residual = None

    idx = 0
    while idx < n_edges - 1 and result is None:
        stop = min(idx + _PANEL_BLOCK, n_edges - 1)
        los = np.asarray(edges[idx:stop])
        his = np.asarray(edges[idx + 1:stop + 1])
        mids, left, right, discs = _halve(f, los, his)
        budget -= 2 * len(los)
        for i, (whole, disc, width) in enumerate(zip(
                (left + right).tolist(), discs.tolist(), (his - los).tolist())):
            scale = max(abs(total), abs(whole))
            tol = max(spec.abs_tol, spec.rel_tol * scale) / 8.0
            contrib, perr = whole, disc / 63.0
            if disc > tol:
                contrib, perr, budget = _refine(
                    f, *(a[i:i + 1] for a in (los, mids, his, left, right)),
                    0.5 * tol, budget, total, disc)
            contributions[n] = contrib
            n += 1
            widths.append(width)
            err_total += perr
            done = contributions[:n]
            total = float(np.add.reduce(done))
            peak = max(peak, abs(contrib))
            result, residual = _termination_check(done, widths, peak, total,
                                                  spec)
            if result is not None:
                break
        idx = stop

    if result is None:
        # edge list spent: accept only a last panel already within target
        last = abs(float(contributions[n - 1])) if n else None
        if last is None or last > max(spec.abs_tol,
                                      spec.rel_tol * abs(total)):
            raise ConvergenceError(
                "integral truncated before reaching the tolerance",
                best_estimate=total, error_bound=last)
        result, residual = total, last

    if full_output:
        return result, residual + err_total
    return result
