"""Tests for the special-function kernel and the semi-infinite integrator.

Reference values were frozen from mpmath at 30 significant digits; scipy
serves as a live cross-check where it implements the same function.
"""

import math
import warnings

import numpy as np
import pytest
import mpmath as mp
from scipy import special as sp

import oracles
from rislink import cli, rps
from rislink import numerics as nm


# ---------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------

def test_digamma_reflection_and_recurrence():
    assert nm.digamma(-2.3) == pytest.approx(3.3173231575618201, rel=1e-13)
    for x in (0.17, 1.0, 3.5, 11.25):
        assert nm.digamma(x + 1.0) == pytest.approx(nm.digamma(x) + 1.0 / x,
                                                    rel=1e-12)
    with pytest.raises(ValueError):
        nm.digamma(-3.0)


def test_upper_incomplete_gamma_exponential_row():
    # Gamma(1, x) = e^-x across the full float exponent range in use
    for x in np.geomspace(1e-6, 700.0, 25):
        assert nm.upper_incomplete_gamma(1.0, x) == pytest.approx(
            math.exp(-x), rel=1e-12)


def test_upper_incomplete_gamma_limits_and_e1():
    assert nm.upper_incomplete_gamma(2.0, 1e-300) == pytest.approx(1.0,
                                                                   rel=1e-12)
    assert nm.upper_incomplete_gamma(0.0, 1.0) == pytest.approx(
        0.21938393439552027, rel=1e-13)
    assert nm.upper_incomplete_gamma(5.7619, 3.3) == pytest.approx(
        69.08876317332198, rel=1e-12)
    with pytest.raises(ValueError):
        nm.upper_incomplete_gamma(-1.0, 2.0)
    with pytest.raises(ValueError):
        nm.upper_incomplete_gamma(1.0, 0.0)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.75, 1.5, 3.0, 5.761904761904762,
                               10.756097560975602])
def test_upper_incomplete_gamma_is_zero_where_it_underflows(a):
    # x^a e^-x is below the smallest double; from x ~ 2.3e16 on, the
    # continued fraction's stop test |delta - 1| < 1e-16 failed for some x
    for x in np.concatenate([np.geomspace(1000.0, 1e300, 200), [math.inf]]):
        assert nm.upper_incomplete_gamma(a, x) == 0.0


def test_upper_incomplete_gamma_against_scipy_grid():
    for a in (0.3, 1.7, 5.7619, 12.0):
        for x in (0.05, 0.9, a + 0.5, 4 * a + 30):
            ref = sp.gammaincc(a, x) * sp.gamma(a)
            assert nm.upper_incomplete_gamma(a, x) == pytest.approx(ref,
                                                                    rel=1e-11)


@pytest.mark.parametrize("a", [0.5, 1.7, 10.756097560975602, 200.0, 1000.0])
def test_regularized_lower_gamma_against_scipy(a):
    # relative accuracy on both sides of x = a + 1, at shapes whose
    # Gamma(a) overflows too
    for x in a * np.array([1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0]):
        got = nm.regularized_lower_gamma(a, x)
        assert got == pytest.approx(sp.gammainc(a, x), rel=1e-11, abs=1e-300)
        if x >= a + 1.0:
            assert 1.0 - got == pytest.approx(sp.gammaincc(a, x), rel=1e-9,
                                              abs=1e-15)
    assert nm.regularized_lower_gamma(a, 0.0) == 0.0
    assert nm.regularized_lower_gamma(a, math.inf) == 1.0
    assert nm.regularized_lower_gamma(a, 1e300) == 1.0
    with pytest.raises(ValueError):
        nm.regularized_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        nm.regularized_lower_gamma(a, -1.0)


def test_exp_scaled_e1():
    assert nm.exp_scaled_e1(300.0) == pytest.approx(0.003322295565270707,
                                                    rel=1e-12)
    for z in (1e-8, 0.3, 5.0, 49.9, 50.1, 1e6):
        ref = float(mp.exp(z) * mp.e1(z))
        assert nm.exp_scaled_e1(z) == pytest.approx(ref, rel=1e-12)


def test_gauss_q():
    assert nm.gauss_q(0.0) == 0.5
    for x in (-4.0, -0.3, 0.9, 6.0):
        assert nm.gauss_q(x) + nm.gauss_q(-x) == pytest.approx(1.0, abs=1e-14)
        assert nm.gauss_q(x) == pytest.approx(sp.ndtr(-x), rel=1e-13)
    arr = nm.gauss_q(np.array([0.0, 1.0, -1.0]))
    assert arr.shape == (3,)
    assert arr[0] == 0.5


def _ulps(got, want):
    # distance in units in the last place; both sides are finite doubles
    # of one sign here, so their bit patterns order like their values
    return np.abs(got.view(np.int64) - want.view(np.int64))


def test_erfc_within_4_ulp_of_math_erfc():
    rng = np.random.default_rng(12)
    x = [rng.uniform(-6.0, 28.0, 1_000_000)]
    for edge in (0.25, 0.84375, 1.25, 1.0 / 0.35, nm._ERFC_EDGES[3], 6.0,
                 28.0, 2.0 ** -56):
        for v in (edge, -edge):
            # the edge and its 8 neighbours on either side
            x.append(v + np.spacing(v) * np.arange(-8, 9))
    x = np.concatenate(x)
    want = np.array([math.erfc(v) for v in x])
    got = nm.erfc(x)
    assert got.dtype == np.float64
    assert _ulps(got, want).max() <= 4
    # the whole real line, exact where math.erfc is exact
    assert nm.erfc(np.array([-1e300, -30.0, 30.0, 1e300])).tolist() \
        == [2.0, 2.0, 0.0, 0.0]
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324])
    assert nm.erfc(special).tolist() == [math.erfc(v) for v in special]
    assert np.isnan(nm.erfc(np.array([np.nan, -np.nan]))).all()
    # shape in, shape out, across several blocks of the evaluation
    grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert nm.erfc(grid).shape == (3, 4)
    assert nm.erfc(np.array(0.5)) == math.erfc(0.5)
    long = np.tile(grid.ravel(), 3 * nm._ERFC_BLOCK // 12 + 1)
    assert np.array_equal(nm.erfc(long), np.tile(nm.erfc(grid).ravel(),
                                                 3 * nm._ERFC_BLOCK // 12 + 1))
    assert nm.erfc(np.array([])).shape == (0,)


def test_erfc_range_edges_are_fdlibm_high_words():
    # the range tests of fdlibm compare the upper 32 bits of |x|
    words = [0x3C700000, 0x3FEB0000, 0x3FF40000, 0x4006DB6D, 0x403C0000]
    edges = np.array([w << 32 for w in words], dtype=np.int64).view(float)
    assert edges.tolist() == list(nm._ERFC_EDGES)


def test_erfc_has_no_python_level_ufunc():
    assert not hasattr(nm, "_erfc_ufunc")
    assert nm.gauss_q(np.array([0.3, -2.0])).dtype == np.float64


# ---------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------

def test_bessel_j_dense_grid():
    x = np.concatenate([np.linspace(0.0, 44.9, 211),
                        np.linspace(45.1, 400.0, 211),
                        [-5.5, -123.4]])
    for order in (0, 1):
        err = np.abs(nm.bessel_j(order, x) - sp.jv(order, x))
        assert err.max() < 5e-15


def test_bessel_frozen_points():
    assert nm.bessel_j(0, 10.3) == pytest.approx(-0.24771681348224363,
                                                 abs=1e-14)
    assert nm.bessel_j(1, 77.7) == pytest.approx(0.09040839677718482,
                                                 abs=1e-14)
    assert nm.bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert nm.bessel_j(1, 0.0) == 0.0


def test_bessel_zeros_are_zeros():
    for order in (0, 1):
        z = nm.bessel_zeros(order, 40)
        assert np.abs(nm.bessel_j(order, z)).max() < 1e-12
        assert np.all(np.diff(z) > 0)
    with pytest.raises(ValueError):
        nm.bessel_zeros(2, 5)


# ---------------------------------------------------------------------
# 1F1
# ---------------------------------------------------------------------

def test_hyp1f1_at_zero_is_one():
    for m in (0.5, 1.0, 5.7619):
        assert nm.hyp1f1(m, 1.0, 0.0) == 1.0


def test_hyp1f1_frozen_points():
    assert nm.hyp1f1(5.7619, 1.0, -30.0) == pytest.approx(
        -2.5112748472843702e-7, rel=1e-10)
    assert nm.hyp1f1(1.5, 2.0, -1500.0) == pytest.approx(
        9.716403457612364e-6, rel=1e-11)


def test_hyp1f1_kummer_invariant():
    # M(a,b,x) = e^x M(b-a, b, -x), checked both ways across the switch
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = rng.uniform(0.3, 7.0)
        b = rng.uniform(0.4, 7.0)
        x = rng.uniform(-620.0, 50.0)
        left = nm.hyp1f1(a, b, x)
        right = math.exp(x) * nm.hyp1f1(b - a, b, -x)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-280)


def test_hyp1f1_against_scipy_vector():
    x = np.concatenate([np.linspace(-2000, -601, 17),
                        np.linspace(-599, -1e-3, 41),
                        np.linspace(0, 40, 21)])
    for a, b in [(5.7619, 1.0), (6.2619, 1.5), (1.5, 2.0), (0.5, 1.5),
                 (-2.0, 1.5), (0.0, 1.5), (2.0, 2.0)]:
        mine = nm.hyp1f1(a, b, x)
        ref = sp.hyp1f1(a, b, x)
        scale = np.maximum(np.abs(ref), 1e-280)
        assert np.max(np.abs(mine - ref) / scale) < 5e-12


def test_hyp1f1_switch_point_routes_match_mpmath():
    # the Kummer series runs up to X0(a, b) and the algebraic expansion
    # beyond it; dense around the switch point, sparse out to X = 2000
    worst = 0.0
    with mp.workdps(30):
        for a in (0.5, 0.75, 1.0, 1.5, 2.0, 2.3, 3.7, 5.76, 6.26, 10.76,
                  11.26):
            for b in (0.5, 1.0, 1.5, 2.0):
                if nm._is_nonpos_int(b - a):
                    continue    # terminating reflection, no switch point
                x0 = nm._kummer_switch(a, b)
                assert 30.0 <= x0 < nm._KUMMER_MAX
                xs = np.concatenate([
                    x0 + np.arange(-15.0, 16.0),
                    x0 + 15.5 + np.geomspace(1.0, 1984.5 - x0, 12)])
                mine = nm.hyp1f1(a, b, -xs)
                ref = np.array([float(mp.hyp1f1(a, b, -float(x)))
                                for x in xs])
                worst = max(worst, np.max(np.abs(mine - ref) / np.abs(ref)))
    assert worst <= 1e-13
    # the three kernels of the fig2 BER integrands
    assert [nm._kummer_switch(a, b)
            for a, b in ((1.5, 2.0), (1.5, 1.0), (2.0, 1.5))] == [44, 49, 51]


def test_hyp1f1_asymptotic_route_raises_instead_of_truncating():
    # M(30; 3/2; -800) used to come back as -3.73e-58 against mpmath's
    # -1.18e-57: the first term ratio 30 * 29.5 / 800 is already above 1
    assert float(mp.hyp1f1(30, 1.5, -800)) == pytest.approx(-1.1777e-57,
                                                             rel=1e-4)
    assert nm._kummer_switch(30.0, 1.5) == nm._KUMMER_MAX
    with pytest.raises(nm.ConvergenceError) as err:
        nm.hyp1f1(30.0, 1.5, -800.0)
    assert err.value.best_estimate is not None
    # terms that fall at first but grow again above 1e-17 raise as well
    with pytest.raises(nm.ConvergenceError):
        nm._hyp1f1_asym_neg(1.5, 2.0, np.array([20.0]))


def test_hyp1f1_equal_parameters_is_the_exponential_bit_for_bit():
    # M(a; a; x) = e^x: the Kummer reflection terminates at once, so the
    # BDPSK kernel M(2; 2; -u^2) of the random-phase BER is np.exp(-u^2)
    x = -np.concatenate([[0.0], np.geomspace(1e-12, 745.0, 400)])
    assert np.array_equal(nm.hyp1f1(2.0, 2.0, x), np.exp(x))
    for v in x[::40]:
        assert nm.hyp1f1(2.0, 2.0, float(v)) == float(np.exp(v))


def test_hyp1f1_rejects_nonpositive_integer_b():
    with pytest.raises(ValueError):
        nm.hyp1f1(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        nm.hyp1f1(1.0, -2.0, 0.5)


@pytest.mark.parametrize("call", [
    lambda x: nm.hyp1f1(1.5, 2.0, x),
    lambda x: nm.bessel_j(1, x),
])
@pytest.mark.parametrize("x", [np.array([-1.0 + 2.0j]), 1.0 + 1.0j])
def test_real_only_functions_reject_complex_arguments(call, x):
    # a float cast would keep only the real part: M(1.5; 2; -1) for -1+2j
    with pytest.raises(ValueError, match="complex"):
        call(x)


# ---------------------------------------------------------------------
# 2F1
# ---------------------------------------------------------------------

def test_hyp2f1_frozen_points():
    assert nm.hyp2f1(0.3, 0.7, 1.1, 0.4) == pytest.approx(
        1.098616834887337, rel=1e-12)
    assert nm.hyp2f1(5.7619, 5.7619, 1.0, -100.0) == pytest.approx(
        -1.2996597770814446e-12, rel=1e-9)
    assert nm.hyp2f1(1.5, 2.5, 1.0, -1000.0) == pytest.approx(
        -6.791010150899804e-6, rel=1e-11)
    z = -complex(math.cos(math.radians(140)), math.sin(math.radians(140)))
    got = nm.hyp2f1(11.5238, 0.5, 12.0238, z)
    want = complex(1.0183105361174523, -0.6681669708645175)
    assert abs(got - want) / abs(want) < 1e-11


def test_hyp2f1_parameter_symmetry_and_unit_argument():
    assert nm.hyp2f1(2.2, 0.4, 3.3, -17.0) == pytest.approx(
        nm.hyp2f1(0.4, 2.2, 3.3, -17.0), rel=1e-13)
    # Gauss summation at z = 1
    a, b, c = 0.3, 0.7, 2.1
    want = (math.gamma(c) * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b)))
    assert nm.hyp2f1(a, b, c, 1.0) == pytest.approx(want, rel=1e-13)


def test_hyp2f1_pfaff_consistency():
    # (1-z)^-a 2F1(a, c-b; c; z/(z-1)) must agree with the direct value
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(0.2, 4.0)
        c = rng.uniform(0.5, 5.0)
        z = rng.uniform(-0.7, 0.7)
        direct = nm.hyp2f1(a, b, c, z)
        pfaff = (1.0 - z) ** (-a) * nm.hyp2f1(a, c - b, c, z / (z - 1.0))
        assert direct == pytest.approx(pfaff, rel=1e-9)


def test_hyp2f1_negative_axis_families():
    # integer and noninteger parameter difference, spanning the switch
    # from Pfaff to the far route at z = -9
    x = -np.geomspace(1e-2, 9.5e3, 41)
    for a, b, c in [(5.7619, 5.7619, 1.0), (1.5, 2.5, 1.0),
                    (1.21, 2.47, 1.0), (0.7, 4.7, 1.0), (0.5, 3.0, 1.0)]:
        mine = nm.hyp2f1(a, b, c, x)
        ref = np.array([float(mp.hyp2f1(a, b, c, float(v))) for v in x])
        scale = np.maximum(np.abs(ref), 1e-250)
        assert np.max(np.abs(mine - ref) / scale) < 2e-10


@pytest.mark.parametrize("z", [-1e11, -1e13, -1e15, -1e16, -1e17, -1e20])
def test_hyp2f1_continuation_far_out_on_the_negative_axis(z):
    # scenario a's cascade, b - a = 5.0119: hyp2f1 takes these by the far
    # connection, and the Taylor continuation, checked on its own, must
    # neither overflow past |z| = 1e10 nor run out of steps before 1e20
    a, b = 0.75, 5.761904761904762
    ref = float(mp.hyp2f1(a, b, 1.0, z))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = nm.hyp2f1(a, b, 1.0, z)
        walk = nm._continuation_vec(a, b, 1.0, np.array([complex(z)]))
    assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
    assert walk[0].real == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_hyp2f1_continuation_past_its_range_raises():
    # past |z| = 1e150 the walk's step products would overflow; the far
    # connection has no such limit (mpmath: 8.38679927565711237e-227)
    a, b = 0.75, 5.761904761904762
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(nm.ConvergenceError):
            nm._continuation_vec(a, b, 1.0, np.array([-1e300 + 0j]))
        got = nm.hyp2f1(a, b, 1.0, -1e300)
    assert got == pytest.approx(8.38679927565711237e-227, rel=1e-13, abs=0.0)


# Past the Pfaff disk (z < -9) every b - a takes Pfaff into the 1 - z
# connection at 1/(1 - z): the log form for integer b - a, the two-term
# form otherwise, b - a within 0.02 of an integer ((5.76, 5.77) and
# (0.75, 0.76)) included; the last two shapes are large and unequal
NEGATIVE_AXIS_SHAPES = [
    (0.5, 0.5), (0.75, 0.75), (1.5, 2.5), (5.761904761904762,) * 2,
    (10.756097560975602,) * 2, (15.5, 15.5), (1.21, 2.47), (0.7, 4.7),
    (5.76, 10.76), (5.76, 5.77), (0.75, 0.76), (20.3, 21.1), (12.3, 14.1)]


def _check_far_negative_axis(a, b, count):
    # the absolute 1e-17 is for 2F1(10.76, 10.76; 1; z), which changes sign
    # near z = -18
    z = -np.geomspace(9.05, 1e150, count)
    got = nm.hyp2f1(a, b, 1.0, z)
    with mp.workdps(30):
        ref = np.array([float(mp.hyp2f1(a, b, 1, mp.mpf(x))) for x in z])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-17)


@pytest.mark.parametrize("a, b", NEGATIVE_AXIS_SHAPES)
def test_hyp2f1_far_negative_axis(a, b):
    # the 1/z log form gave -1.268e-15 for 2F1(15.5, 15.5; 1; -9.05) =
    # 4.356e-17
    _check_far_negative_axis(a, b, 40)


@pytest.mark.slow
@pytest.mark.parametrize("a, b", NEGATIVE_AXIS_SHAPES)
def test_hyp2f1_far_negative_axis_full_grid(a, b):
    _check_far_negative_axis(a, b, 300)


@pytest.mark.parametrize("z", [-20.0, -30.0])
def test_hyp2f1_strongly_los_far_tail(z):
    # the 1/z log form gave -1.17e-20 and -2.29e-24 here
    with mp.workdps(30):
        ref = float(mp.hyp2f1(20.75, 20.75, 1.0, z))
    assert nm.hyp2f1(20.75, 20.75, 1.0, z) == pytest.approx(ref, rel=1e-12,
                                                            abs=0.0)


@pytest.mark.parametrize("m, rel", [(5.76, 2e-13), (10.76, 2e-13),
                                    (20.75, 1e-9), (25.3, 1e-8)])
def test_hyp2f1_strongly_los_negative_axis(m, rel):
    # the element factor of strongly LOS hops: the Gauss and Pfaff series
    # cancel here (peak term up to 1e38 times the value) and were 4.1e3
    # (m = 10.76) and 4.3e22 (m = 20.75) off without raising; the check
    # sends them to the continuation
    z = np.array([-0.3, -0.5, -0.75, -0.9, -2.0, -5.0, -10.0, -20.0])
    got = nm.hyp2f1(m, m, 1.0, z)
    with mp.workdps(60):
        ref = np.array([float(mp.hyp2f1(m, m, 1, mp.mpf(x))) for x in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < rel


# one call per shape pair over a negative-axis grid whose values span up to
# 30 decades, as the flagged points of one Hankel grid do: the walk's
# Taylor stop test may not hold a small sum to the batch's largest
BATCHED_BOUNDS = {(5.76, 5.76): 1e-11, (10.76, 10.76): 1e-11,
                  (12.3, 14.1): 1e-11, (20.75, 20.75): 1e-6,
                  (20.3, 21.1): 1e-6}


def _check_batched_negative_axis(a, b, count, rel):
    z = -np.geomspace(1e-3, 1e4, count)
    got = nm.hyp2f1(a, b, 1.0, z)
    with mp.workdps(40):
        ref = np.array([float(mp.hyp2f1(a, b, 1, mp.mpf(x))) for x in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < rel


@pytest.mark.parametrize("a, b", BATCHED_BOUNDS)
def test_hyp2f1_batched_negative_axis(a, b):
    _check_batched_negative_axis(a, b, 120, BATCHED_BOUNDS[a, b])


@pytest.mark.slow
@pytest.mark.parametrize("a, b", BATCHED_BOUNDS)
def test_hyp2f1_batched_negative_axis_full_grid(a, b):
    # this grid puts a point at -18.33, next to the sign change of
    # 2F1(12.3, 14.1; 1; z) near -18.1, where that value is 2.3e-11 off;
    # the window test below holds it there to 1e-9
    rel = 1e-10 if (a, b) == (12.3, 14.1) else BATCHED_BOUNDS[a, b]
    _check_batched_negative_axis(a, b, 400, rel)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: the log form trips "
                   "the cancellation check and the continuation's Taylor "
                   "walk from its anchor is 8.5e-11 off")
def test_hyp2f1_strongly_los_at_minus_ten():
    with mp.workdps(30):
        ref = float(mp.hyp2f1(20.75, 20.75, 1.0, -10.0))
    assert nm.hyp2f1(20.75, 20.75, 1.0, -10.0) == pytest.approx(
        ref, rel=1e-12, abs=0.0)


# (11.52, 11.52; 12.02) is the element CHF's far Pfaff family and
# (0.75, 5.7619; 1) scenario a's cascade; the last four have b - a within
# 0.02 of an integer but not one
FAR_FIELD_FAMILIES = [
    (5.76, 5.76, 1.0), (0.75, 0.75, 1.0), (1.5, 2.5, 1.0), (1.5, 1.5, 2.5),
    (3.0, 5.0, 4.5), (11.52, 11.52, 12.02), (5.76, 5.77, 1.0),
    (1.5, 2.51, 1.0), (0.75, 0.76, 1.0), (0.75, 5.761904761904762, 1.0)]


def _check_complex_far_field(a, b, c, radii, angles):
    z = np.outer(radii, np.exp(1j * np.asarray(angles))).ravel()
    got = nm.hyp2f1(a, b, c, z)
    with mp.workdps(30):
        ref = np.array([complex(mp.hyp2f1(a, b, c, mp.mpc(x))) for x in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


@pytest.mark.parametrize("a, b, c", FAR_FIELD_FAMILIES)
def test_hyp2f1_complex_far_field(a, b, c):
    _check_complex_far_field(a, b, c, [3.5, 10.0, 1e2, 1e4, 1e8, 1e12],
                             [0.1, 0.5, 1.0, 2.0, 3.0])


@pytest.mark.slow
@pytest.mark.parametrize("a, b, c", FAR_FIELD_FAMILIES)
def test_hyp2f1_complex_far_field_full_grid(a, b, c):
    _check_complex_far_field(a, b, c, np.geomspace(3.5, 1e12, 40),
                             np.linspace(0.05, 3.1, 12))


def test_hyp2f1_near_integer_difference_far_out():
    # b - a = 0.01, between the points of the negative-axis grid
    with mp.workdps(30):
        ref = float(mp.hyp2f1(5.76, 5.77, 1.0, -50.0))
    assert nm.hyp2f1(5.76, 5.77, 1.0, -50.0) == pytest.approx(
        ref, rel=1e-13, abs=0.0)


def test_hyp2f1_nearer_integer_difference_far_out():
    # b - a within 1e-4 of an integer fails the far form's cancellation
    # check; the continuation takes it
    z = 10.0 * np.exp(0.1j)
    with mp.workdps(30):
        ref = complex(mp.hyp2f1(5.76, 5.7601, 1.0, z))
    assert abs(nm.hyp2f1(5.76, 5.7601, 1.0, z) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a, b, z, rel", [
    (20.3, 21.1, np.linspace(-11.0, -9.05, 40), 1e-8),
    (12.3, 14.1, np.linspace(-18.5, -17.5, 41), 1e-9)])
def test_hyp2f1_large_unequal_shapes_past_the_pfaff_disk(a, b, z, rel):
    # the Pfaff value fails the cancellation check on these windows and the
    # continuation takes them, at most 1.5e-10 and 8.6e-10 off (the latter
    # at the sign change near -18)
    got = nm.hyp2f1(a, b, 1.0, z)
    with mp.workdps(30):
        ref = np.array([float(mp.hyp2f1(a, b, 1, mp.mpf(x))) for x in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < rel


def _check_cascade_family_near_one(m_h, offsets, angles, radii, spread):
    # the element CHF's family 2F1(2m_h, m_h - m_g + 1/2; m_h + m_g + 1/2; Z)
    # has c - a - b = 2(m_g - m_h).  Within 0.02 of an integer, but not
    # within 1e-9, the near-one band sends Z to the continuation: the
    # two-term 1 - z connection loses up to 2.8e-5 there (2.7e-7 at
    # (1.5, 2.5000005), Z = e^{0.02j}) and passes the cancellation check.
    # Z runs over the unit circle near 1 and over 1 - r e^{j phi} inside
    # the disk, with phi a fraction ``spread`` of arccos(r / 2)
    radii = np.asarray(radii)
    phi = np.outer(np.arccos(0.5 * radii), spread)
    z = np.concatenate([np.exp(1j * np.asarray(angles)),
                        (1.0 - radii[:, None] * np.exp(1j * phi)).ravel()])
    for n in (1, 2, 4):
        for delta in offsets:
            m_g = m_h + 0.5 * (n + delta)
            a, b, c = 2.0 * m_h, m_h - m_g + 0.5, m_h + m_g + 0.5
            got = nm.hyp2f1(a, b, c, z)
            with mp.workdps(40):
                ref = np.array([complex(mp.hyp2f1(a, b, c, mp.mpc(x)))
                                for x in z])
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13, (m_h, m_g)


@pytest.mark.parametrize("m_h", [0.75, 1.5])
def test_hyp2f1_cascade_family_near_one(m_h):
    _check_cascade_family_near_one(
        m_h, [1e-8, 1e-6, -1e-4, 1.9e-2], [-0.6, -1e-3, 1e-3, 0.02, 0.3, 0.6],
        [0.1, 0.5, 0.9], [-1.0, 0.0, 0.5])


@pytest.mark.slow
@pytest.mark.parametrize("m_h", [0.5, 0.75, 1.5, 3.0, 5.76, 10.76])
def test_hyp2f1_cascade_family_near_one_full_grid(m_h):
    angles = np.geomspace(1e-3, 0.6, 10)
    _check_cascade_family_near_one(
        m_h, [s * x for x in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1.9e-2)
              for s in (1.0, -1.0)],
        np.concatenate([angles, -angles, [0.02]]),
        [0.02, 0.1, 0.3, 0.5, 0.7, 0.9], np.linspace(-1.0, 1.0, 7))


@pytest.mark.parametrize("a, b", [(10.76, 15.3), (5.76, 10.3)])
def test_hyp2f1_far_branch_polar_grid(a, b):
    # noninteger b - a outside the band, on the points the far branch
    # takes: |z| >= 3 outside the Pfaff and 1 - z disks
    z = np.outer(np.geomspace(3.5, 1e12, 30),
                 np.exp(1j * np.linspace(0.05, 3.1, 24))).ravel()
    z = z[(np.abs(z) >= 3.0) & (np.abs(z / (z - 1.0)) > 0.9)
          & (np.abs(1.0 - z) > 0.95)]
    got = nm.hyp2f1(a, b, 1.0, z)
    with mp.workdps(30):
        ref = np.array([complex(mp.hyp2f1(a, b, 1, mp.mpc(x))) for x in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


@pytest.mark.parametrize("mh, mg", [(0.75, 1.755), (1.5, 1.509),
                                    (0.5, 0.505)])
def test_hyp2f1_near_one_inside_the_band(mh, mg):
    # the cascade CHF's 2F1(2 mh, mh - mg + 1/2; mh + mg + 1/2; Z) near
    # Z = 1, with d = c - a - b = 2.01, 0.018 and 0.01 inside the band:
    # the continuation holds 3e-15 where the two-term form gives 6e-14 to
    # 2e-13
    a, b, c = 2.0 * mh, mh - mg + 0.5, mh + mg + 0.5
    z = -np.exp(2j * np.linspace(1.1, math.pi / 2 - 1e-3, 30))
    z = z[np.abs(1.0 - z) <= 0.95]
    got = nm.hyp2f1(a, b, c, z)
    with mp.workdps(30):
        ref = np.array([complex(mp.hyp2f1(a, b, c, mp.mpc(x))) for x in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 3e-15


def test_hyp2f1_lossy_reroute_near_the_pfaff_disk():
    # the far Pfaff value trips the cancellation check; the continuation
    # takes it
    with mp.workdps(30):
        ref = float(mp.hyp2f1(10.76, 10.77, 1.0, -9.05))
    assert nm.hyp2f1(10.76, 10.77, 1.0, -9.05) == pytest.approx(
        ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta", [0.0, 0.4, 1.4, 4.0])
def test_gauss_jacobi_rule_against_mpmath(beta):
    # exact for polynomials of degree up to 39 against (1 + x)^beta;
    # beta = 0 is Gauss-Legendre
    x, w = nm._gauss_jacobi(beta)
    for k in (0, 1, 7, 20, 39):
        ref = float(mp.quad(lambda t: (1 + t) ** beta * t ** k, [-1, 0, 1]))
        assert np.sum(w * x ** k) == pytest.approx(ref, rel=1e-13, abs=1e-15)
    if beta == 0.0:
        gl_x, gl_w = np.polynomial.legendre.leggauss(20)
        np.testing.assert_allclose(x, gl_x, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, gl_w, rtol=1e-13)


def test_hyp2f1_unit_circle_families():
    # arguments of the cascade characteristic function: z = -e^{2j phi}
    phis = np.linspace(1e-3, math.pi / 2 - 1e-3, 37)
    zs = -np.exp(2j * phis)
    for a, b, c in [(11.5238, 0.5, 12.0238), (3.0, -0.5, 4.5),
                    (2.0, 0.5, 2.5), (2.42, -0.76, 4.18)]:
        mine = nm.hyp2f1(a, b, c, zs)
        ref = np.array([complex(mp.hyp2f1(a, b, c, complex(z))) for z in zs])
        assert np.max(np.abs(mine - ref) / np.abs(ref)) < 5e-12


def test_hyp2f1_terminating_cases():
    # polynomial cases must be exact-ish even for huge arguments
    assert nm.hyp2f1(-2.0, 3.0, 1.5, -50.0) == pytest.approx(
        1.0 - 2.0 * 3.0 / 1.5 * (-50.0)
        + ((-2.0) * (-1.0) * 3.0 * 4.0) / (1.5 * 2.5 * 2.0) * 2500.0,
        rel=1e-13)
    ref = float(mp.hyp2f1(0.5, 3.0, 1.0, -4000.0))
    assert nm.hyp2f1(0.5, 3.0, 1.0, -4000.0) == pytest.approx(ref, rel=1e-12)


def test_hyp2f1_error_paths():
    with pytest.raises(ValueError):
        nm.hyp2f1(0.5, 1.5, -1.0, 0.3)
    with pytest.raises(nm.ConvergenceError):
        nm.hyp2f1(0.5, 1.5, 2.5, 1.7)       # on the branch cut
    with pytest.raises(nm.ConvergenceError):
        nm.hyp2f1(0.8, 0.9, 1.7, 1.0)       # divergent at z = 1


def test_hyp2f1_vector_matches_scalar():
    a, b, c = 1.5, 2.5, 1.0
    z = np.array([-0.3, -12.0, -900.0, 0.6])
    vec = nm.hyp2f1(a, b, c, z)
    for i, zi in enumerate(z):
        assert vec[i] == pytest.approx(nm.hyp2f1(a, b, c, float(zi)),
                                       rel=1e-13)


# ---------------------------------------------------------------------
# the hypergeometric term recurrence
# ---------------------------------------------------------------------

def test_series_fixed_count_is_the_polynomial():
    z = np.array([-50.0, -0.3, 0.0, 0.7, 4.0])
    want = (1.0 + (-3.0 * 2.5) / 1.5 * z
            + (-3.0 * -2.0 * 2.5 * 3.5) / (1.5 * 2.5 * 2.0) * z ** 2
            + (-3.0 * -2.0 * -1.0 * 2.5 * 3.5 * 4.5)
            / (1.5 * 2.5 * 3.5 * 6.0) * z ** 3)
    got = nm._series((-3.0, 2.5), (1.5,), z, count=3)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    # 1F1(-2; 0.5; x) = 1 - 4x + 4x^2/3
    x = np.array([-2.0, 0.25, 3.0])
    assert np.allclose(nm._series((-2.0,), (0.5,), x, count=2),
                       1.0 - 4.0 * x + 4.0 * x * x / 3.0, rtol=1e-15)
    assert np.array_equal(nm._series((-3.0, 2.5), (1.5,), z, count=0),
                          np.ones_like(z))


def test_series_peak_and_derivative_by_hand():
    # sum_k (2)_k / k! z^k = sum_k (k + 1) z^k = (1 - z)^-2; of term 0 and
    # the terms the stop tests see (4, 8, ...) the largest at z = 0.75 is
    # 5 z^4 = 405/256, at z = -0.5 it is term 0, 1
    z = np.array([0.75, -0.5])
    total, peak = nm._series((2.0,), (), z, peak=True)
    assert np.allclose(total, (1.0 - z) ** -2, rtol=1e-14)
    assert np.allclose(peak, [405.0 / 256.0, 1.0], rtol=1e-15, atol=0.0)
    # a terminating series has no stop test to read a peak from
    with pytest.raises(ValueError):
        nm._series((-3.0, 2.5), (1.5,), z, count=3, peak=True)
    _, deriv = nm._series((2.0,), (), z, deriv=True)
    assert np.allclose(deriv, 2.0 * (1.0 - z) ** -3, rtol=1e-13)
    # d/dz 2F1(a, b; c; z) = ab/c 2F1(a + 1, b + 1; c + 1; z), complex z
    a, b, c = 1.5, 2.5, 1.0
    zc = 0.5 * np.exp(1j * np.linspace(0.1, 3.0, 7))
    _, deriv = nm._series((a, b), (c,), zc, deriv=True)
    want = a * b / c * nm._series((a + 1.0, b + 1.0), (c + 1.0,), zc)
    assert np.max(np.abs(deriv - want) / np.abs(want)) < 1e-12


def test_series_budget_raises():
    with pytest.raises(nm.ConvergenceError) as err:
        nm._series((1.0,), (), np.array([0.99]), budget=200)
    assert err.value.best_estimate is not None
    # a connection formula that used to return the truncated sum
    with pytest.raises(nm.ConvergenceError):
        nm._one_minus_z_two_term(1.5, 2.7, 4.45, np.array([0.995 + 0j]))


def test_series_refuses_an_overflowed_sum():
    # sum z^k / k! at z = 1e300 overflows to inf, and any term passes a
    # stop test against an infinite partial sum
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nm.ConvergenceError):
            nm._series((1.0,), (1.0,), np.array([1e300]))
        # Kummer series e^-X M(-398.5; 1.5; X): alternating terms overflow
        with pytest.raises(nm.ConvergenceError):
            nm.hyp1f1(400.0, 1.5, -599.0)


def test_log_connection_forms_raise_instead_of_truncating():
    # the 1 - z log form used to return a wrong sum: 6.19e9 against
    # 2F1(1.5, 2.5; 5; 0.001) = 1.00075 (3000-term budget)
    assert float(mp.hyp2f1(1.5, 2.5, 5.0, 0.001)) == pytest.approx(1.00075,
                                                                  rel=1e-5)
    with pytest.raises(nm.ConvergenceError) as err:
        nm._one_minus_z_log(1.5, 2.5, 1, np.array([0.999]))
    assert err.value.best_estimate is not None
    # where it converges, it still agrees with mpmath
    got, _ = nm._one_minus_z_log(1.5, 2.5, 1, np.array([0.3]))
    assert got[0] == pytest.approx(float(mp.hyp2f1(1.5, 2.5, 5.0, 0.7)),
                                   rel=1e-12)
    # and through Pfaff it serves the far negative axis
    assert nm.hyp2f1(1.5, 1.5, 1.0, -12.0) == pytest.approx(
        float(mp.hyp2f1(1.5, 1.5, 1.0, -12.0)), rel=1e-12)


@pytest.mark.parametrize("radius, last_term", [
    (1e-7, 3), (0.0545, 17), (0.201, 31), (0.211, 32), (0.221, 33),
    (0.453, 64), (0.7745, 200)])
def test_one_minus_z_log_blocks_match_the_term_loop(radius, last_term):
    # the log-sum stops after term last_term at these radii: at k = 3,
    # either side of k = 32 (the edge of the 32-term blocks an earlier
    # form of the sum ran in) and many terms in.  Wherever it stops, the
    # 1 - z connection is 2F1(a, b; a + b + m; 1 - w) to within 1e-12 of
    # its peak term, the cancellation measure hyp2f1 reroutes on (the
    # real case at the largest radius has peak / value = 9e3 and is 5e-9
    # off: hyp2f1 does not take it)
    w = radius * np.exp(1j * np.array([-1.0, 0.4, 2.5]))
    real = np.array([radius, 0.5 * radius])
    with mp.workdps(30):
        for a, b, m, arg in ((1.5, 2.5, 1, w), (11.52, 0.5, 0, real)):
            got, peak = nm._one_minus_z_log(a, b, m, arg)
            # 1 - w in working precision: rounding it to a double moves
            # 2F1 by up to 4e-11 relative at the smallest radius
            want = np.array([complex(mp.hyp2f1(a, b, mp.mpf(a) + b + m,
                                               1 - mp.mpmathify(v)))
                             for v in arg.tolist()])
            assert np.all(np.abs(got - want) <= 1e-12 * peak)


def test_one_minus_z_log_budget_keeps_the_full_sum():
    # at the 3000-term budget the log-sum raises with the sum of all 3000
    # terms sum_k (a+m)_k (b+m)_k / (k! (k+m)!) (e_k - ln w) w^k, e_k =
    # psi(k+1) + psi(k+m+1) - psi(a+m+k) - psi(b+m+k), summed here in mpmath
    a, b, m, w = 1.5, 2.5, 1, 0.999
    with pytest.raises(nm.ConvergenceError) as got:
        nm._one_minus_z_log(a, b, m, np.array([w + 0j]))
    with mp.workdps(30):
        poch, wpow, total = mp.mpf(1) / mp.factorial(m), mp.mpf(1), mp.mpf(0)
        e_k = (mp.digamma(1) + mp.digamma(m + 1) - mp.digamma(a + m)
               - mp.digamma(b + m))
        for k in range(3000):
            term = poch * (e_k - mp.log(w)) * wpow
            total += term
            poch *= mp.mpf(a + m + k) * (b + m + k) / ((k + 1) * (k + m + 1))
            e_k += (mp.mpf(1) / (k + 1) + mp.mpf(1) / (k + m + 1)
                    - mp.mpf(1) / (a + m + k) - mp.mpf(1) / (b + m + k))
            wpow *= w
    # the double sum carries 3e-11 of rounding, and its last term alone
    # is far above the tolerance
    assert abs(term / total) > 1e-7
    assert got.value.best_estimate[0] == pytest.approx(complex(total),
                                                       rel=1e-9)


# ---------------------------------------------------------------------
# series helpers
# ---------------------------------------------------------------------

@pytest.mark.parametrize("nums, dens, z, kwargs", [
    ((1.5, 2.5), (1.0,), np.linspace(-0.75, 0.75, 41), {}),
    ((1.5, 2.5), (1.0,), 0.7 * np.exp(1j * np.linspace(-3.0, 3.0, 25)), {}),
    ((0.75,), (1.0,), np.linspace(0.0, 40.0, 33), {"budget": 10000}),
    ((1.5, -0.5), (3.25,), np.linspace(-0.9, 0.9, 17), {"peak": True}),
    ((2.0, 3.5), (1.0,), 0.5 * np.exp(1j * np.linspace(-2.0, 2.0, 9)),
     {"deriv": True}),
    ((2.0, 3.5), (1.0,), np.array([-0.5, 0.5]),
     {"peak": True, "deriv": True}),
    ((-6.0, 2.5), (1.5,), np.linspace(-3.0, 1.0, 11), {"count": 6}),
])
def test_series_matches_the_allocating_loop(nums, dens, z, kwargs):
    # the in-place term loop takes the same operands in the same order
    got = nm._series(nums, dens, z, **kwargs)
    want = oracles.series_loop(nums, dens, z, **kwargs)
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("nums, dens, z, budget", [
    ((1.5, 2.5), (1.0,), np.array([0.999, 0.5]), 40),      # budget
    ((400.0, 400.0), (1.0,), np.array([0.9, 0.1]), 4000),  # overflow
])
def test_series_raises_like_the_allocating_loop(nums, dens, z, budget):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nm.ConvergenceError) as got:
            nm._series(nums, dens, z, budget=budget)
        with pytest.raises(nm.ConvergenceError) as want:
            oracles.series_loop(nums, dens, z, budget=budget)
    assert str(got.value) == str(want.value)
    assert np.array_equal(got.value.best_estimate, want.value.best_estimate,
                          equal_nan=True)


def test_taylor_coefficients_product():
    # (1 + x)^2 * (1 - x) = 1 + x - x^2 - x^3
    got = nm.taylor_coefficients_product([[1, 2, 1, 0], [1, -1, 0, 0]], 3)
    np.testing.assert_allclose(got, [1.0, 1.0, -1.0, -1.0], atol=1e-15)
    # empty product is the multiplicative identity
    np.testing.assert_allclose(nm.taylor_coefficients_product([], 2),
                               [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        nm.taylor_coefficients_product([[1.0, 2.0]], 4)


# ---------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------

def test_quadrature_spec_defaults_and_validation():
    spec = nm.QuadratureSpec()
    assert spec.abs_tol == 1e-12
    assert spec.rel_tol == 1e-9
    with pytest.raises(ValueError):
        nm.QuadratureSpec(abs_tol=0.0)


def test_integrate_exponential_exact():
    assert nm.integrate_semi_infinite(lambda t: np.exp(-t)) == pytest.approx(
        1.0, abs=1e-12)


def test_integrate_bessel_tail_with_acceleration():
    zeros = nm.bessel_zeros(1, 300)
    val = nm.integrate_semi_infinite(lambda t: nm.bessel_j(1, t),
                                     breakpoints=zeros)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_integrate_oscillatory_sine_kernel():
    # int_0^inf sin(5 t)/t dt = pi/2
    bps = np.arange(1, 1500) * math.pi / 5.0
    val = nm.integrate_semi_infinite(
        lambda t: np.sin(5.0 * t) / np.maximum(t, 1e-300), breakpoints=bps)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-8)


def test_integrate_lower_limit_and_full_output():
    val, err = nm.integrate_semi_infinite(lambda t: np.exp(-t), lower=2.0,
                                          full_output=True)
    assert val == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert err >= 0.0


def _counted(f):
    calls = []

    def wrapped(t):
        calls.append(len(t))
        return f(t)
    return wrapped, calls


@pytest.mark.parametrize("f, want", [
    # a kink and a jump at 1/3, inside the first default panel [0, 1]
    (lambda t: np.abs(t - 1.0 / 3.0) * np.exp(-t),
     1.0 / 3.0 - 1.0 + 2.0 * math.exp(-1.0 / 3.0)),
    (lambda t: np.exp(-t) * (t > 1.0 / 3.0), math.exp(-1.0 / 3.0)),
], ids=["kink", "jump"])
def test_integrate_refines_level_by_level(f, want):
    f, calls = _counted(f)
    assert nm.integrate_semi_infinite(f) == pytest.approx(want, rel=1e-9)
    # the block's one call (its panels and their halves), then one per
    # bisection level; splitting [0, 1] stops at width 1e-14, 47 levels in
    assert len(calls) <= 1 + math.ceil(math.log2(1e14))


def test_integrate_one_call_per_block():
    # exp(-t) needs no bisection, and the walk over the default doubling
    # panels stops well inside the first block
    f, calls = _counted(lambda t: np.exp(-t))
    assert nm.integrate_semi_infinite(f) == pytest.approx(1.0, abs=1e-12)
    assert len(calls) == 1
    # 20 nodes for each whole panel and each of its two halves
    assert calls[0] % 60 == 0 and calls[0] <= 60 * nm._PANEL_BLOCK


# the stop test reads Python floats; the numpy forms in `oracles` are its
# reference, equal value for value (NaN matching NaN, zeros by sign)
_EDGE_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-200, -1e-200)


def _same(got, want):
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    if want is None or isinstance(want, bool):
        return got is want
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _tails(rng):
    """Seeded alternating, geometric and mixed tails of length 0-12, the
    same with edge values dropped in, and underflowing sign pairs."""
    tails = []
    for n in range(13):
        k = np.arange(n)
        ratio = rng.uniform(0.3, 1.0)
        decay = rng.uniform(1e-6, 10.0) * ratio ** k
        tails += [(-1.0) ** k * decay * rng.uniform(0.9, 1.1, n),
                  rng.choice([-1.0, 1.0]) * decay, rng.normal(size=n)]
    for tail in list(tails):
        if len(tail):
            edged = tail.copy()
            for i in rng.integers(0, len(tail), 2):
                edged[i] = rng.choice(_EDGE_VALUES)
            tails.append(edged)
    tails += [np.array([1e-200, -1e-200] * 3), np.array([-1e-200, 1e-200] * 6),
              np.array([5e-324, -5e-324, 5e-324, -5e-324, 5e-324])]
    return tails


def test_stop_test_helpers_match_the_array_forms():
    rng = np.random.default_rng(20260)
    for tail in _tails(rng):
        values = tail.tolist()
        assert _same(nm._alternating(values), oracles.alternating_array(tail))
        if len(tail):
            widths = np.abs(tail)
            with np.errstate(invalid="ignore", over="ignore"):
                want = oracles.euler_accelerate_array(tail)
                uniform = oracles.uniform_widths_array(widths)
            assert _same(nm._euler_accelerate(values), want)
            assert _same(nm._uniform_widths(widths.tolist()), uniform)
        else:
            with pytest.raises(IndexError):
                nm._euler_accelerate(values)
            with pytest.raises(IndexError):
                oracles.euler_accelerate_array(tail)


def test_termination_check_matches_the_array_form():
    rng = np.random.default_rng(20261)
    specs = (nm.DEFAULT_QUADRATURE, nm.QuadratureSpec(abs_tol=1e-280),
             nm.QuadratureSpec(abs_tol=1e-4, rel_tol=1e-3))
    stops = {"alternating": 0, "geometric": 0}
    for tail in _tails(rng) + _tails(rng) + _tails(rng):
        head = rng.normal(size=rng.integers(0, 13)).tolist()
        contributions = head + tail.tolist()
        uniform = (1.0 + 0.1 * rng.random(len(contributions))).tolist()
        doubling = (2.0 ** np.arange(len(contributions))).tolist()
        peak = max([0.0] + [abs(c) for c in contributions])
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(np.sum(contributions))
            for widths in (uniform, doubling):
                for spec in specs:
                    want = oracles.termination_check_array(
                        contributions, widths, peak, total, spec)
                    got = nm._termination_check(
                        np.array(contributions), widths, peak, total, spec)
                    assert _same(got, want), (contributions, widths, spec)
                    if want[0] is not None:
                        stops["geometric" if want[0] == total
                              else "alternating"] += 1
    assert min(stops.values()) >= 10, stops


def _count_walks(monkeypatch):
    """Patch the integrator so that each integral appends (whole panels
    evaluated, panel the walk stopped at) to the returned list."""
    stack, walks = [], []
    integrate, halve, check = (nm.integrate_semi_infinite, nm._halve,
                               nm._termination_check)

    def counted_integrate(*args, **kwargs):
        stack.append([0, None])
        try:
            return integrate(*args, **kwargs)
        finally:
            walks.append(tuple(stack.pop()))

    def counted_halve(f, los, his, whole=None):
        if whole is None:       # a block of whole panels, not a refinement
            stack[-1][0] += len(los)
        return halve(f, los, his, whole)

    def counted_check(contributions, *args):
        got = check(contributions, *args)
        if got[0] is not None:
            stack[-1][1] = len(contributions)
        return got

    monkeypatch.setattr(nm, "integrate_semi_infinite", counted_integrate)
    monkeypatch.setattr(nm, "_halve", counted_halve)
    monkeypatch.setattr(nm, "_termination_check", counted_check)
    return walks


@pytest.mark.parametrize("preset, curve, metric", [
    ("fig2", "fig2_ops_direct_N4", "ber"),
    ("fig1", "fig1_N16", "op"),
])
def test_walk_evaluates_at_most_one_block_past_its_stop(monkeypatch, preset,
                                                        curve, metric):
    # far panels are where the transforms take their slowest routes, so a
    # walk pays for panels past its stop only within the block it ends in
    gamma_th_db, curves = cli._preset_curves(preset)
    points = dict((c[0], c[2]) for c in curves)[curve]
    walks = _count_walks(monkeypatch)
    for _, config in points[::4]:
        walks.clear()
        cli.exact_value(config, metric, 10.0 ** (gamma_th_db / 10.0),
                        rps.Modulation.BPSK)
        assert walks
        for evaluated, stopped in walks:
            assert stopped is not None
            assert 0 <= evaluated - stopped < nm._PANEL_BLOCK


def test_integrate_refinement_budget_raises_with_an_estimate():
    f, calls = _counted(lambda t: np.exp(-t) * (1.0 + np.sin(1e9 * t)))
    with pytest.raises(nm.ConvergenceError,
                       match="subinterval budget exhausted") as info:
        nm.integrate_semi_infinite(f)
    assert info.value.best_estimate is not None
    # one level holds at most 2048 sub-panels of 20 nodes, halved
    assert max(calls) <= 2 * 2048 * 20


def test_integrate_reports_truncation():
    with pytest.raises(nm.ConvergenceError) as info:
        nm.integrate_semi_infinite(lambda t: 1.0 / (1.0 + t) ** 1.01)
    assert info.value.best_estimate is not None


def test_integrate_spent_edges_accept_only_within_target(monkeypatch):
    # 100 panels of width 100 out to the cap: a head of 1, then an
    # alternating tail whose Euler estimate is uncertain by 2.7e-9.  That
    # is above the 1e-9 target, so the spent edge list raises, even though
    # the uncertainty is within 10x of the target
    k = np.arange(100)
    panels = 6e-6 * (-1.0) ** k * (1.0 + 0.5 * np.sin(k))
    panels[0] = 1.0
    _, unc = nm._euler_accelerate(panels[-12:].tolist())
    target = 1e-9 * float(np.sum(panels))
    assert target < unc <= 10.0 * target < abs(panels[-1])
    monkeypatch.setattr(nm, "_termination_check", lambda *args: (None, None))
    with pytest.raises(nm.ConvergenceError, match="truncated") as info:
        nm.integrate_semi_infinite(
            lambda t: panels[np.minimum(t // 100.0, 99).astype(int)] / 100.0,
            breakpoints=100.0 * np.arange(1, 101))
    assert info.value.error_bound == pytest.approx(abs(panels[-1]))


def test_integrate_rejects_negative_lower():
    with pytest.raises(ValueError):
        nm.integrate_semi_infinite(lambda t: np.exp(-t), lower=-1.0)
