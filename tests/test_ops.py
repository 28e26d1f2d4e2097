"""Tests for the coherent-combining (optimal phase) statistics."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as ss

from oracles import (cumulant_amplitude_moment, gamma_c_moment_multinomial,
                     link)
from rislink import cli, ops
from rislink import numerics as nm
from rislink.numerics import ConvergenceError
from rislink.rps import (DoubleNakagami, HankelProduct, Modulation,
                         gamma_r_cdf, path_moment)
from rislink.scenario import (
    OPS,
    RPS,
    LinkGeometry,
    NakagamiParams,
    ScenarioConfig,
    config_from_mapping,
    link_parts,
)


def nakagami_pdf(x, m, omega):
    return (2.0 * m ** m * x ** (2 * m - 1)
            / (math.gamma(m) * omega ** m) * np.exp(-m * x * x / omega))


def product_pdf(x, m1, om1, m2, om2):
    b1, b2 = m1 / om1, m2 / om2
    return (4.0 * (b1 * b2) ** ((m1 + m2) / 2) / (math.gamma(m1) * math.gamma(m2))
            * x ** (m1 + m2 - 1) * ss.kv(m1 - m2, 2.0 * x * np.sqrt(b1 * b2)))


FIG2 = DoubleNakagami(NakagamiParams(1.5, 0.4), NakagamiParams(2.5, 1.7))


def scenario(n=4, direct=False, design=OPS, m_d=1.2, tx_dbm=0.0):
    geo = LinkGeometry(20.0, 20.0, 86.0, direct_link=direct)
    return ScenarioConfig(
        n_elements=n, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx_dbm, m_h=1.5, m_g=2.5, geometry=geo,
        phase_design=design, m_d=m_d if direct else None)


# ---------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------

def test_chf_direct_against_quadrature():
    p = NakagamiParams(1.5, 0.3)
    for t in (0.7, 3.0, -12.0):
        re = si.quad(lambda x: math.cos(t * x) * nakagami_pdf(x, 1.5, 0.3),
                     0, np.inf, limit=400)[0]
        im = si.quad(lambda x: math.sin(t * x) * nakagami_pdf(x, 1.5, 0.3),
                     0, np.inf, limit=400)[0]
        assert ops.chf_direct(p, t) == pytest.approx(re + 1j * im, abs=5e-12)


def test_chf_direct_rayleigh_known_value():
    # m=1: E[e^{jtR}] has the classic erf-based closed form; spot check the
    # purely imaginary part at a symmetric pair instead of re-deriving it.
    p = NakagamiParams(1.0, 1.0)
    val = ops.chf_direct(p, 2.0)
    ref_re = si.quad(lambda x: math.cos(2 * x) * nakagami_pdf(x, 1, 1),
                     0, np.inf, limit=400)[0]
    assert val.real == pytest.approx(ref_re, abs=1e-12)
    assert abs(ops.chf_direct(p, 0.0) - 1.0) < 1e-14


def test_chf_direct_raises_where_1f1_has_no_route():
    # m = 29.5 is inside the documented domain; at -0.25 lam t^2 = -800
    # the odd factor M(30; 3/2; .) used to come back 68% off
    p = NakagamiParams(29.5, 1.0)
    with pytest.raises(ConvergenceError):
        ops.chf_direct(p, math.sqrt(4.0 * 29.5 * 800.0))


@pytest.mark.parametrize("hops", [(1.5, 0.4, 2.5, 1.7), (0.5, 1.0, 0.9, 2.0),
                                  (5.7619, 0.053, 5.7619, 0.053)])
def test_chf_cascade_against_quadrature(hops):
    m1, om1, m2, om2 = hops
    dn = DoubleNakagami(NakagamiParams(m1, om1), NakagamiParams(m2, om2))
    scale = 1.0 / math.sqrt(om1 * om2)
    for t in (0.31 * scale, 2.2 * scale, -7.5 * scale):
        re = si.quad(lambda x: math.cos(t * x) * product_pdf(x, m1, om1, m2, om2),
                     0, np.inf, limit=800)[0]
        im = si.quad(lambda x: math.sin(t * x) * product_pdf(x, m1, om1, m2, om2),
                     0, np.inf, limit=800)[0]
        assert ops.chf_cascade(dn, t) == pytest.approx(re + 1j * im, abs=2e-9)


@pytest.mark.parametrize("m", [0.75, 5.761904761904762])
def test_damped_cascade_far_past_its_scale(m):
    # the circle variable Z = (c - c0)/(c + c0) nears 1, where the circle
    # form's 2F1(2m, 1/2; 2m + 1/2; Z) diverges: it was 1.7e-2 off at
    # c = 1e16 c0 (m = 5.76) and raised from about 2e16 c0 on.  The Pfaff
    # form Gamma(m + 1/2)^2 / (Gamma(2m + 1/2) sqrt(pi))
    # 2F1(2m, 2m; 2m + 1/2; 1/2 - c / (2 c0)) takes those points
    dn = DoubleNakagami(NakagamiParams(m, 0.4), NakagamiParams(m, 1.7))
    c0 = 2.0 / math.sqrt(dn.lambda_n)
    ratios = [1e9, 1e12, 1e16, 1e18, 1e20]
    got = ops.chf_cascade(dn, 1j * c0 * np.array(ratios))
    with mp.workdps(40):
        pref = mp.gamma(m + 0.5) ** 2 / (mp.gamma(2 * m + 0.5) * mp.sqrt(mp.pi))
        want = [float(pref * mp.hyp2f1(2 * m, 2 * m, 2 * m + 0.5,
                                       0.5 - mp.mpf(x) / 2)) for x in ratios]
    np.testing.assert_allclose(got.real, want, rtol=1e-13, atol=0.0)
    assert not np.any(got.imag)


@pytest.mark.parametrize("m_h, m_g", [(1.5, 2.5), (0.75, 5.76), (5.76, 5.76),
                                      (10.76, 10.76)])
def test_chf_cascade_real_line_against_the_closed_form(m_h, m_g):
    # real t takes the rational circle variable Z = (-jt - c0)/(-jt + c0)
    # that Im t > 0 takes; mpmath's closed form at 40 digits is the reference
    dn = DoubleNakagami(NakagamiParams(m_h, 0.4), NakagamiParams(m_g, 1.7))
    c0 = 2.0 / math.sqrt(dn.lambda_n)
    t = c0 * np.geomspace(1e-3, 1e4, 57)
    got = ops.chf_cascade(dn, t)
    with mp.workdps(40):
        a, b = mp.mpf(m_h), mp.mpf(m_g)
        pref = (mp.gamma(a + 0.5) * mp.gamma(b + 0.5)
                / (mp.gamma(a + b + 0.5) * mp.sqrt(mp.pi)))
        c, want = mp.mpf(c0), []
        for x in t.tolist():
            base = c - 1j * mp.mpf(x)
            z = (-1j * mp.mpf(x) - c) / (-1j * mp.mpf(x) + c)
            want.append(complex(pref * (2 * c / base) ** (2 * a)
                                * mp.hyp2f1(2 * a, a - b + 0.5, a + b + 0.5, z)))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_chf_cascade_hop_order_irrelevant():
    a = DoubleNakagami(NakagamiParams(2.5, 1.7), NakagamiParams(1.5, 0.4))
    ts = np.linspace(-8.0, 8.0, 33)
    assert np.allclose(ops.chf_cascade(a, ts), ops.chf_cascade(FIG2, ts),
                       rtol=1e-13, atol=1e-14)


def test_chf_conjugate_symmetry_and_modulus():
    chf = ops.AmplitudeChf(FIG2, 3, NakagamiParams(1.2, 0.8))
    ts = np.linspace(-40.0, 40.0, 51)
    vals = chf(ts)
    assert np.max(np.abs(vals - np.conj(vals[::-1]))) < 1e-12
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert abs(chf(0.0) - 1.0) < 1e-12


def test_amplitude_chf_power_fast_path():
    chf = ops.AmplitudeChf(FIG2, 64)
    assert chf.paths == [(FIG2, 64)]
    ts = np.array([0.3, 1.7])
    assert np.allclose(chf(ts), np.asarray(ops.chf_cascade(FIG2, ts)) ** 64,
                       rtol=1e-12)


def test_amplitude_chf_needs_some_path():
    for n in (0, -1, 1.5):
        with pytest.raises(ValueError):
            ops.AmplitudeChf(FIG2, n)


# ---------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------

def test_amplitude_mean_matches_finite_difference():
    chf = ops.AmplitudeChf(FIG2, 3, NakagamiParams(5.7619, 0.8))
    h = 1e-6 / math.sqrt(chf.moments[1])
    fd = (chf(h) - chf(-h)) / (2j * h)
    assert fd.real == pytest.approx(chf.moments[0], rel=1e-9)


def test_nakagami_moment_rayleigh():
    p = NakagamiParams(1.0, 2.0)
    assert path_moment(p, 2) == pytest.approx(2.0, rel=1e-14)
    assert path_moment(p, 1) == pytest.approx(math.sqrt(math.pi / 2.0),
                                              rel=1e-14)


def snr_moment(cfg, k):
    """E[gamma^k] = rho^k E[A^(2k)], k in {1, 2}, as the capacity engine
    forms it."""
    scene = link(cfg)
    return scene.rho ** k * scene.chf().moments[k]


@pytest.mark.parametrize("k", [1, 2])
def test_gamma_c_moment_matches_multinomial(k):
    cfg = scenario(n=5, direct=True)
    assert snr_moment(cfg, k) == pytest.approx(
        gamma_c_moment_multinomial(cfg, k), rel=1e-12)


def test_gamma_c_moment_single_element_is_x_moment():
    cfg = scenario(n=1)
    rho, el, _ = link_parts(cfg)
    assert snr_moment(cfg, 2) == pytest.approx(
        rho ** 2 * path_moment(el, 4), rel=1e-12)


def test_gamma_c_moment_validation():
    cfg = scenario(n=9)
    with pytest.raises(ValueError):
        gamma_c_moment_multinomial(cfg, 3)
    # k <= 2 stays multinomial-friendly at any N
    assert gamma_c_moment_multinomial(cfg, 2) == pytest.approx(
        snr_moment(cfg, 2), rel=1e-12)


GRID_SHAPES = [(0.5, 0.5), (0.75, 2.0), (1.5, 2.5), (5.761904761904762,) * 2]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 320, 4096])
def test_mean_and_power_keep_the_cumulant_bits(n):
    # the outage, its Markov cut and the BER read E[A] and E[A^2]; the
    # summed joint cumulants give them bit for bit as the per-path
    # cumulant recursion does, with or without a direct path
    for (m_h, m_g), om_h, om_g in itertools.product(
            GRID_SHAPES, (0.3, 1.0, 7.9e-7), (1.7, 2.2e-6)):
        dn = DoubleNakagami(NakagamiParams(m_h, om_h),
                            NakagamiParams(m_g, om_g))
        for direct in (None, NakagamiParams(1.5, 0.4 * om_h * om_g)):
            chf = ops.AmplitudeChf(dn, n, direct)
            for k in (1, 2):
                assert chf.moments[k - 1] == cumulant_amplitude_moment(
                    chf.paths, k)


# ---------------------------------------------------------------------
# distribution inversion
# ---------------------------------------------------------------------

def test_gamma_c_cdf_direct_only_rayleigh():
    chf = ops.AmplitudeChf(None, 0, NakagamiParams(1.0, 2.0))
    rho = 3.7
    for g in (0.1, 1.0, 7.4, 30.0):
        ref = 1.0 - math.exp(-g / (rho * 2.0))
        assert ops.gamma_c_cdf(chf, g, rho) == pytest.approx(ref, rel=1e-13)


def test_gamma_c_cdf_single_element_matches_hankel_inversion():
    # one path in total: the SNR does not depend on the phase design
    chf = ops.AmplitudeChf(FIG2, 1)
    hp = HankelProduct(FIG2, 1)
    for g in (0.05, 0.5, 2.0, 8.0, 20.0):
        assert ops.gamma_c_cdf(chf, g, 5.0) == gamma_r_cdf(hp, g, 5.0)


def test_gamma_c_cdf_limits_and_monotonicity():
    chf = ops.AmplitudeChf(FIG2, 2, NakagamiParams(1.2, 0.8))
    assert ops.gamma_c_cdf(chf, 0.0, 1.0) == 0.0
    grid = np.geomspace(0.05, 400.0, 25)
    vals = [ops.gamma_c_cdf(chf, float(g), 1.0) for g in grid]
    assert np.all(np.diff(vals) > -1e-9)
    assert vals[-1] > 0.999
    # far enough out the fourth-moment bound short-circuits to exactly 1
    assert ops.gamma_c_cdf(chf, 1e9, 1.0) == 1.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            ops.gamma_c_cdf(chf, bad, 1.0)
    with pytest.raises(ValueError):
        ops.gamma_c_cdf(chf, 1.0, 0.0)


def test_gamma_c_cdf_markov_test_does_not_overflow():
    # r = sqrt(gamma / rho) past ~1e77 overflowed r ** 4
    chf = ops.AmplitudeChf(FIG2, 2, NakagamiParams(1.2, 0.8))
    assert ops.gamma_c_cdf(chf, 1e180, 1.0) == 1.0
    assert ops.gamma_c_cdf(chf, 1e300, 1e-100) == 1.0


def test_coherent_combining_dominates_random_phases():
    cfg = scenario(n=4)
    scene = link(cfg)
    chf, hp, rho = scene.chf(), scene.hankel(), scene.rho
    gbar = snr_moment(cfg, 1)
    for frac in (0.01, 0.1, 0.3, 1.0, 2.0):
        fc = ops.gamma_c_cdf(chf, frac * gbar, rho)
        fr = gamma_r_cdf(hp, frac * gbar, rho)
        assert fc <= fr + 1e-9


def test_gamma_c_cdf_against_monte_carlo():
    cfg = scenario(n=4, direct=True)
    scene = link(cfg)
    chf = scene.chf()
    omega_h, omega_g = scene.element.hop_h.omega, scene.element.hop_g.omega
    rng = np.random.default_rng(20240817)
    n = 400_000
    x = (np.sqrt(rng.gamma(1.5, omega_h / 1.5, (n, 4)))
         * np.sqrt(rng.gamma(2.5, omega_g / 2.5, (n, 4))))
    amp = x.sum(axis=1) + np.sqrt(rng.gamma(1.2, scene.direct.omega / 1.2, n))
    snr = scene.rho * amp * amp
    for q in (0.05, 0.5, 0.95):
        gq = float(np.quantile(snr, q))
        se = math.sqrt(q * (1 - q) / n)
        assert abs(ops.gamma_c_cdf(chf, gq, scene.rho) - q) < 4.0 * se


# Scenarios b and d of the benchmark's validate set (0 dB threshold) and
# their exact ops outage by the saddle-point contour: it agrees with
# itself within 6e-13 over contour shifts c in {1e6, 1.67e6, 3e6} (b)
# and within 2e-12 over c in {2e7, 3.51e7, 5e7} (d).  The real-line
# walk gives 4.8966081059309552e-06 (2.7e-6 off) and
# 6.0214350228182667e-08 (1.47e-3 off); ROADMAP item 18 replaces it
# with the contour.
VALIDATE_OUTAGE = [
    pytest.param(dict(n_elements=64, direct_link="true", m_d=1.5),
                 4.8965947102e-06, id="b"),
    pytest.param(dict(n_elements=128, direct_link="false"),
                 6.0302853951e-08, id="d"),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: the real-line "
                   "inversion misses the contour value")
@pytest.mark.parametrize("over, want", VALIDATE_OUTAGE)
def test_validate_ops_outage_matches_the_contour(over, want):
    m = 5.761904761904762
    mapping = dict(carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85,
                   tx_power_dbm=20, m_h=m, m_g=m, r_h=20, r_g=20, psi_deg=86,
                   phase_design="ops", **over)
    scene = link(config_from_mapping(mapping))
    assert ops.gamma_c_cdf(scene.chf(), 1.0, scene.rho) == pytest.approx(
        want, rel=1e-7, abs=0.0)


def d_config(**over):
    """Scenario d of the benchmark's validate set, with ``over`` applied."""
    m = 5.761904761904762
    mapping = dict(n_elements=128, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85,
                   tx_power_dbm=20, m_h=m, m_g=m, r_h=20, r_g=20, psi_deg=86,
                   direct_link="false", phase_design="ops")
    mapping.update(over)
    return config_from_mapping(mapping)


@pytest.mark.parametrize("gamma_th_db", [-60.0, -100.0, -200.0, -300.0,
                                         -1000.0, -2500.0])
def test_gamma_c_cdf_deep_left_tail_is_zero(gamma_th_db):
    # four elements and a direct path: the real-line inversion read 4.6e-12
    # at -60 dB and 2.6e-12 below, where the Chernoff bound is under 1e-66
    scene = link(d_config(n_elements=4, direct_link="true", m_d=1.5))
    got = ops.gamma_c_cdf(scene.chf(), 10.0 ** (gamma_th_db / 10.0),
                          scene.rho)
    assert got == 0.0


def e_config(n, m_h, m_g, direct, tx_dbm, design=OPS):
    """Scenario e's geometry, with m_d = 1.5 when there is a direct path."""
    return ScenarioConfig(
        n_elements=n, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx_dbm, m_h=m_h, m_g=m_g,
        geometry=LinkGeometry(20.0, 20.0, 86.0, direct_link=direct),
        phase_design=design, m_d=1.5 if direct else None)


def within_slack(value, upper):
    """value <= upper at item 19's slack, abs 1e-12 plus rel 1e-9."""
    return value <= upper + 1e-12 + 1e-9 * abs(upper)


def outage_and_chernoff_bound(n, m_h, m_g, direct, tx_dbm):
    """The exact ops outage at a 0 dB threshold in scenario e's geometry,
    and its Chernoff bound min_c e^{cr} E[e^{-cA}] over 400 shifts with
    c r from 1e-3 to 1e13."""
    scene = link(e_config(n, m_h, m_g, direct, tx_dbm))
    chf, r = scene.chf(), math.sqrt(1.0 / scene.rho)
    cr = np.geomspace(1e-3, 1e13, 400)
    log_bound = float(np.min(cr + ops._log_damped_mean(chf, cr / r)))
    return ops.gamma_c_cdf(chf, 1.0, scene.rho), math.exp(min(log_bound, 0.0))


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("m_h, m_g", [(0.75, 0.75), (1.5, 2.5), (3.0, 3.0),
                                      (5.76, 5.76)])
@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_gamma_c_cdf_is_below_its_chernoff_bound(n, m_h, m_g, direct):
    # a slice of ROADMAP item 19's invariant grid, at its slack
    for tx_dbm in range(-10, 101, 15):
        op, bound = outage_and_chernoff_bound(n, m_h, m_g, direct, tx_dbm)
        assert within_slack(op, bound)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: the real-line "
                   "inversion lies above the Chernoff bound")
@pytest.mark.parametrize("n, m_h, m_g, direct, tx_dbm", [
    (16, 0.75, 0.75, True, 45.0), (64, 1.5, 2.5, False, 30.0)])
def test_gamma_c_cdf_chernoff_breaches_left(n, m_h, m_g, direct, tx_dbm):
    # the two breaches of item 19's grid that no cut reaches: 6.3e-11
    # against a bound of 1.5e-12, and 5.77e-11 against 5.14e-11
    op, bound = outage_and_chernoff_bound(n, m_h, m_g, direct, tx_dbm)
    assert within_slack(op, bound)


SLICE_TX_DBM = range(-10, 96, 15)
# (N, m_h, m_g, direct path, design, metric, tx dBm) whose exact value
# rises from the step 15 dB below it; each is a strict xfail below
RISES_WITH_POWER = {(2, 0.75, 0.75, True, "rps", "op", 95),
                    (2, 1.5, 2.5, True, "rps", "op", 95)}


def exact_op_and_ber(n, m_h, m_g, direct, tx_dbm, design):
    """The exact outage at a 0 dB threshold and the exact BPSK BER."""
    config = e_config(n, m_h, m_g, direct, tx_dbm, design)
    return tuple(cli.exact_value(config, metric, 1.0, Modulation.BPSK)
                 for metric in ("op", "ber"))


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("m_h, m_g", [(0.75, 0.75), (1.5, 2.5)])
@pytest.mark.parametrize("n", [2, 16])
def test_exact_rows_are_ordered_and_fall_with_power(n, m_h, m_g, direct):
    # a slice of ROADMAP item 19's invariant grid, at its slack: optimal
    # phases maximise the SNR path by path, so op and BER are no larger
    # than with random phases, and neither rises with tx power
    sweeps = {design.kind: [exact_op_and_ber(n, m_h, m_g, direct, tx, design)
                            for tx in SLICE_TX_DBM] for design in (OPS, RPS)}
    for ops_row, rps_row in zip(sweeps["ops"], sweeps["rps"]):
        for value, upper in zip(ops_row, rps_row):
            assert within_slack(value, upper)
    for kind, sweep in sweeps.items():
        for tx, below, row in zip(SLICE_TX_DBM[1:], sweep, sweep[1:]):
            for metric, value, upper in zip(("op", "ber"), row, below):
                if (n, m_h, m_g, direct, kind, metric, tx) \
                        not in RISES_WITH_POWER:
                    assert within_slack(value, upper)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the rps outage "
                   "integrates to abs 1e-12, so rows near 1e-12 are noise")
@pytest.mark.parametrize("n, m_h, m_g, direct, kind, metric, tx_dbm",
                         sorted(RISES_WITH_POWER))
def test_exact_rows_rising_with_power(n, m_h, m_g, direct, kind, metric,
                                      tx_dbm):
    # 1.03e-12 at 80 dBm -> 2.47e-12 at 95 dBm, and 1.13e-12 -> 2.48e-12
    design = OPS if kind == "ops" else RPS
    index = ("op", "ber").index(metric)
    below = exact_op_and_ber(n, m_h, m_g, direct, tx_dbm - 15, design)
    row = exact_op_and_ber(n, m_h, m_g, direct, tx_dbm, design)
    assert within_slack(row[index], below[index])


# ---------------------------------------------------------------------
# error rates
# ---------------------------------------------------------------------

def test_ber_ops_coherent_direct_only_textbook():
    chf = ops.AmplitudeChf(None, 0, NakagamiParams(2.5, 0.7))
    for rho in (1.0, 10.0, 200.0):
        shape = rho * 0.7 / 2.5
        ref = si.quad(
            lambda g: 0.5 * math.erfc(math.sqrt(g)) * g ** 1.5
            * math.exp(-g / shape) / (math.gamma(2.5) * shape ** 2.5),
            0, np.inf, limit=800)[0]
        # inversion noise floor is absolute (~1e-9), so allow either margin
        assert ops.ber_ops(chf, rho, Modulation.BPSK) == pytest.approx(
            ref, rel=1e-7, abs=1e-9)


def test_ber_ops_coherent_deep_tail_stays_relative():
    # past the half-minus-integral noise floor the saddle-point contour
    # takes over; mpmath's average is the reference (scipy's quad is
    # itself 1.3e-7 off here)
    chf = ops.AmplitudeChf(None, 0, NakagamiParams(2.5, 0.7))
    rho = 1e6
    with mp.workdps(30):
        shape = mp.mpf(rho) * mp.mpf("0.7") / mp.mpf("2.5")
        ref = float(mp.quad(
            lambda g: mp.erfc(mp.sqrt(g)) / 2 * g ** mp.mpf("1.5")
            * mp.exp(-g / shape) / (mp.gamma(mp.mpf("2.5")) * shape ** 2.5),
            [0, 1, 10, 100, mp.inf]))
    got = ops.ber_ops(chf, rho, Modulation.BPSK)
    assert ref < 1e-13  # really is beyond the inversion floor
    assert got == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_ber_ops_bfsk_is_half_rate_bpsk():
    chf = ops.AmplitudeChf(FIG2, 2)
    assert ops.ber_ops(chf, 10.0, Modulation.BFSK) == pytest.approx(
        ops.ber_ops(chf, 5.0, Modulation.BPSK), rel=1e-12)
    # the noncoherent BDPSK kernel takes the Laplace transform instead
    assert ops.ber_ops(chf, 10.0, Modulation.BDPSK) == \
        0.5 * ops._gaussian_average(chf, math.sqrt(20.0), False)


def test_ber_ops_bdpsk_direct_only_closed_form():
    # E[e^{-rho R^2}] for a gamma-distributed power is (1 + rho Omega/m)^-m
    chf = ops.AmplitudeChf(None, 0, NakagamiParams(2.5, 0.7))
    for rho in (0.5, 5e3, 1e8):
        ref = 0.5 * (1.0 + rho * 0.7 / 2.5) ** -2.5
        assert ops.ber_ops(chf, rho, Modulation.BDPSK) == pytest.approx(
            ref, rel=1e-9)


@pytest.mark.parametrize("m", [0.7, 1.2, 1.5, 2.5])
def test_ber_ops_bdpsk_direct_only_any_shape(m):
    # the direct path's density power r^{2m-1} is not smooth at 0 unless
    # 2m - 1 is an integer; at m = 0.7 plain Gauss-Legendre panels left
    # the BER 2e-5 off
    chf = ops.AmplitudeChf(None, 0, NakagamiParams(m, 0.7))
    for rho in (0.5, 10.0, 1e3, 1e9):
        ref = 0.5 * (1.0 + rho * 0.7 / m) ** -m
        assert ops.ber_ops(chf, rho, Modulation.BDPSK) == pytest.approx(
            ref, rel=1e-12, abs=0.0)


def test_ber_ops_bdpsk_matches_cdf_average():
    chf = ops.AmplitudeChf(FIG2, 2, NakagamiParams(1.2, 0.8))
    rho = 0.8
    lit = 0.5 * si.quad(lambda g: math.exp(-g) * ops.gamma_c_cdf(chf, g, rho),
                        0, 60, limit=200)[0]
    assert ops.ber_ops(chf, rho, Modulation.BDPSK) == pytest.approx(
        lit, rel=1e-6)


def test_laplace_transform_power_law_tail():
    # for m1 != m2 the density power at the origin gives
    # E[e^{-lam X^2}] ~ c Gamma(p/2) / (2 lam^{p/2}) with p = 2 min(m1, m2)
    chf = ops.AmplitudeChf(FIG2, 1)
    lam = 1e7
    b1, b2 = 1.5 / 0.4, 2.5 / 1.7
    c_x = 2.0 * math.gamma(1.0) / (math.gamma(1.5) * math.gamma(2.5)) \
        * (b1 * b2) ** 1.5
    ref = c_x * math.gamma(1.5) / (2.0 * lam ** 1.5)
    laplace = ops._gaussian_average(chf, math.sqrt(2.0 * lam), False)
    assert laplace == pytest.approx(ref, rel=2e-3)


def test_ber_ops_coherent_against_monte_carlo():
    cfg = scenario(n=2, direct=True)
    scene = link(cfg)
    chf = scene.chf()
    omega_h, omega_g = scene.element.hop_h.omega, scene.element.hop_g.omega
    rho = 10.0 ** -0.5 * scene.rho  # a few dB below the base point
    rng = np.random.default_rng(77)
    n = 300_000
    x = (np.sqrt(rng.gamma(1.5, omega_h / 1.5, (n, 2)))
         * np.sqrt(rng.gamma(2.5, omega_g / 2.5, (n, 2))))
    amp = x.sum(axis=1) + np.sqrt(rng.gamma(1.2, scene.direct.omega / 1.2, n))
    kern = 0.5 * ss.erfc(np.sqrt(rho) * amp)
    se = float(kern.std()) / math.sqrt(n)
    got = ops.ber_ops(chf, rho, Modulation.BPSK)
    assert abs(got - float(kern.mean())) < 4.0 * se


@pytest.mark.parametrize("mod", list(Modulation))
def test_ber_ops_reads_zero_at_extreme_power(mod):
    # scenario d from 330 to 700 dBm: past 360 dBm the damped CHF's
    # circle variable rounded to 1 and the row raised
    for tx_dbm in np.linspace(330.0, 700.0, 8):
        config = d_config(tx_power_dbm=tx_dbm)
        assert cli.exact_value(config, "ber", 1.0, mod) == 0.0


# ---------------------------------------------------------------------
# deep-tail BER on the saddle-point contour
# ---------------------------------------------------------------------

# E[k(X + D)] = int_0^inf int_0^inf k(x + d) f_X(x) f_D(d) dx dd for
# `scenario(1, True, m_d=1.5, tx_dbm=...)`: f_X is the K-Bessel density of
# the double-Nakagami product (`product_pdf`), f_D the Nakagami(1.5)
# direct-path density (`nakagami_pdf`), and k(a) = erfc(sqrt(rho) a) / 2
# for BPSK or exp(-rho a^2) / 2 for BDPSK.  The values are mpmath's
# two-dimensional quadrature of that integral (mp.quad over both
# variables), too slow for the test suite; scipy's nested quad at epsrel
# 1e-13 reproduces all four within 1e-13.
ONE_ELEMENT_REFERENCES = [
    (40.0, Modulation.BPSK, 1.46468665200128e-8),
    (40.0, Modulation.BDPSK, 3.56011799292303e-8),
    (60.0, Modulation.BPSK, 2.86339262770436e-12),
    (60.0, Modulation.BDPSK, 8.07787569005473e-12),
]


@pytest.mark.parametrize("tx_dbm, mod, ref", ONE_ELEMENT_REFERENCES)
def test_ber_ops_one_element_direct_path_against_mpmath(tx_dbm, mod, ref):
    scene = link(scenario(1, True, m_d=1.5, tx_dbm=tx_dbm))
    assert ops.ber_ops(scene.chf(), scene.rho, mod) == pytest.approx(
        ref, rel=1e-8, abs=0.0)


TAIL_SLICE = [(n, direct, tx_dbm) for n in (4, 64, 256)
              for direct in (False, True) for tx_dbm in (40.0, 80.0)]


def tail_rows(n, direct, tx_dbm):
    """(rho, transform, BPSK row, BDPSK row) of one slice scenario."""
    scene = link(scenario(n, direct, m_d=1.5, tx_dbm=tx_dbm))
    chf = scene.chf()
    return (scene.rho, chf, ops.ber_ops(chf, scene.rho, Modulation.BPSK),
            ops.ber_ops(chf, scene.rho, Modulation.BDPSK))


def log_laplace(pdf, t):
    """ln E[e^{-tX}] of a density on (0, inf), by scipy in x = e^v."""
    val = si.quad(lambda v: math.exp(v - t * math.exp(v)) * pdf(math.exp(v)),
                  -60.0 - math.log(t), 8.0 - math.log(t), limit=400,
                  epsabs=0.0, epsrel=1e-11)[0]
    return math.log(val)


@pytest.mark.parametrize("n, direct, tx_dbm", TAIL_SLICE)
def test_ber_ops_tail_is_below_its_chernoff_bound(n, direct, tx_dbm):
    # Q(sa) and e^{-s^2 a^2 / 2} are both at most e^{c^2/2 - csa}, so either
    # average is at most e^{c^2/2} E[e^{-csA}] for every c > 0
    rho, chf, bpsk, bdpsk = tail_rows(n, direct, tx_dbm)
    el, dpath = chf.element, chf.direct
    s = math.sqrt(2.0 * rho)

    def log_bound(c):
        t = c * s
        got = 0.5 * c * c + n * log_laplace(lambda x: product_pdf(
            x, el.hop_h.m, el.hop_h.omega, el.hop_g.m, el.hop_g.omega), t)
        if dpath is not None:
            got += log_laplace(
                lambda x: nakagami_pdf(x, dpath.m, dpath.omega), t)
        return got

    bound = min(log_bound(c) for c in np.geomspace(0.1, 60.0, 40))
    for row in (bpsk, bdpsk):
        assert row == 0.0 or math.log(row) <= bound


@pytest.mark.parametrize("n, direct, tx_dbm", TAIL_SLICE)
@pytest.mark.parametrize("shift", [0.8, 1.25])
def test_ber_ops_tail_does_not_depend_on_the_contour(monkeypatch, n, direct,
                                                     tx_dbm, shift):
    *_, bpsk, bdpsk = tail_rows(n, direct, tx_dbm)
    monkeypatch.setattr(ops, "_SHIFTS", ops._SHIFTS * shift)
    *_, bpsk_moved, bdpsk_moved = tail_rows(n, direct, tx_dbm)
    assert bpsk_moved == pytest.approx(bpsk, rel=1e-8, abs=0.0)
    assert bdpsk_moved == pytest.approx(bdpsk, rel=1e-8, abs=0.0)


def chf_direct_pcfd(params, z):
    """E[e^{jzR}] of a Nakagami-m envelope from its closed form,
    2^(1-m) Gamma(2m) / Gamma(m) e^(-z^2 / 8b) D_(-2m)(-jz / sqrt(2b)) with
    b = m / Omega, in mpmath's parabolic cylinder function."""
    m, b = mp.mpf(params.m), mp.mpf(params.m) / mp.mpf(params.omega)
    out = np.empty(z.shape, dtype=complex)
    with mp.workdps(30):
        pref = 2 ** (1 - m) * mp.gamma(2 * m) / mp.gamma(m)
        for i, zi in enumerate(z.tolist()):
            zi = mp.mpc(zi)
            out[i] = complex(pref * mp.exp(-zi ** 2 / (8 * b))
                             * mp.pcfd(-2 * m, -1j * zi / mp.sqrt(2 * b)))
    return out


def test_contour_evaluates_no_node_past_its_span(monkeypatch):
    # past span the Gaussian factor leaves nothing to integrate, so the
    # contour is one bisected segment [0, span] and evaluates nothing
    # beyond it (a semi-infinite walk would go on out to 1e4)
    nodes = []
    gl_batch = nm._gl_batch

    def recording(f, los, his):
        def g(x):
            nodes.append(np.max(x))
            return f(x)
        return gl_batch(g, los, his)

    monkeypatch.setattr(nm, "_gl_batch", recording)
    chf = ops.AmplitudeChf(FIG2, 4, NakagamiParams(1.2, 0.8))
    for q_kernel in (True, False):
        assert ops._gaussian_average(chf, 30.0, q_kernel) > 0.0
    span = math.sqrt(2.0 * math.log(1.0 / ops._BER_QUADRATURE.rel_tol) + 20.0)
    assert nodes and max(nodes) < span


@pytest.mark.parametrize("tx_dbm", [8.0, 16.0, 30.0])
def test_contour_ber_with_direct_path_matches_the_closed_form_factor(
        monkeypatch, tx_dbm):
    # fig2_ops_direct_N4: the saddle-point contour's E[Q(sA)] with the
    # direct factor's quadrature against the same walk on its closed form
    _, curves = cli._preset_curves("fig2")
    points = {name: pts for name, _, pts, _, _ in curves}
    scene = link(dict(points["fig2_ops_direct_N4"])[tx_dbm])
    s = math.sqrt(2.0 * Modulation.BPSK.q * scene.rho)
    got = ops._gaussian_average(scene.chf(), s, True)
    monkeypatch.setattr(ops, "_chf_direct_complex", chf_direct_pcfd)
    want = ops._gaussian_average(ops.AmplitudeChf(
        scene.element, 4, scene.direct), s, True)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)
