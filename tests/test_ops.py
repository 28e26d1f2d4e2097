"""Tests for the coherent-combining (optimal phase) statistics."""

import math

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as ss

from oracles import gamma_c_moment_multinomial, link
from rislink import ops
from rislink.numerics import ConvergenceError, QuadratureSpec
from rislink.rps import DoubleNakagami, Modulation, gamma_r_cdf, HankelProduct
from rislink.scenario import (
    OPS,
    LinkGeometry,
    NakagamiParams,
    ScenarioConfig,
    derive,
)


def nakagami_pdf(x, m, omega):
    return (2.0 * m ** m * x ** (2 * m - 1)
            / (math.gamma(m) * omega ** m) * np.exp(-m * x * x / omega))


def product_pdf(x, m1, om1, m2, om2):
    b1, b2 = m1 / om1, m2 / om2
    return (4.0 * (b1 * b2) ** ((m1 + m2) / 2) / (math.gamma(m1) * math.gamma(m2))
            * x ** (m1 + m2 - 1) * ss.kv(m1 - m2, 2.0 * x * np.sqrt(b1 * b2)))


FIG2 = DoubleNakagami(NakagamiParams(1.5, 0.4), NakagamiParams(2.5, 1.7))


def scenario(n=4, direct=False, design=OPS, m_d=1.2):
    geo = LinkGeometry(20.0, 20.0, 86.0, direct_link=direct)
    return ScenarioConfig(
        n_elements=n, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=0.0, m_h=1.5, m_g=2.5, geometry=geo,
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


def test_chf_cascade_hop_order_irrelevant():
    a = DoubleNakagami(NakagamiParams(2.5, 1.7), NakagamiParams(1.5, 0.4))
    ts = np.linspace(-8.0, 8.0, 33)
    assert np.allclose(ops.chf_cascade(a, ts), ops.chf_cascade(FIG2, ts),
                       rtol=1e-13, atol=1e-14)


def test_chf_conjugate_symmetry_and_modulus():
    chf = ops.AmplitudeChf([FIG2] * 3, NakagamiParams(1.2, 0.8))
    ts = np.linspace(-40.0, 40.0, 51)
    vals = chf(ts)
    assert np.max(np.abs(vals - np.conj(vals[::-1]))) < 1e-12
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert abs(chf(0.0) - 1.0) < 1e-12


def test_amplitude_chf_power_fast_path():
    chf = ops.AmplitudeChf([FIG2] * 64)
    assert len(chf._groups) == 1
    ts = np.array([0.3, 1.7])
    assert np.allclose(chf(ts), np.asarray(ops.chf_cascade(FIG2, ts)) ** 64,
                       rtol=1e-12)


def test_amplitude_chf_needs_some_path():
    with pytest.raises(ValueError):
        ops.AmplitudeChf([])


# ---------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------

def test_amplitude_mean_matches_finite_difference():
    chf = ops.AmplitudeChf([FIG2] * 3, NakagamiParams(5.7619, 0.8))
    h = 1e-6 / math.sqrt(chf.amplitude_moment(2))
    fd = (chf(h) - chf(-h)) / (2j * h)
    assert fd.real == pytest.approx(chf.amplitude_moment(1), rel=1e-9)


def test_nakagami_moment_rayleigh():
    p = NakagamiParams(1.0, 2.0)
    assert ops.nakagami_moment(p, 2) == pytest.approx(2.0, rel=1e-14)
    assert ops.nakagami_moment(p, 1) == pytest.approx(math.sqrt(math.pi / 2.0),
                                                      rel=1e-14)


def snr_moment(cfg, k):
    """E[gamma^k] = rho^k E[A^(2k)] as the capacity engine forms it."""
    scene = link(cfg)
    return scene.rho ** k * scene.chf().amplitude_moment(2 * k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gamma_c_moment_matches_multinomial(k):
    cfg = scenario(n=5, direct=True)
    assert snr_moment(cfg, k) == pytest.approx(
        gamma_c_moment_multinomial(cfg, k), rel=1e-12)


def test_gamma_c_moment_single_element_is_x_moment():
    from rislink.rps import x_moment
    cfg = scenario(n=1)
    d = derive(cfg)
    el = DoubleNakagami(NakagamiParams(1.5, d.omega_h),
                        NakagamiParams(2.5, d.omega_g))
    assert snr_moment(cfg, 2) == pytest.approx(
        d.rho ** 2 * x_moment(el, 4), rel=1e-12)


def test_gamma_c_moment_validation():
    cfg = scenario(n=9)
    with pytest.raises(ValueError):
        link(cfg).chf().amplitude_moment(10)
    with pytest.raises(ValueError):
        gamma_c_moment_multinomial(cfg, 3)
    # k <= 2 stays multinomial-friendly at any N
    assert gamma_c_moment_multinomial(cfg, 2) == pytest.approx(
        snr_moment(cfg, 2), rel=1e-12)


# ---------------------------------------------------------------------
# distribution inversion
# ---------------------------------------------------------------------

def test_gamma_c_cdf_direct_only_rayleigh():
    chf = ops.AmplitudeChf([], NakagamiParams(1.0, 2.0))
    rho = 3.7
    for g in (0.1, 1.0, 7.4, 30.0):
        ref = 1.0 - math.exp(-g / (rho * 2.0))
        assert ops.gamma_c_cdf(chf, g, rho) == pytest.approx(ref, abs=2e-9)


def test_gamma_c_cdf_single_element_matches_hankel_inversion():
    chf = ops.AmplitudeChf([FIG2])
    hp = HankelProduct([FIG2])
    for g in (0.05, 0.5, 2.0, 8.0, 20.0):
        assert ops.gamma_c_cdf(chf, g, 5.0) == pytest.approx(
            gamma_r_cdf(hp, g, 5.0), abs=2e-8)


def test_gamma_c_cdf_limits_and_monotonicity():
    chf = ops.AmplitudeChf([FIG2] * 2, NakagamiParams(1.2, 0.8))
    assert ops.gamma_c_cdf(chf, 0.0, 1.0) == 0.0
    grid = np.geomspace(0.05, 400.0, 25)
    vals = [ops.gamma_c_cdf(chf, float(g), 1.0) for g in grid]
    assert np.all(np.diff(vals) > -1e-9)
    assert vals[-1] > 0.999
    # far enough out the fourth-moment bound short-circuits to exactly 1
    assert ops.gamma_c_cdf(chf, 1e9, 1.0) == 1.0
    with pytest.raises(ValueError):
        ops.gamma_c_cdf(chf, -1.0, 1.0)
    with pytest.raises(ValueError):
        ops.gamma_c_cdf(chf, 1.0, 0.0)


def test_gamma_c_cdf_markov_test_does_not_overflow():
    # r = sqrt(gamma / rho) past ~1e77 overflowed r ** 4
    chf = ops.AmplitudeChf([FIG2] * 2, NakagamiParams(1.2, 0.8))
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


def test_op_ops_is_the_cdf():
    chf = ops.AmplitudeChf([FIG2])
    assert ops.op_ops(chf, 2.0, 5.0) == pytest.approx(
        ops.gamma_c_cdf(chf, 2.0, 5.0), rel=1e-12)
    with pytest.raises(ValueError):
        ops.op_ops(chf, 0.0, 5.0)


def test_gamma_c_cdf_against_monte_carlo():
    cfg = scenario(n=4, direct=True)
    d = derive(cfg)
    chf = link(cfg).chf()
    rng = np.random.default_rng(20240817)
    n = 400_000
    x = (np.sqrt(rng.gamma(1.5, d.omega_h / 1.5, (n, 4)))
         * np.sqrt(rng.gamma(2.5, d.omega_g / 2.5, (n, 4))))
    amp = x.sum(axis=1) + np.sqrt(rng.gamma(1.2, d.omega_d / 1.2, n))
    snr = d.rho * amp * amp
    for q in (0.05, 0.5, 0.95):
        gq = float(np.quantile(snr, q))
        se = math.sqrt(q * (1 - q) / n)
        assert abs(ops.gamma_c_cdf(chf, gq, d.rho) - q) < 4.0 * se


# ---------------------------------------------------------------------
# error rates
# ---------------------------------------------------------------------

def test_ber_ops_coherent_direct_only_textbook():
    chf = ops.AmplitudeChf([], NakagamiParams(2.5, 0.7))
    for rho in (1.0, 10.0, 200.0):
        shape = rho * 0.7 / 2.5
        ref = si.quad(
            lambda g: 0.5 * math.erfc(math.sqrt(g)) * g ** 1.5
            * math.exp(-g / shape) / (math.gamma(2.5) * shape ** 2.5),
            0, np.inf, limit=800)[0]
        # inversion noise floor is absolute (~1e-9), so allow either margin
        assert ops.ber_ops_coherent(chf, rho, Modulation.BPSK) == pytest.approx(
            ref, rel=1e-7, abs=1e-9)


def test_ber_ops_coherent_deep_tail_stays_relative():
    # past the half-minus-integral noise floor the Craig path takes over
    chf = ops.AmplitudeChf([], NakagamiParams(2.5, 0.7))
    rho = 1e6
    shape = rho * 0.7 / 2.5
    ref = si.quad(
        lambda g: 0.5 * math.erfc(math.sqrt(g)) * g ** 1.5
        * math.exp(-g / shape) / (math.gamma(2.5) * shape ** 2.5),
        0, np.inf, limit=800)[0]
    got = ops.ber_ops_coherent(chf, rho, Modulation.BPSK)
    assert ref < 1e-13  # really is beyond the inversion floor
    assert got == pytest.approx(ref, rel=1e-5)


def test_ber_ops_bfsk_is_half_rate_bpsk():
    chf = ops.AmplitudeChf([FIG2] * 2)
    assert ops.ber_ops_coherent(chf, 10.0, Modulation.BFSK) == pytest.approx(
        ops.ber_ops_coherent(chf, 5.0, Modulation.BPSK), rel=1e-12)
    with pytest.raises(ValueError):
        ops.ber_ops_coherent(chf, 10.0, Modulation.BDPSK)


def test_ber_ops_bdpsk_direct_only_closed_form():
    # E[e^{-rho R^2}] for a gamma-distributed power is (1 + rho Omega/m)^-m
    chf = ops.AmplitudeChf([], NakagamiParams(2.5, 0.7))
    for rho in (0.5, 5e3, 1e8):
        ref = 0.5 * (1.0 + rho * 0.7 / 2.5) ** -2.5
        assert ops.ber_ops_bdpsk(chf, rho) == pytest.approx(ref, rel=1e-9)


def test_ber_ops_bdpsk_matches_cdf_average():
    chf = ops.AmplitudeChf([FIG2] * 2, NakagamiParams(1.2, 0.8))
    rho = 0.8
    lit = 0.5 * si.quad(lambda g: math.exp(-g) * ops.gamma_c_cdf(chf, g, rho),
                        0, 60, limit=200)[0]
    assert ops.ber_ops_bdpsk(chf, rho) == pytest.approx(lit, rel=1e-6)


def test_laplace_transform_power_law_tail():
    # for m1 != m2 the density power at the origin gives
    # E[e^{-lam X^2}] ~ c Gamma(p/2) / (2 lam^{p/2}) with p = 2 min(m1, m2)
    chf = ops.AmplitudeChf([FIG2])
    lam = 1e7
    b1, b2 = 1.5 / 0.4, 2.5 / 1.7
    c_x = 2.0 * math.gamma(1.0) / (math.gamma(1.5) * math.gamma(2.5)) \
        * (b1 * b2) ** 1.5
    ref = c_x * math.gamma(1.5) / (2.0 * lam ** 1.5)
    assert ops._amplitude_square_laplace(chf, lam) == pytest.approx(ref,
                                                                    rel=2e-3)


def test_ber_ops_coherent_against_monte_carlo():
    cfg = scenario(n=2, direct=True)
    d = derive(cfg)
    chf = link(cfg).chf()
    rho = 10.0 ** -0.5 * d.rho  # a few dB below the base point
    rng = np.random.default_rng(77)
    n = 300_000
    x = (np.sqrt(rng.gamma(1.5, d.omega_h / 1.5, (n, 2)))
         * np.sqrt(rng.gamma(2.5, d.omega_g / 2.5, (n, 2))))
    amp = x.sum(axis=1) + np.sqrt(rng.gamma(1.2, d.omega_d / 1.2, n))
    kern = 0.5 * ss.erfc(np.sqrt(rho) * amp)
    se = float(kern.std()) / math.sqrt(n)
    got = ops.ber_ops_coherent(chf, rho, Modulation.BPSK)
    assert abs(got - float(kern.mean())) < 4.0 * se


def test_quadrature_spec_passthrough():
    # the Laplace transform takes its callers' tolerances: the BDPSK
    # engine the default, the Craig average of the coherent BER its own
    chf = ops.AmplitudeChf([FIG2])
    loose = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6)
    a = ops._amplitude_square_laplace(chf, 5.0, loose)
    b = ops._amplitude_square_laplace(chf, 5.0)
    assert a == pytest.approx(b, abs=1e-5)
