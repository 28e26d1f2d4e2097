"""Random-phase-design statistics against independent oracles.

Closed forms exist for the single-element Rayleigh-product case (K0/K1
Bessel forms); everything else is checked by direct quadrature of the
defining densities or by frozen-seed sampling.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import quad

from oracles import (gamma_product_ber, gamma_product_cdf, gamma_r_pdf, link,
                     tail_integral)
from rislink import cli
from rislink import numerics as nm
from rislink import ops, rps
from rislink.scenario import (LinkGeometry, NakagamiParams, PhaseDesign,
                              ScenarioConfig, quantized, ricean_k_to_m)

UNIT = rps.DoubleNakagami(NakagamiParams(1.0, 1.0), NakagamiParams(1.0, 1.0))
FIG2 = rps.DoubleNakagami(NakagamiParams(1.5, 1.0), NakagamiParams(2.5, 1.0))


def product_pdf(dn):
    """Density of |h||g| for two independent Nakagami envelopes."""
    m1, o1 = dn.hop_h.m, dn.hop_h.omega
    m2, o2 = dn.hop_g.m, dn.hop_g.omega
    beta = m1 * m2 / (o1 * o2)
    pref = 4.0 * beta ** (0.5 * (m1 + m2)) / (sp.gamma(m1) * sp.gamma(m2))

    def pdf(x):
        return pref * x ** (m1 + m2 - 1.0) * sp.kv(m1 - m2,
                                                   2.0 * x * math.sqrt(beta))
    return pdf


# ---------------------------------------------------------------------
# moments and transforms
# ---------------------------------------------------------------------

def test_x_moment():
    assert rps.path_moment(UNIT, 0) == 1.0
    assert rps.path_moment(UNIT, 1) == pytest.approx(math.pi / 4.0, rel=1e-14)
    dn = rps.DoubleNakagami(NakagamiParams(1.7, 0.4), NakagamiParams(0.9, 2.0))
    assert rps.path_moment(dn, 2) == pytest.approx(0.4 * 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        rps.path_moment(dn, -1)


def test_hankel_cascade_values():
    assert rps.hankel_factor(UNIT, 0.0) == 1.0
    assert rps.hankel_factor(UNIT, 2.0) == pytest.approx(0.5, rel=1e-14)
    pdf = product_pdf(FIG2)
    for t in (0.5, 2.0, 10.0):
        want, err = quad(lambda x: sp.jv(0, t * x) * pdf(x), 0.0, 12.0,
                         limit=200)
        assert rps.hankel_factor(FIG2, t) == pytest.approx(want, abs=5e-9)


def test_hankel_direct_values():
    ray = NakagamiParams(1.0, 2.0)
    t = np.linspace(0.0, 8.0, 17)
    np.testing.assert_allclose(rps.hankel_factor(ray, t),
                               np.exp(-2.0 * t * t / 4.0), rtol=1e-12)
    ric = NakagamiParams(5.7619, 1.0)
    dens = lambda x: (2.0 * (ric.m / ric.omega) ** ric.m * x ** (2 * ric.m - 1)
                      * math.exp(-ric.m * x * x / ric.omega) / sp.gamma(ric.m))
    for tt in (1.0, 5.0):
        want, _ = quad(lambda x: sp.jv(0, tt * x) * dens(x), 0.0, 4.0,
                       limit=200)
        assert rps.hankel_factor(ric, tt) == pytest.approx(want, abs=5e-9)


def test_factor_bounds_and_normalization():
    t = np.geomspace(1e-3, 50.0, 120)
    direct = NakagamiParams(2.0, 0.5)
    for dn in (UNIT, FIG2, rps.DoubleNakagami(NakagamiParams(0.5, 3.0),
                                              NakagamiParams(4.0, 0.2))):
        vals = np.asarray(rps.hankel_factor(dn, t))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        hp = rps.HankelProduct(dn, 2, direct)
        assert hp(0.0) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(hp(t))) <= 1.0 + 1e-12


def test_hankel_product_grouping(monkeypatch):
    # N identical factors cost one 2F1 evaluation, raised to the N-th power
    hp = rps.HankelProduct(UNIT, 64)
    hyp2f1, calls = nm.hyp2f1, []

    def counted(*args):
        calls.append(args)
        return hyp2f1(*args)

    monkeypatch.setattr(nm, "hyp2f1", counted)
    t = np.linspace(0.0, 3.0, 7)
    np.testing.assert_array_equal(hp(t),
                                  hyp2f1(1.0, 1.0, 1.0, -0.25 * t * t) ** 64)
    assert len(calls) == 1
    hp(0.5)
    assert len(calls) == 2
    assert hp.decay_scale == pytest.approx(2.0, rel=1e-15)
    assert hp.tail_exponent == pytest.approx(128.0, rel=1e-15)


def test_from_scenario_builds_direct_factor():
    cfg = ScenarioConfig(
        n_elements=4, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=0.0, m_h=1.5, m_g=2.5, m_d=1.5,
        geometry=LinkGeometry(20.0, 20.0, 86.0, direct_link=True))
    lk = link(cfg)
    hp = lk.hankel()
    assert hp.paths == [(lk.element, 4), (lk.direct, 1)]
    assert hp.n == 4 and hp.direct.m == 1.5
    assert hp.tail_exponent == pytest.approx(4 * 3.0 + 3.0)


# ---------------------------------------------------------------------
# distribution of the e2e SNR
# ---------------------------------------------------------------------

def test_cdf_matches_product_rayleigh_closed_form():
    hp = rps.HankelProduct(UNIT, 1)
    rho = 2.0
    for g in (0.1, 1.0, 4.0, 20.0):
        z = 2.0 * math.sqrt(g / rho)
        want = 1.0 - z * sp.kv(1, z)
        assert rps.gamma_r_cdf(hp, g, rho) == pytest.approx(want, rel=1e-8)


def test_pdf_matches_product_rayleigh_closed_form():
    hp = rps.HankelProduct(UNIT, 1)
    rho = 2.0
    for g in (0.5, 2.0, 8.0):
        want = (2.0 / rho) * sp.kv(0, 2.0 * math.sqrt(g / rho))
        assert gamma_r_pdf(hp, g, rho) == pytest.approx(want, rel=1e-8)


def test_cdf_limits_and_monotonicity():
    hp = rps.HankelProduct(UNIT, 2)
    assert rps.gamma_r_cdf(hp, 0.0, 1.0) == 0.0
    assert rps.gamma_r_cdf(hp, 800.0, 1.0) == pytest.approx(1.0, abs=1e-6)
    grid = [rps.gamma_r_cdf(hp, g, 1.0) for g in np.geomspace(0.01, 50.0, 12)]
    assert all(0.0 <= v <= 1.0 for v in grid)
    assert np.all(np.diff(grid) >= 0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            rps.gamma_r_cdf(hp, bad, 1.0)


@pytest.mark.parametrize("n, direct", [
    (4, None), (64, None), (4, NakagamiParams(1.5, 0.7))])
def test_cdf_far_above_the_amplitude_scale_is_one(n, direct):
    # past about 1e8 times the mean SNR the inversion alone is 1.7e-10
    # below 1, 170 times its absolute tolerance, and an infinite threshold
    # overflows it; there the fourth-moment bound puts the CDF within
    # 1e-12 of 1
    hp = rps.HankelProduct(FIG2, n, direct)
    mean = hp.moments[1]
    for g in (1e9 * mean, 1e20 * mean, math.inf):
        assert rps.gamma_r_cdf(hp, g, 1.0) == 1.0


@pytest.mark.parametrize("dn, n", [(UNIT, 2), (FIG2, 4),
                                   (rps.DoubleNakagami(NakagamiParams(0.5, 2.0),
                                                       NakagamiParams(0.5, 0.3)),
                                    2)])
def test_phasor_disk_bound_bounds_the_cdf(dn, n):
    hp = rps.HankelProduct(dn, n)
    scale = math.sqrt(dn.mean_power)
    for rt in (0.5, 1e-2, 1e-4, 1e-7):
        r = rt * scale
        bound = rps._phasor_disk_bound(dn, r)
        assert bound > 0.0
        assert rps.gamma_r_cdf(hp, r * r, 1.0) <= bound
    assert rps._phasor_disk_bound(dn, 0.0) == 0.0


@pytest.mark.parametrize("gamma_th_db", [-2500.0, -3000.0, -3200.0])
def test_cdf_far_below_the_amplitude_scale_is_zero_without_warnings(
        gamma_th_db):
    # scenario d's element with random phases: u / r overflowed the
    # transform argument near -3000 dB
    hop = NakagamiParams(5.761904761904762, 5.3004716979604283e-08)
    hp = rps.HankelProduct(rps.DoubleNakagami(hop, hop), 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rps.gamma_r_cdf(hp, 10.0 ** (gamma_th_db / 10.0),
                              31622776601.683792)
    assert got == 0.0


@pytest.mark.parametrize("kind, outage", [
    (rps.HankelProduct, rps.gamma_r_cdf), (ops.AmplitudeChf, ops.gamma_c_cdf)],
    ids=["rps", "ops"])
def test_outage_cuts_are_shared_by_both_designs(kind, outage):
    # rps._outage settles these rows for either engine before any inversion
    tr = kind(FIG2, 4, NakagamiParams(1.5, 0.7))
    assert outage(tr, 0.0, 1.0) == 0.0
    # the fourth-moment Markov cut: r is 3e4 times E|S|^4 ** (1/4)
    assert outage(tr, 1e9 * math.sqrt(tr.moments[2]), 1.0) == 1.0
    assert outage(tr, math.inf, 1.0) == 1.0
    # the disk cut: far below the amplitude scale the row is exactly 0
    for g in (1e-60, 1e-300):
        assert rps._phasor_disk_bound(FIG2, math.sqrt(g)) < 1e-12
        assert outage(tr, g, 1.0) == 0.0
    # one path in total: the envelope law of the gain product
    lone = kind(FIG2, 1)
    for g in (0.05, 1.0, 20.0):
        assert outage(lone, g, 2.0) == pytest.approx(
            gamma_product_cdf(FIG2, g / 2.0), rel=1e-12)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            outage(tr, bad, 1.0)
    with pytest.raises(ValueError, match="rho must be positive"):
        outage(tr, 1.0, 0.0)


ONE_PATH_CELLS = [
    (0.75, 20.0), (0.75, 40.0), (0.75, 60.0), (0.75, 80.0), (0.75, 100.0),
    (1.0, 40.0), (1.0, 60.0), (1.5, 20.0), (3.0, 20.0), (3.0, 100.0),
    (5.76, 80.0)]


# ids: the cell, with "-ops" appended for the optimal-phase design
@pytest.mark.parametrize("m, tx_power_dbm, design", [
    pytest.param(m, tx, design,
                 id=f"{m}-{tx}" + ("-ops" if design == "ops" else ""))
    for design in ("rps", "ops") for m, tx in ONE_PATH_CELLS])
def test_one_path_outage_matches_the_gain_product_reference(m, tx_power_dbm,
                                                            design):
    # scenario e's geometry at a 0 dB threshold; the incomplete gamma of
    # the conditioned form used to stall at the m = 0.75 cells, and the
    # optimal-phase CHF inversion was up to 4.6e-3 off at m = 1, 3, 5.76.
    # A one-path SNR does not depend on the phase design
    cfg = ScenarioConfig(
        n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx_power_dbm, m_h=m, m_g=m,
        geometry=LinkGeometry(20.0, 20.0, 86.0),
        phase_design=PhaseDesign(design))
    lk = link(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if design == "rps":
            got = rps.gamma_r_cdf(lk.hankel(), 1.0, lk.rho)
        else:
            got = ops.gamma_c_cdf(lk.chf(), 1.0, lk.rho)
    want = gamma_product_cdf(lk.element, 1.0 / lk.rho)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tx_power_dbm", [50.0, 60.0, 70.0])
def test_one_path_outage_at_shapes_beyond_gamma_overflow(tx_power_dbm):
    # Gamma(200) overflows a double; the envelope CDF must not form it.
    # The outage here is about 1, 0.89177 and 2.657e-76
    cfg = ScenarioConfig(
        n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx_power_dbm, m_h=200.0, m_g=200.0,
        geometry=LinkGeometry(20.0, 20.0, 86.0))
    lk = link(cfg)
    got = rps.gamma_r_cdf(lk.hankel(), 1.0, lk.rho)
    want = gamma_product_cdf(lk.element, 1.0 / lk.rho)
    assert got == pytest.approx(want, rel=1e-10)


def test_pdf_normalizes_to_one():
    hp = rps.HankelProduct(UNIT, 2)
    val, err = quad(lambda g: gamma_r_pdf(hp, g, 1.0), 0.0, np.inf,
                    limit=90)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_cdf_derivative_matches_pdf():
    hp = rps.HankelProduct(FIG2, 2)
    rho, h = 1.5, 1e-3
    for g in (0.4, 1.1, 3.0, 7.0, 15.0):
        num = (rps.gamma_r_cdf(hp, g * (1 + h), rho)
               - rps.gamma_r_cdf(hp, g * (1 - h), rho)) / (2.0 * g * h)
        assert num == pytest.approx(gamma_r_pdf(hp, g, rho), rel=1e-4)


# ---------------------------------------------------------------------
# moments of the phasor sum
# ---------------------------------------------------------------------

def test_first_moment_is_power_sum():
    # E[gamma] = rho (N Omega_h Omega_g + Omega_d)
    direct = NakagamiParams(2.0, 0.7)
    rho = 3.7
    for el, n in (
            (rps.DoubleNakagami(NakagamiParams(1.0, 1.0),
                                NakagamiParams(2.0, 0.5)), 3),
            (rps.DoubleNakagami(NakagamiParams(1.5, 2.0),
                                NakagamiParams(1.0, 1.0)), 5)):
        want = rho * (n * el.hop_h.omega * el.hop_g.omega + direct.omega)
        hp = rps.HankelProduct(el, n, direct)
        assert rho * hp.moments[1] == pytest.approx(want, rel=1e-9)


def test_second_moment_closed_forms():
    rho = 2.0
    mu2, mu4 = rps.path_moment(UNIT, 2), rps.path_moment(UNIT, 4)
    hp1 = rps.HankelProduct(UNIT, 1)
    assert rho ** 2 * hp1.moments[2] == pytest.approx(rho ** 2 * mu4,
                                                      rel=1e-12)
    hp2 = rps.HankelProduct(UNIT, 2)
    want = rho ** 2 * (2.0 * mu4 + 4.0 * mu2 ** 2)
    assert rho ** 2 * hp2.moments[2] == pytest.approx(want, rel=1e-12)


def test_second_moment_with_direct_path():
    # under uniform phases the walk steps are uncorrelated, so |S|^4 obeys
    # the independent-steps pattern sum including the direct step
    d = NakagamiParams(2.0, 0.7)
    hp = rps.HankelProduct(UNIT, 2, d)
    mu2c, mu4c = rps.path_moment(UNIT, 2), rps.path_moment(UNIT, 4)
    mu2d = d.omega
    mu4d = d.omega ** 2 * (d.m + 1.0) / d.m
    m2 = [mu2c, mu2c, mu2d]
    m4 = [mu4c, mu4c, mu4d]
    want = sum(m4) + 2.0 * (sum(m2) ** 2 - sum(x * x for x in m2))
    assert hp.moments[0] == 0.0
    assert hp.moments[2] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [1.0, 5.76])
def test_fourth_moment_at_4096_elements_against_mpmath(m):
    # without a direct path E|S|^4 = N mu4 + 2 N (N - 1) mu2^2; the summed
    # cumulants hold it to a few ulps at the largest surface
    n = 4096
    dn = rps.DoubleNakagami(NakagamiParams(m, 1.0), NakagamiParams(m, 1.0))
    with mp.workdps(40):
        lam = mp.mpf(dn.lambda_n)

        def mu(k):
            return lam ** (k / 2) * (mp.gamma(m + mp.mpf(k) / 2)
                                     / mp.gamma(m)) ** 2
        want = float(n * mu(4) + 2 * n * (n - 1) * mu(2) ** 2)
    got = rps.HankelProduct(dn, n).moments[2]
    assert abs(got - want) <= 1e-14 * want


def test_moment_validation():
    # the path moments behind every design's phasor moments take
    # nonnegative integer orders only
    for bad in (-2, 1.5):
        with pytest.raises(ValueError, match="moment order"):
            rps.path_moment(UNIT, bad)


# ---------------------------------------------------------------------
# BER
# ---------------------------------------------------------------------

def test_modulation_table():
    assert rps.Modulation.BPSK.p == 0.5 and rps.Modulation.BPSK.q == 1.0
    assert rps.Modulation.BFSK.q == 0.5
    assert rps.Modulation.BPSK.coherent and rps.Modulation.BFSK.coherent
    assert not rps.Modulation.BDPSK.coherent
    assert rps.Modulation.from_label("BFSK") is rps.Modulation.BFSK
    with pytest.raises(ValueError):
        rps.Modulation.from_label("qam")


def test_bdpsk_single_element_closed_form():
    # E[exp(-gamma)]/2 for the product-Rayleigh power has an e^z E1(z) form
    hp = rps.HankelProduct(UNIT, 1)
    for rho in (0.5, 5.0, 40.0):
        want = 0.5 / rho * nm.exp_scaled_e1(1.0 / rho)
        assert rps.ber_rps(hp, rho, rps.Modulation.BDPSK) == pytest.approx(
            want, rel=1e-13)


def _product_rayleigh_ber(mod, rho):
    """Q(sqrt(2 a g)) averaged over the product-Rayleigh power density
    (2/rho) K0(2 sqrt(g/rho)), piecewise on a geometric ladder."""
    a = mod.q
    cuts = [0.0] + list(rho * np.geomspace(1e-14, 1e3, 35)) + [np.inf]
    return sum(quad(lambda g: 0.5 * sp.erfc(math.sqrt(a * g))
                    * (2.0 / rho) * sp.kv(0, 2.0 * math.sqrt(g / rho)),
                    lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def test_bpsk_single_element_quadrature_oracle():
    # BFSK at rho = 1e-4 puts the kernel far below the factor's roll-off,
    # where a walk in u = t / s truncated before reaching the tolerance
    hp = rps.HankelProduct(UNIT, 1)
    for mod, rho in ((rps.Modulation.BPSK, 5.0), (rps.Modulation.BFSK, 1e-4)):
        want = _product_rayleigh_ber(mod, rho)
        assert rps.ber_rps(hp, rho, mod) == pytest.approx(want, rel=1e-12,
                                                          abs=0.0)


def _t_integral_reference(hp, rho, mod):
    """(p / s^2) int t M(1+p; 2; -t^2/s^2) H(t) dt with scipy's 1F1 and
    2F1 and a piecewise scipy quad: the rps BER with none of rislink's
    special functions or quadrature."""
    p, s = mod.p, math.sqrt(4.0 * mod.q * rho)

    def transform(t):
        el = hp.element
        val = sp.hyp2f1(el.hop_h.m, el.hop_g.m, 1.0,
                        -0.25 * el.lambda_n * t * t) ** hp.n
        if hp.direct is not None:
            d = hp.direct
            val *= sp.hyp1f1(d.m, 1.0, -0.25 * d.omega / d.m * t * t)
        return val

    def integrand(t):
        return t * sp.hyp1f1(1.0 + p, 2.0, -(t / s) ** 2) * transform(t)

    lo = 1e-3 * min(s, hp.decay_scale)
    hi = 1e4 * max(s, hp.algebraic_scale)
    cuts = [0.0] + list(np.geomspace(lo, hi, 1 + 4 * math.ceil(
        math.log2(hi / lo))))
    # a rough pass sets the absolute floor for pieces far below the total
    pieces = list(zip(cuts, cuts[1:]))
    rough = sum(quad(integrand, a, b, epsrel=1e-6)[0] for a, b in pieces)
    return p / (s * s) * sum(
        quad(integrand, a, b, epsabs=1e-16 * rough, epsrel=1e-13,
             limit=200)[0] for a, b in pieces)


def test_fig2_nodirect_n4_row_matches_the_t_integral():
    # fig2_rps_nodirect_N4 at 26 dBm: of the preset's rps BER rows, a walk
    # in u = t / s missed this reference most, by 6.3e-10 relative
    _, curves = cli._preset_curves("fig2")
    name, _, points, _, _ = curves[0]
    assert name == "fig2_rps_nodirect_N4"
    lk = link(dict(points)[26.0])
    want = _t_integral_reference(lk.hankel(), lk.rho, rps.Modulation.BPSK)
    assert want == pytest.approx(0.48129818686025, rel=1e-13, abs=0.0)
    got = rps.ber_rps(lk.hankel(), lk.rho, rps.Modulation.BPSK)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_ber_low_snr_limit_and_monotonicity():
    hp = rps.HankelProduct(UNIT, 4)
    for mod in rps.Modulation:
        # rho = 1e-40 and 1e-20 put the kernel far below every factor's
        # roll-off, where the BER is 1/2 to within sqrt(rho)
        vals = [rps.ber_rps(hp, rho, mod) for rho in (1e-40, 1e-20, 1e-6)]
        assert 0.5 - 1e-9 < vals[1] <= vals[0] <= 0.5
        assert 0.5 - 2e-2 < vals[2] <= vals[1]
    vals = [rps.ber_rps(hp, r, rps.Modulation.BPSK)
            for r in np.geomspace(0.01, 1e4, 8)]
    assert np.all(np.diff(vals) < 0)


def test_ber_asymptotic_scaling_and_agreement():
    # high-SNR BER p / (4 q rho) * int t H(t) dt, which decays exactly as
    # 1/rho; the exact integral must reach it
    hp = rps.HankelProduct(UNIT, 4)
    const = tail_integral(hp)
    bpsk, bdpsk = rps.Modulation.BPSK, rps.Modulation.BDPSK
    a1 = bpsk.p * const / (4.0 * bpsk.q * 1e8)
    exact = rps.ber_rps(hp, 1e8, bpsk)
    assert exact == pytest.approx(a1, rel=1e-6)
    assert rps.ber_rps(hp, 2e8, bpsk) == pytest.approx(0.5 * a1, rel=1e-6)
    # BDPSK shares the same tail constant up to the (p, q) prefactor
    b = bdpsk.p * const / (4.0 * bdpsk.q * 1e8)
    assert rps.ber_rps(hp, 1e8, bdpsk) == pytest.approx(b, rel=1e-6)
    # far above, the limit itself: H = (1 + t^2/4)^-4 for unit hops, so
    # int t H dt = 2/3
    for rho in (1e20, 1e30):
        for mod in rps.Modulation:
            want = mod.p * (2.0 / 3.0) / (4.0 * mod.q * rho)
            assert rps.ber_rps(hp, rho, mod) == pytest.approx(
                want, rel=1e-13, abs=0.0)


def test_ber_lattice_cut_short_raises_instead_of_truncating(monkeypatch):
    # with no margin and one bit of tail decay the lattice stops where its
    # tail bound is far above tolerance: the row must raise, not return
    # the truncated sum
    hp = rps.HankelProduct(UNIT, 4)
    monkeypatch.setattr(rps, "_MARGIN", 0)
    monkeypatch.setattr(rps, "_TAIL_BITS", 1)
    with pytest.raises(nm.ConvergenceError, match="bound its tail") as err:
        rps.ber_rps(hp, 1e8, rps.Modulation.BPSK)
    # the estimate is in BER units, short of the limit by the cut tail
    assert err.value.best_estimate == pytest.approx(
        rps.Modulation.BPSK.p * (2.0 / 3.0) / 4e8, rel=0.1)


@pytest.mark.parametrize("mod", list(rps.Modulation),
                         ids=lambda mod: mod.label)
def test_one_path_ber_matches_the_gain_product_reference_or_raises(mod):
    # N = 1 without a direct path on scenario e's geometry: a cell either
    # matches E[P_b] over the gain-product law or raises, never returns a
    # wrong number.  At the top powers of the m = 5.76 cascade a lattice
    # panel misses its tolerance; those two cells may only raise until
    # the one-path BER has a route of its own
    raised = []
    for m in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.76):
        for tx in (20.0, 40.0, 60.0, 80.0, 100.0):
            cfg = ScenarioConfig(
                n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
                tx_power_dbm=tx, m_h=m, m_g=m,
                geometry=LinkGeometry(20.0, 20.0, 86.0))
            lk = link(cfg)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = rps.ber_rps(lk.hankel(), lk.rho, mod)
            except nm.ConvergenceError:
                raised.append((m, tx))
                continue
            want = gamma_product_ber(lk.element, lk.rho, mod)
            assert got == pytest.approx(want, rel=1e-8, abs=0.0), (m, tx)
    assert set(raised) <= {(5.76, 80.0), (5.76, 100.0)}


@pytest.mark.parametrize("mod", list(rps.Modulation),
                         ids=lambda mod: mod.label)
def test_strongly_los_one_path_ber_matches_the_gain_product_reference(mod):
    # scenario e, K = 20 on both hops: the element factor's Gauss and Pfaff
    # series cancel, so the coherent rows raised before they went through
    # the cancellation check
    m = 10.756097560975602
    for tx in (0.0, 20.0, 40.0, 60.0):
        cfg = ScenarioConfig(
            n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
            tx_power_dbm=tx, m_h=m, m_g=m,
            geometry=LinkGeometry(20.0, 20.0, 86.0))
        lk = link(cfg)
        got = rps.ber_rps(lk.hankel(), lk.rho, mod)
        want = gamma_product_ber(lk.element, lk.rho, mod)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), tx


def _one_path(m, tx, design=PhaseDesign("rps")):
    """Scenario e's geometry with N = 1, m_h = m_g = m and no direct path."""
    return ScenarioConfig(
        n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx, m_h=m, m_g=m,
        geometry=LinkGeometry(20.0, 20.0, 86.0), phase_design=design)


def test_ber_lattice_settles_or_raises_without_bisecting(monkeypatch):
    # the lattice's panels are tabulated once per transform: a row either
    # settles on them or raises at once, with its lattice sum and its
    # panels' disagreement in BER units, and never bisects a panel with
    # fresh H values
    def no_refine(*args, **kwargs):
        raise AssertionError("ber_rps bisected a lattice panel")

    monkeypatch.setattr(nm, "_refine", no_refine)
    m = ricean_k_to_m(20.0)
    lk = link(_one_path(m, 60.0))
    for mod in rps.Modulation:
        want = gamma_product_ber(lk.element, lk.rho, mod)
        assert rps.ber_rps(lk.hankel(), lk.rho, mod) == pytest.approx(
            want, rel=1e-12, abs=0.0)
    lk = link(_one_path(m, 80.0))
    want = gamma_product_ber(lk.element, lk.rho, rps.Modulation.BPSK)
    with pytest.raises(nm.ConvergenceError, match="panel") as err:
        rps.ber_rps(lk.hankel(), lk.rho, rps.Modulation.BPSK)
    assert err.value.best_estimate == pytest.approx(want, rel=1e-6, abs=0.0)
    assert 0.0 < err.value.error_bound < 1e-6 * want
    lk = link(_one_path(m, 100.0))
    for mod in rps.Modulation:
        with pytest.raises(nm.ConvergenceError,
                           match="misses its tolerance") as err:
            rps.ber_rps(lk.hankel(), lk.rho, mod)
        # the BER here is below 1e-24; the unscaled lattice sum is not
        assert abs(err.value.best_estimate) < 1e-15
        assert 0.0 < err.value.error_bound < 1e-15


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_ber_rejects_nonpositive_power(rho):
    with pytest.raises(ValueError, match="rho must be positive"):
        rps.ber_rps(rps.HankelProduct(UNIT, 4), rho, rps.Modulation.BPSK)
    with pytest.raises(ValueError, match="rho must be positive"):
        ops.ber_ops(ops.AmplitudeChf(UNIT, 4), rho, rps.Modulation.BPSK)


# one-path cells whose designs disagree, by the item that mends them
_M10, _M40 = ricean_k_to_m(10.0), ricean_k_to_m(40.0)
_RPS_RAISES = {(_M10, 100.0), (_M40, 80.0), (_M40, 100.0)}
_OPS_OFF = {(0.75, 100.0, "bpsk"), (0.75, 100.0, "bfsk"), (2.0, 80.0, "bpsk"),
            (2.0, 100.0, "bpsk"), (2.0, 100.0, "bfsk"), (_M10, 80.0, "bpsk"),
            (_M10, 80.0, "bfsk")}


def _one_path_cells():
    for m in (0.75, 2.0, _M10, _M40):
        for tx in (0.0, 40.0, 80.0, 100.0):
            for row in ("op", "ec", "bpsk", "bdpsk", "bfsk"):
                marks = []
                if row not in ("op", "ec") and (m, tx) in _RPS_RAISES:
                    marks = [pytest.mark.xfail(strict=True, reason=(
                        "ROADMAP item 10: a lattice panel of the rps BER "
                        "misses its tolerance on this one-path row"))]
                elif (m, tx, row) in _OPS_OFF:
                    marks = [pytest.mark.xfail(strict=True, reason=(
                        "ROADMAP item 18: the ops real-line BER is off the "
                        "gain-product reference"))]
                yield pytest.param(m, tx, row, marks=marks,
                                   id=f"m{m:.4g}-{tx:g}dBm-{row}")


@pytest.mark.parametrize("m, tx, row", list(_one_path_cells()))
def test_one_path_exact_rows_agree_across_designs(m, tx, row):
    # with N = 1 and no direct path the SNR does not depend on the
    # phases, so every design's exact row is the same number
    metric = row if row in ("op", "ec") else "ber"
    modulation = (rps.Modulation.BPSK if metric != "ber"
                  else rps.Modulation.from_label(row))
    designs = [PhaseDesign("rps"), PhaseDesign("ops")]
    if metric == "ec":
        designs.append(quantized(2))
    want, *others = (cli.exact_value(_one_path(m, tx, design), metric, 1.0,
                                     modulation) for design in designs)
    for got in others:
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------
# ergodic capacity
# ---------------------------------------------------------------------

def test_ec_taylor():
    assert rps.ec_taylor(0.0, 0.0) == 0.0
    assert rps.ec_taylor(3.0, 9.0) == pytest.approx(2.0, rel=1e-14)
    got = rps.ec_taylor(10.0, 120.0)
    want = (math.log(11.0) - 20.0 / (2.0 * 121.0)) / math.log(2.0)
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        rps.ec_taylor(2.0, 1.0)
    with pytest.raises(ValueError):
        rps.ec_taylor(-1.0, 2.0)


# ---------------------------------------------------------------------
# quantized phase shifting
# ---------------------------------------------------------------------

def test_quantized_phase_factors():
    q1 = quantized(1)
    c1, c2 = rps._phase_factors(q1, UNIT)
    assert c1 == pytest.approx((2.0 / math.pi) ** 2, rel=1e-14)
    assert c2 == pytest.approx(0.0, abs=1e-30)
    c1b, _ = rps._phase_factors(quantized(6), UNIT)
    assert c1 < c1b < 1.0
    # random phases average out; the direct path is co-phased otherwise
    direct = NakagamiParams(1.5, 0.7)
    assert rps._phase_factors(PhaseDesign("rps"), direct) == (0.0, 0.0)
    assert rps._phase_factors(PhaseDesign("ops"), UNIT) == (1.0, 1.0)
    assert rps._phase_factors(q1, direct) == (1.0, 1.0)
    with pytest.raises(ValueError, match="bits >= 1"):
        quantized(0)


def test_quantized_moments_converge_to_coherent_sum():
    dn = rps.DoubleNakagami(NakagamiParams(1.2, 1.0), NakagamiParams(0.8, 0.7))
    mu = [rps.path_moment(dn, j) for j in range(5)]
    n = 5
    want1 = n * mu[2] + n * (n - 1) * mu[1] ** 2
    want2 = (n * mu[4] + 4 * n * (n - 1) * mu[3] * mu[1]
             + 3 * n * (n - 1) * mu[2] ** 2
             + 6 * n * (n - 1) * (n - 2) * mu[2] * mu[1] ** 2
             + n * (n - 1) * (n - 2) * (n - 3) * mu[1] ** 4)
    _, got1, got2 = rps.phasor_moments(rps.HankelProduct(dn, n).paths,
                                       quantized(30))
    assert got1 == pytest.approx(want1, rel=1e-12)
    assert got2 == pytest.approx(want2, rel=1e-12)


def test_quantized_moments_against_sampling():
    dn = rps.DoubleNakagami(NakagamiParams(1.2, 1.0), NakagamiParams(0.8, 0.7))
    n, bits, rho = 3, 2, 2.0
    a = math.pi / 2 ** bits
    size = (400_000, n)
    for direct in (None, NakagamiParams(1.5, 0.9)):
        rng = np.random.default_rng(42)
        xh = np.sqrt(rng.gamma(1.2, 1.0 / 1.2, size))
        xg = np.sqrt(rng.gamma(0.8, 0.7 / 0.8, size))
        phi = rng.uniform(-a, a, size) + rng.uniform(-a, a, size)
        s = np.sum(xh * xg * np.exp(1j * phi), axis=1)
        if direct is not None:
            # the quantized design co-phases the direct path
            s += np.sqrt(rng.gamma(direct.m, direct.omega / direct.m,
                                   size[0]))
        snr = rho * np.abs(s) ** 2
        paths = rps.HankelProduct(dn, n, direct).paths
        mean, mean_sq, fourth = rps.phasor_moments(paths, quantized(bits))
        assert mean == pytest.approx(np.mean(s.real), rel=0.01)
        assert rho * mean_sq == pytest.approx(np.mean(snr), rel=0.01)
        assert rho ** 2 * fourth == pytest.approx(np.mean(snr ** 2),
                                                  rel=0.04)
