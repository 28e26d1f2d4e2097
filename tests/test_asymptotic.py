"""Large-N model checks: exact finite-N transforms as the oracle.

The exponential and noncentral-chi-square laws are compared against the
exact inversion machinery (deterministic sup-distance ladders) and
against frozen-seed sampling; the closed-form BER/EC expressions are
checked by quadrature identities and algebraic special cases.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import largen_ops_chf, largen_ops_pdf, largen_rps_chf, link
from rislink import asymptotic as la
from rislink import cli, rps
from rislink.rps import DoubleNakagami, HankelProduct, Modulation
from rislink.scenario import (LinkGeometry, NakagamiParams, ScenarioConfig,
                              derive, ricean_k_to_m)

DN = DoubleNakagami(NakagamiParams(2.0, 1.0), NakagamiParams(3.0, 1.0))


def scenario(n, tx_dbm=10.0, direct=False):
    m = ricean_k_to_m(10.0)
    return ScenarioConfig(
        n_elements=n, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx_dbm, m_h=m, m_g=m,
        geometry=LinkGeometry(r_h=20.0, r_g=20.0, psi=86.0, direct_link=direct),
        m_d=1.2 if direct else None)


def sample_y2(n, trials, rng, mh=2.0, mg=3.0):
    """|sum X_n e^{j phi_n}|^2 with unit spreads, in memory-bounded chunks."""
    out = np.empty(trials)
    done = 0
    while done < trials:
        c = min(20000, trials - done)
        x = np.sqrt(rng.gamma(mh, 1.0 / mh, (c, n))
                    * rng.gamma(mg, 1.0 / mg, (c, n)))
        phi = rng.uniform(0.0, 2.0 * math.pi, (c, n))
        re = np.sum(x * np.cos(phi), axis=1)
        im = np.sum(x * np.sin(phi), axis=1)
        out[done:done + c] = re * re + im * im
        done += c
    return out


def sample_a2(n, trials, rng, mh=2.0, mg=3.0):
    """(sum X_n)^2 with unit spreads."""
    out = np.empty(trials)
    done = 0
    while done < trials:
        c = min(20000, trials - done)
        x = np.sqrt(rng.gamma(mh, 1.0 / mh, (c, n))
                    * rng.gamma(mg, 1.0 / mg, (c, n)))
        a = np.sum(x, axis=1)
        out[done:done + c] = a * a
        done += c
    return out


def ks_statistic(sorted_cdf_values):
    n = len(sorted_cdf_values)
    i = np.arange(1, n + 1)
    return max(np.max(np.abs(i / n - sorted_cdf_values)),
               np.max(np.abs((i - 1) / n - sorted_cdf_values)))


# ---------------------------------------------------------------------
# summand statistics and model construction
# ---------------------------------------------------------------------

def test_zt_stats_rayleigh_product():
    unit = DoubleNakagami(NakagamiParams(1.0, 1.0), NakagamiParams(1.0, 1.0))
    mean, var = la.zt_stats(unit)
    assert mean == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert var == pytest.approx(1.0 - math.pi ** 2 / 16.0, rel=1e-14)


def test_zt_stats_variance_nonnegative_and_deterministic_limit():
    rng = np.random.default_rng(4)
    for _ in range(40):
        mh, mg = rng.uniform(0.5, 8.0, 2)
        oh, og = rng.uniform(0.1, 5.0, 2)
        dn = DoubleNakagami(NakagamiParams(mh, oh), NakagamiParams(mg, og))
        mean, var = la.zt_stats(dn)
        assert var >= 0.0
        assert mean > 0.0
    sharp = DoubleNakagami(NakagamiParams(400.0, 1.0), NakagamiParams(400.0, 1.0))
    _, var = la.zt_stats(sharp)
    assert var < 2e-3


def test_model_validation():
    with pytest.raises(ValueError):
        la.LargeNRps(0.0)
    with pytest.raises(ValueError):
        la.LargeNOps(xi=-0.1, s=1.0)
    with pytest.raises(ValueError):
        la.LargeNOps(xi=1.0, s=0.0)
    # the models cover the RIS sum only: the engine table offers no
    # asymptotic row once a direct path is present
    for metric in ("op", "ber", "ec"):
        assert "asymptotic" not in cli.supported_methods(
            scenario(64, direct=True), metric)


def test_from_scenario_parameter_values():
    cfg = scenario(64)
    d = derive(cfg)
    model = link(cfg).largen(la.LargeNRps)
    assert model.sigma1_sq == pytest.approx(
        0.5 * 64 * d.rho * d.omega_h * d.omega_g, rel=1e-14)
    assert model.mean == pytest.approx(64 * d.rho * d.omega_h * d.omega_g,
                                       rel=1e-14)
    ops_model = link(cfg).largen(la.LargeNOps)
    dn = DoubleNakagami(NakagamiParams(cfg.m_h, d.omega_h),
                        NakagamiParams(cfg.m_g, d.omega_g))
    mean, var = la.zt_stats(dn)
    assert ops_model.xi == pytest.approx(64 * mean ** 2 / var, rel=1e-13)
    assert ops_model.s == pytest.approx(1.0 / (d.rho * 64 * var), rel=1e-13)
    assert ops_model.mean == pytest.approx(
        64 * d.rho * (64 * mean ** 2 + var), rel=1e-12)


# ---------------------------------------------------------------------
# exponential (random-phase) model
# ---------------------------------------------------------------------

def test_largen_rps_cdf_basics():
    model = la.LargeNRps(3.7)
    assert la.largen_rps_cdf(model, 0.0) == 0.0
    assert la.largen_rps_cdf(model, 2.0 * 3.7 * math.log(2.0)) \
        == pytest.approx(0.5, rel=1e-14)
    grid = [la.largen_rps_cdf(model, x) for x in np.linspace(0.0, 40.0, 50)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        la.largen_rps_cdf(model, -1.0)


def test_largen_rps_matches_exact_cdf_at_n256():
    scene = link(scenario(256, tx_dbm=10.0))
    model = scene.largen(la.LargeNRps)
    hp, rho = scene.hankel(), scene.rho
    # outage at the 0 dB threshold: deep in the upper tail here, both ~1
    exact_op = rps.op_rps(hp, 1.0, rho)
    assert exact_op == pytest.approx(la.largen_rps_cdf(model, 1.0), rel=0.02)
    # and at the model median, where the comparison actually has teeth
    med = model.mean * math.log(2.0)
    assert rps.gamma_r_cdf(hp, med, rho) == pytest.approx(0.5, rel=0.02)


def test_exponential_model_error_shrinks_with_n():
    # deterministic sup-distance against the exact inversion CDF
    us = np.concatenate([np.linspace(0.05, 1.0, 12), np.linspace(1.2, 4.0, 8)])
    dists = []
    for n in (8, 32, 128):
        hp = HankelProduct([DN] * n)
        model = la.LargeNRps(0.5 * n)
        worst = max(abs(rps.gamma_r_cdf(hp, u * n, 1.0)
                        - la.largen_rps_cdf(model, u * n))
                    for u in us)
        dists.append(worst)
    assert dists[0] < 1e-3
    # quadratic-rate shrinkage: each quadrupling of N cuts the gap ~16x
    assert dists[1] < dists[0] / 8.0
    assert dists[2] < dists[1] / 8.0


def test_exponential_model_ks_ladder_fixed_seed():
    # At feasible trial counts the true model error (~1/N^2) sits below
    # the sampling-noise floor beyond N=8, so the monotone ladder is a
    # seed-pinned regression; the deterministic test above carries the
    # convergence-rate content.
    rng = np.random.default_rng(21)
    vals = []
    for n in (8, 32, 128, 512):
        y2 = np.sort(sample_y2(n, 120000, rng)) / float(n)
        vals.append(ks_statistic(-np.expm1(-y2)))
    assert all(a > b for a, b in zip(vals, vals[1:])), vals
    assert vals[-1] < 0.01


def test_largen_rps_chf_basics():
    model = la.LargeNRps(1.3)
    assert largen_rps_chf(model, 0.0) == 1.0
    h = 1e-6
    deriv = (largen_rps_chf(model, h) - largen_rps_chf(model, -h)) / (2 * h)
    assert (deriv / 1j).real == pytest.approx(model.mean, rel=1e-6)
    ts = np.linspace(-4.0, 4.0, 31)
    vals = largen_rps_chf(model, ts)
    assert vals.shape == ts.shape
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    assert np.allclose(np.conj(vals[::-1]), vals)


def test_largen_rps_chf_matches_empirical():
    n, trials = 256, 100000
    rng = np.random.default_rng(6)
    y2 = sample_y2(n, trials, rng)
    model = la.LargeNRps(0.5 * n)
    for u in (0.4, 1.0, 2.5):
        t = u / n
        emp = np.mean(np.exp(1j * t * y2))
        assert abs(emp - largen_rps_chf(model, t)) < 4.5 / math.sqrt(trials)


def test_largen_rps_ber_closed_forms():
    model = la.LargeNRps(2.2)
    gbar = model.mean
    assert la.largen_rps_ber(model, Modulation.BDPSK) \
        == pytest.approx(0.5 / (1.0 + gbar), rel=1e-14)
    assert la.largen_rps_ber(model, Modulation.BPSK) \
        == pytest.approx(0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar))), rel=1e-12)
    # worst-case limit and the conditioned high-SNR tail
    assert la.largen_rps_ber(la.LargeNRps(1e-14), Modulation.BPSK) \
        == pytest.approx(0.5, rel=1e-6)
    deep = la.LargeNRps(1e8)
    for mod in Modulation:
        want = 0.25 * mod.p / (mod.q * 1e8)
        assert la.largen_rps_ber(deep, mod) == pytest.approx(want, rel=1e-6)


def test_largen_rps_ber_tracks_exact_at_n64():
    n = 64
    rho = 20.0 / n
    hp = HankelProduct([DoubleNakagami(NakagamiParams(2.0, 1.0),
                                       NakagamiParams(2.0, 1.0))] * n)
    model = la.LargeNRps(0.5 * n * rho)
    for mod in Modulation:
        exact = rps.ber_rps(hp, rho, mod)
        assert la.largen_rps_ber(model, mod) == pytest.approx(exact, rel=0.03)


def test_largen_rps_ec_quadrature_identity():
    model = la.LargeNRps(2.9)
    gbar = model.mean
    want, _ = quad(lambda x: math.log1p(x) * math.exp(-x / gbar) / gbar,
                   0.0, np.inf, limit=200)
    assert la.largen_rps_ec(model) == pytest.approx(want / math.log(2.0),
                                                    rel=1e-10)


def test_largen_rps_ec_limits():
    assert la.largen_rps_ec(la.LargeNRps(1e-9)) < 1e-8
    vals = [la.largen_rps_ec(la.LargeNRps(s)) for s in (0.1, 1.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # high-SNR offset: ec - log2(rho) -> (ln(N Omega_h Omega_g) - gamma)/ln2
    n, rho = 16, 1e10
    model = la.LargeNRps(0.5 * n * rho)
    offset = la.largen_rps_ec(model) - math.log2(rho)
    want = (math.log(float(n)) - 0.5772156649015329) / math.log(2.0)
    assert abs(offset - want) < 1e-3


# ---------------------------------------------------------------------
# noncentral-chi-square (co-phased) model
# ---------------------------------------------------------------------

def test_largen_ops_pdf_normalizes_and_validates():
    model = la.LargeNOps(xi=12.0, s=0.37)
    total, _ = quad(lambda x: largen_ops_pdf(model, x), 0.0, np.inf,
                    limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        largen_ops_pdf(model, 0.0)


def test_largen_ops_pdf_central_reduction():
    model = la.LargeNOps(xi=0.0, s=2.5)
    for x in (0.3, 1.0, 4.0):
        want = (model.s * math.exp(-model.s * x / 2.0)
                / math.sqrt(2.0 * math.pi * model.s * x))
        assert largen_ops_pdf(model, x) == pytest.approx(want, rel=1e-14)


def test_largen_ops_pdf_survives_huge_noncentrality():
    model = la.LargeNOps(xi=4e6, s=1e-4)
    peak = model.xi / model.s
    assert largen_ops_pdf(model, peak) > 0.0
    assert largen_ops_pdf(model, peak * 3.0) == 0.0  # underflows cleanly


def test_largen_ops_cdf_basics():
    model = la.LargeNOps(xi=12.0, s=0.37)
    assert la.largen_ops_cdf(model, 0.0) == 0.0
    assert la.largen_ops_cdf(model, 1e5) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(0.0, 150.0, 80)
    vals = [la.largen_ops_cdf(model, x) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        la.largen_ops_cdf(model, -1e-9)


def test_largen_ops_cdf_integrates_pdf():
    model = la.LargeNOps(xi=7.0, s=1.1)
    for x in (0.5, 3.0, 9.0, 25.0):
        want, _ = quad(lambda u: largen_ops_pdf(model, u), 0.0, x,
                       limit=300, epsabs=1e-12, epsrel=1e-11)
        assert la.largen_ops_cdf(model, x) == pytest.approx(want, abs=1e-8)


def test_largen_ops_chf_basics():
    model = la.LargeNOps(xi=5.0, s=0.8)
    assert largen_ops_chf(model, 0.0) == 1.0
    central = la.LargeNOps(xi=0.0, s=0.8)
    t = 0.7
    assert largen_ops_chf(central, t) == pytest.approx(
        (1.0 - 2.0j * t / 0.8) ** -0.5, rel=1e-14)
    ts = np.linspace(-3.0, 3.0, 41)
    vals = largen_ops_chf(model, ts)
    assert vals.shape == ts.shape
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    assert np.allclose(np.conj(vals[::-1]), vals)


def test_largen_ops_chf_mean_matches_growth_law():
    model = link(scenario(96, tx_dbm=0.0)).largen(la.LargeNOps)
    h = 1e-9 / model.mean
    deriv = (largen_ops_chf(model, h) - largen_ops_chf(model, -h)) / (2 * h)
    assert (deriv / 1j).real == pytest.approx(model.mean, rel=1e-5)


def test_largen_ops_model_against_sampling():
    rng = np.random.default_rng(3)
    mean, var = la.zt_stats(DN)
    # median agreement at N=128
    model = la.LargeNOps(xi=128 * mean ** 2 / var, s=1.0 / (128 * var))
    a2 = sample_a2(128, 120000, rng)
    med_mc = float(np.median(a2))
    lo, hi = model.mean * 0.5, model.mean * 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if la.largen_ops_cdf(model, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert med_mc == pytest.approx(lo, rel=0.01)
    # distribution agreement at N=256
    model = la.LargeNOps(xi=256 * mean ** 2 / var, s=1.0 / (256 * var))
    a2 = np.sort(sample_a2(256, 150000, rng))
    cdf = np.array([la.largen_ops_cdf(model, v) for v in a2])
    assert ks_statistic(cdf) <= 0.01


# ---------------------------------------------------------------------
# growth laws
# ---------------------------------------------------------------------

def test_mean_growth_laws():
    def model_mean(n, model):
        return link(scenario(n)).largen(model).mean

    r_rps = model_mean(160, la.LargeNRps) / model_mean(80, la.LargeNRps)
    assert r_rps == pytest.approx(2.0, rel=1e-14)

    mean, var = la.zt_stats(link(scenario(80)).element)
    r_ops = model_mean(160, la.LargeNOps) / model_mean(80, la.LargeNOps)
    assert r_ops < 4.0
    assert 4.0 - r_ops == pytest.approx(2.0 * var / (80 * mean ** 2 + var),
                                        rel=1e-10)
    gaps = []
    for n in (8, 32, 128, 512):
        ratio = model_mean(2 * n, la.LargeNOps) / model_mean(n, la.LargeNOps)
        gaps.append(4.0 - ratio)
    assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
