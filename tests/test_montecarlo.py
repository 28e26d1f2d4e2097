"""Simulator checks: frozen seeds, closed-form moments, and the
analytical modules as oracles for the estimators."""

import math
import os
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1

from oracles import (largen_mean, link, nakagami_phase_const, op_grid,
                     sample_nakagami_phase, snr_batch)
from rislink import asymptotic as la
from rislink import montecarlo as mc
from rislink import ops, rps
from rislink.rps import Modulation
from rislink.scenario import (LinkGeometry, PhaseDesign, ScenarioConfig,
                              link_parts, quantized, ricean_k_to_m)

M_LOS = ricean_k_to_m(10.0)


def make_config(n, design="rps", tx=0.0, direct=False, m_h=M_LOS, m_g=M_LOS,
                m_d=1.2, bits=2):
    pd = quantized(bits) if design == "quantized" else PhaseDesign(design)
    return ScenarioConfig(
        n_elements=n, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=tx, m_h=m_h, m_g=m_g,
        geometry=LinkGeometry(20.0, 20.0, 86.0, direct),
        phase_design=pd, m_d=m_d if direct else None)


def ks_uniform(samples, lo, hi):
    """KS distance of a sample from the uniform law on [lo, hi)."""
    cdf = (np.sort(samples) - lo) / (hi - lo)
    n = len(cdf)
    i = np.arange(1, n + 1)
    return max(np.max(np.abs(i / n - cdf)), np.max(np.abs((i - 1) / n - cdf)))


# ---------------------------------------------------------------------
# rng plumbing
# ---------------------------------------------------------------------

def test_rng_stream_reproducible_and_validated():
    a = mc.RngStream(12345, 7).generator().random(8)
    b = mc.RngStream(12345, 7).generator().random(8)
    c = mc.RngStream(12345, 8).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        mc.RngStream(-1, 0)
    with pytest.raises(ValueError):
        mc.RngStream(0, 1 << 64)


def test_rng_stream_values_are_pinned():
    # a new bit generator, seeding or numpy sampler would rewrite every
    # simulator row; this names the cause
    assert mc.RngStream(12345, 7).generator().random(3).tolist() == [
        0.4683248043839253, 0.9804251396877426, 0.33989065675059305]
    assert mc.RngStream(12345, 7).generator().standard_gamma(
        5.761904761904762, 3).tolist() == [
        4.102407676078991, 9.901044903296139, 4.590244836558542]


def test_mc_estimate_validation():
    mc.McEstimate(0.1, 0.01, 100, 0)
    with pytest.raises(ValueError):
        mc.McEstimate(0.1, -0.01, 100, 0)
    with pytest.raises(ValueError):
        mc.McEstimate(0.1, 0.01, 0, 0)


# ---------------------------------------------------------------------
# channel draws
# ---------------------------------------------------------------------

def cascade_envelopes(cfg, count, rng):
    """The simulator's cascade amplitudes at the config's hop scales, and
    the two hops' spreads."""
    _, element, _ = link_parts(cfg)
    scale_h, scale_g = element.hop_h.lambda_n, element.hop_g.lambda_n
    amp = mc._hop_amplitudes(cfg, count, rng)
    x = math.sqrt(scale_h) * math.sqrt(scale_g) * amp.ravel()
    return x, scale_h * cfg.m_h, scale_g * cfg.m_g


def test_envelope_moments():
    rng = mc.RngStream(11, 0).generator()
    cfg = make_config(10, m_h=2.3)
    x, omega_h, omega_g = cascade_envelopes(cfg, 100_000, rng)
    p2 = x * x
    se2 = np.std(p2) / math.sqrt(len(x))
    assert abs(np.mean(p2) - omega_h * omega_g) < 3 * se2
    p4 = p2 * p2
    want4 = ((omega_h * omega_g) ** 2 * (2.3 + 1.0) / 2.3
             * (cfg.m_g + 1.0) / cfg.m_g)
    se4 = np.std(p4) / math.sqrt(len(x))
    assert abs(np.mean(p4) - want4) < 3 * se4


def test_envelope_rayleigh_ks():
    # double Rayleigh: P(X Y <= t) = 1 - 2 sqrt(t) K1(2 sqrt(t)) for
    # independent unit exponentials X and Y
    rng = mc.RngStream(3, 0).generator()
    x, omega_h, omega_g = cascade_envelopes(
        make_config(10, m_h=1.0, m_g=1.0), 100_000, rng)
    x = np.sort(x)
    root = 2.0 * x / math.sqrt(omega_h * omega_g)
    cdf = 1.0 - root * k1(root)
    i = np.arange(1, len(x) + 1)
    ks = max(np.max(np.abs(i / len(x) - cdf)),
             np.max(np.abs((i - 1) / len(x) - cdf)))
    assert ks < 0.002


def phase_density(m):
    const = nakagami_phase_const(m)
    return lambda th: const * abs(math.sin(2.0 * th)) ** (m - 1.0)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 5.76])
def test_phase_density_normalizes(m):
    f = phase_density(m)
    total = sum(quad(f, a, b, limit=200)[0]
                for a, b in zip([-math.pi, -math.pi / 2, 0.0, math.pi / 2],
                                [-math.pi / 2, 0.0, math.pi / 2, math.pi]))
    assert total == pytest.approx(1.0, rel=1e-9)
    assert phase_density(1.0)(0.3) == pytest.approx(1.0 / (2.0 * math.pi),
                                                    rel=1e-12)


def test_phase_sampler_uniform_at_m1():
    rng = mc.RngStream(8, 0).generator()
    th = sample_nakagami_phase(1.0, rng, 500_000)
    assert ks_uniform(th, -math.pi, math.pi) < 0.002


@pytest.mark.parametrize("m,seed", [(0.7, 21), (2.0, 22), (5.76, 23)])
def test_phase_sampler_matches_density(m, seed):
    f = phase_density(m)
    rng = mc.RngStream(seed, 0).generator()
    th = sample_nakagami_phase(m, rng, 200_000)
    grid = np.linspace(-math.pi, math.pi, 9)
    # quadrant-cell occupancy against the quadrature mass
    for a, b in zip(grid[:-1], grid[1:]):
        p = quad(f, a, b, limit=200)[0]
        frac = np.mean((th >= a) & (th < b))
        se = math.sqrt(p * (1.0 - p) / len(th))
        assert abs(frac - p) < 4 * se + 1e-9


def test_phase_sampler_fourfold_symmetry():
    rng = mc.RngStream(5, 0).generator()
    th = sample_nakagami_phase(3.0, rng, 400_000)
    quarters = [np.count_nonzero((th >= -math.pi + k * math.pi / 2)
                                 & (th < -math.pi + (k + 1) * math.pi / 2))
                for k in range(4)]
    n = len(th)
    se = math.sqrt(n * 0.25 * 0.75)
    for q in quarters:
        assert abs(q - n / 4) < 4 * se
    with pytest.raises(ValueError):
        sample_nakagami_phase(0.4, rng)


@pytest.mark.parametrize("m,seed", [(0.7, 41), (2.0, 42), (5.76, 43)])
def test_eq2_residual_phase_is_uniform(m, seed):
    # Eq. (2): phi = theta_h + theta_g - theta_n is uniform whenever the
    # applied theta_n is, whatever the hop phase laws; so random phase
    # shifting draws phi directly
    rng = mc.RngStream(seed, 0).generator()
    count = 1_000_000
    theta_h = sample_nakagami_phase(m, rng, count)
    theta_g = sample_nakagami_phase(m, rng, count)
    phi = theta_h + theta_g - rng.uniform(0.0, 2.0 * math.pi, count)
    assert ks_uniform(np.mod(phi, 2.0 * math.pi), 0.0, 2.0 * math.pi) < 0.002


def test_realize_snr_deterministic_limit():
    cfg = ScenarioConfig(
        n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=0.0, m_h=5e4, m_g=5e4,
        geometry=LinkGeometry(20.0, 20.0, 86.0, True),
        phase_design=PhaseDesign("ops"), m_d=5e4)
    rho, element, direct = link_parts(cfg)
    want = rho * (math.sqrt(element.mean_power) + math.sqrt(direct.omega)) ** 2
    rng = mc.RngStream(1, 0).generator()
    draws = snr_batch(cfg, 8, rng)
    assert np.mean(draws) == pytest.approx(want, rel=0.02)


def test_realize_snr_rps_mean_identity():
    cfg = make_config(8, "rps", tx=5.0, direct=True)
    rho, element, direct = link_parts(cfg)
    want = rho * (8 * element.mean_power + direct.omega)
    rng = mc.RngStream(17, 0).generator()
    g = snr_batch(cfg, 400_000, rng)
    se = np.std(g) / math.sqrt(len(g))
    assert abs(np.mean(g) - want) < 3 * se


def test_quantized_many_bits_approaches_coherent():
    fine = make_config(16, "quantized", tx=0.0, bits=10)
    coherent = make_config(16, "ops", tx=0.0)
    g1 = np.sort(snr_batch(fine, 100_000, mc.RngStream(2, 0).generator()))
    g2 = np.sort(snr_batch(coherent, 100_000, mc.RngStream(3, 0).generator()))
    # two-sample KS
    allv = np.concatenate([g1, g2])
    cdf1 = np.searchsorted(g1, allv, side="right") / len(g1)
    cdf2 = np.searchsorted(g2, allv, side="right") / len(g2)
    assert np.max(np.abs(cdf1 - cdf2)) < 0.01


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("n", [1, 8, 320])
@pytest.mark.parametrize("design", ["rps", "ops", "quantized"])
def test_snr_batch_draw_order(design, n, direct):
    # the determinism contract written out with whole-array standard_gamma
    # and uniform draws: hop powers h then g, the design's phases, then
    # the direct path.  The simulator draws hop g and the phases in row
    # blocks, and the count ends mid-block, so any change of draw order
    # fails.  The elements are summed at unit scale and the Gamma scales
    # multiply the sums
    cfg = make_config(n, design, tx=3.0, direct=direct, m_h=1.5, m_g=2.5)
    rho, element, dpath = link_parts(cfg)
    count = mc._BASE_BLOCK // n + 904
    rng = mc.RngStream(4, 2).generator()
    gh = rng.standard_gamma(cfg.m_h, (count, n))
    gg = rng.standard_gamma(cfg.m_g, (count, n))
    amp = np.sqrt(gh * gg)
    s_h, s_g = element.hop_h.omega / cfg.m_h, element.hop_g.omega / cfg.m_g
    c = math.sqrt(s_h) * math.sqrt(s_g)
    # the same draws with every element scaled before the sum
    x = np.sqrt(s_h * gh) * np.sqrt(s_g * gg)
    if design == "rps":
        phi = rng.uniform(0.0, 2.0 * math.pi, (count, n))
    elif design == "quantized":
        # two hop errors uniform on [-pi/4, pi/4) at 2 bits
        phi = (rng.uniform(-math.pi / 4, math.pi / 4, (count, n))
               + rng.uniform(-math.pi / 4, math.pi / 4, (count, n)))
    # the direct-path terms at unit scale times sqrt(s_d), and scaled first
    d_re = d_im = old_re = old_im = None
    if direct:
        s_d = dpath.omega / cfg.m_d
        gd = rng.standard_gamma(cfg.m_d, count)
        hd, hd_old = np.sqrt(gd), np.sqrt(s_d * gd)
        if design == "ops":
            d_re, old_re = math.sqrt(s_d) * hd, hd_old
        else:
            # the quantized design co-phases the direct path
            phi_d = (rng.uniform(0.0, 2.0 * math.pi, count)
                     if design == "rps" else np.zeros(count))
            d_re = math.sqrt(s_d) * (hd * np.cos(phi_d))
            d_im = math.sqrt(s_d) * (hd * np.sin(phi_d))
            old_re, old_im = hd_old * np.cos(phi_d), hd_old * np.sin(phi_d)

    def plus(elements, term):
        return elements if term is None else elements + term

    if design == "ops":
        total = plus(c * np.sum(amp, axis=1), d_re)
        want = rho * total * total
        old = rho * plus(np.sum(x, axis=1), old_re) ** 2
    else:
        re = plus(c * np.sum(amp * np.cos(phi), axis=1), d_re)
        im = plus(c * np.sum(amp * np.sin(phi), axis=1), d_im)
        want = rho * (re * re + im * im)
        old = rho * (plus(np.sum(x * np.cos(phi), axis=1), old_re) ** 2
                     + plus(np.sum(x * np.sin(phi), axis=1), old_im) ** 2)
    got = snr_batch(cfg, count, mc.RngStream(4, 2).generator())
    assert np.array_equal(got, want)
    np.testing.assert_allclose(got, old, rtol=1e-12)


@pytest.mark.parametrize("design, bound",
                         [("rps", 1.75), ("ops", 1.75), ("quantized", 2.5)])
def test_chunk_peak_memory(design, bound, monkeypatch):
    # one N = 64 chunk at one thread holds hop h's (count, N) powers, one
    # more such array for quantized phases, and row-block temporaries
    monkeypatch.setenv("RISLINK_THREADS", "1")
    cfg = make_config(64, design, direct=True)
    count = mc._chunk_size(64)
    queries = [mc.McQuery(cfg, "op", 1.0), mc.McQuery(cfg, "ec")]
    tracemalloc.start()
    try:
        mc._reduce(queries, count, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * count * 64 * 8


# ---------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------

def test_estimate_op_trivial_and_validation():
    cfg = make_config(4)
    est = mc.estimate_op(cfg, 0.0, 10_000, 1)
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.n_trials == 10_000 and est.seed == 1
    with pytest.raises(ValueError):
        mc.estimate_op(cfg, 1.0, 9_999, 1)
    with pytest.raises(ValueError):
        mc.estimate_op(cfg, -1.0, 10_000, 1)
    with pytest.raises(ValueError):
        mc.estimate_op(cfg, 1.0, 10_000, -5)


def test_estimate_op_matches_exact_small_n():
    cfg = make_config(4, tx=0.0)
    scene = link(cfg)
    gamma_th = 4 * scene.rho * scene.element.mean_power  # around the bulk
    want = rps.gamma_r_cdf(scene.hankel(), gamma_th, scene.rho)
    est = mc.estimate_op(cfg, gamma_th, 200_000, 42)
    assert abs(est.value - want) < 3 * est.std_error


def test_estimate_op_matches_exponential_model():
    cfg = make_config(256, tx=10.0)
    model = link(cfg).largen(la.LargeNRps)
    gamma_th = largen_mean(model) * math.log(2.0)
    want = la.largen_rps_cdf(model, gamma_th)
    est = mc.estimate_op(cfg, gamma_th, 60_000, 9)
    assert abs(est.value - want) < 3 * est.std_error


def test_estimate_op_grid_bit_identical_to_single():
    cfg = make_config(4, tx=0.0)
    scene = link(cfg)
    ths = [k * scene.rho * scene.element.mean_power for k in (1.0, 4.0, 9.0)]
    grid = op_grid(cfg, ths, 30_000, 77)
    for th, got in zip(ths, grid):
        single = mc.estimate_op(cfg, th, 30_000, 77)
        assert got == single


def test_estimate_ber_low_snr_limit():
    cfg = make_config(4, tx=-120.0)
    for mod in (Modulation.BPSK, Modulation.BDPSK):
        est = mc.estimate_ber(cfg, mod, 10_000, 4)
        assert est.value == pytest.approx(0.5, rel=1e-3)


def test_ber_partial_sums_are_float64_erfc_values():
    # the coherent BER kernel Q(sqrt(2 g)) runs through numerics.erfc
    q = mc.McQuery(make_config(4), "ber",
                   modulation=Modulation.BPSK)
    g = np.array([0.0, 1e-3, 0.3, 1.0, 4.0, 30.0, 400.0, 900.0])
    part = q.partial(g)
    assert part.dtype == np.float64 and part.shape == (2,)
    vals = [0.5 * math.erfc(math.sqrt(Modulation.BPSK.q * v))
            for v in g]
    assert part[0] == pytest.approx(math.fsum(vals), rel=1e-15)
    assert part[1] == pytest.approx(math.fsum(v * v for v in vals),
                                    rel=1e-15)


def test_estimate_ber_matches_analytics():
    # single-element coherent link against the CHF-inversion BER
    scene = link(make_config(1, "ops", tx=25.0))
    cfg, chf, rho = scene.config, scene.chf(), scene.rho
    want = ops.ber_ops(chf, rho, Modulation.BPSK)
    est = mc.estimate_ber(cfg, Modulation.BPSK, 300_000, 15)
    assert abs(est.value - want) < 3 * est.std_error
    want_d = ops.ber_ops(chf, rho, Modulation.BDPSK)
    est_d = mc.estimate_ber(cfg, Modulation.BDPSK, 300_000, 16)
    assert abs(est_d.value - want_d) < 3 * est_d.std_error


def test_estimate_ber_matches_rps_with_direct():
    cfg = make_config(4, "rps", tx=20.0, direct=True, m_h=1.5, m_g=2.5,
                      m_d=1.5)
    scene = link(cfg)
    want = rps.ber_rps(scene.hankel(), scene.rho, Modulation.BPSK)
    est = mc.estimate_ber(cfg, Modulation.BPSK, 300_000, 23)
    assert abs(est.value - want) < 3 * est.std_error


def test_estimate_ec_deterministic_and_model_checks():
    cfg = ScenarioConfig(
        n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=40.0, m_h=5e4, m_g=5e4,
        geometry=LinkGeometry(20.0, 20.0, 86.0, False),
        phase_design=PhaseDesign("ops"))
    scene = link(cfg)
    want = math.log2(1.0 + scene.rho * scene.element.mean_power)
    est = mc.estimate_ec(cfg, 10_000, 2)
    assert est.value == pytest.approx(want, rel=2e-3)

    big = make_config(256, tx=10.0)
    model = link(big).largen(la.LargeNRps)
    est = mc.estimate_ec(big, 60_000, 31)
    assert abs(est.value - la.largen_rps_ec(model)) < 3 * est.std_error


def test_std_error_scaling():
    cfg = make_config(16, tx=10.0)
    one = mc.estimate_ec(cfg, 50_000, 12)
    two = mc.estimate_ec(cfg, 100_000, 12)
    ratio = one.std_error / two.std_error
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.1)


def test_stochastic_ordering_of_designs():
    rand = make_config(8, "rps", tx=0.0)
    coh = make_config(8, "ops", tx=0.0)
    scene = link(rand)
    scale = scene.rho * 8 * scene.element.mean_power
    ths = [scale * k for k in (0.3, 1.0, 3.0, 10.0, 30.0)]
    g_r = op_grid(rand, ths, 60_000, 50)
    g_c = op_grid(coh, ths, 60_000, 51)
    for er, ec_ in zip(g_r, g_c):
        band = 3.0 * math.hypot(er.std_error, ec_.std_error)
        assert ec_.value <= er.value + band


def test_thread_count_invariance(monkeypatch):
    cfg = make_config(16, tx=10.0, direct=True)
    results = []
    for threads in ("1", "8"):
        monkeypatch.setenv("RISLINK_THREADS", threads)
        op = mc.estimate_op(cfg, 1e-4, 40_000, 3)
        ec_est = mc.estimate_ec(cfg, 40_000, 3)
        results.append((op, ec_est))
    assert results[0] == results[1]
    monkeypatch.setenv("RISLINK_THREADS", "bogus")
    with pytest.raises(ValueError):
        mc.estimate_ec(cfg, 10_000, 3)


def test_thread_count_is_capped(monkeypatch):
    monkeypatch.setenv("RISLINK_THREADS", str(10 ** 9))
    assert mc._thread_count() == mc._MAX_THREADS
    monkeypatch.setenv("RISLINK_THREADS", "-3")
    assert mc._thread_count() == 1


def test_thread_count_defaults_to_affinity(monkeypatch):
    monkeypatch.delenv("RISLINK_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    assert mc._thread_count() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert mc._thread_count() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert mc._thread_count() == 5


class _ReadCountingPool:
    """Stands in for the chunk pool without starting a thread: runs each
    chunk when it is submitted and tracks how many chunks are submitted
    and not yet read."""

    def __init__(self):
        self.in_flight = self.peak = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        read = fut.result
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)

        def result(timeout=None):
            self.in_flight -= 1
            return read(timeout)
        fut.result = result
        return fut


@pytest.mark.parametrize("threads", [1, 2])
def test_reduce_bounds_chunks_in_flight(monkeypatch, threads):
    cfg = make_config(256, tx=10.0, direct=True)
    queries = [mc.McQuery(cfg, "op", 1e-3),
               mc.McQuery(cfg, "ec")]
    trials = 10_000
    n_chunks = -(-trials // mc._chunk_size(256))
    assert n_chunks > mc._WINDOW * threads
    monkeypatch.setenv("RISLINK_THREADS", str(threads))
    want = mc.estimate_group(queries, trials, 8)
    pools = []

    def make_pool(max_workers):
        pools.append(_ReadCountingPool())
        return pools[-1]
    monkeypatch.setattr(mc, "ThreadPoolExecutor", make_pool)
    assert mc.estimate_group(queries, trials, 8) == want
    assert [(p.peak, p.in_flight) for p in pools] == [
        (mc._WINDOW * threads, 0)]


# ---------------------------------------------------------------------
# grouped estimates
# ---------------------------------------------------------------------

def _sweep_variants(cfg):
    """Configs that differ from cfg only in power, noise or pathloss."""
    geom = cfg.geometry
    return [cfg, replace(cfg, tx_power_dbm=cfg.tx_power_dbm + 7.0),
            replace(cfg, noise_dbm=-80.0),
            replace(cfg, geometry=replace(geom, r_h=31.0, r_g=12.5)),
            replace(cfg, geometry=replace(geom, psi=40.0)),
            replace(cfg, alpha=2.8)]


def _group_queries(configs):
    queries = []
    for c in configs:
        queries += [mc.McQuery(c, "op", 3.0),
                    mc.McQuery(c, "ber", modulation=Modulation.BPSK),
                    mc.McQuery(c, "ber", modulation=Modulation.BDPSK),
                    mc.McQuery(c, "ec")]
    return queries


def _single(query, trials, seed):
    c = query.config
    if query.metric == "op":
        return mc.estimate_op(c, query.gamma_th, trials, seed)
    if query.metric == "ber":
        return mc.estimate_ber(c, query.modulation, trials, seed)
    return mc.estimate_ec(c, trials, seed)


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("design", ["rps", "ops", "quantized"])
def test_group_bit_identical_to_single_estimates(monkeypatch, design, direct):
    cfg = make_config(32, design, tx=-5.0, direct=direct, m_h=1.5, m_g=2.5,
                      m_d=1.5)
    queries = _group_queries(_sweep_variants(cfg))
    trials, seed = 10_000, 13     # two chunks at N = 32
    monkeypatch.setenv("RISLINK_THREADS", "1")
    singles = [_single(q, trials, seed) for q in queries]
    for threads in ("1", "2"):
        monkeypatch.setenv("RISLINK_THREADS", threads)
        grouped = mc.estimate_group(queries, trials, seed)
        for got, want in zip(grouped, singles):
            assert got.value == want.value
            assert got.std_error == want.std_error
    # the variants do change the estimates (psi only moves the direct path)
    assert len({e.value for e in singles[3::4]}) == (6 if direct else 5)


def _count_generators(monkeypatch):
    calls = []
    make = mc.RngStream.generator

    def counted(self):
        calls.append(self.stream_id)
        return make(self)
    monkeypatch.setattr(mc.RngStream, "generator", counted)
    return calls


def test_mixed_group_bit_identical_to_single_estimates(monkeypatch):
    # designs, quantizer resolutions and direct paths that share (N, m_h,
    # m_g) share hop draws, yet each query reads the stream it reads alone
    queries = []
    for design, bits in (("rps", 2), ("ops", 2), ("quantized", 2),
                         ("quantized", 3)):
        for direct in (False, True):
            cfg = make_config(32, design, tx=-5.0, direct=direct, m_h=1.5,
                              m_g=2.5, m_d=1.5, bits=bits)
            far = replace(cfg, geometry=replace(cfg.geometry, r_h=31.0))
            queries += [mc.McQuery(cfg, "op", 3.0),
                        mc.McQuery(far, "ber"),
                        mc.McQuery(replace(far, tx_power_dbm=4.0), "ec")]
    trials, seed = 10_000, 29     # two chunks at N = 32
    monkeypatch.setenv("RISLINK_THREADS", "1")
    singles = [_single(q, trials, seed) for q in queries]
    for threads in ("1", "2"):
        monkeypatch.setenv("RISLINK_THREADS", threads)
        assert mc.estimate_group(queries, trials, seed) == singles


def test_group_draws_each_chunk_once(monkeypatch):
    cfg = make_config(64)
    trials = 10_000
    n_chunks = -(-trials // mc._chunk_size(64))
    assert n_chunks == 3
    queries = []
    for p in range(-10, 31, 2):
        c = replace(cfg, tx_power_dbm=float(p))
        queries += [mc.McQuery(c, "op", 1e-3),
                    mc.McQuery(c, "ec")]
    assert len(queries) == 42
    # other designs and direct paths with the same N, m_h and m_g share
    # the hop draws too
    queries += [mc.McQuery(make_config(64, direct=True), "ec"),
                mc.McQuery(make_config(64, "ops", direct=True), "ber"),
                mc.McQuery(make_config(64, "quantized"), "ec")]
    calls = _count_generators(monkeypatch)
    mc.estimate_group(queries, trials, 5)
    assert sorted(calls) == list(range(n_chunks))
    # another hop shape or element count is another group
    del calls[:]
    mc.estimate_group([mc.McQuery(cfg, "ec"),
                       mc.McQuery(replace(cfg, m_h=2.0), "ec"),
                       mc.McQuery(make_config(64, "quantized"), "ec"),
                       mc.McQuery(make_config(32, "ops"), "ec")],
                      trials, 5)
    n_chunks32 = -(-trials // mc._chunk_size(32))
    assert sorted(calls) == sorted(list(range(n_chunks)) * 2
                                   + list(range(n_chunks32)))


def _count_bases(monkeypatch):
    calls = []
    make = mc._snr_base

    def counted(*args):
        calls.append(args[:2])
        return make(*args)
    monkeypatch.setattr(mc, "_snr_base", counted)
    return calls


def test_group_forms_each_snr_base_once_per_chunk(monkeypatch):
    # power reaches the SNR only as rho, so a power sweep and all its
    # metrics share one SNR base per chunk; each distance is another set
    # of Gamma scales, and another design or direct path another subgroup
    cfg = make_config(64)
    trials = 10_000
    assert -(-trials // mc._chunk_size(64)) == 3

    def sweep(c):
        queries = []
        for p in range(-10, 31, 2):
            point = replace(c, tx_power_dbm=float(p))
            queries += [mc.McQuery(point, "op", 1e-3),
                        mc.McQuery(point, "ec")]
        return queries

    calls = _count_bases(monkeypatch)
    mc.estimate_group(sweep(cfg), trials, 5)
    assert len(calls) == 3 and len(set(calls)) == 1
    del calls[:]
    queries = []
    for r_h in (10.0, 20.0, 31.0, 45.0, 60.0):
        queries += sweep(replace(cfg, geometry=replace(cfg.geometry,
                                                       r_h=r_h)))
    assert len(queries) == 210
    mc.estimate_group(queries, trials, 5)
    assert len(calls) == 15 and len(set(calls)) == 5
    del calls[:]
    queries += [mc.McQuery(make_config(64, "ops"), "ec"),
                mc.McQuery(make_config(64, direct=True), "ec")]
    mc.estimate_group(queries, trials, 5)
    assert len(calls) == 21


def test_group_validation():
    cfg = make_config(4)
    assert mc.estimate_group([], 10_000, 1) == []
    with pytest.raises(ValueError):
        mc.McQuery(cfg, "bogus")
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma_th must be nonnegative"):
            mc.McQuery(cfg, "op", bad)
    with pytest.raises(ValueError):
        mc.estimate_group([mc.McQuery(cfg, "ec")], 9_999, 1)
