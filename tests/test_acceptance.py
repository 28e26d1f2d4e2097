"""Release gates for the whole stack.

Each test is one acceptance criterion; its ``pytest -v`` line is the
pass/fail verdict.  The gates cross-validate the analytical engines
against the simulator at stated tolerances, check the closed-form
large-array laws, and pin the CLI's determinism guarantees.  Seeds are
fixed so reruns are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

from oracles import (link, nakagami_phase_op_grid, op_grid, outage_memo,
                     snr_batch)
from rislink import cli
from rislink import asymptotic as la
from rislink import montecarlo as mc
from rislink import numerics as nm
from rislink import ops as O
from rislink import rps as R
from rislink.rps import DoubleNakagami, HankelProduct, Modulation
from rislink.ops import AmplitudeChf
from rislink.scenario import NakagamiParams, config_from_mapping, ricean_k_to_m

M_LOS = ricean_k_to_m(10.0)
BPSK = Modulation.from_label("bpsk")
BDPSK = Modulation.from_label("bdpsk")


def make_config(**overrides):
    base = {
        "n_elements": "16", "carrier_hz": "2.45e9", "alpha": "2.5",
        "noise_dbm": "-85", "tx_power_dbm": "30",
        "m_h": repr(M_LOS), "m_g": repr(M_LOS),
        "r_h": "20", "r_g": "20", "psi_deg": "86",
        "direct_link": "false", "phase_design": "rps",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    return config_from_mapping(base)


def bisect_increasing(f, target, lo, hi, iters=60):
    """Geometric bisection of an increasing map on a positive bracket."""
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def rps_outage_probe(outage):
    """``outage`` made safe to probe in the deep tail.

    Geometric bisection starts from very wide brackets, and the Hankel
    inversion refuses to fake relative accuracy on outages far below
    1e-9.  Any such point is orders of magnitude below the smallest
    quantile target, so reporting it as zero keeps the bracket exact.
    """
    def f(gamma):
        try:
            return outage(gamma)
        except nm.ConvergenceError:
            return 0.0
    return f


def draw_snr(config, count, seed, chunk=20_000):
    """Raw end-to-end SNR sample with the simulator's own kernels."""
    rng = mc.RngStream(seed, 0).generator()
    parts = []
    left = count
    while left:
        k = min(left, chunk)
        parts.append(snr_batch(config, k, rng))
        left -= k
    return np.concatenate(parts)


def ks_distance(samples, cdf):
    xs = np.sort(samples)
    model = cdf(xs)
    hi = np.arange(1, xs.size + 1) / xs.size
    return float(max(np.max(np.abs(hi - model)),
                     np.max(np.abs(hi - 1.0 / xs.size - model))))


# ---------------------------------------------------------------------
# 1. outage, random phases: exact transform vs 1e7-trial simulation
# ---------------------------------------------------------------------

def test_criterion_01_outage_rps_exact_vs_mc():
    t_start = time.monotonic()
    targets = np.geomspace(1e-3, 0.5, 5)
    for n in (1, 4, 16):
        config = make_config(n_elements=n, tx_power_dbm=0.0)
        scene = link(config)
        outage = outage_memo(R.gamma_r_cdf, scene.hankel(), scene.rho)

        # thresholds whose exact outage spans [1e-3, 0.5]; each maps to a
        # transmit power via op(rho, g) = op(rho/g, 1), so one shared
        # sample grid covers five power points exactly
        gammas = [bisect_increasing(rps_outage_probe(outage), t,
                                    1e-14, 10.0) for t in targets]
        powers_dbm = [0.0 - 10.0 * math.log10(g) for g in gammas]
        assert len(set(round(p, 6) for p in powers_dbm)) == 5

        # the transport reuses identical draws: re-running the middle
        # point as its own power-plus-0dB-threshold scenario reproduces
        # the grid estimate up to dB round-trip rounding of the threshold
        probe = op_grid(config, [gammas[2]], 100_000, 101)[0]
        shifted = make_config(n_elements=n, tx_power_dbm=powers_dbm[2])
        direct_run = mc.estimate_op(shifted, 1.0, 100_000, 101)
        assert direct_run.value == pytest.approx(probe.value, abs=3e-5)

        estimates = op_grid(config, gammas, 10_000_000, 101)
        for target, gamma, est in zip(targets, gammas, estimates):
            exact = outage(gamma)
            assert exact == pytest.approx(target, rel=1e-6)
            assert abs(exact - est.value) <= 3.0 * est.std_error
    assert time.monotonic() - t_start < 300.0


# ---------------------------------------------------------------------
# 2. coherent-sum CDF: CHF inversion vs 1e7-trial simulation
# ---------------------------------------------------------------------

def test_criterion_02_amplitude_cdf_ops_exact_vs_mc():
    t_start = time.monotonic()
    quantiles = (0.05, 0.25, 0.5, 0.75, 0.95)
    for n in (1, 4):
        for direct in (False, True):
            over = {"n_elements": n, "m_h": 1.5, "m_g": 2.5,
                    "phase_design": "ops"}
            if direct:
                over.update(direct_link="true", m_d=1.5)
            config = make_config(**over)
            scene = link(config)
            outage = outage_memo(O.gamma_c_cdf, scene.chf(), scene.rho)

            gammas = [bisect_increasing(outage, q, 1e-12, 1e9)
                      for q in quantiles]
            estimates = op_grid(config, gammas, 10_000_000, 202)
            for q, gamma, est in zip(quantiles, gammas, estimates):
                exact = outage(gamma)
                assert exact == pytest.approx(q, rel=1e-5)
                assert abs(exact - est.value) <= 3.0 * est.std_error
    assert time.monotonic() - t_start < 300.0


# ---------------------------------------------------------------------
# 3. average BER: analytical integrals vs conditioned simulation, plus
#    the closed-form differential-detection law at large N
# ---------------------------------------------------------------------

def test_criterion_03_ber_exact_vs_mc_and_largen_bdpsk():
    # random phases, four elements plus a direct path
    config = make_config(n_elements=4, m_h=1.5, m_g=2.5,
                         direct_link="true", m_d=1.5)
    hp = link(config).hankel()
    for power in (0.0, 5.0, 10.0, 15.0, 20.0):
        powered = make_config(n_elements=4, m_h=1.5, m_g=2.5,
                              direct_link="true", m_d=1.5,
                              tx_power_dbm=power)
        rho = link(powered).rho
        exact = R.ber_rps(hp, rho, BPSK)
        est = mc.estimate_ber(powered, BPSK, 1_000_000, 303)
        assert abs(exact - est.value) <= 3.0 * est.std_error

    # coherent phases, CHF-based integral
    config = make_config(n_elements=4, m_h=1.5, m_g=2.5, phase_design="ops")
    chf = link(config).chf()
    for power in (20.0, 30.0, 40.0, 50.0, 60.0):
        powered = make_config(n_elements=4, m_h=1.5, m_g=2.5,
                              phase_design="ops", tx_power_dbm=power)
        rho = link(powered).rho
        exact = O.ber_ops(chf, rho, BPSK)
        est = mc.estimate_ber(powered, BPSK, 1_000_000, 304)
        assert abs(exact - est.value) <= 3.0 * est.std_error

    # differential detection at N = 64: closed form within 3 % of the
    # exact integral
    for power in (30.0, 40.0, 50.0):
        scene = link(make_config(n_elements=64, tx_power_dbm=power))
        exact = R.ber_rps(scene.hankel(), scene.rho, BDPSK)
        closed = la.largen_rps_ber(scene.largen(la.LargeNRps), BDPSK)
        assert closed == pytest.approx(exact, rel=0.03)


# ---------------------------------------------------------------------
# 4. diversity orders from high-SNR BER slopes
# ---------------------------------------------------------------------

def test_criterion_04_diversity_orders():
    unit = lambda m_h, m_g: DoubleNakagami(NakagamiParams(m_h, 1.0),
                                           NakagamiParams(m_g, 1.0))

    def slope(ber):
        return math.log10(ber(1e6) / ber(1e5))

    for n in (4, 16):
        hp = HankelProduct(unit(1.5, 2.5), n)
        s = slope(lambda rho: R.ber_rps(hp, rho, BPSK))
        assert s == pytest.approx(-1.0, abs=0.1)

    for m_h, m_g in ((0.5, 3.0), (1.0, 1.0)):
        chf = AmplitudeChf(unit(m_h, m_g), 1)
        s = slope(lambda rho: O.ber_ops(chf, rho, BPSK))
        order = min(m_h, m_g)
        assert s == pytest.approx(-order, abs=0.1 * order)


# ---------------------------------------------------------------------
# 5. large-N SNR distribution: exponential limit and quadratic growth
# ---------------------------------------------------------------------

def test_criterion_05_largen_snr_distribution():
    config = make_config(n_elements=256)
    scene = link(config)
    y_sq = draw_snr(config, 200_000, 505) / scene.rho
    mean = 256 * scene.element.mean_power
    ks = ks_distance(y_sq, lambda x: -np.expm1(-x / mean))
    assert ks <= 0.01

    for n in (64, 128):
        config = make_config(n_elements=n, phase_design="ops")
        scene = link(config)
        mean_zt, var_zt = la.zt_stats(scene.element)
        law = n * scene.rho * (n * mean_zt ** 2 + var_zt)
        observed = draw_snr(config, 100_000, 506).mean()
        assert observed == pytest.approx(law, rel=0.01)


# ---------------------------------------------------------------------
# 6. ergodic capacity: second-order approximation, large-N closed form,
#    and the high-SNR offset law
# ---------------------------------------------------------------------

def test_criterion_06_capacity_approximations():
    for design in ("rps", "ops"):
        for n in (16, 32):
            for power in (0.0, 7.5, 15.0, 22.5, 30.0):
                config = make_config(n_elements=n, phase_design=design,
                                     tx_power_dbm=power)
                approx = cli.exact_value(config, "ec", 1.0, BPSK)
                est = mc.estimate_ec(config, 200_000, 606)
                assert approx == pytest.approx(est.value, rel=0.02)

    config = make_config(n_elements=256)
    model = link(config).largen(la.LargeNRps)
    est = mc.estimate_ec(config, 200_000, 607)
    assert la.largen_rps_ec(model) == pytest.approx(est.value, rel=0.01)

    # high-SNR offset at rho = 1e10 on unit spreads
    n, rho = 16, 1e10
    model = la.LargeNRps(0.5 * n * rho)
    offset_law = math.log2(rho) + (math.log(n) - np.euler_gamma) / math.log(2)
    assert abs(la.largen_rps_ec(model) - offset_law) <= 1e-3


# ---------------------------------------------------------------------
# 7. capacity vs hop split on a 100 m path: interior minimum at the
#    midpoint, and the coherent-vs-2-bit gap at N = 320
# ---------------------------------------------------------------------

def test_criterion_07_capacity_vs_hop_split():
    r_grid = list(range(25, 80, 5))

    def curve(design, n):
        values = []
        for r_h in r_grid:
            over = {"n_elements": n, "tx_power_dbm": 46.0,
                    "r_h": r_h, "r_g": 100.0 - r_h, "phase_design": design}
            if design == "quantized":
                over["quantizer_bits"] = 2
            values.append(cli.exact_value(make_config(**over), "ec", 1.0,
                                          BPSK))
        return values

    by_design = {}
    for n in (64, 320):
        for design in ("rps", "quantized", "ops"):
            values = curve(design, n)
            by_design[design, n] = values
            k = int(np.argmin(values))
            assert 0 < k < len(r_grid) - 1  # interior minimum
            assert abs(r_grid[k] - 50) <= 5

    mid = r_grid.index(50)
    gap = by_design["ops", 320][mid] - by_design["quantized", 320][mid]
    assert gap == pytest.approx(0.6, abs=0.15)


# ---------------------------------------------------------------------
# 8. Nakagami hop phases in Eq. (2) vs the uniform-phase analytics
# ---------------------------------------------------------------------

def test_criterion_08_exact_phase_vs_uniform_model():
    # the residual phase theta_h + theta_g - theta_n drawn term by term,
    # with Nakagami hop phases, against the uniform phases the simulator
    # draws and the Hankel inversion assumes
    config = make_config(n_elements=16, m_h=1.5, m_g=2.5)
    scene = link(config)
    outage = outage_memo(R.gamma_r_cdf, scene.hankel(), scene.rho)
    gammas = [bisect_increasing(rps_outage_probe(outage), q, 1e-14, 10.0)
              for q in np.linspace(0.05, 0.95, 10)]
    with_exact = nakagami_phase_op_grid(config, gammas, 200_000, 808)
    with_uniform = op_grid(config, gammas, 200_000, 809)
    for gamma, ex, un in zip(gammas, with_exact, with_uniform):
        analytic = outage(gamma)
        assert abs(ex.value - analytic) <= 3.0 * ex.std_error
        combined = math.hypot(ex.std_error, un.std_error)
        assert abs(ex.value - un.value) <= 3.0 * combined


# ---------------------------------------------------------------------
# 9. special-function kernel invariants
# ---------------------------------------------------------------------

def test_criterion_09_kernel_invariants():
    # Kummer transform: 1F1(a;b;z) = e^z 1F1(b-a;b;-z)
    for a in (0.25, 1.0, 2.5, M_LOS):
        for b in (1.0, 2.0, 3.5):
            for z in (-30.0, -8.0, -1.0, 0.5, 3.0, 12.0):
                lhs = nm.hyp1f1(a, b, z)
                rhs = math.exp(z) * nm.hyp1f1(b - a, b, -z)
                assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    # Hankel pair: Rayleigh density transforms to a Gaussian in omega
    for omega_sq in (0.5, 3.0):
        for w in (0.5, 1.5, 3.0):
            val = nm.integrate_semi_infinite(
                lambda x, w=w, o=omega_sq: (nm.bessel_j(0, w * x)
                                            * (2.0 * x / o)
                                            * np.exp(-x * x / o)),
                breakpoints=[z / w for z in nm.bessel_zeros(0, 60)])
            ref = math.exp(-w * w * omega_sq / 4.0)
            assert val == pytest.approx(ref, rel=1e-9)
    bare = nm.integrate_semi_infinite(lambda x: nm.bessel_j(0, x),
                                      breakpoints=list(nm.bessel_zeros(0, 120)))
    assert bare == pytest.approx(1.0, abs=1e-8)

    # Gaussian tail symmetry
    for x in np.linspace(-8.0, 8.0, 161):
        assert abs(nm.gauss_q(float(x)) + nm.gauss_q(float(-x)) - 1.0) <= 1e-14


# ---------------------------------------------------------------------
# 10. byte-identical CLI output across reruns and thread counts
# ---------------------------------------------------------------------

def test_criterion_10_byte_identical_outputs(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(
        "n_elements = 16\ncarrier_hz = 2.45e9\nalpha = 2.5\n"
        "noise_dbm = -85\ntx_power_dbm = 20\n"
        f"m_h = {M_LOS!r}\nm_g = {M_LOS!r}\n"
        "r_h = 20\nr_g = 20\npsi_deg = 86\n"
        "direct_link = false\nphase_design = rps\n",
        encoding="utf-8")

    def one_pass(tag, threads):
        monkeypatch.setenv("RISLINK_THREADS", threads)
        outdir = tmp_path / tag
        outdir.mkdir()
        produced = {}
        for preset in ("fig1", "fig2", "fig3"):
            code = cli.main(["metric", "--preset", preset,
                             "--out", str(outdir / preset),
                             "--trials", "10000", "--seed", "77"])
            assert code == cli.EXIT_OK
        report = outdir / "validate.csv"
        code = cli.main(["validate", "--config", str(cfg_path),
                         "--gamma-th-db", "-30", "--trials", "20000",
                         "--seed", "77", "--out", str(report)])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        for path in sorted(outdir.glob("*.csv")):
            produced[path.name] = path.read_bytes()
        return produced

    first = one_pass("run1", "1")
    second = one_pass("run2", "1")
    threaded = one_pass("run3", "8")
    assert len(first) == 3 + 8 + 6 + 1
    assert first == second
    assert first == threaded
