import math

import numpy as np
import pytest

from rislink import scenario as sc


def _fig_geometry(direct=False):
    return sc.LinkGeometry(r_h=20.0, r_g=20.0, psi=86.0, direct_link=direct)


def test_pathloss_reference_distance_is_zeta():
    f = 2.45e9
    zeta = (sc.SPEED_OF_LIGHT / (4.0 * math.pi * f)) ** 2
    assert sc.pathloss_omega(1.0, f, 2.5) == pytest.approx(zeta, rel=1e-15)
    assert zeta == pytest.approx(9.48e-5, rel=2e-3)


def test_pathloss_at_20m():
    got = sc.pathloss_omega(20.0, 2.45e9, 2.5)
    zeta = (sc.SPEED_OF_LIGHT / (4.0 * math.pi * 2.45e9)) ** 2
    assert got == pytest.approx(zeta * 20.0 ** -2.5, rel=1e-14)
    assert got == pytest.approx(5.3e-8, rel=2e-3)


def test_pathloss_inverse_square_doubling():
    f = 1e9
    assert sc.pathloss_omega(14.0, f, 2.0) == pytest.approx(
        4.0 * sc.pathloss_omega(28.0, f, 2.0), rel=1e-13)


def test_pathloss_monotone_in_distance_and_exponent():
    f = 2.45e9
    r = np.linspace(1.5, 400.0, 60)
    vals = np.array([sc.pathloss_omega(x, f, 2.7) for x in r])
    assert np.all(np.diff(vals) < 0)
    alphas = np.linspace(2.0, 5.0, 40)
    vals = np.array([sc.pathloss_omega(30.0, f, a) for a in alphas])
    assert np.all(np.diff(vals) < 0)


def test_pathloss_domain_errors():
    with pytest.raises(ValueError):
        sc.pathloss_omega(0.5, 2.45e9, 2.5)
    with pytest.raises(ValueError):
        sc.pathloss_omega(10.0, 2.45e9, 1.9)


def test_direct_distance_examples():
    assert sc.direct_distance(_fig_geometry(True)) == pytest.approx(27.3, abs=0.05)
    pythag = sc.LinkGeometry(r_h=3.0, r_g=4.0, psi=90.0, direct_link=True)
    assert sc.direct_distance(pythag) == pytest.approx(5.0, rel=1e-14)
    thin = sc.LinkGeometry(r_h=7.0, r_g=7.0, psi=1e-7, direct_link=True)
    assert sc.direct_distance(thin) == pytest.approx(0.0, abs=1e-6)


def test_direct_distance_symmetry_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(2.0, 60.0, size=2)
        psi = rng.uniform(5.0, 175.0)
        d1 = sc.direct_distance(sc.LinkGeometry(a, b, psi, True))
        d2 = sc.direct_distance(sc.LinkGeometry(b, a, psi, True))
        assert d1 == pytest.approx(d2, rel=1e-14)
    dists = [sc.direct_distance(sc.LinkGeometry(11.0, 23.0, p, True))
             for p in np.linspace(1.0, 179.0, 50)]
    assert np.all(np.diff(dists) > 0)


def test_ricean_k_to_m():
    assert sc.ricean_k_to_m(0.0) == 1.0
    assert sc.ricean_k_to_m(10.0) == pytest.approx(121.0 / 21.0, rel=1e-15)
    ks = np.linspace(0.0, 50.0, 80)
    ms = [sc.ricean_k_to_m(k) for k in ks]
    assert np.all(np.diff(ms) > 0)
    assert sc.ricean_k_to_m(1e9) > 1e8
    with pytest.raises(ValueError):
        sc.ricean_k_to_m(-0.1)


def test_derive_rho_and_lambdas():
    cfg = sc.ScenarioConfig(
        n_elements=16, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=0.0, m_h=1.5, m_g=2.5, geometry=_fig_geometry(True),
        m_d=1.5, phase_design=sc.OPS)
    d = sc.derive(cfg)
    assert d.rho == pytest.approx(10.0 ** 8.5, rel=1e-12)
    assert d.lambda_n == pytest.approx(d.omega_h * d.omega_g / (1.5 * 2.5),
                                       rel=1e-15)
    assert d.omega_d == pytest.approx(
        sc.pathloss_omega(sc.direct_distance(cfg.geometry), 2.45e9, 2.5),
        rel=1e-15)
    assert d.lambda_d == pytest.approx(d.omega_d / 1.5, rel=1e-15)


def test_derive_unit_lambda_case():
    # with m = omega = 1 on both hops Lambda_n collapses to omega_h * omega_g
    cfg = sc.ScenarioConfig(
        n_elements=1, carrier_hz=2.45e9, alpha=2.5, noise_dbm=-85.0,
        tx_power_dbm=0.0, m_h=1.0, m_g=1.0, geometry=_fig_geometry())
    d = sc.derive(cfg)
    assert d.lambda_n == pytest.approx(d.omega_h * d.omega_g, rel=1e-15)
    assert d.lambda_d is None and d.omega_d is None


def test_config_invariants():
    with pytest.raises(ValueError):
        sc.NakagamiParams(m=0.4, omega=1.0)
    with pytest.raises(ValueError):
        sc.LinkGeometry(r_h=20.0, r_g=20.0, psi=180.0)
    with pytest.raises(ValueError):
        sc.PhaseDesign("quantized", None)
    with pytest.raises(ValueError):
        sc.PhaseDesign("rps", 2)
    with pytest.raises(ValueError):
        sc.ScenarioConfig(n_elements=0, carrier_hz=2.45e9, alpha=2.5,
                          noise_dbm=-85.0, tx_power_dbm=0.0, m_h=1.0,
                          m_g=1.0, geometry=_fig_geometry())
    with pytest.raises(ValueError):
        # m_d missing while direct link is on
        sc.ScenarioConfig(n_elements=4, carrier_hz=2.45e9, alpha=2.5,
                          noise_dbm=-85.0, tx_power_dbm=0.0, m_h=1.0,
                          m_g=1.0, geometry=_fig_geometry(True))


_GOOD = {
    "n_elements": "16", "carrier_hz": "2.45e9", "alpha": "2.5",
    "noise_dbm": "-85", "tx_power_dbm": "0", "m_h": "5.7619",
    "m_g": "5.7619", "r_h": "20", "r_g": "20", "psi_deg": "86",
    "direct_link": "false", "phase_design": "rps",
}


def test_config_from_mapping_roundtrip():
    cfg = sc.config_from_mapping(_GOOD)
    assert cfg.n_elements == 16
    assert cfg.phase_design == sc.RPS
    assert cfg.geometry.psi == 86.0
    quant = dict(_GOOD, phase_design="quantized", quantizer_bits="2")
    assert sc.config_from_mapping(quant).phase_design.bits == 2
    direct = dict(_GOOD, direct_link="true", m_d="1.5")
    assert sc.config_from_mapping(direct).m_d == 1.5


@pytest.mark.parametrize("mutate", [
    {"typo_key": "1"},
    {"phase_design": "quantized"},               # bits missing
    {"quantizer_bits": "2"},                     # bits without quantized
    {"m_d": "1.5"},                              # m_d without direct link
    {"direct_link": "maybe"},
    {"n_elements": "4.5"},
    {"alpha": "not-a-number"},
    {"tx_power_dbm": "nan"},
    {"r_h": "inf"},
    {"n_elements": "inf"},
    {"n_elements": "4097"},
])
def test_config_from_mapping_rejections(mutate):
    bad = dict(_GOOD, **mutate)
    with pytest.raises(ValueError):
        sc.config_from_mapping(bad)


def test_config_from_mapping_missing_key():
    bad = dict(_GOOD)
    del bad["carrier_hz"]
    with pytest.raises(ValueError, match="carrier_hz"):
        sc.config_from_mapping(bad)
