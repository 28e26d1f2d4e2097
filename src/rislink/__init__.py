"""RIS-assisted link performance analysis over Nakagami-m fading.

Exact transform-domain statistics (Hankel and characteristic-function
inversions), closed-form large-N models, and a seedable Monte-Carlo
oracle for outage probability, average BER, and ergodic capacity under
random, optimal, and quantized RIS phase configurations.

The exports resolve on first use (PEP 562), so ``import rislink`` loads
neither numpy nor any submodule, and ``python -m rislink.cli`` runs the
CLI's set-up before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("LargeNOps", "LargeNRps", "largen_ops_cdf",
                     "largen_rps_ber", "largen_rps_cdf", "largen_rps_ec"),
                    "asymptotic"),
    **dict.fromkeys(("McEstimate", "McQuery", "estimate_group"),
                    "montecarlo"),
    "ConvergenceError": "numerics",
    **dict.fromkeys(("AmplitudeChf", "ber_ops", "gamma_c_cdf"), "ops"),
    **dict.fromkeys(("HankelProduct", "Modulation", "ber_rps", "ec_taylor",
                     "gamma_r_cdf"), "rps"),
    **dict.fromkeys(("DoubleNakagami", "LinkGeometry", "NakagamiParams",
                     "PhaseDesign", "ScenarioConfig", "config_from_mapping",
                     "quantized"), "scenario"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
