"""RIS-assisted link performance analysis over Nakagami-m fading.

Exact transform-domain statistics (Hankel and characteristic-function
inversions), closed-form large-N models, and a seedable Monte-Carlo
oracle for outage probability, average BER, and ergodic capacity under
random, optimal, and quantized RIS phase configurations.
"""

from .asymptotic import (LargeNOps, LargeNRps, largen_ops_cdf, largen_rps_ber,
                         largen_rps_cdf, largen_rps_ec, zt_stats)
from .montecarlo import (McEstimate, McQuery, RngStream, estimate_ber,
                         estimate_ec, estimate_group, estimate_op)
from .numerics import ConvergenceError
from .ops import AmplitudeChf, ber_ops, chf_cascade, chf_direct, gamma_c_cdf
from .rps import (HankelProduct, Modulation, ber_rps, ec_taylor, gamma_r_cdf,
                  hankel_factor, path_moment, phasor_moments)
from .scenario import (DoubleNakagami, LinkGeometry, NakagamiParams,
                       PhaseDesign, ScenarioConfig, config_from_mapping,
                       pathloss_omega, quantized, ricean_k_to_m)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeChf", "ConvergenceError", "DoubleNakagami", "HankelProduct",
    "LargeNOps", "LargeNRps", "LinkGeometry", "McEstimate", "McQuery",
    "Modulation", "NakagamiParams", "PhaseDesign", "RngStream",
    "ScenarioConfig", "ber_ops", "ber_rps", "chf_cascade", "chf_direct",
    "config_from_mapping", "ec_taylor", "estimate_ber", "estimate_ec",
    "estimate_group", "estimate_op", "gamma_c_cdf", "gamma_r_cdf",
    "hankel_factor", "largen_ops_cdf", "largen_rps_ber", "largen_rps_cdf",
    "largen_rps_ec", "path_moment", "pathloss_omega", "phasor_moments",
    "quantized", "ricean_k_to_m", "zt_stats",
]
