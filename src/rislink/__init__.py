"""RIS-assisted link performance analysis over Nakagami-m fading.

Exact transform-domain statistics (Hankel and characteristic-function
inversions), closed-form large-N models, and a seedable Monte-Carlo
oracle for outage probability, average BER, and ergodic capacity under
random, optimal, and quantized RIS phase configurations.
"""

from .asymptotic import (LargeNOps, LargeNRps, largen_ops_cdf, largen_rps_ber,
                         largen_rps_cdf, largen_rps_ec, zt_stats)
from .montecarlo import (EXACT_NAKAGAMI, UNIFORM, McEstimate, McQuery,
                         PhaseModel, RngStream, default_phase_model,
                         estimate_ber, estimate_ec, estimate_group,
                         estimate_op, quantized_phases, sample_nakagami_phase)
from .numerics import ConvergenceError
from .ops import (AmplitudeChf, ber_ops_bdpsk, ber_ops_coherent, chf_cascade,
                  chf_direct, gamma_c_cdf, nakagami_moment, op_ops)
from .rps import (HankelProduct, Modulation, ber_rps, ec_taylor,
                  gamma_q_moment, gamma_r_cdf, gamma_r_moment, hankel_cascade,
                  hankel_direct, op_rps, quantized_phase_factors, x_moment)
from .scenario import (DoubleNakagami, LinkGeometry, NakagamiParams,
                       PhaseDesign, ScenarioConfig, config_from_mapping,
                       derive, pathloss_omega, quantized, ricean_k_to_m)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeChf", "ConvergenceError", "DoubleNakagami", "EXACT_NAKAGAMI",
    "HankelProduct", "LargeNOps", "LargeNRps", "LinkGeometry", "McEstimate",
    "McQuery", "Modulation", "NakagamiParams", "PhaseDesign", "PhaseModel",
    "RngStream", "ScenarioConfig", "UNIFORM", "ber_ops_bdpsk",
    "ber_ops_coherent", "ber_rps", "chf_cascade", "chf_direct",
    "config_from_mapping", "default_phase_model", "derive", "ec_taylor",
    "estimate_ber", "estimate_ec", "estimate_group", "estimate_op",
    "gamma_c_cdf", "gamma_q_moment", "gamma_r_cdf", "gamma_r_moment",
    "hankel_cascade", "hankel_direct", "largen_ops_cdf", "largen_rps_ber",
    "largen_rps_cdf", "largen_rps_ec", "nakagami_moment", "op_ops", "op_rps",
    "pathloss_omega", "quantized", "quantized_phase_factors",
    "quantized_phases", "ricean_k_to_m", "sample_nakagami_phase", "x_moment",
    "zt_stats",
]
