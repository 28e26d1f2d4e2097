"""Physical link configuration and its distribution parameters.

Geometry, pathloss, fading shapes, and power budget live here;
`link_parts` is the one place they become what the engines and the
simulator read: rho, the per-element cascade and the direct path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Optional

SPEED_OF_LIGHT = 299_792_458.0

# Largest RIS accepted: the engines hold or draw one value per element.
MAX_ELEMENTS = 4096


@dataclass(frozen=True)
class NakagamiParams:
    """Shape / spread pair of a Nakagami-m envelope."""

    m: float
    omega: float

    def __post_init__(self) -> None:
        if not self.m >= 0.5:
            raise ValueError(f"Nakagami shape m must be >= 0.5, got {self.m}")
        if not self.omega > 0.0:
            raise ValueError(f"Nakagami spread must be positive, got {self.omega}")

    # as a one-hop path: the direct link
    @property
    def hops(self) -> tuple:
        return (self,)

    @property
    def lambda_n(self) -> float:
        return self.omega / self.m

    @property
    def mean_power(self) -> float:
        return self.omega


@dataclass(frozen=True)
class DoubleNakagami:
    """Product X = |h||g| of two independent Nakagami-m envelopes."""

    hop_h: NakagamiParams
    hop_g: NakagamiParams

    @property
    def hops(self) -> tuple:
        return (self.hop_h, self.hop_g)

    @property
    def lambda_n(self) -> float:
        return (self.hop_h.omega * self.hop_g.omega
                / (self.hop_h.m * self.hop_g.m))

    @property
    def mean_power(self) -> float:
        return self.hop_h.omega * self.hop_g.omega


@dataclass(frozen=True)
class LinkGeometry:
    """Planar source-RIS-destination layout.

    ``psi`` is the angle (degrees) between the S-RIS and RIS-D legs; the
    S-D distance follows from the cosine law when a direct link exists.
    """

    r_h: float
    r_g: float
    psi: float
    direct_link: bool = False

    def __post_init__(self) -> None:
        for name in ("r_h", "r_g"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.psi < 180.0:
            raise ValueError(f"psi must lie in (0, 180) degrees, got {self.psi}")


@dataclass(frozen=True)
class PhaseDesign:
    """RIS phase configuration: random, optimal, or b-bit quantized."""

    kind: str
    bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("rps", "ops", "quantized"):
            raise ValueError(f"unknown phase_design {self.kind!r}")
        if self.kind == "quantized":
            if not (isinstance(self.bits, int) and self.bits >= 1):
                raise ValueError("quantized design needs an integer bits >= 1")
        elif self.bits is not None:
            raise ValueError(f"{self.kind} design takes no quantizer bits")


RPS = PhaseDesign("rps")
OPS = PhaseDesign("ops")


def quantized(bits: int) -> PhaseDesign:
    return PhaseDesign("quantized", bits)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete homogeneous scenario: every RIS element shares (m_h, m_g)."""

    n_elements: int
    carrier_hz: float
    alpha: float
    noise_dbm: float
    tx_power_dbm: float
    m_h: float
    m_g: float
    geometry: LinkGeometry
    phase_design: PhaseDesign = RPS
    m_d: Optional[float] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.n_elements, int)
                and 1 <= self.n_elements <= MAX_ELEMENTS):
            raise ValueError(f"n_elements must be an integer in [1, {MAX_ELEMENTS}], got {self.n_elements}")
        if not self.carrier_hz > 0.0:
            raise ValueError("carrier_hz must be positive")
        if not self.alpha >= 2.0:
            raise ValueError(f"alpha (pathloss exponent) must be >= 2, got {self.alpha}")
        for name in ("m_h", "m_g"):
            if not getattr(self, name) >= 0.5:
                raise ValueError(f"{name} must be >= 0.5")
        if self.geometry.direct_link:
            if self.m_d is None:
                raise ValueError("direct_link requires m_d")
            if not self.m_d >= 0.5:
                raise ValueError("m_d must be >= 0.5")
        elif self.m_d is not None:
            raise ValueError("m_d given but direct_link is false")
        # rho and the path spreads must come out as usable numbers
        link_parts(self)


def pathloss_omega(distance_m: float, carrier_hz: float, alpha: float) -> float:
    """Mean-square envelope Omega = zeta * r^-alpha with zeta = (c / 4 pi f)^2."""
    if distance_m < 1.0:
        raise ValueError(f"distance must be >= 1 m reference, got {distance_m}")
    if alpha < 2.0:
        raise ValueError(f"pathloss exponent must be >= 2, got {alpha}")
    if carrier_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    zeta = (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_hz)) ** 2
    return zeta * distance_m ** -alpha


def direct_distance(geom: LinkGeometry) -> float:
    """S-D separation from the cosine law on the two legs and angle psi."""
    cos_psi = math.cos(math.radians(geom.psi))
    sq = geom.r_h ** 2 + geom.r_g ** 2 - 2.0 * geom.r_h * geom.r_g * cos_psi
    return math.sqrt(max(sq, 0.0))


def ricean_k_to_m(k_factor: float) -> float:
    """Nakagami shape matching a Ricean K-factor: m = (1 - (K/(1+K))^2)^-1."""
    if k_factor < 0.0:
        raise ValueError(f"K-factor must be nonnegative, got {k_factor}")
    ratio = k_factor / (1.0 + k_factor)
    return 1.0 / (1.0 - ratio * ratio)


def _in_range(what: str, fields: str, compute) -> float:
    """compute(), which must be a positive normal double, or a ValueError
    naming the config fields that put ``what`` out of that range."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    except ValueError as exc:
        raise ValueError(f"{fields}: {exc}") from None
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"{fields} put {what} at {value!r}, outside the "
                         "range of normal doubles")
    return value


def link_parts(config: ScenarioConfig, lam_scale: float = 1.0) -> tuple:
    """Resolve geometry and power budget into (rho, per-element cascade,
    direct path or None).

    ``lam_scale`` multiplies the cascade's h-hop spread only; rho and the
    direct path stay those of the honest config.
    """
    geom, carrier, alpha = config.geometry, config.carrier_hz, config.alpha
    omega_h = _in_range("the h-hop spread", "r_h, carrier_hz and alpha",
                        lambda: pathloss_omega(geom.r_h, carrier, alpha))
    omega_g = _in_range("the g-hop spread", "r_g, carrier_hz and alpha",
                        lambda: pathloss_omega(geom.r_g, carrier, alpha))
    rho = _in_range("rho", "tx_power_dbm and noise_dbm", lambda: 10.0 ** (
        (config.tx_power_dbm - config.noise_dbm) / 10.0))
    element = DoubleNakagami(NakagamiParams(config.m_h, omega_h * lam_scale),
                             NakagamiParams(config.m_g, omega_g))
    direct = None
    if geom.direct_link:
        direct = NakagamiParams(config.m_d, _in_range(
            "the direct-path spread",
            "r_h, r_g, psi_deg, carrier_hz and alpha",
            lambda: pathloss_omega(direct_distance(geom), carrier, alpha)))
    return rho, element, direct


# --- flat key/value schema -------------------------------------------

_BASE_KEYS = {
    "n_elements", "carrier_hz", "alpha", "noise_dbm", "tx_power_dbm",
    "m_h", "m_g", "r_h", "r_g", "psi_deg", "direct_link", "phase_design",
}
_OPTIONAL_KEYS = {"m_d", "quantizer_bits"}


def _as_float(key: str, value: object) -> float:
    try:
        f = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        f = math.nan
    if not math.isfinite(f):
        raise ValueError(f"config field {key!r}: expected a finite number, got {value!r}")
    return f


def _as_int(key: str, value: object) -> int:
    f = _as_float(key, value)
    if f != int(f):
        raise ValueError(f"config field {key!r}: expected an integer, got {value!r}")
    return int(f)


def _as_bool(key: str, value: object) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"config field {key!r}: expected true/false, got {value!r}")


def config_from_mapping(mapping: Mapping[str, object]) -> ScenarioConfig:
    """Validate a flat key/value mapping and build a ScenarioConfig.

    Unknown keys are rejected outright; conditional keys (m_d,
    quantizer_bits) are required or forbidden depending on direct_link
    and phase_design.
    """
    unknown = set(mapping) - _BASE_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    missing = _BASE_KEYS - set(mapping)
    if missing:
        raise ValueError(f"missing config field(s): {', '.join(sorted(missing))}")

    direct = _as_bool("direct_link", mapping["direct_link"])
    design_name = str(mapping["phase_design"]).strip().lower()
    if design_name == "quantized":
        if "quantizer_bits" not in mapping:
            raise ValueError("phase_design quantized requires quantizer_bits")
        design = quantized(_as_int("quantizer_bits", mapping["quantizer_bits"]))
    else:
        if "quantizer_bits" in mapping:
            raise ValueError("quantizer_bits only applies to phase_design quantized")
        design = PhaseDesign(design_name)

    m_d = None
    if direct:
        if "m_d" not in mapping:
            raise ValueError("direct_link true requires m_d")
        m_d = _as_float("m_d", mapping["m_d"])
    elif "m_d" in mapping:
        raise ValueError("m_d given but direct_link is false")

    geometry = LinkGeometry(
        r_h=_as_float("r_h", mapping["r_h"]),
        r_g=_as_float("r_g", mapping["r_g"]),
        psi=_as_float("psi_deg", mapping["psi_deg"]),
        direct_link=direct,
    )
    return ScenarioConfig(
        n_elements=_as_int("n_elements", mapping["n_elements"]),
        carrier_hz=_as_float("carrier_hz", mapping["carrier_hz"]),
        alpha=_as_float("alpha", mapping["alpha"]),
        noise_dbm=_as_float("noise_dbm", mapping["noise_dbm"]),
        tx_power_dbm=_as_float("tx_power_dbm", mapping["tx_power_dbm"]),
        m_h=_as_float("m_h", mapping["m_h"]),
        m_g=_as_float("m_g", mapping["m_g"]),
        geometry=geometry,
        phase_design=design,
        m_d=m_d,
    )
