"""Seedable channel simulator and metric estimators.

Trials are generated in fixed-size chunks, each fed by its own
counter-based Philox substream keyed by (seed, chunk index).  Chunk
boundaries depend only on the element count and the trial total, and
partial sums are reduced in chunk order, so every estimate is
bit-identical for any thread count or scheduling.  BER estimators
average the conditional error kernel over SNR draws instead of counting
bit decisions, which reaches deep-tail error rates at feasible trial
counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import _erfc_ufunc
from .rps import LN2, Modulation
from .scenario import NakagamiParams, ScenarioConfig, link_parts

_MASK64 = (1 << 64) - 1
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)
# RISLINK_THREADS is clamped to this, so no value of it can ask for more
# operating-system threads
_MAX_THREADS = 64


# ---------------------------------------------------------------------
# rng plumbing
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """One platform-stable substream: Philox keyed by (seed, stream_id)."""

    seed: int
    stream_id: int

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (isinstance(v, int) and 0 <= v <= _MASK64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.seed, self.stream_id]))


def _chunk_size(n_elements: int) -> int:
    # a pure function of N only: never of trials or thread count
    return max(256, (1 << 18) // max(n_elements, 1))


def _thread_count() -> int:
    env = os.environ.get("RISLINK_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"RISLINK_THREADS must be an integer, got {env!r}")
        return max(1, min(cap, _MAX_THREADS))
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class McEstimate:
    """Sample-mean estimate with its standard error."""

    value: float
    std_error: float
    n_trials: int
    seed: int

    def __post_init__(self) -> None:
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")


# ---------------------------------------------------------------------
# phase models
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseModel:
    """How Eq.-(2)-style residual phases are drawn.

    ``exact``     phi_n = theta_h + theta_g - theta_n with Nakagami-phase
                  hop draws and a uniform applied phase;
    ``uniform``   phi_n ~ U[0, 2pi);
    ``quantized`` phi_n = eps_h + eps_g, each hop error uniform on
                  [-pi/2^b, pi/2^b); the direct term stays co-phased.
    """

    kind: str
    bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "uniform", "quantized"):
            raise ValueError(f"unknown phase model {self.kind!r}")
        if self.kind == "quantized":
            if not (isinstance(self.bits, int) and self.bits >= 1):
                raise ValueError("quantized phase model needs integer bits >= 1")
        elif self.bits is not None:
            raise ValueError(f"{self.kind} phase model takes no bits")


EXACT_NAKAGAMI = PhaseModel("exact")
UNIFORM = PhaseModel("uniform")


def quantized_phases(bits: int) -> PhaseModel:
    return PhaseModel("quantized", bits)


def default_phase_model(config: ScenarioConfig) -> PhaseModel:
    """The phase model the analytical modules assume for this design."""
    if config.phase_design.kind == "quantized":
        return quantized_phases(config.phase_design.bits)
    return UNIFORM


# ---------------------------------------------------------------------
# channel draws
# ---------------------------------------------------------------------

def sample_nakagami_envelope(params: NakagamiParams, rng: np.random.Generator,
                             size=None):
    """Envelope draw(s): sqrt of a Gamma(m, Omega/m) power draw."""
    draw = np.sqrt(rng.gamma(params.m, params.omega / params.m, size))
    return float(draw) if size is None else draw


def _phase_const(m: float) -> float:
    # normalization Gamma(m) / (2^m Gamma(m/2)^2); equals 1/(2pi) at m=1
    return math.exp(math.lgamma(m) - m * LN2 - 2.0 * math.lgamma(0.5 * m))


_PHASE_KNOTS = 1 << 16
_phase_tables: dict = {}


def _phase_table(m: float):
    """Monotone inverse-CDF knots for the singular m < 1 phase density."""
    got = _phase_tables.get(m)
    if got is None:
        edges = np.linspace(-math.pi, math.pi, _PHASE_KNOTS + 1)
        half = 0.5 * (edges[1] - edges[0])
        mid = 0.5 * (edges[:-1] + edges[1:])
        theta = mid[:, None] + half * _GL5_NODES[None, :]
        dens = np.abs(np.sin(2.0 * theta)) ** (m - 1.0)
        mass = (dens @ _GL5_WEIGHTS) * half
        cdf = np.concatenate([[0.0], np.cumsum(mass)])
        cdf /= cdf[-1]
        if len(_phase_tables) >= 16:
            _phase_tables.clear()
        got = (cdf, edges)
        _phase_tables[m] = got
    return got


def sample_nakagami_phase(m: float, rng: np.random.Generator, size=None):
    """Draw(s) from f(theta) = C(m) |sin 2 theta|^(m-1) on [-pi, pi).

    Rejection against a flat envelope for m >= 1; the m < 1 density has
    integrable poles at multiples of pi/2, so it is inverted through a
    precomputed monotone CDF table instead.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape m must be >= 0.5, got {m}")
    count = 1 if size is None else int(np.prod(size))
    if m == 1.0:
        out = rng.uniform(-math.pi, math.pi, count)
    elif m < 1.0:
        cdf, edges = _phase_table(m)
        out = np.interp(rng.uniform(0.0, 1.0, count), cdf, edges)
    else:
        const = _phase_const(m)
        grid = np.linspace(-math.pi, math.pi, 10000)
        fmax = 1.01 * const * float(
            np.max(np.abs(np.sin(2.0 * grid)) ** (m - 1.0)))
        out = np.empty(count)
        filled = 0
        while filled < count:
            k = int((count - filled) * 2.0 * math.pi * fmax * 1.2) + 16
            theta = rng.uniform(-math.pi, math.pi, k)
            height = rng.uniform(0.0, fmax, k)
            acc = theta[height < const * np.abs(np.sin(2.0 * theta)) ** (m - 1.0)]
            take = min(len(acc), count - filled)
            out[filled:filled + take] = acc[:take]
            filled += take
    if size is None:
        return float(out[0])
    return out.reshape(size)


def _element_phases(config: ScenarioConfig, model: PhaseModel, shape,
                    rng: np.random.Generator) -> np.ndarray:
    if model.kind == "uniform":
        return rng.uniform(0.0, 2.0 * math.pi, shape)
    if model.kind == "exact":
        theta_h = sample_nakagami_phase(config.m_h, rng, shape)
        theta_g = sample_nakagami_phase(config.m_g, rng, shape)
        return theta_h + theta_g - rng.uniform(0.0, 2.0 * math.pi, shape)
    half = math.pi / 2.0 ** model.bits
    return (rng.uniform(-half, half, shape)
            + rng.uniform(-half, half, shape))


def _direct_phases(config: ScenarioConfig, model: PhaseModel, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    if model.kind == "uniform":
        return rng.uniform(0.0, 2.0 * math.pi, count)
    if model.kind == "exact":
        theta_hd = sample_nakagami_phase(config.m_d, rng, (count,))
        return theta_hd - rng.uniform(0.0, 2.0 * math.pi, count)
    # quantized: the direct term is co-phased at the detector
    return np.zeros(count)


def _snr_batch(config: ScenarioConfig, model: PhaseModel, count: int,
               rng: np.random.Generator) -> np.ndarray:
    """``count`` independent SNR draws.  Draw order is part of the
    determinism contract: hop envelopes, then design-specific phases,
    then the direct-path draws."""
    d, element, direct = link_parts(config)
    n = config.n_elements
    x = (sample_nakagami_envelope(element.hop_h, rng, (count, n))
         * sample_nakagami_envelope(element.hop_g, rng, (count, n)))
    if config.phase_design.kind == "ops":
        amp = np.sum(x, axis=1)
        if direct is not None:
            amp = amp + sample_nakagami_envelope(direct, rng, (count,))
        return d.rho * amp * amp
    phi = _element_phases(config, model, (count, n), rng)
    re = np.sum(x * np.cos(phi), axis=1)
    im = np.sum(x * np.sin(phi), axis=1)
    if direct is not None:
        hd = sample_nakagami_envelope(direct, rng, (count,))
        phi_d = _direct_phases(config, model, count, rng)
        re = re + hd * np.cos(phi_d)
        im = im + hd * np.sin(phi_d)
    return d.rho * (re * re + im * im)


def realize_snr(config: ScenarioConfig, phase_model: PhaseModel,
                rng: np.random.Generator) -> float:
    """One end-to-end SNR draw."""
    return float(_snr_batch(config, phase_model, 1, rng)[0])


# ---------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------

def _check_run(n_trials: int, seed: int) -> None:
    if not (isinstance(n_trials, int) and n_trials >= 10_000):
        raise ValueError(f"n_trials must be an integer >= 10000, got {n_trials}")
    if not (isinstance(seed, int) and 0 <= seed <= _MASK64):
        raise ValueError("seed must be an unsigned 64-bit integer")


def _reduce(config: ScenarioConfig, phase_model: PhaseModel,
            partial: Callable[[np.ndarray], np.ndarray],
            n_trials: int, seed: int) -> np.ndarray:
    """Sum of ``partial(gamma)`` over chunked streams, added in chunk order."""
    cs = _chunk_size(config.n_elements)
    n_chunks = (n_trials + cs - 1) // cs

    def run(i: int):
        count = min(cs, n_trials - i * cs)
        rng = RngStream(seed, i).generator()
        return partial(_snr_batch(config, phase_model, count, rng))

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        parts = list(pool.map(run, range(n_chunks)))
    total = parts[0]
    for part in parts[1:]:  # fixed order: chunk index
        total = total + part
    return total


def _mean_estimate(config: ScenarioConfig, phase_model: PhaseModel,
                   kernel: Callable[[np.ndarray], np.ndarray],
                   n_trials: int, seed: int) -> McEstimate:
    """Mean and standard error of ``kernel(gamma)``."""

    def sums(g):
        vals = kernel(g)
        return np.array([np.sum(vals), np.sum(vals * vals)])

    total, total_sq = _reduce(config, phase_model, sums, n_trials,
                              seed).tolist()
    mean = total / n_trials
    var = max(total_sq / n_trials - mean * mean, 0.0)
    return McEstimate(value=mean, std_error=math.sqrt(var / n_trials),
                      n_trials=n_trials, seed=seed)


def estimate_op(config: ScenarioConfig, phase_model: PhaseModel,
                gamma_th: float, n_trials: int, seed: int) -> McEstimate:
    """Outage probability: empirical CDF at gamma_th, binomial SE."""
    return estimate_op_grid(config, phase_model, [gamma_th],
                            n_trials, seed)[0]


def estimate_op_grid(config: ScenarioConfig, phase_model: PhaseModel,
                     gamma_th_grid: Sequence[float], n_trials: int,
                     seed: int) -> list:
    """Outage at several thresholds from one shared sample set.

    Each entry is bit-identical to estimate_op at the same threshold
    with the same seed, since both consume the same chunk substreams.
    """
    _check_run(n_trials, seed)
    grid = [float(g) for g in gamma_th_grid]
    if any(g < 0.0 for g in grid):
        raise ValueError("gamma_th must be nonnegative")

    def hits(g):
        return np.array([np.count_nonzero(g <= th) for th in grid])

    out = []
    for count in _reduce(config, phase_model, hits, n_trials, seed):
        p_hat = int(count) / n_trials
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_trials)
        out.append(McEstimate(value=p_hat, std_error=se,
                              n_trials=n_trials, seed=seed))
    return out


def estimate_ber(config: ScenarioConfig, phase_model: PhaseModel,
                 modulation: Modulation, n_trials: int, seed: int) -> McEstimate:
    """Average BER by analytic conditioning on the SNR draw."""
    _check_run(n_trials, seed)
    if modulation.coherent:
        a = modulation.snr_scale

        def kernel(g):
            return 0.5 * _erfc_ufunc(np.sqrt(a * g)).astype(float)
    else:
        def kernel(g):
            return 0.5 * np.exp(-g)
    return _mean_estimate(config, phase_model, kernel, n_trials, seed)


def estimate_ec(config: ScenarioConfig, phase_model: PhaseModel,
                n_trials: int, seed: int) -> McEstimate:
    """Ergodic capacity: sample mean of log2(1 + gamma)."""
    _check_run(n_trials, seed)
    return _mean_estimate(config, phase_model, lambda g: np.log1p(g) / LN2,
                          n_trials, seed)
