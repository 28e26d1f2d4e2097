"""Seedable channel simulator and metric estimators.

Trials are generated in fixed-size chunks, each fed by its own
counter-based Philox substream keyed by (seed, chunk index).  Chunk
boundaries depend only on the element count and the trial total, and
partial sums are reduced in chunk order, so every estimate is
bit-identical for any thread count or scheduling.

Every estimate runs through one grouped reduction (`estimate_group`).
Queries whose configs differ only in transmit power, noise or pathloss
form one group: these reach the SNR only as rho and as the Gamma scales
omega/m, so each chunk draws its unit-scale variates once for the whole
group, builds one SNR base per distinct scale, and applies each query's
rho and metric to it.  A grouped estimate is bit-identical to the same
query run alone.  The single-metric `estimate_*` functions are groups
of one.

BER estimators average the conditional error kernel over SNR draws
instead of counting bit decisions, which reaches deep-tail error rates
at feasible trial counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .numerics import _erfc_ufunc
from .rps import LN2, Modulation
from .scenario import ScenarioConfig, link_parts

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


class _Draws(NamedTuple):
    """One chunk's variates at unit scale, shared by every config of a
    group: standard Gamma power draws of the two hops (count, n) and of
    the direct path (count,), and the residual phases (None where the
    design draws none)."""

    gh: np.ndarray
    gg: np.ndarray
    phi: Optional[np.ndarray]
    gd: Optional[np.ndarray]
    phi_d: Optional[np.ndarray]


def _draw(config: ScenarioConfig, model: PhaseModel, count: int,
          rng: np.random.Generator) -> _Draws:
    """``count`` trials of variates.  Draw order is part of the
    determinism contract: hop powers h then g, then design-specific
    phases, then the direct-path draws.  ``Generator.gamma(m, s)`` is
    bitwise ``s * standard_gamma(m)``, so rescaling these draws gives the
    Gamma(m, omega/m) draws of any distance."""
    n = config.n_elements
    gh = rng.standard_gamma(config.m_h, (count, n))
    gg = rng.standard_gamma(config.m_g, (count, n))
    direct = config.geometry.direct_link
    if config.phase_design.kind == "ops":
        gd = rng.standard_gamma(config.m_d, count) if direct else None
        return _Draws(gh, gg, None, gd, None)
    phi = _element_phases(config, model, (count, n), rng)
    gd = phi_d = None
    if direct:
        gd = rng.standard_gamma(config.m_d, count)
        phi_d = _direct_phases(config, model, count, rng)
    return _Draws(gh, gg, phi, gd, phi_d)


def _link_scales(config: ScenarioConfig) -> tuple:
    """(rho, Gamma scales omega/m of the h hop, g hop and direct path)."""
    d, element, direct = link_parts(config)
    return d.rho, (element.hop_h.omega / element.hop_h.m,
                   element.hop_g.omega / element.hop_g.m,
                   None if direct is None else direct.omega / direct.m)


# elements per row block of _snr_bases: bounds its temporaries
_BASE_BLOCK = 1 << 15


def _snr_bases(draws: _Draws, scales: Sequence[tuple]) -> List[np.ndarray]:
    """Per set of Gamma scales, the SNR over rho before its last
    multiply: the received amplitude for co-phased elements (SNR =
    rho * amp * amp), else the received power re^2 + im^2 (SNR = rho *
    power).  Runs in row blocks, each taking the cosine and sine of its
    phases once for every scale; a row's sum is the same in any block.
    Overwrites the element phases with their sines."""
    count, n = draws.gh.shape
    coherent = draws.phi is None
    re = [np.empty(count) for _ in scales]
    im = None if coherent else [np.empty(count) for _ in scales]
    step = max(1, _BASE_BLOCK // n)
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        if not coherent:
            phi = draws.phi[rows]
            cos = np.cos(phi)
            sin = np.sin(phi, out=phi)
        for k, (s_h, s_g, _) in enumerate(scales):
            x = np.sqrt(s_h * draws.gh[rows]) * np.sqrt(s_g * draws.gg[rows])
            if coherent:
                re[k][rows] = np.sum(x, axis=1)
            else:
                re[k][rows] = np.sum(x * cos, axis=1)
                im[k][rows] = np.sum(x * sin, axis=1)
    if draws.gd is not None:
        if not coherent:
            cos_d, sin_d = np.cos(draws.phi_d), np.sin(draws.phi_d)
        for k, (_, _, s_d) in enumerate(scales):
            hd = np.sqrt(s_d * draws.gd)
            if coherent:
                re[k] += hd
            else:
                re[k] += hd * cos_d
                im[k] += hd * sin_d
    return re if coherent else [r * r + i * i for r, i in zip(re, im)]


def _snr(base: np.ndarray, rho: float, coherent: bool) -> np.ndarray:
    return rho * base * base if coherent else rho * base


# ---------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------

def _check_run(n_trials: int, seed: int) -> None:
    if not (isinstance(n_trials, int) and n_trials >= 10_000):
        raise ValueError(f"n_trials must be an integer >= 10000, got {n_trials}")
    if not (isinstance(seed, int) and 0 <= seed <= _MASK64):
        raise ValueError("seed must be an unsigned 64-bit integer")


_MC_METRICS = ("op", "ber", "ec")


@dataclass(frozen=True)
class McQuery:
    """One simulator estimate: a config, its phase model and what to
    average over its SNR draws -- the outage indicator at ``gamma_th``
    (op), the conditional error rate of ``modulation`` (ber) or
    log2(1 + gamma) (ec)."""

    config: ScenarioConfig
    phase_model: PhaseModel
    metric: str
    gamma_th: float = 0.0
    modulation: Modulation = Modulation.BPSK

    def __post_init__(self) -> None:
        if self.metric not in _MC_METRICS:
            raise ValueError(
                f"method 'mc' is not available for metric {self.metric!r}")
        if self.metric == "op" and self.gamma_th < 0.0:
            raise ValueError("gamma_th must be nonnegative")

    def draw_key(self) -> tuple:
        """Queries with equal keys share draws: they may differ only in
        power, noise and pathloss (distances, angle, carrier, exponent),
        which reach the SNR as rho and as the Gamma scales."""
        c = self.config
        return (c.n_elements, c.m_h, c.m_g, c.m_d, c.geometry.direct_link,
                c.phase_design, self.phase_model)

    def partial(self, g: np.ndarray) -> np.ndarray:
        """This chunk's sums: the outage count, or the kernel's sum and
        sum of squares."""
        if self.metric == "op":
            return np.array([np.count_nonzero(g <= float(self.gamma_th))])
        if self.metric == "ec":
            vals = np.log1p(g) / LN2
        elif self.modulation.coherent:
            vals = 0.5 * _erfc_ufunc(
                np.sqrt(self.modulation.snr_scale * g)).astype(float)
        else:
            vals = 0.5 * np.exp(-g)
        return np.array([np.sum(vals), np.sum(vals * vals)])

    def estimate(self, total: np.ndarray, n_trials: int,
                 seed: int) -> McEstimate:
        if self.metric == "op":
            # binomial standard error
            mean = int(total[0]) / n_trials
            var = max(mean * (1.0 - mean), 0.0)
        else:
            total_sum, total_sq = total.tolist()
            mean = total_sum / n_trials
            var = max(total_sq / n_trials - mean * mean, 0.0)
        return McEstimate(value=mean, std_error=math.sqrt(var / n_trials),
                          n_trials=n_trials, seed=seed)


def _reduce(queries: Sequence[McQuery], n_trials: int,
            seed: int) -> List[np.ndarray]:
    """Each query's partial sums over the chunked streams, added in chunk
    order.  The queries share draw_key(): each chunk draws once, builds
    one SNR base per distinct Gamma scale and releases the draws, then
    applies each distinct rho once and hands that SNR to its queries."""
    first = queries[0]
    coherent = first.config.phase_design.kind == "ops"
    scales: dict = {}      # Gamma scales -> index of their base
    snrs: dict = {}        # (base index, rho) -> indices of its queries
    for q, query in enumerate(queries):
        rho, scale = _link_scales(query.config)
        base = scales.setdefault(scale, len(scales))
        snrs.setdefault((base, rho), []).append(q)
    cs = _chunk_size(first.config.n_elements)
    n_chunks = (n_trials + cs - 1) // cs

    def run(i: int) -> list:
        count = min(cs, n_trials - i * cs)
        rng = RngStream(seed, i).generator()
        draws = _draw(first.config, first.phase_model, count, rng)
        bases = _snr_bases(draws, list(scales))
        del draws
        parts = [None] * len(queries)
        for (base, rho), members in snrs.items():
            g = _snr(bases[base], rho, coherent)
            for q in members:
                parts[q] = queries[q].partial(g)
        return parts

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        chunks = list(pool.map(run, range(n_chunks)))
    totals = chunks[0]
    for parts in chunks[1:]:  # fixed order: chunk index
        totals = [total + part for total, part in zip(totals, parts)]
    return totals


def estimate_group(queries: Sequence[McQuery], n_trials: int,
                   seed: int) -> List[McEstimate]:
    """Estimates of several queries, in query order.

    Queries with the same draw_key() are one group, reduced together:
    each chunk's variates are drawn once for the whole group, so a power,
    noise or geometry sweep and all its metrics consume one sample set.
    Every estimate is bit-identical to the one its query gets alone,
    since both consume the same chunk substreams in the same order.
    """
    _check_run(n_trials, seed)
    groups: dict = {}
    for q, query in enumerate(queries):
        groups.setdefault(query.draw_key(), []).append(q)
    out: List[Optional[McEstimate]] = [None] * len(queries)
    for members in groups.values():
        totals = _reduce([queries[q] for q in members], n_trials, seed)
        for q, total in zip(members, totals):
            out[q] = queries[q].estimate(total, n_trials, seed)
    return out


def estimate_op(config: ScenarioConfig, phase_model: PhaseModel,
                gamma_th: float, n_trials: int, seed: int) -> McEstimate:
    """Outage probability: empirical CDF at gamma_th, binomial SE."""
    return estimate_group([McQuery(config, phase_model, "op", gamma_th)],
                          n_trials, seed)[0]


def estimate_ber(config: ScenarioConfig, phase_model: PhaseModel,
                 modulation: Modulation, n_trials: int, seed: int) -> McEstimate:
    """Average BER by analytic conditioning on the SNR draw."""
    return estimate_group([McQuery(config, phase_model, "ber",
                                   modulation=modulation)], n_trials, seed)[0]


def estimate_ec(config: ScenarioConfig, phase_model: PhaseModel,
                n_trials: int, seed: int) -> McEstimate:
    """Ergodic capacity: sample mean of log2(1 + gamma)."""
    return estimate_group([McQuery(config, phase_model, "ec")],
                          n_trials, seed)[0]
