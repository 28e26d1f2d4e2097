"""Seedable channel simulator and metric estimators.

Trials are generated in fixed-size chunks, each fed by its own
counter-based Philox substream keyed by (seed, chunk index).  Chunk
boundaries depend only on the element count and the trial total, and
partial sums are reduced in chunk order, so every estimate is
bit-identical for any thread count or scheduling.

Every estimate runs through one grouped reduction (`estimate_group`).
Queries with the same element count and hop shapes (N, m_h, m_g) form
one group: each chunk draws their hop variates once and forms each
element's unit-scale amplitude once, whatever the phase design, phase
model or direct path.  Within a group, queries whose configs differ only
in transmit power, noise or pathloss share all their draws: these reach
the SNR only as rho and as the Gamma scales omega/m, so the elements are
summed once at unit scale and each distinct scale multiplies the
per-trial sums.  Every query reads exactly the stream it reads alone, so
a grouped estimate is bit-identical to the same query run alone.  The
single-metric `estimate_*` functions are groups of one.

BER estimators average the conditional error kernel over SNR draws
instead of counting bit decisions, which reaches deep-tail error rates
at feasible trial counts.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .numerics import erfc
from .rps import LN2, Modulation
from .scenario import ScenarioConfig, link_parts

_MASK64 = (1 << 64) - 1
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)
# RISLINK_THREADS is clamped to this, so no value of it can ask for more
# operating-system threads
_MAX_THREADS = 64
# chunks in flight per simulator thread: bounds the memory of a long run
_WINDOW = 4


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
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
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


def _hop_amplitudes(config: ScenarioConfig, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``count`` trials of unit-scale cascade amplitudes sqrt(gh * gg),
    shape (count, n), from standard Gamma power draws of hop h then hop
    g.  These are the first draws of every chunk, so every config with
    the same N, m_h and m_g reads the same ones.  Scaled by sqrt(s_h) *
    sqrt(s_g), they are the cascade amplitudes of hops with Gamma scales
    s_h and s_g, so one draw serves every distance."""
    n = config.n_elements
    gh = rng.standard_gamma(config.m_h, (count, n))
    gg = rng.standard_gamma(config.m_g, (count, n))
    np.multiply(gh, gg, out=gh)
    return np.sqrt(gh, out=gh)


class _Draws(NamedTuple):
    """One chunk's variates at unit scale, shared by every config of a
    draw_key(): the cascade amplitudes (count, n), the residual phases
    (None where the design draws none), and the standard Gamma power
    draws of the direct path (count,) with its phases."""

    amp: np.ndarray
    phi: Optional[np.ndarray]
    gd: Optional[np.ndarray]
    phi_d: Optional[np.ndarray]


def _draw(config: ScenarioConfig, model: PhaseModel, amp: np.ndarray,
          rng: np.random.Generator) -> _Draws:
    """The variates that follow the hop draws of ``amp``.  Draw order is
    part of the determinism contract: hop powers h then g, then
    design-specific phases, then the direct-path draws."""
    count, n = amp.shape
    direct = config.geometry.direct_link
    if config.phase_design.kind == "ops":
        gd = rng.standard_gamma(config.m_d, count) if direct else None
        return _Draws(amp, None, gd, None)
    phi = _element_phases(config, model, (count, n), rng)
    gd = phi_d = None
    if direct:
        gd = rng.standard_gamma(config.m_d, count)
        phi_d = _direct_phases(config, model, count, rng)
    return _Draws(amp, phi, gd, phi_d)


def _link_scales(config: ScenarioConfig) -> tuple:
    """(rho, Gamma scales omega/m of the h hop, g hop and direct path)."""
    d, element, direct = link_parts(config)
    return d.rho, (element.hop_h.omega / element.hop_h.m,
                   element.hop_g.omega / element.hop_g.m,
                   None if direct is None else direct.omega / direct.m)


# elements per row block of _snr_bases: bounds its temporaries
_BASE_BLOCK = 1 << 15


def _snr_bases(draws: _Draws, scales: Sequence[tuple]) -> List[np.ndarray]:
    """Per set of Gamma scales (s_h, s_g, s_d), the SNR over rho before
    its last multiply: the received amplitude for co-phased elements
    (SNR = rho * amp * amp), else the received power re^2 + im^2 (SNR =
    rho * power).  The elements are summed once, at unit scale; random
    phases are summed in row blocks that take the cosine and sine of
    their phases once, and a row's sum is the same in any block.  Each
    set of scales then multiplies the per-trial sums: sqrt(s_h) *
    sqrt(s_g) the element sums and sqrt(s_d) the direct term.
    Overwrites the element phases with their sines."""
    count, n = draws.amp.shape
    coherent = draws.phi is None
    if coherent:
        re, im = np.sum(draws.amp, axis=1), None
    else:
        re, im = np.empty(count), np.empty(count)
        step = max(1, _BASE_BLOCK // n)
        for lo in range(0, count, step):
            rows = slice(lo, lo + step)
            amp, phi = draws.amp[rows], draws.phi[rows]
            cos = np.cos(phi)
            re[rows] = np.sum(np.multiply(cos, amp, out=cos), axis=1)
            sin = np.sin(phi, out=phi)
            im[rows] = np.sum(np.multiply(sin, amp, out=sin), axis=1)
    re_d = im_d = None
    if draws.gd is not None:
        hd = np.sqrt(draws.gd)
        re_d = hd if coherent else hd * np.cos(draws.phi_d)
        im_d = None if coherent else hd * np.sin(draws.phi_d)

    def scaled(elements, direct, c, c_d):
        out = c * elements
        if direct is not None:
            out += c_d * direct
        return out

    bases = []
    for s_h, s_g, s_d in scales:
        c = math.sqrt(s_h) * math.sqrt(s_g)
        c_d = None if s_d is None else math.sqrt(s_d)
        r = scaled(re, re_d, c, c_d)
        if coherent:
            bases.append(r)
        else:
            i = scaled(im, im_d, c, c_d)
            bases.append(r * r + i * i)
    return bases


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
            vals = 0.5 * erfc(np.sqrt(self.modulation.snr_scale * g))
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


class _Subgroup(NamedTuple):
    """Queries of one draw_key(): the config and phase model they draw
    with, their distinct Gamma scales (each mapped to the index of its
    SNR base), and the query indices per (base index, rho)."""

    config: ScenarioConfig
    phase_model: PhaseModel
    scales: dict
    snrs: dict


def _subgroups(queries: Sequence[McQuery]) -> List[_Subgroup]:
    subs: dict = {}
    for q, query in enumerate(queries):
        sub = subs.setdefault(query.draw_key(), _Subgroup(
            query.config, query.phase_model, {}, {}))
        rho, scale = _link_scales(query.config)
        base = sub.scales.setdefault(scale, len(sub.scales))
        sub.snrs.setdefault((base, rho), []).append(q)
    return list(subs.values())


def _in_order(pool: ThreadPoolExecutor, fn, count: int, window: int):
    """fn(0), ..., fn(count - 1) run on the pool and yielded in index
    order, with at most ``window`` of them submitted and not yet
    yielded."""
    pending: deque = deque()
    for i in range(count):
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, i))
    while pending:
        yield pending.popleft().result()


def _reduce(queries: Sequence[McQuery], n_trials: int,
            seed: int) -> List[np.ndarray]:
    """Each query's partial sums over the chunked streams, added in chunk
    order.  The queries share (N, m_h, m_g): each chunk draws the hops
    and forms the unit-scale amplitudes once, then every draw_key()
    subgroup rewinds the stream to just after the hop draws, draws its
    own phases and direct path, builds one SNR base per distinct Gamma
    scale, and applies each distinct rho once for its queries."""
    subs = _subgroups(queries)
    first = queries[0].config
    cs = _chunk_size(first.n_elements)
    n_chunks = (n_trials + cs - 1) // cs

    def run(i: int) -> list:
        count = min(cs, n_trials - i * cs)
        rng = RngStream(seed, i).generator()
        amp = _hop_amplitudes(first, count, rng)
        after_hops = rng.bit_generator.state
        parts = [None] * len(queries)
        for sub in subs:
            rng.bit_generator.state = after_hops
            coherent = sub.config.phase_design.kind == "ops"
            bases = _snr_bases(_draw(sub.config, sub.phase_model, amp, rng),
                               list(sub.scales))
            for (base, rho), members in sub.snrs.items():
                g = _snr(bases[base], rho, coherent)
                for q in members:
                    parts[q] = queries[q].partial(g)
        return parts

    threads = _thread_count()
    totals = None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # fixed order: chunk index
        for parts in _in_order(pool, run, n_chunks, _WINDOW * threads):
            totals = parts if totals is None else [
                total + part for total, part in zip(totals, parts)]
    return totals


def estimate_group(queries: Sequence[McQuery], n_trials: int,
                   seed: int) -> List[McEstimate]:
    """Estimates of several queries, in query order.

    Queries with the same N, m_h and m_g are one group, reduced together:
    each chunk's hop variates are drawn once for the whole group, across
    phase designs, phase models and direct paths, and queries with the
    same draw_key() share every draw, so a power, noise or geometry
    sweep and all its metrics consume one sample set.  Every estimate is
    bit-identical to the one its query gets alone, since both consume
    the same chunk substreams in the same order.
    """
    _check_run(n_trials, seed)
    groups: dict = {}
    for q, query in enumerate(queries):
        c = query.config
        groups.setdefault((c.n_elements, c.m_h, c.m_g), []).append(q)
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
