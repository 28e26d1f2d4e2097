"""Seedable channel simulator and metric estimators.

Trials are generated in fixed-size chunks, each fed by its own SFC64
substream seeded by SeedSequence(seed, spawn_key=(chunk index,)).  Chunk
boundaries depend only on the element count and the trial total, and
partial sums are reduced in chunk order, so every estimate is
bit-identical for any thread count or scheduling.

Every estimate runs through one grouped reduction (`estimate_group`).
Queries with the same element count and hop shapes (N, m_h, m_g) form
one group: each chunk draws their hop variates once and forms each
element's unit-scale amplitude once, whatever the phase design or direct
path.  Within a group, queries whose configs differ only in transmit
power, noise or pathloss share all their draws: these reach the SNR only
as rho and as the Gamma scales omega/m, so the elements are summed once
at unit scale and each distinct scale multiplies the per-trial sums.
Every query reads exactly the stream it reads alone, so a grouped
estimate is bit-identical to the same query run alone.  The
single-metric `estimate_*` functions are groups of one.

The config's phase design is the only phase input.  Random phase
shifting draws every residual phase uniform on [0, 2pi): in Eq. (2),
phi = theta_h + theta_g - theta_n is uniform whenever the applied
theta_n is, whatever the hop phase laws, so the hop phases are never
drawn.  A b-bit quantized design leaves each element the sum of two hop
errors uniform on [-pi/2^b, pi/2^b) and co-phases the direct path;
optimal phases draw none.

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
    """One platform-stable substream: SFC64 seeded by the SeedSequence of
    ``seed`` spawned at key (stream_id,), so distinct ids give
    independent streams."""

    seed: int
    stream_id: int

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (isinstance(v, int) and 0 <= v <= _MASK64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))))


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
# channel draws
# ---------------------------------------------------------------------

# elements per row block: bounds the temporaries of a chunk's draws and
# sums
_BASE_BLOCK = 1 << 15


def _row_blocks(count: int, n: int) -> List[slice]:
    """The row blocks of a (count, n) chunk, in row order."""
    step = max(1, _BASE_BLOCK // n)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _hop_amplitudes(config: ScenarioConfig, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``count`` trials of unit-scale cascade amplitudes sqrt(gh * gg),
    shape (count, n), from standard Gamma power draws of hop h then hop
    g.  These are the first draws of every chunk, so every config with
    the same N, m_h and m_g reads the same ones.  Scaled by sqrt(s_h) *
    sqrt(s_g), they are the cascade amplitudes of hops with Gamma scales
    s_h and s_g, so one draw serves every distance.  Hop g is drawn one
    row block at a time into hop h's array: the blocks read the stream
    a whole-array draw reads, so only hop h is held whole."""
    n = config.n_elements
    gh = rng.standard_gamma(config.m_h, (count, n))
    for rows in _row_blocks(count, n):
        block = gh[rows]
        block *= rng.standard_gamma(config.m_g, block.shape)
    return np.sqrt(gh, out=gh)


def _phase_draws(config: ScenarioConfig, amp: np.ndarray,
                 rng: np.random.Generator):
    """The element phases that follow the hop draws of ``amp``, as a
    function of a row block that draws them when the blocks are asked
    for in row order; None for co-phased elements.  Random phase
    shifting draws each block uniform on [0, 2pi).  A quantized design
    sums two hop errors uniform on [-pi/2^b, pi/2^b): eps_h is drawn
    whole, and each block adds its eps_g in place."""
    kind = config.phase_design.kind
    if kind == "ops":
        return None
    if kind == "rps":
        return lambda rows: rng.uniform(0.0, 2.0 * math.pi, amp[rows].shape)
    half = math.pi / 2.0 ** config.phase_design.bits
    eps = rng.uniform(-half, half, amp.shape)

    def block(rows: slice) -> np.ndarray:
        phi = eps[rows]
        phi += rng.uniform(-half, half, phi.shape)
        return phi
    return block


def _element_sums(amp: np.ndarray, phases) -> tuple:
    """The per-trial sums of the unit-scale elements: the amplitude sum
    for co-phased elements (``phases`` None), else the sums of amp *
    cos(phi) and amp * sin(phi).  ``phases(rows)`` gives the phases of a
    row block (the caller may keep or overwrite the array it returns);
    it is asked once per block, in row order, and each block takes its
    cosine and sine once.  A row's sum is the same in any block."""
    count, n = amp.shape
    if phases is None:
        return np.sum(amp, axis=1), None
    re, im = np.empty(count), np.empty(count)
    for rows in _row_blocks(count, n):
        a, phi = amp[rows], phases(rows)
        cos = np.cos(phi)
        re[rows] = np.sum(np.multiply(cos, a, out=cos), axis=1)
        sin = np.sin(phi, out=phi)
        im[rows] = np.sum(np.multiply(sin, a, out=sin), axis=1)
    return re, im


def _direct_draws(config: ScenarioConfig, count: int,
                  rng: np.random.Generator) -> Optional[tuple]:
    """The direct path's standard Gamma power draws (count,) and its
    phases (None when co-phased with coherent elements), or None without
    a direct path.  The quantized design co-phases the direct term at
    the detector."""
    if not config.geometry.direct_link:
        return None
    gd = rng.standard_gamma(config.m_d, count)
    kind = config.phase_design.kind
    if kind == "ops":
        return gd, None
    if kind == "rps":
        return gd, rng.uniform(0.0, 2.0 * math.pi, count)
    return gd, np.zeros(count)


def _link_scales(config: ScenarioConfig) -> tuple:
    """(rho, Gamma scales omega/m of the h hop, g hop and direct path)."""
    rho, element, direct = link_parts(config)
    return rho, (element.hop_h.lambda_n, element.hop_g.lambda_n,
                 None if direct is None else direct.lambda_n)


def _snr_bases(sums: tuple, direct: Optional[tuple],
               scales: Sequence[tuple]) -> List[np.ndarray]:
    """Per set of Gamma scales (s_h, s_g, s_d), the SNR over rho before
    its last multiply, from the unit-scale `_element_sums` and
    `_direct_draws`: the received amplitude for co-phased elements (SNR
    = rho * amp * amp), else the received power re^2 + im^2 (SNR = rho *
    power).  Each set of scales multiplies the per-trial sums: sqrt(s_h)
    * sqrt(s_g) the element sums and sqrt(s_d) the direct term."""
    re, im = sums
    coherent = im is None
    re_d = im_d = None
    if direct is not None:
        gd, phi_d = direct
        hd = np.sqrt(gd)
        re_d = hd if coherent else hd * np.cos(phi_d)
        im_d = None if coherent else hd * np.sin(phi_d)

    def scaled(elements, term, c, c_d):
        out = c * elements
        if term is not None:
            out += c_d * term
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


def _draw_bases(config: ScenarioConfig, amp: np.ndarray,
                rng: np.random.Generator,
                scales: Sequence[tuple]) -> List[np.ndarray]:
    """The `_snr_bases` of the variates that follow the hop draws of
    ``amp``.  Draw order is part of the determinism contract: hop powers
    h then g, then the design's element phases, then the direct path's
    power and phase."""
    sums = _element_sums(amp, _phase_draws(config, amp, rng))
    return _snr_bases(sums, _direct_draws(config, len(amp), rng), scales)


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
    """One simulator estimate: a config and what to average over its SNR
    draws -- the outage indicator at ``gamma_th`` (op), the conditional
    error rate of ``modulation`` (ber) or log2(1 + gamma) (ec).  The
    config's phase design picks the phases drawn."""

    config: ScenarioConfig
    metric: str
    gamma_th: float = 0.0
    modulation: Modulation = Modulation.BPSK

    def __post_init__(self) -> None:
        if self.metric not in _MC_METRICS:
            raise ValueError(
                f"method 'mc' is not available for metric {self.metric!r}")
        if self.metric == "op" and not self.gamma_th >= 0.0:
            raise ValueError(
                f"gamma_th must be nonnegative, got {self.gamma_th!r}")

    def draw_key(self) -> tuple:
        """Queries with equal keys share draws: they may differ only in
        power, noise and pathloss (distances, angle, carrier, exponent),
        which reach the SNR as rho and as the Gamma scales."""
        c = self.config
        return (c.n_elements, c.m_h, c.m_g, c.m_d, c.geometry.direct_link,
                c.phase_design)

    def partial(self, g: np.ndarray) -> np.ndarray:
        """This chunk's sums: the outage count, or the kernel's sum and
        sum of squares."""
        if self.metric == "op":
            return np.array([np.count_nonzero(g <= float(self.gamma_th))])
        if self.metric == "ec":
            vals = np.log1p(g) / LN2
        elif self.modulation.coherent:
            vals = 0.5 * erfc(np.sqrt(self.modulation.q * g))
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
    """Queries of one draw_key(): the config they draw with, their
    distinct Gamma scales (each mapped to the index of its SNR base), and
    the query indices per (base index, rho)."""

    config: ScenarioConfig
    scales: dict
    snrs: dict


def _subgroups(queries: Sequence[McQuery]) -> List[_Subgroup]:
    subs: dict = {}
    for q, query in enumerate(queries):
        sub = subs.setdefault(query.draw_key(),
                              _Subgroup(query.config, {}, {}))
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
            bases = _draw_bases(sub.config, amp, rng, list(sub.scales))
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
    phase designs and direct paths, and queries with the same draw_key()
    share every draw, so a power, noise or geometry sweep and all its
    metrics consume one sample set.  Every estimate is
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


# one-query groups; the CLI never calls them, but the benchmark tracer
# (perfbench/tracer.py) wraps them by name
def estimate_op(config: ScenarioConfig, gamma_th: float, n_trials: int,
                seed: int) -> McEstimate:
    """Outage probability: empirical CDF at gamma_th, binomial SE."""
    return estimate_group([McQuery(config, "op", gamma_th)], n_trials,
                          seed)[0]


def estimate_ber(config: ScenarioConfig, modulation: Modulation,
                 n_trials: int, seed: int) -> McEstimate:
    """Average BER by analytic conditioning on the SNR draw."""
    return estimate_group([McQuery(config, "ber", modulation=modulation)],
                          n_trials, seed)[0]


def estimate_ec(config: ScenarioConfig, n_trials: int,
                seed: int) -> McEstimate:
    """Ergodic capacity: sample mean of log2(1 + gamma)."""
    return estimate_group([McQuery(config, "ec")], n_trials, seed)[0]
