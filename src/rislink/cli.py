"""Command-line front end for link-metric tables.

Single evaluations, parameter sweeps, and the three bundled figure
presets all emit one CSV schema (param,value,metric,method,estimate,
std_error); `validate` prints a side-by-side exact/asymptotic/MC report
with z-scores.  Exit codes: 0 ok, 1 usage or config error, 2 numerical
failure in at least one row, 3 validation z-score breach.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, TextIO

# The simulator's RISLINK_THREADS pool is the only parallel work the
# program does, and no matrix product it runs is large enough to gain
# from more BLAS threads; but OpenBLAS starts a worker per extra CPU when
# numpy loads, and the worker spins before it sleeps.  So BLAS runs on
# the calling thread unless the caller's environment says otherwise.
# This must run before the first numpy import: the package's exports load
# lazily, so `python -m rislink.cli` reaches it first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import asymptotic as la
from . import montecarlo as mc
from . import ops, rps
from .rps import Modulation
from .scenario import (DoubleNakagami, NakagamiParams, ScenarioConfig,
                       config_from_mapping, link_parts, ricean_k_to_m)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

MAX_SWEEP_STEPS = 1000
MAX_TRIALS = 10 ** 9

_METRICS = ("op", "ber", "ec")
_METHOD_ORDER = ("exact", "asymptotic", "mc")
_MODULATIONS = tuple(mod.label for mod in Modulation)
_CSV_HEADER = "param,value,metric,method,estimate,std_error"


class CliError(Exception):
    """Usage or configuration problem: reported on stderr, exit 1."""


# ---------------------------------------------------------------------
# config files and sweeps
# ---------------------------------------------------------------------

def read_config_mapping(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; duplicates rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    mapping: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in mapping:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    if not mapping:
        raise CliError(f"{path}: empty config")
    return mapping


def build_config(mapping: dict, path: str = "<config>") -> ScenarioConfig:
    try:
        return config_from_mapping(mapping)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


_INT_FIELDS = ("n_elements", "quantizer_bits")


@dataclass(frozen=True)
class Sweep:
    key: str
    values: tuple


def parse_sweep(text: str) -> Sweep:
    """``key=start:stop:steps[:log]`` -> ascending numeric grid."""
    key, eq, rhs = text.partition("=")
    key = key.strip()
    parts = rhs.split(":")
    if not eq or not key or len(parts) not in (3, 4):
        raise CliError(f"bad --sweep {text!r}: expected key=start:stop:steps[:log]")
    if len(parts) == 4 and parts[3] != "log":
        raise CliError(f"bad --sweep {text!r}: trailing token must be 'log'")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise CliError(f"bad --sweep {text!r}: start/stop numeric, steps integer")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CliError(f"bad --sweep {text!r}: start and stop must be finite")
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise CliError(f"bad --sweep {text!r}: steps must be in "
                       f"[1, {MAX_SWEEP_STEPS}]")
    if len(parts) == 4:
        if start <= 0.0 or stop <= 0.0:
            raise CliError(f"bad --sweep {text!r}: log sweeps need positive "
                           "endpoints")
        values = np.geomspace(start, stop, steps)
    else:
        values = np.linspace(start, stop, steps)
    vals = sorted(float(v) for v in values)
    if key in _INT_FIELDS:
        vals = [float(round(v)) if abs(v - round(v)) < 1e-9 * max(1.0, abs(v))
                else v for v in vals]
    return Sweep(key=key, values=tuple(vals))


# ---------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _transform(kind, element: DoubleNakagami, n: int,
               direct: Optional[NakagamiParams]):
    """One transform object per (kind, element, N, direct path).  A power
    sweep changes only rho, so its rows share one object and the
    quantities it derives once (moments, probes, tables)."""
    return kind(element, n, direct)


class _Link(NamedTuple):
    """A scenario as the analytic engines read it: its link_parts, with
    the transform and large-N models built from them.  This is the only
    place a config becomes a transform or a large-N model."""

    config: ScenarioConfig
    rho: float
    element: DoubleNakagami
    direct: Optional[NakagamiParams]

    def hankel(self) -> rps.HankelProduct:
        return _transform(rps.HankelProduct, self.element,
                          self.config.n_elements, self.direct)

    def chf(self) -> ops.AmplitudeChf:
        return _transform(ops.AmplitudeChf, self.element,
                          self.config.n_elements, self.direct)

    def largen(self, model):
        return model.from_element(self.element, self.config.n_elements,
                                  self.rho)


def _ec(link: _Link, gamma_th: float, modulation: Modulation) -> float:
    """Two-moment capacity approximation, one rule for every design; rps
    and ops read the moments their transform keeps."""
    design = link.config.phase_design
    transform = link.chf() if design.kind == "ops" else link.hankel()
    _, mean_sq, fourth = (transform.moments if design == transform.design
                          else rps.phasor_moments(transform.paths, design))
    return rps.ec_taylor(link.rho * mean_sq, link.rho ** 2 * fourth)


# (design, metric, method) -> (engine, RIS sum only).  An engine maps
# (link, gamma_th, modulation) to the metric value; a "RIS sum only"
# engine has no direct-path term, so it is not offered when the scenario
# has one.  The simulator ("mc") covers every combination.
_ENGINES = {
    ("rps", "op", "exact"): (
        lambda link, th, mod: rps.gamma_r_cdf(link.hankel(), th, link.rho),
        False),
    ("rps", "ber", "exact"): (
        lambda link, th, mod: rps.ber_rps(link.hankel(), link.rho, mod), False),
    ("rps", "ec", "exact"): (_ec, False),
    ("ops", "op", "exact"): (
        lambda link, th, mod: ops.gamma_c_cdf(link.chf(), th, link.rho),
        False),
    ("ops", "ber", "exact"): (
        lambda link, th, mod: ops.ber_ops(link.chf(), link.rho, mod), False),
    ("ops", "ec", "exact"): (_ec, False),
    ("quantized", "ec", "exact"): (_ec, True),
    ("rps", "op", "asymptotic"): (
        lambda link, th, mod: la.largen_rps_cdf(link.largen(la.LargeNRps), th),
        True),
    ("rps", "ber", "asymptotic"): (
        lambda link, th, mod: la.largen_rps_ber(link.largen(la.LargeNRps), mod),
        True),
    ("rps", "ec", "asymptotic"): (
        lambda link, th, mod: la.largen_rps_ec(link.largen(la.LargeNRps)), True),
    ("ops", "op", "asymptotic"): (
        lambda link, th, mod: la.largen_ops_cdf(link.largen(la.LargeNOps), th),
        True),
}


def _unavailable(config: ScenarioConfig, metric: str, method: str) -> str:
    return (f"method {method!r} is not available for metric {metric!r} with "
            f"phase design {config.phase_design.kind!r}"
            + (" and a direct link" if config.geometry.direct_link else ""))


def _engine(config: ScenarioConfig, metric: str, method: str):
    """The table's engine for this scenario, or None when it lists none."""
    engine, ris_only = _ENGINES.get(
        (config.phase_design.kind, metric, method), (None, False))
    return None if ris_only and config.geometry.direct_link else engine


def supported_methods(config: ScenarioConfig, metric: str) -> tuple:
    """Analytic coverage from the engine table; mc covers everything."""
    if metric not in _METRICS:
        raise CliError(f"unknown metric {metric!r}")
    return tuple(m for m in _METHOD_ORDER
                 if m == "mc" or _engine(config, metric, m) is not None)


def _analytic_value(method: str, config: ScenarioConfig, metric: str,
                    gamma_th: float, modulation: Modulation,
                    lam_scale: float) -> float:
    engine = _engine(config, metric, method)
    if engine is None:
        raise ValueError(_unavailable(config, metric, method))
    return engine(_Link(config, *link_parts(config, lam_scale)), gamma_th,
                  modulation)


def exact_value(config: ScenarioConfig, metric: str, gamma_th: float,
                modulation: Modulation, lam_scale: float = 1.0) -> float:
    return _analytic_value("exact", config, metric, gamma_th, modulation,
                           lam_scale)


def asymptotic_value(config: ScenarioConfig, metric: str, gamma_th: float,
                     modulation: Modulation, lam_scale: float = 1.0) -> float:
    return _analytic_value("asymptotic", config, metric, gamma_th,
                           modulation, lam_scale)


def mc_value(config: ScenarioConfig, metric: str, gamma_th: float,
             modulation: Modulation, trials: int, seed: int) -> mc.McEstimate:
    query = mc.McQuery(config, metric, gamma_th, modulation)
    return mc.estimate_group([query], trials, seed)[0]


# ---------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class RowSpec:
    param: str
    x: float
    config: ScenarioConfig
    metric: str
    method: str


@dataclass(frozen=True)
class Row:
    param: str
    x: float
    metric: str
    method: str
    estimate: Optional[float]
    std_error: Optional[float]


def _g17(v: float) -> str:
    return "%.17g" % v


def compute_rows(specs: Sequence[RowSpec], gamma_th: float,
                 modulation: Modulation, trials: int, seed: int,
                 lam_scale: float = 1.0) -> List[Row]:
    """Evaluate row specs on the calling thread, in spec order.  Every
    simulator row goes to the simulator in one call (which fills its own
    chunk pool), so rows with the same N and hop shapes share their hop
    draws, and rows whose configs differ only in power, noise or
    pathloss share all their draws.  Exact and asymptotic rows then run
    one after another, with the cascade spread scaled by ``lam_scale``.
    A numerical failure becomes a None estimate rather than aborting the
    table; in the simulator it fails every simulator row."""
    sims = [spec for spec in specs if spec.method == "mc"]
    try:
        ests = iter(mc.estimate_group(
            [mc.McQuery(spec.config, spec.metric, gamma_th, modulation)
             for spec in sims], trials, seed) if sims else [])
    except (ValueError, ArithmeticError):
        ests = iter([None] * len(sims))
    rows = []
    for spec in specs:
        value = se = None
        if spec.method == "mc":
            est = next(ests)
            if est is not None:
                value, se = est.value, est.std_error
        else:
            engine = (exact_value if spec.method == "exact"
                      else asymptotic_value)
            try:
                value = engine(spec.config, spec.metric, gamma_th,
                               modulation, lam_scale)
            except (ValueError, ArithmeticError):
                pass
        rows.append(Row(spec.param, spec.x, spec.metric, spec.method, value,
                        se))
    return rows


def write_table(rows: Sequence[Row], stream: TextIO) -> bool:
    """Emit the CSV; returns True when every row succeeded."""
    ok = True
    stream.write(_CSV_HEADER + "\n")
    for r in rows:
        if r.estimate is None:
            est, se = "error", ""
            ok = False
        else:
            est = _g17(r.estimate)
            se = "" if r.std_error is None else _g17(r.std_error)
        stream.write(f"{r.param},{_g17(r.x)},{r.metric},{r.method},{est},{se}\n")
    return ok


# ---------------------------------------------------------------------
# metric command
# ---------------------------------------------------------------------

def _threshold(args, default_db: float = 0.0) -> float:
    """The linear outage threshold 10^(x/10) of --gamma-th-db, or of
    ``default_db`` when it is not given; inf where that overflows."""
    x = default_db if args.gamma_th_db is None else args.gamma_th_db
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        return math.inf


def _check_run_args(args) -> None:
    if not 10_000 <= args.trials <= MAX_TRIALS:
        raise CliError(f"--trials must be in [10000, {MAX_TRIALS}]")
    if not 0 <= args.seed < 2 ** 64:
        raise CliError("--seed must be an unsigned 64-bit integer")
    if args.gamma_th_db is not None and not 0.0 < _threshold(args) < math.inf:
        raise CliError("--gamma-th-db must be a number x whose threshold "
                       "10^(x/10) is finite and positive")
    try:
        mc._thread_count()
    except ValueError as exc:
        raise CliError(str(exc))


def _resolve_methods(config: ScenarioConfig, metric: str, method) -> tuple:
    """``method`` is "all", one method name, or a tuple of names; each
    name asked for must be available.  Methods come in table order."""
    avail = supported_methods(config, metric)
    if method == "all":
        return avail
    wanted = (method,) if isinstance(method, str) else method
    for use in wanted:
        if use not in avail:
            raise CliError(_unavailable(config, metric, use))
    return tuple(use for use in avail if use in wanted)


def _specs_for_curve(param: str, points: Sequence, metrics: Sequence[str],
                     method) -> List[RowSpec]:
    return [RowSpec(param, x, config, metric, use)
            for x, config in points for metric in metrics
            for use in _resolve_methods(config, metric, method)]


def _check_writable(path: Optional[str]) -> None:
    """Fail early on an unwritable output file; None stands for stdout."""
    try:
        if path is not None:
            open(path, "a", encoding="utf-8").close()  # keeps its contents
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}")


def cmd_metric(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise CliError("metric needs exactly one of --config or --preset")
    _check_run_args(args)
    modulation = Modulation.from_label(args.modulation or "bpsk")
    if args.preset:
        if args.sweep:
            raise CliError("--sweep does not apply to presets")
        if args.metric:
            raise CliError("--metric does not apply to presets")
        if args.method != "all":
            raise CliError("--method does not apply to presets")
        if not args.out:
            raise CliError("presets need --out as a file prefix")
        return _run_preset(args, modulation)

    mapping = read_config_mapping(args.config)
    base = build_config(mapping, args.config)
    gamma_th = _threshold(args)
    metrics = (args.metric,) if args.metric else _METRICS

    if args.sweep:
        sweep = parse_sweep(args.sweep)
        points = []
        for x in sweep.values:
            patched = dict(mapping)
            patched[sweep.key] = repr(x)
            points.append((x, build_config(patched, args.config)))
        param = sweep.key
    else:
        points = [(base.tx_power_dbm, base)]
        param = "tx_power_dbm"

    specs = _specs_for_curve(param, points, metrics, args.method)
    _check_writable(args.out)
    rows = compute_rows(specs, gamma_th, modulation, args.trials, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            ok = write_table(rows, fh)
    else:
        ok = write_table(rows, sys.stdout)
    return EXIT_OK if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------

_M_LOS = ricean_k_to_m(10.0)


def _base_mapping(**overrides) -> dict:
    base = {
        "carrier_hz": "2.45e9", "alpha": "2.5", "noise_dbm": "-85",
        "m_h": repr(_M_LOS), "m_g": repr(_M_LOS),
        "r_h": "20", "r_g": "20", "psi_deg": "86",
        "direct_link": "false", "phase_design": "rps",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    return base


def _preset_curves(name: str):
    """(gamma_th_db, curves): the preset's outage threshold and, per
    curve, (suffix, param, points, metrics, method)."""
    curves = []
    if name == "fig1":
        powers = [float(p) for p in range(-10, 31, 2)]
        for n in (16, 64, 256):
            points = [(p, build_config(_base_mapping(
                n_elements=n, tx_power_dbm=p))) for p in powers]
            curves.append((f"fig1_N{n}", "tx_power_dbm", points,
                           ("op", "ec"), "all"))
        return -30.0, curves
    if name == "fig2":
        powers = [float(p) for p in range(-10, 31, 2)]
        for design in ("rps", "ops"):
            for direct in (False, True):
                for n in (4, 16):
                    over = {"n_elements": n, "phase_design": design,
                            "m_h": 1.5, "m_g": 2.5}
                    if direct:
                        over.update(direct_link="true", m_d=1.5)
                    points = [(p, build_config(_base_mapping(
                        tx_power_dbm=p, **over))) for p in powers]
                    tag = "direct" if direct else "nodirect"
                    curves.append((f"fig2_{design}_{tag}_N{n}",
                                   "tx_power_dbm", points, ("ber",),
                                   ("exact", "mc")))
        return 0.0, curves
    if name == "fig3":
        for design in ("rps", "quantized", "ops"):
            for n in (64, 320):
                points = []
                for r_h in range(25, 80, 5):
                    over = {"n_elements": n, "phase_design": design,
                            "tx_power_dbm": 46.0, "r_h": r_h,
                            "r_g": 100.0 - r_h}
                    if design == "quantized":
                        over["quantizer_bits"] = 2
                    points.append((float(r_h),
                                   build_config(_base_mapping(**over))))
                curves.append((f"fig3_{design}_N{n}", "r_h", points,
                               ("ec",), ("exact", "mc")))
        return 0.0, curves
    raise CliError(f"unknown preset {name!r}")


def _run_preset(args, modulation: Modulation) -> int:
    """All curves of a preset go to one compute_rows call, so the
    simulator shares hop draws across them; the rows are then written
    one CSV per curve."""
    th_db, curves = _preset_curves(args.preset)
    preset_metrics = {metric for curve in curves for metric in curve[3]}
    for flag, given, metric in (
            ("--gamma-th-db", args.gamma_th_db, "op"),
            ("--modulation", args.modulation, "ber")):
        if given is not None and metric not in preset_metrics:
            raise CliError(f"{flag} does not apply to preset {args.preset}, "
                           f"which has no {metric} curve")
    for curve in curves:
        _check_writable(f"{args.out}_{curve[0]}.csv")
    per_curve = [_specs_for_curve(param, points, metrics, method)
                 for _, param, points, metrics, method in curves]
    rows = iter(compute_rows([spec for specs in per_curve for spec in specs],
                             _threshold(args, th_db), modulation,
                             args.trials, args.seed))
    status = EXIT_OK
    for (suffix, *_), specs in zip(curves, per_curve):
        path = f"{args.out}_{suffix}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if not write_table([next(rows) for _ in specs], fh):
                status = EXIT_NUMERIC
        print(f"wrote {path}", file=sys.stderr)
    return status


# ---------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------

def cmd_validate(args) -> int:
    _check_run_args(args)
    if not 0.0 < args.lambda_scale < math.inf:
        raise CliError("--lambda-scale must be positive and finite")
    mapping = read_config_mapping(args.config)
    config = build_config(mapping, args.config)
    modulation = Modulation.from_label(args.modulation)
    gamma_th = _threshold(args)

    _check_writable(args.out)

    # one compute_rows call, so the three simulator estimates share one
    # sample set
    rows = compute_rows(
        [RowSpec("tx_power_dbm", config.tx_power_dbm, config, metric, method)
         for metric in _METRICS
         for method in supported_methods(config, metric)],
        gamma_th, modulation, args.trials, args.seed,
        lam_scale=args.lambda_scale)
    lines = ["metric,method,estimate,std_error,z_score,status"]
    any_numeric = False
    any_fail = False
    for metric in _METRICS:
        # mc comes last in method order
        *analytic, sim = (row for row in rows if row.metric == metric)
        if sim.estimate is None:
            any_numeric = True
            lines.append(f"{metric},mc,error,,,error")
            continue
        se_floor = sim.std_error
        if metric == "op" and se_floor == 0.0:
            # degenerate binomial sample: rule-of-succession floor
            q = (sim.estimate * args.trials + 1.0) / (args.trials + 2.0)
            se_floor = math.sqrt(q * (1.0 - q) / args.trials)
        lines.append(f"{metric},mc,{_g17(sim.estimate)},"
                     f"{_g17(sim.std_error)},,ok")
        for row in analytic:
            if row.estimate is None:
                any_numeric = True
                lines.append(f"{metric},{row.method},error,,,error")
                continue
            diff = row.estimate - sim.estimate
            # with no spread to scale by, only exact agreement scores 0
            z = (diff / se_floor if se_floor > 0.0
                 else 0.0 if diff == 0.0 else math.inf)
            if row.method == "asymptotic":
                status = "info"
            elif abs(z) > 4.0:
                status = "fail"
                any_fail = True
            else:
                status = "ok"
            lines.append(f"{metric},{row.method},{_g17(row.estimate)},,"
                         f"{_g17(z)},{status}")

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any_numeric:
        return EXIT_NUMERIC
    return EXIT_VALIDATION if any_fail else EXIT_OK


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rislink",
                     description="Outage, BER, and capacity tables for "
                                 "RIS-assisted links over Nakagami-m fading.")
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("metric", help="evaluate metrics for a config or preset")
    pm.add_argument("--config", help="flat key=value scenario file")
    pm.add_argument("--preset", choices=("fig1", "fig2", "fig3"),
                    help="bundled figure scenario bundle (needs --out prefix)")
    pm.add_argument("--metric", choices=_METRICS,
                    help="single metric (default: all three)")
    pm.add_argument("--method", choices=_METHOD_ORDER + ("all",),
                    default="all")
    pm.add_argument("--sweep", metavar="KEY=A:B:N[:log]",
                    help="replace one numeric config field with a grid")
    pm.add_argument("--gamma-th-db", type=float, default=None,
                    help="outage threshold in dB (default 0; fig1 preset: -30)")
    pm.add_argument("--modulation", choices=_MODULATIONS,
                    help="BER modulation (default bpsk)")
    pm.add_argument("--trials", type=int, default=100_000,
                    help="Monte-Carlo trials per row")
    pm.add_argument("--seed", type=int, default=1234)
    pm.add_argument("--out", help="output CSV path (presets: path prefix)")
    pm.set_defaults(func=cmd_metric)

    pv = sub.add_parser("validate",
                        help="cross-check exact/asymptotic/MC with z-scores")
    pv.add_argument("--config", required=True)
    pv.add_argument("--gamma-th-db", type=float, default=None)
    pv.add_argument("--modulation", choices=_MODULATIONS,
                    default="bpsk")
    pv.add_argument("--trials", type=int, default=200_000)
    pv.add_argument("--seed", type=int, default=1234)
    pv.add_argument("--lambda-scale", type=float, default=1.0,
                    help="multiply the analytic cascade spread (fault injection)")
    pv.add_argument("--out", help="write the report to a file instead of stdout")
    pv.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"rislink: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
