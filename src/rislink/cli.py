"""Command-line front end for link-metric tables.

Single evaluations, parameter sweeps, and the three bundled figure
presets all emit one CSV schema (param,value,metric,method,estimate,
std_error); `validate` prints a side-by-side exact/asymptotic/MC report
with z-scores.  Exit codes: 0 ok, 1 usage or config error, 2 numerical
failure in at least one row, 3 validation z-score breach.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, TextIO

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

_METRICS = ("op", "ber", "ec")
_METHOD_ORDER = ("exact", "asymptotic", "mc")
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
    if steps < 1:
        raise CliError(f"bad --sweep {text!r}: needs at least one step")
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
    return Sweep(key=key.strip(), values=tuple(vals))


# ---------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------

class _Link(NamedTuple):
    """A scenario as the analytic engines read it: its link_parts, with
    the transform and large-N models built from them."""

    config: ScenarioConfig
    rho: float
    element: DoubleNakagami
    direct: Optional[NakagamiParams]

    def hankel(self) -> rps.HankelProduct:
        return rps.HankelProduct([self.element] * self.config.n_elements,
                                 self.direct)

    def chf(self) -> ops.AmplitudeChf:
        return ops.AmplitudeChf([self.element] * self.config.n_elements,
                                self.direct)

    def largen(self, model):
        return model.from_element(self.element, self.config.n_elements,
                                  self.rho)


def _rps_ec(link: _Link, gamma_th: float, modulation: Modulation) -> float:
    hp = link.hankel()
    return rps.ec_taylor(rps.gamma_r_moment(hp, 1, link.rho),
                         rps.gamma_r_moment(hp, 2, link.rho))


def _ops_ber(link: _Link, gamma_th: float, modulation: Modulation) -> float:
    if modulation.coherent:
        return ops.ber_ops_coherent(link.chf(), link.rho, modulation)
    return ops.ber_ops_bdpsk(link.chf(), link.rho)


def _ops_ec(link: _Link, gamma_th: float, modulation: Modulation) -> float:
    chf = link.chf()
    return rps.ec_taylor(link.rho * chf.amplitude_moment(2),
                         link.rho ** 2 * chf.amplitude_moment(4))


def _quantized_ec(link: _Link, gamma_th: float,
                  modulation: Modulation) -> float:
    n, bits = link.config.n_elements, link.config.phase_design.bits
    return rps.ec_taylor(
        rps.gamma_q_moment(link.element, n, link.rho, bits, 1),
        rps.gamma_q_moment(link.element, n, link.rho, bits, 2))


# (design, metric, method) -> (engine, RIS sum only).  An engine maps
# (link, gamma_th, modulation) to the metric value; a "RIS sum only"
# engine has no direct-path term, so it is not offered when the scenario
# has one.  The simulator ("mc") covers every combination.
_ENGINES = {
    ("rps", "op", "exact"): (
        lambda link, th, mod: rps.op_rps(link.hankel(), th, link.rho), False),
    ("rps", "ber", "exact"): (
        lambda link, th, mod: rps.ber_rps(link.hankel(), link.rho, mod), False),
    ("rps", "ec", "exact"): (_rps_ec, False),
    ("ops", "op", "exact"): (
        lambda link, th, mod: ops.op_ops(link.chf(), th, link.rho), False),
    ("ops", "ber", "exact"): (_ops_ber, False),
    ("ops", "ec", "exact"): (_ops_ec, False),
    ("quantized", "ec", "exact"): (_quantized_ec, True),
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
    d, element, direct = link_parts(config, lam_scale)
    return engine(_Link(config, d.rho, element, direct), gamma_th, modulation)


def exact_value(config: ScenarioConfig, metric: str, gamma_th: float,
                modulation: Modulation, lam_scale: float = 1.0) -> float:
    return _analytic_value("exact", config, metric, gamma_th, modulation,
                           lam_scale)


def asymptotic_value(config: ScenarioConfig, metric: str, gamma_th: float,
                     modulation: Modulation, lam_scale: float = 1.0) -> float:
    return _analytic_value("asymptotic", config, metric, gamma_th,
                           modulation, lam_scale)


# metric -> simulator estimator, called as
# (config, phase model, gamma_th, modulation, trials, seed)
_MC_ESTIMATORS = {
    "op": lambda config, model, th, mod, trials, seed: mc.estimate_op(
        config, model, th, trials, seed),
    "ber": lambda config, model, th, mod, trials, seed: mc.estimate_ber(
        config, model, mod, trials, seed),
    "ec": lambda config, model, th, mod, trials, seed: mc.estimate_ec(
        config, model, trials, seed),
}


def mc_value(config: ScenarioConfig, metric: str, gamma_th: float,
             modulation: Modulation, trials: int, seed: int) -> mc.McEstimate:
    estimator = _MC_ESTIMATORS.get(metric)
    if estimator is None:
        raise ValueError(f"method 'mc' is not available for metric {metric!r}")
    return estimator(config, mc.default_phase_model(config), gamma_th,
                     modulation, trials, seed)


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
    gamma_th: float
    modulation: Modulation
    trials: int
    seed: int


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


def compute_rows(specs: Sequence[RowSpec]) -> List[Row]:
    """Evaluate row specs: analytic rows in a thread pool, simulator rows
    serially (the simulator fills its own pool); output order is the
    spec order either way.  A numerical failure becomes a None estimate
    rather than aborting the table."""

    def run(spec: RowSpec) -> Row:
        try:
            if spec.method == "mc":
                est = mc_value(spec.config, spec.metric, spec.gamma_th,
                               spec.modulation, spec.trials, spec.seed)
                return Row(spec.param, spec.x, spec.metric, "mc",
                           est.value, est.std_error)
            if spec.method == "exact":
                val = exact_value(spec.config, spec.metric, spec.gamma_th,
                                  spec.modulation)
            else:
                val = asymptotic_value(spec.config, spec.metric, spec.gamma_th,
                                       spec.modulation)
            return Row(spec.param, spec.x, spec.metric, spec.method, val, None)
        except (ValueError, ArithmeticError):
            return Row(spec.param, spec.x, spec.metric, spec.method, None, None)

    results: dict = {}
    analytic = [(i, s) for i, s in enumerate(specs) if s.method != "mc"]
    if analytic:
        with ThreadPoolExecutor(max_workers=mc._thread_count()) as pool:
            for (i, _), row in zip(analytic,
                                   pool.map(run, [s for _, s in analytic])):
                results[i] = row
    for i, spec in enumerate(specs):
        if spec.method == "mc":
            results[i] = run(spec)
    return [results[i] for i in range(len(specs))]


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

def _check_run_args(args) -> None:
    if args.trials < 10_000:
        raise CliError("--trials must be at least 10000")
    if not 0 <= args.seed < 2 ** 64:
        raise CliError("--seed must be an unsigned 64-bit integer")
    if args.gamma_th_db is not None and not math.isfinite(args.gamma_th_db):
        raise CliError("--gamma-th-db must be a finite number")
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
                     method, gamma_th: float, modulation: Modulation,
                     trials: int, seed: int) -> List[RowSpec]:
    specs: List[RowSpec] = []
    for x, config in points:
        for metric in metrics:
            for use in _resolve_methods(config, metric, method):
                specs.append(RowSpec(param, x, config, metric, use,
                                     gamma_th, modulation, trials, seed))
    return specs


def cmd_metric(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise CliError("metric needs exactly one of --config or --preset")
    _check_run_args(args)
    modulation = Modulation.from_label(args.modulation)
    if args.preset:
        if args.sweep:
            raise CliError("--sweep does not apply to presets")
        if not args.out:
            raise CliError("presets need --out as a file prefix")
        return _run_preset(args, modulation)

    mapping = read_config_mapping(args.config)
    base = build_config(mapping, args.config)
    gamma_th = 10.0 ** ((args.gamma_th_db if args.gamma_th_db is not None
                         else 0.0) / 10.0)
    metrics = (args.metric,) if args.metric else ("op", "ber", "ec")

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

    specs = _specs_for_curve(param, points, metrics, args.method, gamma_th,
                             modulation, args.trials, args.seed)
    rows = compute_rows(specs)
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
    """(suffix, param, points, metrics, method, gamma_th_db) per curve."""
    curves = []
    if name == "fig1":
        powers = [float(p) for p in range(-10, 31, 2)]
        for n in (16, 64, 256):
            points = [(p, build_config(_base_mapping(
                n_elements=n, tx_power_dbm=p))) for p in powers]
            curves.append((f"fig1_N{n}", "tx_power_dbm", points,
                           ("op", "ec"), "all", -30.0))
    elif name == "fig2":
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
                                   ("exact", "mc"), 0.0))
    elif name == "fig3":
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
                               ("ec",), ("exact", "mc"), 0.0))
    else:
        raise CliError(f"unknown preset {name!r}")
    return curves


def _run_preset(args, modulation: Modulation) -> int:
    status = EXIT_OK
    for suffix, param, points, metrics, method, th_db in \
            _preset_curves(args.preset):
        gamma_db = args.gamma_th_db if args.gamma_th_db is not None else th_db
        specs = _specs_for_curve(param, points, metrics, method,
                                 10.0 ** (gamma_db / 10.0), modulation,
                                 args.trials, args.seed)
        rows = compute_rows(specs)
        path = f"{args.out}_{suffix}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if not write_table(rows, fh):
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
    gamma_th = 10.0 ** ((args.gamma_th_db if args.gamma_th_db is not None
                         else 0.0) / 10.0)

    lines = ["metric,method,estimate,std_error,z_score,status"]
    any_numeric = False
    any_fail = False
    for metric in ("op", "ber", "ec"):
        est = mc_value(config, metric, gamma_th, modulation,
                       args.trials, args.seed)
        se_floor = est.std_error
        if metric == "op" and se_floor == 0.0:
            # degenerate binomial sample: rule-of-succession floor
            q = (est.value * est.n_trials + 1.0) / (est.n_trials + 2.0)
            se_floor = math.sqrt(q * (1.0 - q) / est.n_trials)
        lines.append(f"{metric},mc,{_g17(est.value)},{_g17(est.std_error)},,ok")
        for method in supported_methods(config, metric)[:-1]:
            try:
                if method == "exact":
                    val = exact_value(config, metric, gamma_th, modulation,
                                      args.lambda_scale)
                else:
                    val = asymptotic_value(config, metric, gamma_th,
                                           modulation, args.lambda_scale)
            except (ValueError, ArithmeticError):
                any_numeric = True
                lines.append(f"{metric},{method},error,,,error")
                continue
            z = (val - est.value) / se_floor if se_floor > 0.0 else math.inf
            if method == "asymptotic":
                status = "info"
            elif abs(z) > 4.0:
                status = "fail"
                any_fail = True
            else:
                status = "ok"
            lines.append(f"{metric},{method},{_g17(val)},,{_g17(z)},{status}")

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
    pm.add_argument("--metric", choices=("op", "ber", "ec"),
                    help="single metric (default: all three)")
    pm.add_argument("--method", choices=("exact", "asymptotic", "mc", "all"),
                    default="all")
    pm.add_argument("--sweep", metavar="KEY=A:B:N[:log]",
                    help="replace one numeric config field with a grid")
    pm.add_argument("--gamma-th-db", type=float, default=None,
                    help="outage threshold in dB (default 0; fig1 preset: -30)")
    pm.add_argument("--modulation", choices=("bpsk", "bfsk", "bdpsk"),
                    default="bpsk")
    pm.add_argument("--trials", type=int, default=100_000,
                    help="Monte-Carlo trials per row")
    pm.add_argument("--seed", type=int, default=1234)
    pm.add_argument("--out", help="output CSV path (presets: path prefix)")
    pm.set_defaults(func=cmd_metric)

    pv = sub.add_parser("validate",
                        help="cross-check exact/asymptotic/MC with z-scores")
    pv.add_argument("--config", required=True)
    pv.add_argument("--gamma-th-db", type=float, default=None)
    pv.add_argument("--modulation", choices=("bpsk", "bfsk", "bdpsk"),
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
