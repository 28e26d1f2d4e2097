"""Outside-in tracing of one CLI command, and the per-layer metrics of a trace.

Run as ``python3 perfbench/tracer.py SPANS.json -- <rislink CLI args>``: it
wraps the public functions each caller actually resolves at call time,
runs ``rislink.cli.main`` and writes the spans when the command ends.

* ``numerics`` special functions and ``integrate_semi_infinite`` through
  the ``numerics`` module attributes that ``rps``/``ops`` reach as ``nm.``;
  the integrand handed to the quadrature is wrapped too, which gives the
  integrand counts and the quadrature's self time;
* ``HankelProduct.__call__``, ``AmplitudeChf.__call__`` and
  ``AmplitudeChf.value_complex`` on their classes;
* the engines as ``cli.exact_value``/``asymptotic_value``/``mc_value``
  (one span per table row, which starts a row id), the estimators as
  ``montecarlo.estimate_*`` (resolved through ``cli.mc``), and
  ``cli.compute_rows``, ``cli.write_table``, ``cli.config_from_mapping``.

Only the outermost call per thread is recorded: a wrapper entered while a
span of the same name is open on its thread, or a ``numerics`` special
function entered from inside another one (``bessel_zeros`` calls
``bessel_j``), passes straight through.  Parents are kept on a per-thread
stack, so spans in pool threads have no parent in another thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import weakref
from typing import Dict, Iterable, List, Optional

import numpy as np

SPECIAL = ("hyp2f1", "hyp1f1", "bessel_j", "upper_incomplete_gamma")
# Wrapped only so that the special functions they call internally are not
# counted as calls from outside numerics.
SPECIAL_MASKS = ("bessel_zeros", "exp_scaled_e1", "gauss_q",
                 "taylor_coefficients_product")
ENGINE_DESIGN_METRICS = (("rps", "op"), ("rps", "ber"), ("rps", "ec"),
                         ("ops", "op"), ("ops", "ber"), ("ops", "ec"),
                         ("quantized", "ec"))
DESIGNS = ("rps", "ops", "quantized")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: List[tuple] = []     # (span id, row id) of open spans
        self.open: set = set()           # names of open spans
        self.special = 0                 # open numerics special functions


class Tracer:
    """Spans kept in memory: (id, name, start, end, parent, row, attrs)."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._rows = itertools.count(1)
        self._state = _ThreadState()
        self._t0 = time.perf_counter()

    def call(self, name, fn, args, kwargs, attrs=None, new_row=False,
             errors=(ArithmeticError,)):
        st = self._state
        if name in st.open:
            return fn(*args, **kwargs)
        parent, row = st.stack[-1] if st.stack else (0, 0)
        sid = next(self._ids)
        if new_row:
            row = next(self._rows)
        st.stack.append((sid, row))
        st.open.add(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except errors as exc:
            attrs = dict(attrs or {}, error=type(exc).__name__)
            raise
        finally:
            end = time.perf_counter()
            st.stack.pop()
            st.open.discard(name)
            self.spans.append((sid, name, start - self._t0, end - self._t0,
                               parent, row, attrs))

    def special(self, name, fn, points_arg):
        st = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if st.special:
                return fn(*args, **kwargs)
            st.special += 1
            try:
                if points_arg is None:
                    return fn(*args, **kwargs)
                pts = int(np.size(args[points_arg])) if len(args) > points_arg else 1
                return self.call(name, fn, args, kwargs, {"points": pts})
            finally:
                st.special -= 1
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def _grid_key(t) -> tuple:
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    return arr.size, hash(arr.tobytes())


def install(tracer: Tracer) -> None:
    from rislink import cli, montecarlo, numerics, ops, rps

    for name in SPECIAL:
        # the array argument: hyp2f1(a, b, c, z), hyp1f1(a, b, x),
        # bessel_j(order, x), upper_incomplete_gamma(a, x)
        pos = {"hyp2f1": 3, "hyp1f1": 2}.get(name, 1)
        setattr(numerics, name,
                tracer.special(f"numerics.{name}", getattr(numerics, name), pos))
    for name in SPECIAL_MASKS:
        setattr(numerics, name, tracer.special(name, getattr(numerics, name), None))

    quad = numerics.integrate_semi_infinite

    @functools.wraps(quad)
    def traced_quad(f, *args, **kwargs):
        def integrand(x):
            return tracer.call("numerics.quad.integrand", f, (x,), {},
                               {"points": int(np.size(x))})
        return tracer.call("numerics.quad", quad, (integrand,) + args, kwargs)
    numerics.integrate_semi_infinite = traced_quad

    def transform(cls, method, name, grids):
        fn = getattr(cls, method)

        @functools.wraps(fn)
        def wrapper(self, t):
            attrs = {"points": int(np.size(t))}
            if grids is not None:
                seen = grids.setdefault(self, set())
                key = _grid_key(t)
                attrs["repeat"] = key in seen
                seen.add(key)
            return tracer.call(name, fn, (self, t), {}, attrs)
        setattr(cls, method, wrapper)

    transform(rps.HankelProduct, "__call__", "rps.HankelProduct",
              weakref.WeakKeyDictionary())
    transform(ops.AmplitudeChf, "__call__", "ops.AmplitudeChf",
              weakref.WeakKeyDictionary())
    transform(ops.AmplitudeChf, "value_complex", "ops.AmplitudeChf.value_complex", None)

    def engine(method):
        fn = getattr(cli, f"{method}_value")

        @functools.wraps(fn)
        def wrapper(config, metric, *args, **kwargs):
            attrs = {"design": config.phase_design.kind, "metric": metric}
            return tracer.call(f"engine.{method}", fn, (config, metric) + args,
                               kwargs, attrs, new_row=True,
                               errors=(ValueError, ArithmeticError))
        setattr(cli, f"{method}_value", wrapper)

    for method in ("exact", "asymptotic", "mc"):
        engine(method)

    def estimator(name):
        fn = getattr(montecarlo, name)

        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            trials = kwargs.get("n_trials", args[-2] if len(args) >= 2 else 0)
            attrs = {"design": config.phase_design.kind, "trials": int(trials),
                     "draws": int(trials) * config.n_elements}
            return tracer.call("montecarlo", fn, (config,) + args, kwargs, attrs)
        setattr(montecarlo, name, wrapper)

    for name in ("estimate_op", "estimate_ber", "estimate_ec"):
        estimator(name)

    for attr, name in (("compute_rows", "cli.compute_rows"),
                       ("write_table", "cli.write_table"),
                       ("config_from_mapping", "scenario.config_from_mapping")):
        fn = getattr(cli, attr)
        setattr(cli, attr, functools.wraps(fn)(
            lambda *a, _fn=fn, _name=name, **k: tracer.call(_name, _fn, a, k)))


# ---------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------

def _median(xs: List[float]) -> float:
    return float(np.median(xs)) if xs else 0.0


def _p90(xs: List[float]) -> Optional[float]:
    """p90 only where at least ten samples lie beyond it."""
    if len(xs) * 0.1 < 10:
        return None
    return float(np.percentile(xs, 90))


def layer_metrics(span_lists: Iterable[List[list]]) -> Dict[str, float]:
    """Per-layer metrics from the spans of every command of one workload.

    Busy time is inclusive; self time is busy time minus the time of the
    span's direct children.  Row percentiles: p50 always (0 when there
    are no rows), p90 under ``detail.`` only where ten rows lie beyond it.
    """
    spans = [s for lst in span_lists for s in lst]
    child_time: Dict[tuple, float] = {}
    by_name: Dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    out: Dict[str, float] = {}

    def busy(name, pred=lambda s: True):
        return sum(s[3] - s[2] for s in by_name.get(name, ()) if pred(s))

    def attr(s, key, default=0):
        return (s[6] or {}).get(key, default)

    for fn in SPECIAL:
        group = by_name.get(f"numerics.{fn}", [])
        out[f"numerics.{fn}.calls"] = len(group)
        out[f"numerics.{fn}.points"] = sum(attr(s, "points") for s in group)
        out[f"numerics.{fn}.busy_s"] = busy(f"numerics.{fn}")

    quads = by_name.get("numerics.quad", [])
    integrands = by_name.get("numerics.quad.integrand", [])
    quad_ids = {s[0] for s in quads}
    in_quad = sum(s[3] - s[2] for s in integrands if s[4] in quad_ids)
    out["numerics.quad.calls"] = len(quads)
    out["numerics.quad.busy_s"] = busy("numerics.quad")
    out["numerics.quad.self_s"] = out["numerics.quad.busy_s"] - in_quad
    out["numerics.quad.integrand_calls"] = len(integrands)
    out["numerics.quad.integrand_points"] = sum(attr(s, "points") for s in integrands)
    out["numerics.quad.failures"] = sum(
        1 for s in quads if attr(s, "error", None) == "ConvergenceError")

    for name, has_grid in (("rps.HankelProduct", True), ("ops.AmplitudeChf", True),
                           ("ops.AmplitudeChf.value_complex", False)):
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.points"] = sum(attr(s, "points") for s in group)
        out[f"{name}.busy_s"] = busy(name)
        if has_grid:
            out[f"{name}.repeat_grid_ratio"] = (
                sum(1 for s in group if attr(s, "repeat", False)) / len(group)
                if group else 0.0)

    for method in ("exact", "asymptotic", "mc"):
        group = by_name.get(f"engine.{method}", [])
        times = [s[3] - s[2] for s in group]
        out[f"engine.{method}.rows"] = len(group)
        out[f"engine.{method}.row_p50_s"] = _median(times)
        p90 = _p90(times)
        if p90 is not None:
            out[f"detail.engine.{method}.row_p90_s"] = p90
        if method != "mc":
            out[f"engine.{method}.busy_s"] = sum(times)
            out[f"engine.{method}.errors"] = sum(1 for s in group if attr(s, "error", None))
    for design, metric in ENGINE_DESIGN_METRICS:
        out[f"engine.exact.{design}.{metric}.busy_s"] = busy(
            "engine.exact", lambda s: attr(s, "design") == design and attr(s, "metric") == metric)

    sims = by_name.get("montecarlo", [])
    out["montecarlo.calls"] = len(sims)
    out["montecarlo.trials"] = sum(attr(s, "trials") for s in sims)
    out["montecarlo.element_draws"] = sum(attr(s, "draws") for s in sims)
    out["montecarlo.busy_s"] = busy("montecarlo")
    for design in DESIGNS:
        group = [s for s in sims if attr(s, "design") == design]
        t = sum(s[3] - s[2] for s in group)
        out[f"montecarlo.{design}.element_draws_per_s"] = (
            sum(attr(s, "draws") for s in group) / t if t > 0 else 0.0)

    out["cli.compute_rows.busy_s"] = busy("cli.compute_rows")
    out["cli.write_table.busy_s"] = busy("cli.write_table")
    out["scenario.config_from_mapping.calls"] = len(by_name.get("scenario.config_from_mapping", []))
    out["scenario.config_from_mapping.busy_s"] = busy("scenario.config_from_mapping")
    out["detail.spans"] = len(spans)
    return out


def read_spans(path) -> List[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <rislink CLI args>", file=sys.stderr)
        return 64
    tracer = Tracer()
    install(tracer)
    from rislink import cli
    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
