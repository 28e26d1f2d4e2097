"""Record the baseline: every workload, two batches of ten seeds, plus one traced run.

    python3 perfbench/baseline.py

For each workload it runs ``run.py --trace 0`` once per seed (1..10), in
two batches one after the other.  For each end-to-end metric and batch it
reports the median, quartiles and spread (quartile distance / median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound, and how much worse the second batch's median is than the first's.
Then it runs ``--trace 1`` once, seed 1.
The file also carries each workload's reason and the layer-to-metric
table, so later changes can cite workloads and metrics by name.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS

SEEDS = range(1, 11)
BATCHES = 2

LAYERS = [
    ("numerics special functions",
     "numerics.{hyp2f1,hyp1f1,bessel_j,upper_incomplete_gamma}.{calls,points,busy_s}",
     "wall_s, cpu_s on fig2-ber; wall_s on validate-mix (row e); ~0 on fig-sweeps"),
    ("numerics quadrature",
     "numerics.quad.{calls,busy_s,self_s,integrand_calls,integrand_points,failures}",
     "cpu_s on fig2-ber; wall_s and rows_ok_ratio on validate-mix"),
    ("rps transform", "rps.HankelProduct.{calls,points,busy_s,repeat_grid_ratio}",
     "wall_s on fig2-ber (rps half) and validate-mix (row e)"),
    ("ops transform",
     "ops.AmplitudeChf.{calls,points,busy_s,repeat_grid_ratio}, "
     "ops.AmplitudeChf.value_complex.{calls,points,busy_s}",
     "wall_s on fig2-ber (ops half, Craig fallback on deep-tail rows)"),
    ("engines (cli.exact_value, cli.asymptotic_value)",
     "engine.{exact,asymptotic}.{rows,busy_s,row_p50_s,errors}, "
     "engine.exact.<design>.<metric>.busy_s",
     "wall_s on fig2-ber: the slowest exact rows set when the pool drains"),
    ("montecarlo",
     "montecarlo.{calls,trials,element_draws,busy_s}, "
     "montecarlo.{rps,ops,quantized}.element_draws_per_s, engine.mc.{rows,row_p50_s}",
     "wall_s, cpu_s on fig-sweeps and validate-mix; peak_rss_mb on fig-sweeps "
     "if sample sets are shared across sweep points"),
    ("cli", "cli.compute_rows.busy_s, cli.write_table.busy_s, cli.parallel_ratio",
     "wall_s on fig2-ber (GIL-bound pool) against fig-sweeps (overlapping chunks)"),
    ("scenario", "scenario.config_from_mapping.{calls,busy_s}", "setup_s on all three"),
    ("rows", "row_error_ratio, validate_fail_rows", "rows_ok_ratio on validate-mix"),
    ("trace", "trace.t1_wall_s, trace.overhead_ratio",
     "none: the single-thread baseline and the cost of tracing"),
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    machine = json.loads(next(l for l in lines if l.startswith("machine "))[8:])
    return {"machine": machine, "result": json.loads(lines[-1]),
            "detail": json.loads((ROOT / ".bench_out" / workload / "result.json")
                                 .read_text(encoding="utf-8"))}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = HERE / "BENCH_baseline.json"
    doc = {"benchmark": spec["command"], "run_seconds": spec["run_seconds"],
           "seeds": list(SEEDS), "batches": BATCHES,
           "layers": [{"layer": a, "metrics": b, "should_move": c} for a, b, c in LAYERS],
           "workloads": {}}
    for name in WORKLOADS:
        batches = [[run(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
                   for _ in range(BATCHES)]
        e2e = {}
        for m in spec["end_to_end"]:
            stats = [summary([r["result"]["metrics"][m["name"]]["value"] for r in b])
                     for b in batches]
            first, last = stats[0]["median"], stats[-1]["median"]
            worse = (last - first) if m["better"] == "lower" else (first - last)
            e2e[m["name"]] = {"unit": m["unit"], "bound": m["bound"], "batches": stats,
                              "second_worse_by": worse / first if first else 0.0}
            for i, st in enumerate(stats, 1):
                print(f"{name:13s} {m['name']:14s} batch {i} median {st['median']:10.5g} "
                      f"spread {st['spread']:.4f} (bound {m['bound']}, a third is "
                      f"{m['bound'] / 3:.4f})", flush=True)
            print(f"{name:13s} {m['name']:14s} second median worse by "
                  f"{e2e[m['name']]['second_worse_by']:+.4f}", flush=True)
        runs = [r for b in batches for r in b]
        traced = run(name, 1, spec["run_seconds"], 1)
        doc["machine"] = traced["machine"]
        doc["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "end_to_end": e2e,
            "cpu_per_wall": statistics.median(
                r["result"]["metrics"]["cpu_s"]["value"] / r["result"]["metrics"]["wall_s"]["value"]
                for r in runs),
            "per_layer": traced["detail"]["metrics"],
            "traced_passes": traced["detail"]["passes"],
        }
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
