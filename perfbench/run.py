"""rislink benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload fig-sweeps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures what a CLI user pays at the program's default
thread count: set-up probes, then whole passes of the workload (each
command a fresh process) for as long as another pass fits in
``--seconds``, at least one.  ``--trace 1`` runs the workload three
times: untraced at the default thread count, traced at
RISLINK_THREADS=1 and untraced at RISLINK_THREADS=1, and reports the
per-layer metrics of the traced pass.  A one-thread pass that would not
end before the run deadline is skipped; the run then reports what it
measured and names the skipped pass as a problem.  Either way every pass
is checked (``check.py``) and must write the same bytes as the first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from BENCHMARK.json.  ``attempted`` and ``failed`` count
CLI commands; a command fails when it exits with a code its command does
not document for a completed table.  ``error`` rows and validate z-gate
breaches are counted in the row metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from check import Report, check_outputs, same_bytes
from tracer import layer_metrics, read_spans
from workloads import (HERE, ROOT, SRC, WORKLOADS, ChildTimeout, Workload,
                       child_env, cli_argv, helper_argv, launch)

RUN_DEADLINE_S = 170.0
SETUP_PROBES = 12
T1_MARGIN = 1.3


@dataclass
class Pass:
    out: Path
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: List[str] = field(default_factory=list)
    command_wall_s: Dict[str, float] = field(default_factory=dict)


def run_pass(wl: Workload, seed: int, out: Path, threads, deadline: float,
             traced: bool = False) -> Pass:
    out.mkdir(parents=True)
    env = child_env(threads)
    result = Pass(out)
    start = time.perf_counter()
    for cmd in wl.commands:
        args = cmd.argv(seed, out)
        argv = (helper_argv("tracer.py", [str(out / f"{cmd.name}.spans.json"), "--"] + args)
                if traced else cli_argv(args))
        ex = launch(argv, env, out / f"{cmd.name}.log", deadline)
        result.cpu_s += ex.cpu_s
        result.command_wall_s[cmd.name] = ex.wall_s
        result.peak_rss_mb = max(result.peak_rss_mb, ex.maxrss_mb)
        if ex.code not in cmd.exits:
            result.failed.append(f"{out.name}/{cmd.name}: exit code {ex.code}")
    result.wall_s = time.perf_counter() - start
    return result


def setup_seconds(wl: Workload, seed: int, work: Path, deadline: float):
    """Set-up time of each probe, and its wall time; the probes cycle
    through the workload's commands.

    The set-up time is the main thread's CPU time from process start to
    the first row.  Wall time adds whatever the host does meanwhile: when
    the process does not get its second CPU, numpy's start-up threads run
    in series with the main thread, and the probe's wall time grew from
    0.20 s to 0.34 s within minutes on an idle 2-vCPU machine.
    """
    probe = work / "setup"
    probe.mkdir()
    env = child_env(None)
    times, walls = [], []
    for i in range(SETUP_PROBES):
        cmd = wl.commands[i % len(wl.commands)]
        log = probe / f"{cmd.name}.log"
        ex = launch(helper_argv("firstrow.py", cmd.argv(seed, probe)), env, log, deadline)
        lines = [l for l in log.read_text(encoding="utf-8", errors="replace").splitlines()
                 if l.startswith("firstrow ")]
        if ex.code != 0 or not lines:
            raise RuntimeError(f"set-up probe of {cmd.name} exited {ex.code}, see {log}")
        times.append(float(lines[-1].split()[1]))
        walls.append(ex.wall_s)
    return times, walls


def machine_info(deadline: float) -> Dict[str, object]:
    code = ("import json, sys, numpy; from rislink import montecarlo; "
            "print(json.dumps({'python': sys.version.split()[0], "
            "'numpy': numpy.__version__, "
            "'threads': montecarlo._thread_count()}))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(None),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    info = json.loads(proc.stdout)
    info["nproc"] = _nproc()
    info["cpu"] = _cpu_model()
    return info


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _row_metrics(report: Report) -> Dict[str, float]:
    rows = max(report.rows, 1)
    return {"rows_ok_ratio": (report.rows - report.error_rows) / rows,
            "row_error_ratio": report.error_rows / rows,
            "validate_fail_rows": report.fail_rows}


def measure(wl: Workload, seed: int, seconds: float, work: Path, deadline: float):
    """Untraced passes at the default thread count, as many as fit."""
    setup, setup_walls = setup_seconds(wl, seed, work, deadline)
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, seed, work / f"pass{len(passes)}", None, deadline))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if (elapsed + typical > seconds
                or time.monotonic() + 1.5 * typical > deadline):
            break
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_probes_s": setup,
        "setup_probes_wall_s": setup_walls,
    }
    return passes, metrics, []


def trace(wl: Workload, seed: int, work: Path, deadline: float):
    """Default threads untraced, then traced and untraced at one thread.

    A one-thread pass takes about as long as the CPU time of a pass.  One
    that would not end before the deadline is skipped and named, so that a
    slower program still reports the figures that were measured.
    """
    default = run_pass(wl, seed, work / "default", None, deadline)
    passes, skipped = [default], []
    for name, traced in (("traced_t1", True), ("untraced_t1", False)):
        need = T1_MARGIN * max(p.cpu_s for p in passes)
        if time.monotonic() + need > deadline:
            skipped.append(f"{name}: skipped, a one-thread pass needs about "
                           f"{need:.0f} s and the run deadline is closer")
            continue
        passes.append(run_pass(wl, seed, work / name, 1, deadline, traced=traced))
    done = {p.out.name: p for p in passes}
    metrics = {"cli.parallel_ratio": default.cpu_s / default.wall_s}
    if "traced_t1" in done:
        metrics.update(layer_metrics(
            read_spans(f) for f in sorted(done["traced_t1"].out.glob("*.spans.json"))))
    if "untraced_t1" in done:
        metrics["trace.t1_wall_s"] = done["untraced_t1"].wall_s
        if "traced_t1" in done:
            metrics["trace.overhead_ratio"] = (done["traced_t1"].wall_s
                                               / done["untraced_t1"].wall_s)
    return passes, metrics, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "rislink" / "cli.py").is_file():
        print(f"perfbench: no rislink sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_out" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info = machine_info(deadline)
        if args.trace:
            passes, metrics, skipped = trace(wl, args.seed, work, deadline)
        else:
            passes, metrics, skipped = measure(wl, args.seed, args.seconds, work, deadline)
    except (ChildTimeout, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report = check_outputs(passes[0].out, reference[wl.name])
    for p in passes[1:]:
        report.problems += same_bytes(passes[0].out, p.out)
    metrics.update(_row_metrics(report))
    failed = [f for p in passes for f in p.failed]
    problems = failed + skipped + report.problems
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not problems,
        "attempted": len(passes) * len(wl.commands),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    (work / "result.json").write_text(json.dumps(
        {"workload": wl.name, "why": wl.why, "seed": args.seed, "machine": info,
         "problems": problems, "metrics": metrics, "result": result,
         "passes": {p.out.name: {"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                                 "commands_wall_s": p.command_wall_s}
                    for p in passes}}, indent=1), encoding="utf-8")

    print(f"workload {wl.name}: {wl.why}")
    print("machine " + json.dumps(info))
    for text in problems[:20]:
        print(f"problem {text}")
    for name, value in sorted(metrics.items()):
        if isinstance(value, (int, float)):
            print(f"  {name:48s} {value:.6g} {units.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
