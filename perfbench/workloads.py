"""Workload definitions and the child-process plumbing they run through.

Every workload is a closed loop: one process per CLI command, each command
started only after the previous one has exited.  Each command is a fresh
interpreter, so the program's lazy state (Bessel-zero cache, phase tables,
transform grid caches) starts cold, as it does for a CLI user.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = HERE / "scenarios"

# Exit codes a command may end with and still have produced its output:
# 0 ok, 2 a row failed numerically, 3 a validate z-gate breach.
METRIC_EXITS = (0, 2)
VALIDATE_EXITS = (0, 2, 3)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv(seed, out_dir)`` gives its arguments."""

    name: str
    argv: Callable[[int, Path], List[str]]
    exits: Tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Tuple[Command, ...]


def _preset(name: str) -> Command:
    return Command(name, lambda seed, out: [
        "metric", "--preset", name, "--trials", "10000",
        "--seed", str(seed), "--out", str(out / "run")], METRIC_EXITS)


def _validate(scenario: str) -> Command:
    return Command(f"validate_{scenario}", lambda seed, out: [
        "validate", "--config", str(SCENARIOS / f"{scenario}.cfg"),
        "--seed", str(seed), "--out", str(out / f"validate_{scenario}.csv")],
        VALIDATE_EXITS)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig-sweeps",
             "fig1 + fig3 presets at 10k trials: many short simulator runs "
             "(~97% of the work), exact engines barely show",
             (_preset("fig1"), _preset("fig3"))),
    Workload("fig2-ber",
             "fig2 preset at 10k trials: exact BER engines (hyp1f1, hyp2f1, "
             "quadrature) dominate and the analytic pool is GIL-bound",
             (_preset("fig2"),)),
    Workload("validate-mix",
             "validate at 200k trials on five fixed scenarios: few long "
             "multi-chunk simulator runs, plus the known hyp2f1 and "
             "exact-capacity defects",
             tuple(_validate(s) for s in "abcde")),
)}


def child_env(threads: Optional[int]) -> Dict[str, str]:
    """Environment for a child: the checkout's sources first on the path;
    ``threads=None`` leaves RISLINK_THREADS at the program's default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("RISLINK_THREADS", None)
    if threads is not None:
        env["RISLINK_THREADS"] = str(threads)
    return env


@dataclass(frozen=True)
class Exit:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


class ChildTimeout(Exception):
    pass


def launch(argv: List[str], env: Dict[str, str], log: Path,
           deadline: float) -> Exit:
    """Run one child to completion and return its own resource usage.

    ``os.wait4`` reports the rusage of exactly this child; it blocks in a
    helper thread so the deadline can still kill a hung child.
    """
    reaped: list = []
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)

        def wait():
            reaped.append(os.wait4(proc.pid, 0))
            reaped.append(time.perf_counter())

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        waiter.join(max(0.0, deadline - time.monotonic()))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
            proc.returncode = -9
            raise ChildTimeout(f"{' '.join(argv[:4])} ... exceeded the run deadline")
    (_, status, usage), end = reaped
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return Exit(code, end - start, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "rislink.cli"] + args


def helper_argv(script: str, args: List[str]) -> List[str]:
    return [sys.executable, str(HERE / script)] + args
