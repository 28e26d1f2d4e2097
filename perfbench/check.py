"""Correctness check for the CSVs a workload writes.

What is checked does not depend on the seed:

* every row parses, every estimate is finite and in range (op in [0, 1],
  ber in [0, 0.5], ec >= 0) and every simulator standard error is finite
  and nonnegative; an ``error`` cell is counted, and it is a failure
  unless the reference table records ``error`` for that row as well;
* exact and asymptotic rows whose value does not depend on the seed
  (everything but exact ec) match the reference table recorded with the
  benchmark, within REL_TOL;
* exact ec rows of ``metric`` tables lie within Z_GATE standard errors of
  their simulator row: they are a second-order expansion, expected to move
  when an exact capacity engine lands, so they are not pinned;
* simulator op rows of ``metric`` tables lie within Z_GATE standard errors
  of their exact row, where that exact op is within OP_GATE: there a
  10k-trial binomial standard error is honest, so a biased simulator
  fails the check;
* ``validate`` statuses agree with their z column.  A ``fail`` status is
  the program's own gate firing and is counted, not treated as a checker
  failure: the benchmark reports it;
* every run of a workload writes the same bytes as the first run with the
  same seed, whatever the thread count.

Fig2's exact BER rows are deliberately not z-gated against their 10k-trial
simulator rows: in the deep tail the simulator misses the rare fades and
understates its own error, so such a gate fires on correct values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

METRIC_HEADER = "param,value,metric,method,estimate,std_error"
VALIDATE_HEADER = "metric,method,estimate,std_error,z_score,status"
RANGES = {"op": (0.0, 1.0), "ber": (0.0, 0.5), "ec": (0.0, math.inf)}
REL_TOL = 1e-7
ABS_TOL = 1e-15
Z_GATE = 4.0
OP_GATE = (1e-2, 1.0 - 1e-2)


@dataclass
class Report:
    problems: List[str] = field(default_factory=list)
    rows: int = 0
    error_rows: int = 0
    fail_rows: int = 0


def pinned(metric: str, method: str) -> bool:
    """Rows whose value is independent of the seed and held to the reference."""
    return method == "asymptotic" or (method == "exact" and metric != "ec")


def _number(text: str) -> Optional[float]:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def _table(path: Path, header: str, width: int, report: Report) -> List[List[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        report.problems.append(f"{path.name}: header is not {header!r}")
        return []
    rows = [line.split(",") for line in lines[1:]]
    for i, cells in enumerate(rows, 2):
        if len(cells) != width:
            report.problems.append(f"{path.name}:{i}: expected {width} cells")
            return []
    return rows


def _estimate(where: str, metric: str, est: str, ref: Optional[str],
              report: Report) -> Optional[float]:
    """Shared estimate rules; returns the value, or None for an error cell."""
    if est == "error":
        report.error_rows += 1
        if ref != "error":
            report.problems.append(f"{where}: unexpected error row")
        return None
    v = _number(est)
    lo, hi = RANGES.get(metric, (math.nan, math.nan))
    if v is None or not lo <= v <= hi:
        report.problems.append(f"{where}: estimate {est!r} not a number in [{lo}, {hi}]")
        return None
    if ref not in (None, "error") and not _close(v, float(ref)):
        report.problems.append(f"{where}: {est} differs from reference {ref}")
    return v


def _check_se(where: str, se: str, report: Report) -> Optional[float]:
    v = _number(se)
    if v is None or v < 0.0:
        report.problems.append(f"{where}: std_error {se!r} not a finite number >= 0")
    return v


def check_metric_table(path: Path, ref_rows: list, report: Report) -> None:
    rows = _table(path, METRIC_HEADER, 6, report)
    if len(rows) != len(ref_rows):
        report.problems.append(f"{path.name}: {len(rows)} rows, reference has {len(ref_rows)}")
        return
    mc: Dict[tuple, tuple] = {}
    gated = []
    for i, (cells, ref) in enumerate(zip(rows, ref_rows), 2):
        where = f"{path.name}:{i}"
        param, value, metric, method, est, se = cells
        if cells[:4] != ref[:4]:
            report.problems.append(f"{where}: row {cells[:4]} where reference has {ref[:4]}")
            continue
        report.rows += 1
        v = _estimate(where, metric, est, ref[4], report)
        if method == "mc":
            s = _check_se(where, se, report)
            if v is not None and s is not None:
                mc[(param, value, metric)] = (v, s)
        elif se:
            report.problems.append(f"{where}: analytic row carries a std_error")
        if method == "exact" and v is not None and (
                metric == "ec" or (metric == "op" and OP_GATE[0] <= v <= OP_GATE[1])):
            gated.append((where, (param, value, metric), v))
    for where, key, v in gated:
        metric = key[2]
        if key not in mc:
            report.problems.append(f"{where}: no simulator row to gate exact {metric} against")
            continue
        m, s = mc[key]
        z = (v - m) / s if s > 0.0 else (0.0 if v == m else math.inf)
        if abs(z) > Z_GATE:
            report.problems.append(
                f"{where}: exact {metric} {v} is {z:.2f} standard errors from mc {m}")


def check_validate_table(path: Path, ref_rows: list, report: Report) -> None:
    rows = _table(path, VALIDATE_HEADER, 6, report)
    if len(rows) != len(ref_rows):
        report.problems.append(f"{path.name}: {len(rows)} rows, reference has {len(ref_rows)}")
        return
    for i, (cells, ref) in enumerate(zip(rows, ref_rows), 2):
        where = f"{path.name}:{i}"
        metric, method, est, se, z, status = cells
        if cells[:2] != ref[:2]:
            report.problems.append(f"{where}: row {cells[:2]} where reference has {ref[:2]}")
            continue
        report.rows += 1
        v = _estimate(where, metric, est, ref[2], report)
        if method == "mc":
            _check_se(where, se, report)
            if z or status != "ok":
                report.problems.append(f"{where}: simulator row must read ',ok'")
            continue
        if est == "error":
            if status != "error":
                report.problems.append(f"{where}: error row with status {status!r}")
            continue
        zv = _number(z)
        if v is None or zv is None:
            if zv is None:
                report.problems.append(f"{where}: z_score {z!r} is not a number")
            continue
        want = ("info" if method == "asymptotic"
                else "fail" if abs(zv) > Z_GATE else "ok")
        if status != want:
            report.problems.append(f"{where}: status {status!r}, z {z} implies {want!r}")
        if status == "fail":
            report.fail_rows += 1


def check_outputs(out_dir: Path, reference: dict) -> Report:
    """Check every CSV a workload run wrote against that workload's reference."""
    report = Report()
    have = sorted(p.name for p in out_dir.glob("*.csv"))
    if have != sorted(reference):
        report.problems.append(f"{out_dir.name}: wrote {have}, expected {sorted(reference)}")
    for name in sorted(set(have) & set(reference)):
        path = out_dir / name
        if name.startswith("validate_"):
            check_validate_table(path, reference[name], report)
        else:
            check_metric_table(path, reference[name], report)
    return report


def same_bytes(first: Path, other: Path) -> List[str]:
    """Files that differ between two runs of one workload with one seed."""
    names = sorted(p.name for p in first.glob("*.csv"))
    problems = []
    if names != sorted(p.name for p in other.glob("*.csv")):
        problems.append(f"{other.name}: wrote other files than {first.name}")
    for name in names:
        b = other / name
        if b.is_file() and (first / name).read_bytes() != b.read_bytes():
            problems.append(f"{other.name}/{name}: bytes differ from {first.name}")
    return problems


def reference_rows(out_dir: Path) -> dict:
    """Reference table from one run: row keys in order, plus the estimate of
    every pinned row (None where the value may move with the seed)."""
    ref = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        rows = []
        for cells in (line.split(",") for line in lines):
            if path.name.startswith("validate_"):
                metric, method, est = cells[:3]
                rows.append([metric, method, est if pinned(metric, method) else None])
            else:
                metric, method, est = cells[2], cells[3], cells[4]
                rows.append(cells[:4] + [est if pinned(metric, method) else None])
        ref[path.name] = rows
    return ref
