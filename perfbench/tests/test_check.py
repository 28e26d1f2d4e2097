"""Tests of the benchmark's correctness check.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They run real workload commands (about 45 s in all) and then show that
the checker fails each kind of damaged output.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from check import Report, check_outputs, check_validate_table, same_bytes  # noqa: E402
from run import run_pass  # noqa: E402
from workloads import (SCENARIOS, WORKLOADS, child_env, cli_argv,  # noqa: E402
                       launch)

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
FIG1 = {k: v for k, v in REFERENCE["fig-sweeps"].items() if "fig1" in k}


def _deadline():
    return time.monotonic() + 600


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    p = run_pass(WORKLOADS["fig2-ber"], 7, tmp_path_factory.mktemp("fig2") / "run",
                 None, _deadline())
    assert not p.failed
    return p.out


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    argv = WORKLOADS["fig-sweeps"].commands[0].argv(7, out)
    assert launch(cli_argv(argv), child_env(None), out / "log.txt", _deadline()).code == 0
    return out


def _validate_d(out: Path, seed: int, *extra) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "validate_d.csv"
    args = ["validate", "--config", str(SCENARIOS / "d.cfg"), "--seed", str(seed),
            "--out", str(path), *extra]
    ex = launch(cli_argv(args), child_env(None), out / "log.txt", _deadline())
    assert ex.code in (0, 3)
    return path


def _damaged(src: Path, dst: Path, name: str, row: int, cell: int, value: str) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[cell] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


def test_clean_run_passes(fig2):
    report = check_outputs(fig2, REFERENCE["fig2-ber"])
    assert report.problems == []
    assert report.rows == 336 and report.error_rows == 0


def test_clean_fig1_passes(fig1):
    report = check_outputs(fig1, FIG1)
    assert report.problems == []
    assert report.rows == 378 and report.error_rows == 0


def test_biased_simulator_op_fails(fig1, tmp_path):
    name = "run_fig1_N64.csv"
    ref = FIG1[name]
    exact = {tuple(r[:3]): float(r[4]) for r in ref if r[2:4] == ["op", "exact"]}
    row = 1 + next(i for i, r in enumerate(ref)
                   if r[2:4] == ["op", "mc"] and 0.1 < exact[tuple(r[:3])] < 0.9)
    se = float((fig1 / name).read_text().splitlines()[row].split(",")[5])
    biased = exact[tuple(ref[row - 1][:3])] + 5 * se
    bad = _damaged(fig1, tmp_path / "bad", name, row, 4, repr(biased))
    problems = check_outputs(bad, FIG1).problems
    assert len(problems) == 1 and "standard errors from mc" in problems[0]


def test_changed_exact_value_fails(fig2, tmp_path):
    name = "run_fig2_rps_direct_N4.csv"
    row = 1 + next(i for i, r in enumerate(REFERENCE["fig2-ber"][name])
                   if r[3] == "exact")
    value = float((fig2 / name).read_text().splitlines()[row].split(",")[4])
    bad = _damaged(fig2, tmp_path / "bad", name, row, 4, repr(value * (1 + 1e-6)))
    problems = check_outputs(bad, REFERENCE["fig2-ber"]).problems
    assert len(problems) == 1 and "differs from reference" in problems[0]


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_error_cell_fails(fig2, tmp_path, method):
    name = "run_fig2_ops_nodirect_N16.csv"
    row = 1 + next(i for i, r in enumerate(REFERENCE["fig2-ber"][name])
                   if r[3] == method)
    bad = _damaged(fig2, tmp_path / "bad", name, row, 4, "error")
    report = check_outputs(bad, REFERENCE["fig2-ber"])
    assert report.error_rows == 1
    assert any("unexpected error row" in p for p in report.problems)


def test_out_of_range_value_fails(fig2, tmp_path):
    name = "run_fig2_rps_nodirect_N16.csv"
    row = 1 + next(i for i, r in enumerate(REFERENCE["fig2-ber"][name])
                   if r[3] == "mc")
    bad = _damaged(fig2, tmp_path / "bad", name, row, 4, "0.75")
    assert any("not a number in" in p
               for p in check_outputs(bad, REFERENCE["fig2-ber"]).problems)


def test_run_with_other_simulator_bytes_fails(tmp_path):
    first = _validate_d(tmp_path / "first", 7).parent
    again = _validate_d(tmp_path / "again", 7).parent
    other = _validate_d(tmp_path / "other", 8).parent
    ref = {"validate_d.csv": REFERENCE["validate-mix"]["validate_d.csv"]}
    assert check_outputs(other, ref).problems == []
    assert same_bytes(first, again) == []
    assert same_bytes(first, other) == ["other/validate_d.csv: bytes differ from first"]


def test_fault_injection_raises_validate_fail_rows(tmp_path):
    ref = REFERENCE["validate-mix"]["validate_d.csv"]
    honest, injected = Report(), Report()
    check_validate_table(_validate_d(tmp_path / "honest", 7), ref, honest)
    check_validate_table(_validate_d(tmp_path / "injected", 7, "--lambda-scale", "1.5"),
                         ref, injected)
    assert honest.problems == [] and honest.fail_rows == 0
    assert injected.fail_rows > honest.fail_rows
