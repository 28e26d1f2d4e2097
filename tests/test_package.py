"""The package surface: its export list, and the names the benchmark
harness in ``perfbench/`` patches, resolved by running its scripts."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rislink
from rislink import numerics as nm

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# names the package exported before its library surface was cut to
# what the CLI runs, before the phase design became the simulator's
# only phase input, before each exact value kept a single route,
# before the per-kind path helpers became `path_moment` and
# `hankel_factor`, before `phasor_moments` served every phase design, and
# before the helpers that only tests call left the export table (they
# stay importable by module path)
WITHDRAWN = ("EXACT_NAKAGAMI", "IntegrabilityError", "PhaseModel",
             "QuadratureSpec", "RngStream", "UNIFORM", "ber_ops_bdpsk",
             "ber_ops_coherent", "ber_rps_asymptotic", "chf_cascade",
             "chf_direct", "default_phase_model", "derive",
             "diversity_order_ops", "estimate_ber", "estimate_ec",
             "estimate_op", "estimate_op_grid", "gamma_c_moment",
             "gamma_c_moment_multinomial", "gamma_q_moment", "gamma_r_moment",
             "gamma_r_pdf", "hankel_cascade", "hankel_direct", "hankel_factor",
             "largen_ops_chf", "largen_ops_pdf", "largen_rps_chf",
             "nakagami_moment", "op_ops", "op_rps", "path_moment",
             "pathloss_omega", "phasor_moments", "quantized_phase_factors",
             "quantized_phases", "realize_snr", "ricean_k_to_m",
             "sample_nakagami_envelope", "sample_nakagami_phase", "x_moment",
             "zt_stats")
# numerics helpers that only tests call, withdrawn from `numerics.__all__`
NUMERICS_WITHDRAWN = ("EULER_GAMMA", "digamma", "ln_gamma",
                      "taylor_coefficients_product", "upper_incomplete_gamma")

TINY = {
    "n_elements": 4, "carrier_hz": "2.45e9", "alpha": 2.5, "noise_dbm": -85,
    "tx_power_dbm": 20, "m_h": 2.0, "m_g": 2.0, "r_h": 20, "r_g": 20,
    "psi_deg": 86, "direct_link": "false", "phase_design": "rps",
}


def test_exports_resolve_without_duplicates():
    names = rislink.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(rislink, name)
    for name in WITHDRAWN:
        assert name not in names
        assert not hasattr(rislink, name)
    assert len(nm.__all__) == len(set(nm.__all__))
    for name in nm.__all__:
        getattr(nm, name)
    for name in NUMERICS_WITHDRAWN:
        assert name not in nm.__all__


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start (API)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    analytic, value, std_error = map(float, out.getvalue().split())
    assert all(map(math.isfinite, (analytic, value, std_error)))
    assert abs(analytic - value) <= 3.0 * std_error


def _write_config(path, config):
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                    encoding="utf-8")
    return path


def _run_python(argv, **overrides):
    """Run ``python argv`` on this package with one simulator thread and
    the environment ``overrides`` (None removes a variable).  The child's
    environment is always built here: once ``cli`` is imported, this
    process's own environment carries the CLI's BLAS setting."""
    env = dict(os.environ, RISLINK_THREADS="1")
    for key, value in overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    src = str(Path(rislink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=300)


def _run_helper(script, args, tmp_path, config=TINY, metric="op",
                modulation="bpsk"):
    cfg = _write_config(tmp_path / "tiny.cfg", config)
    argv = args + ["metric", "--config", str(cfg), "--metric", metric,
                   "--modulation", modulation, "--trials", "10000"]
    return _run_python([str(PERFBENCH / script)] + argv)


def _traced_run(tmp_path, **kwargs):
    """(methods of the CSV rows, span names) of one traced metric run."""
    spans_path = tmp_path / "spans.json"
    proc = _run_helper("tracer.py", [str(spans_path), "--"], tmp_path,
                       **kwargs)
    assert proc.returncode == 0, proc.stderr
    methods = [line.split(",")[3] for line in proc.stdout.splitlines()[1:]]
    with open(spans_path, encoding="utf-8") as fh:
        names = {span[1] for span in json.load(fh)["spans"]}
    return methods, names


def test_benchmark_tracer_resolves_its_hooks(tmp_path):
    methods, names = _traced_run(tmp_path)
    assert methods == ["exact", "asymptotic", "mc"]
    assert {"engine.exact", "engine.asymptotic", "numerics.quad",
            "numerics.hyp2f1", "rps.HankelProduct",
            "cli.compute_rows"} <= names


@pytest.mark.parametrize("modulation, spans", [
    # the direct path's CHF factor is the 1F1 call
    pytest.param("bpsk", {"ops.AmplitudeChf", "numerics.hyp1f1"},
                 id="bpsk"),
    # BDPSK always integrates the damped CHF on the saddle-point contour
    pytest.param("bdpsk", {"ops.AmplitudeChf.value_complex"}, id="bdpsk"),
])
def test_benchmark_tracer_sees_the_ops_ber_engine(tmp_path, modulation,
                                                  spans):
    # the optimal-phase BER row goes through the engine table straight
    # to ops.ber_ops
    config = dict(TINY, phase_design="ops", direct_link="true", m_d=1.5)
    methods, names = _traced_run(tmp_path, config=config, metric="ber",
                                 modulation=modulation)
    assert methods == ["exact", "mc"]
    assert {"engine.exact"} | spans <= names


def test_benchmark_firstrow_reaches_a_row(tmp_path):
    proc = _run_helper("firstrow.py", [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("firstrow ")


def _loaded_after_rows(tmp_path, rows, modules):
    """Run (config, metric, method, modulation) rows through the CLI in
    one fresh process: (the methods of the CSV rows, the sorted subset
    of ``modules`` in sys.modules afterwards)."""
    script = """if True:
        import sys
        from rislink.cli import main
        *args, names = sys.argv[1:]
        for i in range(0, len(args), 4):
            cfg, metric, method, mod = args[i:i + 4]
            assert main(["metric", "--config", cfg, "--metric", metric,
                         "--method", method, "--modulation", mod,
                         "--trials", "10000"]) == 0
        print(sorted(set(names.split(",")) & set(sys.modules)))
    """
    argv = ["-c", script]
    for i, (config, *row) in enumerate(rows):
        argv += [str(_write_config(tmp_path / f"{i}.cfg", config)), *row]
    proc = _run_python(argv + [",".join(modules)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    methods = [line.split(",")[3] for line in lines[:-1]
               if not line.startswith("param,")]
    return methods, lines[-1]


def test_exact_rows_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma, about 18 ms of a process;
    # the breakpoint ladders and the contour's damping levels take their
    # sorted unique values without it
    ops = dict(TINY, phase_design="ops", direct_link="true", m_d=1.5)
    rows = [(TINY, "op", "exact", "bpsk"), (ops, "op", "exact", "bpsk"),
            (ops, "ber", "exact", "bpsk"), (ops, "ber", "exact", "bdpsk")]
    methods, loaded = _loaded_after_rows(tmp_path, rows, ["numpy.ma"])
    assert methods == ["exact"] * len(rows)
    assert loaded == "[]"


def test_rows_run_on_numpy_alone(tmp_path):
    # scipy and mpmath are test dependencies only: an exact row of every
    # phase design and a simulator row load neither
    ops = dict(TINY, phase_design="ops")
    quant = dict(TINY, phase_design="quantized", quantizer_bits=2)
    rows = [(TINY, "op", "exact", "bpsk"), (ops, "op", "exact", "bpsk"),
            (quant, "ec", "exact", "bpsk"), (TINY, "ber", "mc", "bpsk")]
    methods, loaded = _loaded_after_rows(tmp_path, rows, ["scipy", "mpmath"])
    assert methods == ["exact", "exact", "exact", "mc"]
    assert loaded == "[]"


def _after_import(statement, **overrides):
    """Run ``statement`` in one fresh process: (its OS threads, or None
    without /proc, its OPENBLAS_NUM_THREADS, whether numpy is loaded)."""
    script = """if True:
        import json, os, sys
        %s
        tasks = "/proc/self/task"
        print(json.dumps([
            len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
            os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules]))
    """ % statement
    proc = _run_python(["-c", script], **overrides)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_process_starts_no_blas_threads():
    # OpenBLAS would start a worker per extra CPU as numpy loads; the
    # simulator's pool is the only one the CLI starts, and only for rows
    threads, blas, numpy_loaded = _after_import(
        "from rislink.cli import main", OPENBLAS_NUM_THREADS=None)
    assert (blas, numpy_loaded) == ("1", True)
    if threads is None:
        pytest.skip("no /proc/self/task to count threads")
    assert threads == 1


def test_cli_keeps_the_callers_blas_threads():
    _, blas, _ = _after_import("from rislink.cli import main",
                               OPENBLAS_NUM_THREADS="2")
    assert blas == "2"


def test_package_import_loads_no_numpy():
    # the exports resolve on first use, so a library user's BLAS
    # settings are theirs until a name is used
    _, blas, numpy_loaded = _after_import(
        "import rislink", OPENBLAS_NUM_THREADS=None)
    assert (blas, numpy_loaded) == (None, False)
    script = """if True:
        import rislink
        names = {}
        exec("from rislink import *", names)
        print(sorted(set(rislink.__all__) - set(names)))
    """
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
