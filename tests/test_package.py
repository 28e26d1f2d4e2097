"""The package surface: its export list, and the names the benchmark
harness in ``perfbench/`` patches, resolved by running its scripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import rislink
from rislink import numerics as nm

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# names the package exported before its library surface was cut to
# what the CLI runs
WITHDRAWN = ("IntegrabilityError", "QuadratureSpec", "ber_rps_asymptotic",
             "diversity_order_ops", "estimate_op_grid", "gamma_c_moment",
             "gamma_c_moment_multinomial", "gamma_r_pdf", "largen_ops_chf",
             "largen_ops_pdf", "largen_rps_chf", "realize_snr",
             "sample_nakagami_envelope")

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
    assert "ln_gamma" not in nm.__all__


def _run_helper(script, args, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()),
                   encoding="utf-8")
    env = dict(os.environ, RISLINK_THREADS="1")
    src = str(Path(rislink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    argv = args + ["metric", "--config", str(cfg), "--metric", "op",
                   "--trials", "10000"]
    return subprocess.run([sys.executable, str(PERFBENCH / script)] + argv,
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=300)


def test_benchmark_tracer_resolves_its_hooks(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = _run_helper("tracer.py", [str(spans_path), "--"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    methods = [line.split(",")[3] for line in proc.stdout.splitlines()[1:]]
    assert methods == ["exact", "asymptotic", "mc"]
    with open(spans_path, encoding="utf-8") as fh:
        names = {span[1] for span in json.load(fh)["spans"]}
    assert {"engine.exact", "engine.asymptotic", "numerics.quad",
            "numerics.hyp2f1", "rps.HankelProduct",
            "cli.compute_rows"} <= names


def test_benchmark_firstrow_reaches_a_row(tmp_path):
    proc = _run_helper("firstrow.py", [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("firstrow ")
