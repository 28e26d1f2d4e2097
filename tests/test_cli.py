"""Command-line behavior: parsing, schemas, exit codes, determinism."""

import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from rislink import cli
from rislink import montecarlo as mc
from rislink import rps
from rislink.rps import Modulation
from rislink.scenario import PhaseDesign, config_from_mapping, link_parts


DESK = {
    "n_elements": 16,
    "carrier_hz": "2.45e9",
    "alpha": 2.5,
    "noise_dbm": -85,
    "tx_power_dbm": 20,
    "m_h": 5.761904761904762,
    "m_g": 5.761904761904762,
    "r_h": 20,
    "r_g": 20,
    "psi_deg": 86,
    "direct_link": "false",
    "phase_design": "rps",
}


def write_cfg(tmp_path, name="scenario.cfg", **overrides):
    fields = dict(DESK)
    fields.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()),
                    encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------

def test_config_mapping_handles_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# leading comment\n"
        "\n"
        "  n_elements = 8   # trailing comment\n"
        "alpha=2.5\n",
        encoding="utf-8")
    assert cli.read_config_mapping(str(path)) == {
        "n_elements": "8", "alpha": "2.5"}


@pytest.mark.parametrize("line", ["just_a_word", "= 3", "key ="])
def test_config_mapping_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "c.cfg"
    path.write_text(f"n_elements = 8\n{line}\n", encoding="utf-8")
    with pytest.raises(cli.CliError, match=r":2:"):
        cli.read_config_mapping(str(path))


def test_config_mapping_rejects_duplicates(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 2\nalpha = 3\n", encoding="utf-8")
    with pytest.raises(cli.CliError, match="duplicate key 'alpha'"):
        cli.read_config_mapping(str(path))


def test_config_mapping_rejects_empty_and_missing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# nothing but comments\n", encoding="utf-8")
    with pytest.raises(cli.CliError, match="empty config"):
        cli.read_config_mapping(str(path))
    with pytest.raises(cli.CliError, match="cannot read"):
        cli.read_config_mapping(str(tmp_path / "absent.cfg"))


def test_unknown_field_is_usage_error(tmp_path, capsys):
    path = write_cfg(tmp_path, bogus_field=3)
    code, _, err = run(["metric", "--config", path], capsys)
    assert code == cli.EXIT_USAGE
    assert "bogus_field" in err


def test_missing_field_is_usage_error(tmp_path, capsys):
    fields = {k: v for k, v in DESK.items() if k != "alpha"}
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()),
                    encoding="utf-8")
    code, _, err = run(["metric", "--config", str(path)], capsys)
    assert code == cli.EXIT_USAGE
    assert "alpha" in err


# ---------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------

def test_parse_sweep_linear_grid():
    sweep = cli.parse_sweep("tx_power_dbm=0:10:3")
    assert sweep.key == "tx_power_dbm"
    assert sweep.values == (0.0, 5.0, 10.0)


def test_parse_sweep_log_grid():
    sweep = cli.parse_sweep("r_h=1:100:3:log")
    assert sweep.values == pytest.approx((1.0, 10.0, 100.0))


def test_parse_sweep_sorts_descending_input():
    assert cli.parse_sweep("alpha=4:2:3").values == (2.0, 3.0, 4.0)


def test_parse_sweep_snaps_integer_fields():
    values = cli.parse_sweep("n_elements=4:64:3:log").values
    assert values == (4.0, 16.0, 64.0)
    # the key is matched after stripping: "n_elements =" snaps too
    spaced = cli.parse_sweep("n_elements =4:64:5:log")
    assert spaced.key == "n_elements"
    assert spaced.values == (4.0, 8.0, 16.0, 32.0, 64.0)
    # non-integral points stay put so config validation can reject them
    middle = cli.parse_sweep("n_elements=4:10:3:log").values[1]
    assert middle == pytest.approx(6.324555320336759)


@pytest.mark.parametrize("spec", [
    "tx_power_dbm",           # no '='
    "tx_power_dbm=0:10",      # too few parts
    "tx_power_dbm=0:10:3:lin",
    "tx_power_dbm=a:10:3",
    "tx_power_dbm=0:10:0",
    "r_h=-1:10:3:log",
    "tx_power_dbm=0:inf:2",
    "tx_power_dbm=nan:10:3",
])
@pytest.mark.filterwarnings("error")
def test_parse_sweep_rejects_bad_specs(spec):
    with pytest.raises(cli.CliError, match=re.escape(repr(spec))):
        cli.parse_sweep(spec)


@pytest.mark.parametrize("spec", ["tx_power_dbm=0:1:1000000000",
                                  "r_h=1:100:1001:log"])
def test_sweep_steps_are_bounded_before_any_grid(tmp_path, capsys,
                                                 monkeypatch, spec):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for an out-of-range step count")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    monkeypatch.setattr(cli.np, "geomspace", no_grid)
    code, out, err = run(["metric", "--config", write_cfg(tmp_path),
                          "--sweep", spec], capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and f"[1, {cli.MAX_SWEEP_STEPS}]" in err
    monkeypatch.undo()
    top = f"tx_power_dbm=0:1:{cli.MAX_SWEEP_STEPS}"
    assert len(cli.parse_sweep(top).values) == cli.MAX_SWEEP_STEPS


# ---------------------------------------------------------------------
# method support matrix
# ---------------------------------------------------------------------

def _config(design="rps", direct=False, bits=2):
    mapping = {k: str(v) for k, v in DESK.items()}
    mapping["phase_design"] = design
    if design == "quantized":
        mapping["quantizer_bits"] = str(bits)
    if direct:
        mapping["direct_link"] = "true"
        mapping["m_d"] = "1.5"
    return config_from_mapping(mapping)


@pytest.mark.parametrize("design,direct,metric,expected", [
    ("rps", False, "op", ("exact", "asymptotic", "mc")),
    ("rps", True, "op", ("exact", "mc")),
    ("ops", False, "op", ("exact", "asymptotic", "mc")),
    ("quantized", False, "op", ("mc",)),
    ("rps", False, "ber", ("exact", "asymptotic", "mc")),
    ("rps", True, "ber", ("exact", "mc")),
    ("ops", True, "ber", ("exact", "mc")),
    ("quantized", False, "ber", ("mc",)),
    ("rps", False, "ec", ("exact", "asymptotic", "mc")),
    ("ops", True, "ec", ("exact", "mc")),
    ("quantized", False, "ec", ("exact", "mc")),
    ("quantized", True, "ec", ("mc",)),
])
def test_supported_methods_matrix(design, direct, metric, expected):
    assert cli.supported_methods(_config(design, direct), metric) == expected


@pytest.mark.parametrize("method", ["exact", "asymptotic"])
@pytest.mark.parametrize("metric", ["op", "ber", "ec"])
@pytest.mark.parametrize("design,direct", [
    ("rps", False), ("rps", True), ("ops", False), ("ops", True),
    ("quantized", False), ("quantized", True),
])
def test_engines_agree_with_supported_methods(design, direct, metric,
                                              method):
    # a small surface keeps the exact engines quick
    config = replace(_config(design, direct), n_elements=4)
    args = (config, metric, 1.0, Modulation.BPSK)
    engine = cli.exact_value if method == "exact" else cli.asymptotic_value
    if method not in cli.supported_methods(config, metric):
        with pytest.raises(ValueError, match="not available"):
            engine(*args)
        return
    value = engine(*args)
    upper = {"op": 1.0, "ber": 0.5, "ec": math.inf}[metric]
    assert 0.0 <= value <= upper and math.isfinite(value)


def _link(config):
    return cli._Link(config, *link_parts(config))


@pytest.mark.parametrize("direct", [False, True])
def test_power_sweep_shares_one_transform(direct):
    config = _config("rps", direct)
    louder = _link(replace(config, tx_power_dbm=30.0))
    assert louder.rho != _link(config).rho
    assert louder.hankel() is _link(config).hankel()
    assert louder.chf() is _link(config).chf()
    # another N is another transform
    other = _link(replace(config, n_elements=8))
    assert other.hankel() is not louder.hankel()
    assert other.chf() is not louder.chf()


def test_curve_computes_its_moments_once(monkeypatch):
    # the exact ec rows of one fig1 curve read the transform's phasor
    # moments, computed once per curve instead of once per row
    _, curves = cli._preset_curves("fig1")
    _, param, points, _, _ = curves[0]
    specs = cli._specs_for_curve(param, points, ("ec",), "exact")
    assert len(specs) == 21
    moments = rps.phasor_moments
    calls = []

    def counted(paths, design):
        calls.append(design)
        return moments(paths, design)
    monkeypatch.setattr(rps, "phasor_moments", counted)
    cli._transform.cache_clear()
    rows = cli.compute_rows(specs, 1e-3, Modulation.BPSK, 10_000, 1)
    assert all(row.estimate is not None for row in rows)
    assert calls == [PhaseDesign("rps")]


def test_rps_ber_sweep_evaluates_the_transform_a_fixed_number_of_times(
        monkeypatch):
    # the exact rps BER rows of a power sweep read H from one table on the
    # transform's t-lattice, so a sweep twice as dense over the same range
    # makes the same few transform calls
    calls = []
    call = rps.HankelProduct.__call__

    def counted(self, t):
        calls.append(t)
        return call(self, t)
    monkeypatch.setattr(rps.HankelProduct, "__call__", counted)
    over = {"n_elements": 4, "m_h": 1.5, "m_g": 2.5, "direct_link": "true",
            "m_d": 1.5}
    counts = []
    for step in (2.0, 1.0):
        powers = [-10.0 + step * i for i in range(round(40.0 / step) + 1)]
        specs = [cli.RowSpec("tx_power_dbm", p, cli.build_config(
            cli._base_mapping(tx_power_dbm=p, **over)), "ber", "exact")
            for p in powers]
        cli._transform.cache_clear()
        calls.clear()
        rows = cli.compute_rows(specs, 1.0, Modulation.BPSK, 10_000, 1)
        assert all(row.estimate is not None for row in rows)
        counts.append(len(calls))
    assert len(specs) == 41
    assert counts[0] == counts[1] <= 8


def test_mc_value_rejects_unknown_metric():
    with pytest.raises(ValueError, match="not available for metric 'bogus'"):
        cli.mc_value(_config(), "bogus", 1.0, Modulation.BPSK, 10_000, 1)


def test_method_all_always_resolves():
    for design in ("rps", "ops", "quantized"):
        for direct in (False, True):
            config = _config(design, direct)
            for metric in ("op", "ber", "ec"):
                methods = cli._resolve_methods(config, metric, "all")
                assert methods and methods[-1] == "mc"


def test_unsupported_explicit_method_is_usage_error(tmp_path, capsys):
    path = write_cfg(tmp_path, phase_design="ops")
    code, out, err = run(["metric", "--config", path, "--metric", "ec",
                          "--method", "asymptotic"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "asymptotic" in err and "'ec'" in err


# ---------------------------------------------------------------------
# table formatting
# ---------------------------------------------------------------------

def test_g17_round_trips_doubles():
    for v in (0.1, 1.0 / 3.0, 1.2345678901234567e-300, 6.02e23, 5e-324):
        assert float(cli._g17(v)) == v


def test_write_table_flags_failed_rows(capsys):
    rows = [cli.Row("p", 1.0, "op", "exact", 0.25, None),
            cli.Row("p", 2.0, "op", "exact", None, None),
            cli.Row("p", 3.0, "op", "mc", 0.5, 0.01)]
    ok = cli.write_table(rows, sys.stdout)
    out = capsys.readouterr().out.splitlines()
    assert not ok
    assert out[0] == "param,value,metric,method,estimate,std_error"
    assert out[1] == "p,1,op,exact,0.25,"
    assert out[2] == "p,2,op,exact,error,"
    assert out[3] == "p,3,op,mc,0.5,0.01"


# ---------------------------------------------------------------------
# metric command
# ---------------------------------------------------------------------

def test_metric_single_config_full_table(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, _ = run(["metric", "--config", path, "--trials", "10000"],
                       capsys)
    lines = out.splitlines()
    assert code == cli.EXIT_OK
    assert lines[0] == cli._CSV_HEADER
    # op/ber/ec x exact/asymptotic/mc on a direct-free RPS scenario
    assert len(lines) == 10
    cells = [line.split(",") for line in lines[1:]]
    assert [c[2] for c in cells] == ["op"] * 3 + ["ber"] * 3 + ["ec"] * 3
    assert [c[3] for c in cells] == ["exact", "asymptotic", "mc"] * 3
    for c in cells:
        assert c[0] == "tx_power_dbm" and float(c[1]) == 20.0
        float(c[4])  # every estimate parses back
        assert (c[5] == "") == (c[3] != "mc")


def test_metric_estimates_round_trip_exact_values(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, _ = run(["metric", "--config", path, "--metric", "ber",
                        "--method", "exact", "--gamma-th-db", "-30"], capsys)
    assert code == cli.EXIT_OK
    printed = float(out.splitlines()[1].split(",")[4])
    config = config_from_mapping({k: str(v) for k, v in DESK.items()})
    from rislink.rps import Modulation
    assert printed == cli.exact_value(config, "ber", 1e-3,
                                      Modulation.from_label("bpsk"))


def test_metric_out_file_matches_stdout(tmp_path, capsys):
    path = write_cfg(tmp_path)
    args = ["metric", "--config", path, "--method", "exact"]
    code, out, _ = run(args, capsys)
    assert code == cli.EXIT_OK
    dest = tmp_path / "table.csv"
    assert cli.main(args + ["--out", str(dest)]) == cli.EXIT_OK
    capsys.readouterr()
    assert dest.read_text(encoding="utf-8") == out


def test_metric_sweep_emits_ascending_curve(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, _ = run(["metric", "--config", path, "--metric", "ec",
                        "--method", "exact",
                        "--sweep", "tx_power_dbm=0:30:4"], capsys)
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [0.0, 10.0, 20.0, 30.0]
    assert all(r[0] == "tx_power_dbm" for r in rows)
    values = [float(r[4]) for r in rows]
    assert values == sorted(values)  # capacity grows with power


def test_metric_sweep_over_element_count(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, _ = run(["metric", "--config", path, "--metric", "ec",
                        "--method", "exact",
                        "--sweep", "n_elements=4:64:3:log"], capsys)
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [4.0, 16.0, 64.0]


def test_metric_gamma_threshold_changes_outage(tmp_path, capsys):
    path = write_cfg(tmp_path)
    base = ["metric", "--config", path, "--metric", "op", "--method", "exact"]
    _, out_default, _ = run(base, capsys)
    _, out_low, _ = run(base + ["--gamma-th-db", "-30"], capsys)
    op_default = float(out_default.splitlines()[1].split(",")[4])
    op_low = float(out_low.splitlines()[1].split(",")[4])
    assert op_low < op_default


def test_metric_modulation_selects_kernel(tmp_path, capsys):
    path = write_cfg(tmp_path)
    base = ["metric", "--config", path, "--metric", "ber", "--method", "exact"]
    _, out_bpsk, _ = run(base, capsys)
    _, out_dpsk, _ = run(base + ["--modulation", "bdpsk"], capsys)
    bpsk = float(out_bpsk.splitlines()[1].split(",")[4])
    bdpsk = float(out_dpsk.splitlines()[1].split(",")[4])
    assert bpsk != bdpsk
    assert 0.0 < bpsk < bdpsk < 0.5  # coherent detection wins


@pytest.mark.parametrize("extra", [
    [],                                    # neither source
    ["--preset", "fig1"],                  # both sources
    ["--trials", "9999"],
    ["--seed", "-1"],
    ["--sweep", "tx_power_dbm=garbage"],
    ["--gamma-th-db", "nan"],
    ["--sweep", "tx_power_dbm=0:inf:2"],
    ["--sweep", "n_elements=4097:4097:1"],
    ["--sweep", "tx_power_dbm=0:4000:2"],    # rho overflows at 4000 dBm
])
def test_metric_usage_errors(tmp_path, capsys, extra):
    path = write_cfg(tmp_path)
    argv = ["metric"] + (["--config", path] if extra != [] else []) + extra
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("rislink:")


def test_metric_non_finite_config_value_is_usage_error(tmp_path, capsys):
    path = write_cfg(tmp_path, tx_power_dbm="nan")
    code, out, err = run(["metric", "--config", path], capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and "tx_power_dbm" in err


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_metric_bad_thread_count_is_usage_error(tmp_path, capsys,
                                                monkeypatch, method):
    monkeypatch.setenv("RISLINK_THREADS", "abc")
    path = write_cfg(tmp_path)
    code, out, err = run(["metric", "--config", path, "--metric", "op",
                          "--method", method, "--trials", "10000"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("rislink:")
    assert "RISLINK_THREADS" in err


def test_metric_numerical_failure_exits_2(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("synthetic blow-up")

    monkeypatch.setattr(cli, "exact_value", boom)
    path = write_cfg(tmp_path)
    code, out, _ = run(["metric", "--config", path, "--metric", "op",
                        "--method", "exact"], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out.splitlines()[1] == "tx_power_dbm,20,op,exact,error,"


def test_metric_byte_identical_across_thread_counts(tmp_path, capsys,
                                                    monkeypatch):
    path = write_cfg(tmp_path)
    argv = ["metric", "--config", path, "--method", "mc",
            "--gamma-th-db", "-30", "--trials", "20000", "--seed", "7"]
    outputs = []
    for threads in ("1", "8", "1"):
        monkeypatch.setenv("RISLINK_THREADS", threads)
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert ",mc," in outputs[0]


def test_metric_byte_identical_across_blas_thread_counts(tmp_path):
    # every matrix product the engines run: the ops rows with a direct
    # path reach the direct-path CHF's product, the Gauss-Jacobi eigh and
    # the Gauss-Legendre panels, and the rps BER row its t-lattice sum
    ops = write_cfg(tmp_path, "ops.cfg", phase_design="ops",
                    direct_link="true", m_d=1.5)
    rows = [ops, "op", ops, "ber", write_cfg(tmp_path), "ber"]
    script = """if True:
        import sys
        from rislink.cli import main
        args = sys.argv[1:]
        for cfg, metric in zip(args[::2], args[1::2]):
            assert main(["metric", "--config", cfg, "--metric", metric,
                         "--method", "exact", "--modulation", "bpsk",
                         "--sweep", "tx_power_dbm=0:20:3"]) == 0
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script] + rows,
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b",exact,") == 9


def test_analytic_rows_run_on_calling_thread(tmp_path, capsys, monkeypatch):
    callers = []
    exact = cli.exact_value

    def traced(*args, **kwargs):
        callers.append(threading.get_ident())
        return exact(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_value", traced)
    monkeypatch.setenv("RISLINK_THREADS", "2")
    code, _, _ = run(["metric", "--config", write_cfg(tmp_path),
                      "--sweep", "tx_power_dbm=0:10:3", "--method", "exact"],
                     capsys)
    assert code == cli.EXIT_OK
    assert len(callers) == 3 * 3
    assert set(callers) == {threading.main_thread().ident}


def _no_rows(*args, **kwargs):
    raise AssertionError("rows computed before the output was checked")


@pytest.mark.parametrize("argv", [
    ["metric", "--metric", "op", "--method", "asymptotic", "--out"],
    ["validate", "--out"],
    ["metric", "--preset", "fig1", "--out"],
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "compute_rows", _no_rows)
    if "--preset" not in argv:
        argv = argv[:1] + ["--config", write_cfg(tmp_path)] + argv[1:]
    code, out, err = run(argv + [str(tmp_path / "missing" / "x.csv")],
                         capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("rislink: cannot write")


# ---------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------

def test_preset_requires_out_prefix(capsys):
    code, _, err = run(["metric", "--preset", "fig1"], capsys)
    assert code == cli.EXIT_USAGE and "--out" in err


def test_preset_rejects_sweep(capsys):
    code, _, err = run(["metric", "--preset", "fig1", "--out", "x",
                        "--sweep", "r_h=1:2:2"], capsys)
    assert code == cli.EXIT_USAGE and "sweep" in err


@pytest.mark.parametrize("flags, word", [
    (["--metric", "op"], "metric"),
    (["--method", "asymptotic"], "method"),
    (["--method", "mc"], "method")])
def test_preset_rejects_metric_and_method(capsys, tmp_path, flags, word):
    # a preset fixes its metrics and methods, so the flags would be
    # silently ignored
    out = str(tmp_path / "p")
    code, _, err = run(["metric", "--preset", "fig2", "--out", out,
                        "--trials", "10000"] + flags, capsys)
    assert code == cli.EXIT_USAGE and f"--{word} does not apply" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset, flags, word", [
    ("fig2", ["--gamma-th-db", "3"], "gamma-th-db"),
    ("fig3", ["--gamma-th-db", "5"], "gamma-th-db"),
    ("fig1", ["--modulation", "bdpsk"], "modulation"),
    ("fig3", ["--modulation", "bpsk"], "modulation")])
def test_preset_rejects_threshold_or_modulation_it_ignores(
        capsys, tmp_path, preset, flags, word):
    # a preset with no op curve has no use for a threshold, and one with
    # no ber curve none for a modulation
    out = str(tmp_path / "p")
    code, _, err = run(["metric", "--preset", preset, "--out", out,
                        "--trials", "10000"] + flags, capsys)
    assert code == cli.EXIT_USAGE and f"--{word} does not apply" in err
    assert list(tmp_path.iterdir()) == []


def test_preset_curve_definitions():
    th_db, fig1 = cli._preset_curves("fig1")
    assert th_db == -30.0
    assert [c[0] for c in fig1] == ["fig1_N16", "fig1_N64", "fig1_N256"]
    for _, param, points, metrics, method in fig1:
        assert (param, metrics, method) == ("tx_power_dbm", ("op", "ec"),
                                            "all")
        assert len(points) == 21

    th_db, fig2 = cli._preset_curves("fig2")
    assert th_db == 0.0 and len(fig2) == 8
    assert {c[0] for c in fig2} == {
        f"fig2_{d}_{t}_N{n}" for d in ("rps", "ops")
        for t in ("nodirect", "direct") for n in (4, 16)}
    assert all(c[3] == ("ber",) and c[4] == ("exact", "mc") for c in fig2)

    th_db, fig3 = cli._preset_curves("fig3")
    assert th_db == 0.0 and len(fig3) == 6
    quant = next(c for c in fig3 if c[0] == "fig3_quantized_N64")
    r_h, config = quant[2][0]
    assert r_h == 25.0 and config.phase_design.bits == 2
    assert config.geometry.r_h + config.geometry.r_g == 100.0

    with pytest.raises(cli.CliError, match="unknown preset"):
        cli._preset_curves("fig9")


@pytest.mark.parametrize("preset,draws", [("fig1", 14), ("fig2", 2),
                                          ("fig3", 16)])
def test_preset_draws_each_hop_shape_once(tmp_path, capsys, monkeypatch,
                                          preset, draws):
    # every curve of a preset goes to one simulator call, so one chunk
    # substream per (N, m_h, m_g) and chunk serves every design and
    # distance; the analytic rows are stubbed out
    monkeypatch.setattr(cli, "exact_value", lambda *a, **k: 0.5)
    monkeypatch.setattr(cli, "asymptotic_value", lambda *a, **k: 0.5)
    calls = _count_generators(monkeypatch)
    code, _, _ = run(["metric", "--preset", preset, "--trials", "10000",
                      "--seed", "1", "--out", str(tmp_path / "p")], capsys)
    assert code == cli.EXIT_OK
    assert len(calls) == draws


@pytest.mark.parametrize("command", ["preset", "metric", "validate"])
def test_trials_above_bound_is_usage_error(tmp_path, capsys, monkeypatch,
                                           command):
    monkeypatch.setattr(cli, "compute_rows", _no_rows)
    if command == "preset":
        argv = ["metric", "--preset", "fig3", "--out", str(tmp_path / "p")]
    else:
        argv = [command, "--config", write_cfg(tmp_path)]
    for trials in (cli.MAX_TRIALS + 1, 10 ** 15):
        code, out, err = run(argv + ["--trials", str(trials)], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and "--trials" in err


@pytest.mark.parametrize("command", ["preset", "metric", "validate"])
def test_gamma_threshold_out_of_range_is_usage_error(tmp_path, capsys,
                                                     monkeypatch, command):
    monkeypatch.setattr(cli, "compute_rows", _no_rows)
    if command == "preset":
        argv = ["metric", "--preset", "fig2", "--out", str(tmp_path / "p")]
    else:
        argv = [command, "--config", write_cfg(tmp_path)]
    # 10^(x/10) overflows, or underflows to 0
    for x in ("4000", "1e308", "-4000", "-inf"):
        code, out, err = run(argv + [f"--gamma-th-db={x}"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and "--gamma-th-db" in err


@pytest.mark.parametrize("design, gamma_th_db, want", [
    ("ops", "1800", "1"),       # r ** 4 overflowed the Markov test
    ("rps", "-3000", "0"),      # u / r overflowed the Hankel argument
    ("rps", "-2500", "0"),
])
def test_extreme_outage_thresholds_give_numbers(tmp_path, capsys, design,
                                                gamma_th_db, want):
    path = write_cfg(tmp_path, n_elements=128, phase_design=design)
    code, out, err = run(["metric", "--config", path, "--metric", "op",
                          "--gamma-th-db", gamma_th_db, "--trials", "10000"],
                         capsys)
    assert code == cli.EXIT_OK
    rows = {line.split(",")[3]: line.split(",")[4]
            for line in out.splitlines()[1:]}
    assert rows["exact"] == want and rows["mc"] == want


@pytest.mark.parametrize("gamma_th_db", ["10", "1800", "3000"])
def test_one_path_outage_at_huge_thresholds_is_one(tmp_path, capsys,
                                                   gamma_th_db):
    # the conditioned one-cascade form: its incomplete gamma stalled far
    # out, and m v^2 / Omega overflowed at 3000 dB
    path = write_cfg(tmp_path, n_elements=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["metric", "--config", path, "--metric", "op",
                            "--method", "exact", "--gamma-th-db", gamma_th_db],
                           capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].split(",")[3:5] == ["exact", "1"]


def test_preset_fig2_writes_curve_files(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    code, out, err = run(["metric", "--preset", "fig2", "--out", prefix,
                          "--trials", "10000"], capsys)
    assert code == cli.EXIT_OK and out == ""
    written = [line for line in err.splitlines() if line.startswith("wrote ")]
    assert len(written) == 8
    files = sorted(tmp_path.glob("t_fig2_*.csv"))
    assert len(files) == 8
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == cli._CSV_HEADER
        assert len(lines) == 1 + 21 * 2  # exact + mc per power
        assert all(line.split(",")[3] in ("exact", "mc") for line in lines[1:])


# ---------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------

def test_validate_clean_config_passes(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, _ = run(["validate", "--config", path, "--trials", "20000",
                        "--gamma-th-db", "-30"], capsys)
    lines = out.splitlines()
    assert code == cli.EXIT_OK
    assert lines[0] == "metric,method,estimate,std_error,z_score,status"
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == ["op"] * 3 + ["ber"] * 3 + ["ec"] * 3
    for c in cells:
        if c[1] == "mc":
            assert c[5] == "ok" and c[4] == ""
        elif c[1] == "asymptotic":
            assert c[5] == "info"
        else:
            assert c[5] == "ok" and abs(float(c[4])) <= 4.0


def test_validate_strongly_los_one_path_passes(tmp_path, capsys):
    # scenario e (perfbench/scenarios/e.cfg): K = 20 on both hops, whose
    # exact BER row was an error
    m = 10.756097560975602
    path = write_cfg(tmp_path, n_elements=1, m_h=m, m_g=m)
    code, out, _ = run(["validate", "--config", path, "--seed", "1"], capsys)
    assert code == cli.EXIT_OK
    assert all(line.split(",")[5] in ("ok", "info")
               for line in out.splitlines()[1:])


def _count_generators(monkeypatch):
    calls = []
    make = mc.RngStream.generator

    def counted(self):
        calls.append(self.stream_id)
        return make(self)
    monkeypatch.setattr(mc.RngStream, "generator", counted)
    return calls


def test_validate_draws_one_sample_set(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path)
    calls = _count_generators(monkeypatch)
    code, out, _ = run(["validate", "--config", path, "--trials", "20000",
                        "--gamma-th-db", "-30", "--seed", "9"], capsys)
    assert code == cli.EXIT_OK
    n_chunks = -(-20_000 // mc._chunk_size(16))
    assert n_chunks == 2
    # one draw per chunk for op, ber and ec together
    assert sorted(calls) == list(range(n_chunks))
    config = cli.build_config(cli.read_config_mapping(path))
    mc_cells = [line.split(",") for line in out.splitlines()
                if ",mc," in line]
    for metric, cells in zip(("op", "ber", "ec"), mc_cells):
        alone = cli.mc_value(config, metric, 1e-3, Modulation.BPSK,
                             20_000, 9)
        assert cells[2:4] == ["%.17g" % alone.value,
                              "%.17g" % alone.std_error]


def test_validate_reports_failed_simulator_rows(tmp_path, capsys,
                                                monkeypatch):
    def fail(queries, trials, seed):
        raise ArithmeticError("simulated failure")
    monkeypatch.setattr(mc, "estimate_group", fail)
    code, out, _ = run(["validate", "--config", write_cfg(tmp_path),
                        "--trials", "20000"], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out.splitlines()[1:] == [f"{m},mc,error,,,error"
                                    for m in ("op", "ber", "ec")]


def test_metric_sweep_draws_one_sample_set(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path)
    calls = _count_generators(monkeypatch)
    code, out, _ = run(["metric", "--config", path, "--method", "mc",
                        "--sweep", "tx_power_dbm=-10:30:21",
                        "--trials", "20000", "--seed", "9"], capsys)
    assert code == cli.EXIT_OK
    assert len(out.splitlines()) == 1 + 21 * 3
    assert sorted(calls) == list(range(-(-20_000 // mc._chunk_size(16))))


def test_validate_fault_injection_trips_z_gate(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, _ = run(["validate", "--config", path, "--trials", "20000",
                        "--gamma-th-db", "-30", "--lambda-scale", "2.0"],
                       capsys)
    assert code == cli.EXIT_VALIDATION
    rows = [line.split(",") for line in out.splitlines()[1:]]
    fails = [r for r in rows if r[5] == "fail"]
    assert fails and all(r[1] == "exact" for r in fails)
    assert all(abs(float(r[4])) > 4.0 for r in fails)
    # the asymptotic rows drift too but stay advisory
    assert all(r[5] == "info" for r in rows if r[1] == "asymptotic")


@pytest.mark.parametrize("exact_ber, z, status, code", [
    (None, "0", "ok", cli.EXIT_OK),
    (1e-300, "inf", "fail", cli.EXIT_VALIDATION),
])
def test_validate_zero_spread(tmp_path, capsys, monkeypatch, exact_ber, z,
                              status, code):
    # at 60 dBm the simulator sees no bit error (BER 0, standard error 0),
    # and the exact BER is 0 too: agreement scores z = 0; any other value
    # over a zero standard error stays a failure
    if exact_ber is not None:
        exact = cli.exact_value
        monkeypatch.setattr(cli, "exact_value", lambda config, metric, *a: (
            exact_ber if metric == "ber" else exact(config, metric, *a)))
    path = write_cfg(tmp_path, n_elements=128, phase_design="ops",
                     tx_power_dbm=60)
    got, out, _ = run(["validate", "--config", path, "--trials", "10000",
                       "--seed", "1"], capsys)
    assert got == code
    lines = out.splitlines()
    assert "ber,mc,0,0,,ok" in lines
    assert f"ber,exact,{'%.17g' % (exact_ber or 0.0)},,{z},{status}" in lines


def test_validate_lambda_scale_must_be_positive(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, _, err = run(["validate", "--config", path,
                        "--lambda-scale", "0"], capsys)
    assert code == cli.EXIT_USAGE and "lambda-scale" in err


@pytest.mark.parametrize("extra", [
    ["--gamma-th-db", "nan"],
    ["--lambda-scale", "nan"],
    ["--lambda-scale", "inf"],
])
def test_validate_non_finite_input_is_usage_error(tmp_path, capsys, extra):
    path = write_cfg(tmp_path)
    code, out, err = run(["validate", "--config", path] + extra, capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("rislink:")


def test_validate_report_file(tmp_path, capsys):
    path = write_cfg(tmp_path)
    dest = tmp_path / "report.csv"
    code, out, _ = run(["validate", "--config", path, "--trials", "20000",
                        "--out", str(dest)], capsys)
    assert code == cli.EXIT_OK and out == ""
    assert dest.read_text(encoding="utf-8").startswith(
        "metric,method,estimate,")


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def test_main_without_command_is_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("rislink:")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "rislink.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "metric" in proc.stdout and "validate" in proc.stdout
