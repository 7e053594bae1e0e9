"""Command-line front-end: quantity parsing, config loading, artifacts."""

import json

import pytest

from acansim import CircuitConfig
from acansim.cli import ConfigError, _build_circuit, _read_doc, dispatch, parse_quantity


def load_config(path: str | None) -> CircuitConfig:
    """Circuit config from a JSON file; `{}` or a missing path gives the
    reference scenario (1 mH, 25 pF, 5% duty at 1 MHz, four 1 pF synapses)."""
    return _build_circuit(_read_doc(path))


def test_parse_quantity_suffixes():
    assert parse_quantity("25pF") == pytest.approx(25e-12)
    assert parse_quantity("1mH") == pytest.approx(1e-3)
    assert parse_quantity("5%") == pytest.approx(0.05)
    assert parse_quantity("1.8V") == pytest.approx(1.8)
    assert parse_quantity("80Ohm") == pytest.approx(80.0)
    assert parse_quantity("977kHz") == pytest.approx(977e3)
    assert parse_quantity("3fF") == pytest.approx(3e-15)
    assert parse_quantity("40u" + "m") == pytest.approx(40e-6)
    # micro as the micro sign and as the Greek mu (its NFKC form)
    assert parse_quantity("1\u00b5F") == pytest.approx(1e-6)
    assert parse_quantity("1\u03bcF") == pytest.approx(1e-6)


def test_parse_quantity_bare_numbers():
    assert parse_quantity(42) == 42.0
    assert parse_quantity(2.5e-12) == 2.5e-12
    assert parse_quantity("3e-12") == pytest.approx(3e-12)
    assert parse_quantity("-1.5") == -1.5


def test_parse_quantity_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_quantity("fast")
    with pytest.raises(ConfigError):
        parse_quantity("25qF")
    with pytest.raises(ConfigError):
        parse_quantity(True)
    with pytest.raises(ConfigError):
        parse_quantity([1.0])


def test_load_config_defaults():
    assert load_config(None) == CircuitConfig()


def test_load_config_overrides(tmp_path):
    doc = {
        "pc": {"C_E": "50pF", "D": "10%"},
        "tree": {"C_s": ["2pF", "2pF"]},
        "env": {"corner": "ss", "temperature_C": 75},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.pc.c_e == pytest.approx(50e-12)
    assert cfg.pc.duty_d == pytest.approx(0.10)
    assert cfg.tree.n == 2
    assert cfg.env.corner.value == "SS"
    assert cfg.env.temperature_c == 75.0


def test_load_config_rejects_bad_documents(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(arr))
    sec = tmp_path / "sec.json"
    sec.write_text(json.dumps({"power": {}}))
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(str(sec))
    fld = tmp_path / "fld.json"
    fld.write_text(json.dumps({"pc": {"L": 1}}))
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(str(fld))
    rng = tmp_path / "rng.json"
    rng.write_text(json.dumps({"pc": {"D": 0.9}}))
    with pytest.raises(ConfigError):
        load_config(str(rng))


def test_run_subcommand_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = dispatch(["run", "--codes", "1100,0011,1111", "--out", str(out)])
    assert rc == 0
    assert (out / "neuron_run.csv").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "manifest.json").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cycles"] == 3
    assert summary["oracle_match"] is True
    assert len(summary["output_bits"]) == 3
    assert summary["mean_tree_energy_J"] > 0.0
    assert summary["tool"] == "acansim"
    assert summary["subcommand"] == "run"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["neuron_run.csv", "summary.json"]
    assert "created_utc" in manifest
    header = (out / "neuron_run.csv").read_text().splitlines()[0]
    assert header == "cycle,code,V_m_peak,OutP,delay_ns,E_tree_pJ,E_soma_pJ"


def test_run_trace_artifact(tmp_path):
    out = tmp_path / "out"
    rc = dispatch(["run", "--codes", "1100", "--out", str(out), "--trace"])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("t,I_L,V_PC")
    assert len(lines) > 100


# a tiny protocol and grid for every study, so each subcommand runs in well
# under a second
_TINY_BENCH = {"cycles": 24, "skip": 4, "window": 8, "repeats": 1,
               "f_grid": ["0.98MHz", "1MHz"], "d_grid": [0.05], "w_grid": ["40um"],
               "c_e_grid": ["25pF"], "alpha_grid": [0.0, 1.0]}
# every subcommand, and the data files it writes beside summary.json
_RERUNS = [
    (["run", "--trace"], ["neuron_run.csv", "trace.csv"]),
    (["compare"], ["savings.json"]),
    (["compare", "--mode", "loading", "--n", "8"], ["savings.json"]),
    (["optimize-freq", "--alpha", "1"], []),
    (["corners"], ["corners.csv"]),
    (["sweep-freq"], ["surface_freq_duty.csv"]),
    (["sweep-width"], ["surface_width_duty.csv"]),
    (["sweep-scaling", "--n", "8"], ["scaling.csv"]),
]


@pytest.mark.parametrize("argv, data", _RERUNS, ids=[" ".join(argv) for argv, _ in _RERUNS])
def test_run_artifacts_are_deterministic(tmp_path, argv, data):
    # two reruns of one config and seed write byte-identical data files
    # and summary.json; only the manifest carries wall-clock values
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bench": _TINY_BENCH}))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert dispatch(argv + ["--seed", "0", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(data + ["summary.json"])
    for name in data + ["summary.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _error_exit(argv, capsys) -> str:
    rc = dispatch(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


def test_run_rejects_bad_codes(tmp_path, capsys):
    out = str(tmp_path / "x")
    _error_exit(["run", "--codes", "110", "--out", out], capsys)
    # an empty list is refused, not read as no list
    err = _error_exit(["run", "--codes", "", "--out", out], capsys)
    assert err == "error: --codes: '' is not a 4-bit binary string\n"
    for repeats in ("0", "-1"):
        err = _error_exit(["run", "--codes", "1100", "--repeats", repeats, "--out", out], capsys)
        assert "--repeats" in err
    # an output directory that cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    _error_exit(["run", "--codes", "1100", "--out", str(blocker)], capsys)


def test_negative_seed_is_refused_by_name(tmp_path, capsys):
    out = tmp_path / "x"
    err = _error_exit(["run", "--seed", "-1", "--codes", "1100", "--out", str(out)], capsys)
    assert err == "error: bench.seed: must lie in [0, inf), got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_bad_job_counts_are_refused_by_name(tmp_path, capsys, jobs):
    out = tmp_path / "x"
    argv = ["sweep-width", f"--jobs={jobs}", "--out", str(out)]
    assert _error_exit(argv, capsys) == f"error: --jobs: must be >= 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", [
    "run", "compare", "optimize-freq", "sweep-freq", "corners", "sweep-scaling"])
def test_only_pooled_studies_take_a_job_count(tmp_path, capsys, cmd):
    # sweep-width alone runs a process pool; no other subcommand has --jobs
    out = tmp_path / "x"
    assert dispatch([cmd, "--jobs", "2", "--out", str(out)]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


def test_run_takes_a_recalibration_period_past_int64(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sim": {"recal_every": 10**30}}))
    argv = ["run", "--codes", "1100,0011", "--config", str(path), "--out", str(tmp_path / "x")]
    assert dispatch(argv) == 0


def test_run_refuses_giant_full_sweep(tmp_path, capsys):
    doc = {"tree": {"C_s": ["1pF"] * 11}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = dispatch(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "--codes" in capsys.readouterr().err


def test_run_with_infinite_inductor_is_an_error_exit(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pc": {"L_PC": "1e999H"}}))
    rc = dispatch(["run", "--config", str(path), "--codes", "1100",
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_missing_config_is_an_error_exit(tmp_path, capsys):
    rc = dispatch(["run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_no_subcommand_is_a_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_optimize_freq_subcommand(tmp_path):
    doc = {"bench": {"cycles": 48, "skip": 8, "window": 20}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = dispatch(["optimize-freq", "--config", str(path), "--alpha", "0.0",
                   "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["f_opt_Hz"] == pytest.approx(1e6, rel=2e-2)
    assert summary["predicted_Hz"] == pytest.approx(1e6, rel=1e-6)
    assert summary["alpha"] == 0.0


@pytest.mark.parametrize("alpha", ["1.5", "nan", "-0.5"])
def test_optimize_freq_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    out = tmp_path / "out"
    rc = dispatch(["optimize-freq", f"--alpha={alpha}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha: must lie in [0, 1], got ")
    assert "Traceback" not in err
    assert not out.exists()


def test_bench_section_feeds_sweeps(tmp_path, capsys):
    doc = {"bench": {"cycles": 48, "skip": 8, "window": 20,
                     "f_grid": ["0.96MHz", "1MHz"], "d_grid": [0.05]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = dispatch(["sweep-freq", "--config", str(path), "--out", str(out)])
    assert rc == 0
    lines = (out / "surface_freq_duty.csv").read_text().splitlines()
    assert lines[0] == "f_Hz,duty,energy_J"
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["load_case"] == "all-0"
    assert summary["argmin"]["f_Hz"] == pytest.approx(1e6)
    # a zero synapse count, from the section or from --n, is refused
    # rather than replaced by a default
    doc["bench"] |= {"n_synapses": 0, "c_e_grid": ["25pF"], "alpha_grid": [0.0]}
    path.write_text(json.dumps(doc))
    for argv in (["sweep-scaling"], ["sweep-scaling", "--n", "0"],
                 ["compare", "--mode", "loading"], ["compare", "--mode", "loading", "--n", "0"]):
        err = _error_exit(argv + ["--config", str(path), "--out", str(tmp_path / "n0")], capsys)
        assert "n: must be >= 1" in err


def test_compare_sweep_refuses_loading_flags_by_name(tmp_path, capsys):
    # sweep mode runs the configured tree: a synapse count or C_E given
    # for the loading mode is refused, not ignored
    out = tmp_path / "x"
    for flags, named in ((["--n", "512", "--c-e", "1n"], "--n, --c-e"), (["--c-e", "25pF"], "--c-e")):
        err = _error_exit(["compare", *flags, "--out", str(out)], capsys)
        assert err == f"error: {named}: only with --mode loading\n"
    assert not out.exists()
