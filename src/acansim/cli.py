"""Batch front-end: JSON configs in, CSV/JSON artifacts out.

Config values accept SI-suffixed strings ("25pF", "1mH", "1.8V", "5%");
bare numbers are base SI units.  Data files are byte-deterministic for a
fixed config and seed; wall-clock timestamps go only to the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import bench
from .engine import SimulationError
from .model import (
    CircuitConfig,
    Corner,
    DlccConfig,
    Environment,
    PowerClockConfig,
    SimConfig,
    SynapseTreeConfig,
    predicted_optimal_frequency,
)
from .neuron import input_sweeps, run_neuron


class ConfigError(ValueError):
    """Config file rejected; message names the offending field."""


# micro as "u", the micro sign and the Greek mu (the micro sign's NFKC form)
_PREFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "\u00b5": 1e-6, "\u03bc": 1e-6,
    "m": 1e-3, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9,
}
# longest first so "Hz" wins over "z"-less fallbacks
_UNITS = ("Ohm", "ohm", "Hz", "F", "H", "V", "s", "m", "A", "J", "W")

_NUM_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([^\s]*)\s*$")


def parse_quantity(value, field: str = "value") -> float:
    """Float from a bare number or an SI-suffixed string."""
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{field}: expected number or string, got {type(value).__name__}")
    m = _NUM_RE.match(value)
    if not m:
        raise ConfigError(f"{field}: cannot parse quantity {value!r}")
    num = float(m.group(1))
    suffix = m.group(2)
    if suffix == "":
        return num
    if suffix == "%":
        return num / 100.0
    unit = ""
    for u in _UNITS:
        if suffix.endswith(u):
            unit = u
            break
    prefix = suffix[: len(suffix) - len(unit)]
    if prefix == "" :
        return num
    if prefix in _PREFIXES:
        return num * _PREFIXES[prefix]
    raise ConfigError(f"{field}: unknown unit suffix {suffix!r} in {value!r}")


def _take(section: dict, name: str, allowed: dict) -> dict:
    """Pop known keys, mapping config names to constructor kwargs."""
    out = {}
    for key in list(section):
        if key not in allowed:
            raise ConfigError(
                f"{name}.{key}: unknown field (expected one of {sorted(allowed)})")
    for key, (kwarg, conv) in allowed.items():
        if key in section:
            out[kwarg] = conv(section[key], f"{name}.{key}")
    return out


def _int(v, field):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{field}: expected an integer, got {v!r}")
    return v


def _num_list(v, field):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{field}: expected a non-empty list")
    return tuple(parse_quantity(x, field) for x in v)


def _corner(v, field):
    try:
        return Corner(str(v).upper())
    except ValueError:
        raise ConfigError(
            f"{field}: unknown corner {v!r} (expected one of {[c.value for c in Corner]})") from None


def _build_circuit(doc: dict) -> CircuitConfig:
    pc_kw = _take(doc.get("pc", {}), "pc", {
        "L_PC": ("l_pc", parse_quantity), "C_E": ("c_e", parse_quantity),
        "V_dc": ("v_dc", parse_quantity), "W_n": ("w_n", parse_quantity),
        "D": ("duty_d", parse_quantity), "f_nominal": ("f_nominal", parse_quantity),
    })
    tree_kw = _take(doc.get("tree", {}), "tree", {
        "C_s": ("c_s", _num_list), "C_d": ("c_d", parse_quantity),
        "C_par": ("c_par", parse_quantity), "R_TG": ("r_tg_nominal", parse_quantity),
        "C_inv": ("c_inv", parse_quantity), "C_sh": ("c_sh", parse_quantity),
        "C_pl_on": ("c_pl_on", parse_quantity), "C_pl_off": ("c_pl_off", parse_quantity),
        "C_pr": ("c_pr", parse_quantity), "V_REF": ("v_ref", parse_quantity),
        "R_reset": ("r_reset", parse_quantity),
    })
    dlcc_kw = _take(doc.get("dlcc", {}), "dlcc", {
        "M_L": ("m_l", parse_quantity), "M_R": ("m_r", parse_quantity),
        "V_TH": ("v_th", parse_quantity), "V_dd": ("v_dd", parse_quantity),
        "E_decision": ("e_decision", parse_quantity),
    })
    env_kw = _take(doc.get("env", {}), "env", {
        "corner": ("corner", _corner), "temperature_C": ("temperature_c", parse_quantity),
    })
    sim_kw = _take(doc.get("sim", {}), "sim", {
        "steps_per_cycle": ("steps_per_cycle", _int),
        "startup_discard_cycles": ("startup_discard_cycles", _int),
        "recal_every": ("recal_every", _int),
        "trace_stride": ("trace_stride", _int),
    })
    try:
        return CircuitConfig(
            pc=PowerClockConfig(**pc_kw),
            tree=SynapseTreeConfig(**tree_kw),
            dlcc=DlccConfig(**dlcc_kw),
            env=Environment(**env_kw),
            sim=SimConfig(**sim_kw),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_TOP_SECTIONS = ("pc", "tree", "dlcc", "env", "sim", "bench")


def _read_doc(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config: no such file: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key in doc:
        if key not in _TOP_SECTIONS:
            raise ConfigError(
                f"config.{key}: unknown section (expected one of {list(_TOP_SECTIONS)})")
        if not isinstance(doc[key], dict):
            raise ConfigError(f"config.{key}: must be an object")
    return doc


def load_config(path: str | None) -> CircuitConfig:
    """Circuit config from a JSON file; `{}` or a missing path gives the
    reference scenario (1 mH, 25 pF, 5% duty at 1 MHz, four 1 pF synapses)."""
    return _build_circuit(_read_doc(path))


def _bench_section(doc: dict, seed: int | None) -> tuple[bench.SweepSpec, dict]:
    raw = dict(doc.get("bench", {}))
    grids = {}
    for key, conv in (("f_grid", _num_list), ("d_grid", _num_list), ("w_grid", _num_list),
                      ("c_e_grid", _num_list), ("alpha_grid", _num_list)):
        if key in raw:
            grids[key] = conv(raw.pop(key), f"bench.{key}")
    if "n_synapses" in raw:
        grids["n_synapses"] = _int(raw.pop("n_synapses"), "bench.n_synapses")
    kw = _take(raw, "bench", {
        "cycles": ("cycles", _int), "skip": ("skip", _int), "window": ("window", _int),
        "repeats": ("repeats", _int), "seed": ("seed", _int),
        "load_case": ("load_case", lambda v, f: str(v)),
    })
    if seed is not None:
        kw["seed"] = seed
    try:
        return bench.SweepSpec(**kw), grids
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def emit_outputs(out_dir: str, files: dict[str, object], meta: dict) -> list[str]:
    """Write data files and summary.json, then the manifest.  `files` maps
    file names to either ready CSV writers (objects with to_csv) or JSON
    payloads; data outputs carry no timestamps."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in files.items():
        path = out / name
        if hasattr(payload, "to_csv") and name.endswith(".csv"):
            payload.to_csv(str(path))
        else:
            _write_json(path, payload)
        written.append(name)
    manifest = dict(meta)
    manifest["outputs"] = sorted(written)
    manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    _write_json(out / "manifest.json", manifest)
    return written + ["manifest.json"]


def _meta(args, doc: dict, seed: int) -> dict:
    return {
        "tool": "acansim",
        "version": __version__,
        "subcommand": args.cmd,
        "seed": seed,
        "config_sha256": _config_hash(doc),
    }


def _parse_codes(text: str, n: int) -> list[tuple[int, ...]]:
    codes = []
    for part in text.split(","):
        part = part.strip()
        if len(part) != n or any(ch not in "01" for ch in part):
            raise ConfigError(f"--codes: {part!r} is not a {n}-bit binary string")
        codes.append(tuple(int(ch) for ch in part))
    return codes


def _cmd_run(args, cfg: CircuitConfig, spec: bench.SweepSpec, grids: dict):
    n = cfg.tree.n
    if args.repeats < 1:
        raise ConfigError(f"--repeats: must be >= 1, got {args.repeats}")
    if args.codes is not None:
        codes = _parse_codes(args.codes, n)
    else:
        if n > 10:
            raise ConfigError(f"run: {n}-synapse full sweep is too large; pass --codes")
        codes = input_sweeps(n, n_scrambles=0, seed=spec.seed)[0]
    codes = codes * args.repeats
    run = run_neuron(cfg, codes, keep_trace=args.trace)
    summary = {
        "cycles": len(codes),
        "output_bits": run.output_bits,
        "oracle_bits": run.oracle_string,
        "oracle_match": run.output_bits == run.oracle_string,
        "mean_tree_energy_J": float(run.ledger.s_e.mean()),
        "worst_tree_energy_J": float(run.ledger.s_e.max()),
        "soma_energy_J": float(run.ledger.soma.mean()),
        "v_pk_V": run.v_pk_reference,
    }
    files: dict[str, object] = {"neuron_run.csv": run}
    if args.trace:
        files["trace.csv"] = run.trace
    return files, summary


def _cmd_sweep_freq(args, cfg, spec, grids):
    f_nom = cfg.pc.f_nominal
    f_grid = grids.get("f_grid", tuple(f_nom * r for r in np.linspace(0.90, 1.10, 11)))
    d_grid = grids.get("d_grid", (0.01, 0.02, 0.05, 0.10))
    if args.load:
        spec = replace(spec, load_case=args.load)
    surface = bench.sweep_freq_duty(cfg, f_grid, d_grid, spec=spec)
    return ({"surface_freq_duty.csv": surface},
            surface.as_dict() | {"load_case": spec.load_case})


def _cmd_sweep_width(args, cfg, spec, grids):
    w_grid = grids.get("w_grid", tuple(np.linspace(10e-6, 100e-6, 10)))
    d_grid = grids.get("d_grid", tuple(x / 100 for x in range(1, 11)))
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    surface = bench.sweep_width_duty(cfg, w_grid, d_grid, spec=spec, jobs=args.jobs)
    return {"surface_width_duty.csv": surface}, surface.as_dict()


def _cmd_sweep_scaling(args, cfg, spec, grids):
    n = args.n if args.n is not None else grids.get("n_synapses", 512)
    c_e_grid = grids.get("c_e_grid", (25e-12, 100e-12, 1000e-12))
    alpha_grid = grids.get("alpha_grid", (0.0, 0.5, 1.0))
    table = bench.scaling_study(cfg, n, c_e_grid, alpha_grid, spec=spec)
    return {"scaling.csv": table}, table.as_dict()


def _cmd_optimize_freq(args, cfg, spec, grids):
    opt = bench.optimize_frequency(cfg, args.alpha, spec=spec)
    return {}, {
        "alpha": args.alpha,
        "f_opt_Hz": opt.frequency,
        "energy_J": opt.energy,
        "unimodal": opt.unimodal,
        "predicted_Hz": predicted_optimal_frequency(bench.tune_inductor(cfg), args.alpha),
    }


def _cmd_corners(args, cfg, spec, grids):
    table = bench.corner_study(cfg, spec=spec)
    outputs = {r.outputs for r in table.rows}
    summary = table.as_dict()
    summary["spread_by_temperature"] = {
        str(t): s for t, s in table.spread_by_temperature().items()}
    summary["functionality_consistent"] = (
        len(outputs) == 1 and all(r.outputs_ok for r in table.rows))
    return {"corners.csv": table}, summary


def _cmd_compare(args, cfg, spec, grids):
    if args.mode == "loading":
        n = args.n if args.n is not None else grids.get("n_synapses", cfg.tree.n)
        c_e = cfg.pc.c_e if args.c_e is None else parse_quantity(args.c_e, "--c-e")
        cfg = bench.scaled_tree(cfg, n, c_e)
    else:
        given = [flag for flag, value in (("--n", args.n), ("--c-e", args.c_e)) if value is not None]
        if given:
            raise ConfigError(f"{', '.join(given)}: only with --mode loading")
    report = bench.compare_designs(cfg, mode=args.mode, spec=spec).as_dict()
    return {"savings.json": report}, report


_COMMANDS = {
    "run": _cmd_run,
    "sweep-freq": _cmd_sweep_freq,
    "sweep-width": _cmd_sweep_width,
    "sweep-scaling": _cmd_sweep_scaling,
    "optimize-freq": _cmd_optimize_freq,
    "corners": _cmd_corners,
    "compare": _cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acansim",
        description="Adiabatic capacitive neuron simulator and benchmarks.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="acansim-out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="scramble seed")

    p = sub.add_parser("run", help="simulate one input sequence")
    common(p)
    p.add_argument("--codes", default=None, help="comma-separated binary codes")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--trace", action="store_true", help="emit full waveform CSV")

    p = sub.add_parser("sweep-freq", help="energy over (frequency, duty)")
    common(p)
    p.add_argument("--load", choices=bench._LOAD_CASES, default=None)

    p = sub.add_parser("sweep-width", help="energy over (bypass width, duty)")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="max concurrent sweep points")

    p = sub.add_parser("sweep-scaling", help="optimal frequency and energy vs C_E and loading")
    common(p)
    p.add_argument("--n", type=int, default=None, help="synapse count")

    p = sub.add_parser("optimize-freq", help="search the optimal drive frequency")
    common(p)
    p.add_argument("--alpha", type=float, default=0.0, help="loading fraction")

    p = sub.add_parser("corners", help="corner/temperature energy grid")
    common(p)

    p = sub.add_parser("compare", help="adiabatic vs level-driven savings")
    common(p)
    p.add_argument("--mode", choices=("sweep", "loading"), default="sweep")
    p.add_argument("--n", type=int, default=None, help="synapse count (loading mode)")
    p.add_argument("--c-e", dest="c_e", default=None, help="equalising capacitance (loading mode)")
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        doc = _read_doc(args.config)
        cfg = _build_circuit(doc)
        spec, grids = _bench_section(doc, args.seed)
        files, summary = _COMMANDS[args.cmd](args, cfg, spec, grids)
        meta = _meta(args, doc, spec.seed)
        emit_outputs(args.out, files | {"summary.json": summary | meta}, meta)
        return 0
    except (ConfigError, SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
