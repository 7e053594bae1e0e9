"""Batch front-end: JSON configs in, CSV/JSON artifacts out.

Config values accept SI-suffixed strings ("25pF", "1mH", "1.8V", "5%");
bare numbers are base SI units.  The studies return data only: this module
alone names every artifact, its columns, units and summary keys.  Data
files are byte-deterministic for a fixed config and seed; wall-clock
timestamps go only to the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from . import bench
from .engine import SimulationError
from .model import CircuitConfig, Corner, predicted_optimal_frequency
from .neuron import NeuronRun, Trace, input_sweeps, run_neuron


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


# field kind (its annotation) -> converter; any other field is a quantity
_CONVERTERS = {
    "int": _int,
    "tuple[float, ...]": _num_list,
    "Corner": _corner,
    "str": lambda v, _: str(v),
}
# the circuit's sections (pc, tree, dlcc, env, sim) -> their config classes
_PARTS = {f.name: f.default_factory for f in fields(CircuitConfig)}
_SECTIONS = (*_PARTS, "bench")


def _read_section(section: dict, name: str, cls) -> dict:
    """Constructor kwargs for config class ``cls`` from its JSON section:
    every field that declares a key, converted by the field's kind."""
    by_key = {f.metadata["key"]: f for f in fields(cls) if f.metadata.get("key")}
    for key in section:
        if key not in by_key:
            raise ConfigError(
                f"{name}.{key}: unknown field (expected one of {sorted(by_key)})")
    return {f.name: _CONVERTERS.get(f.type, parse_quantity)(section[key], f"{name}.{key}")
            for key, f in by_key.items() if key in section}


def _build_circuit(doc: dict) -> CircuitConfig:
    kw = {name: _read_section(doc.get(name, {}), name, cls) for name, cls in _PARTS.items()}
    try:
        return CircuitConfig(**{name: cls(**kw[name]) for name, cls in _PARTS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
        if key not in _SECTIONS:
            raise ConfigError(
                f"config.{key}: unknown section (expected one of {list(_SECTIONS)})")
        if not isinstance(doc[key], dict):
            raise ConfigError(f"config.{key}: must be an object")
    return doc


def _bench_section(doc: dict, seed: int | None) -> tuple[bench.SweepSpec, dict]:
    raw = dict(doc.get("bench", {}))
    grids = {}
    for key in ("f_grid", "d_grid", "w_grid", "c_e_grid", "alpha_grid"):
        if key in raw:
            grids[key] = _num_list(raw.pop(key), f"bench.{key}")
    if "n_synapses" in raw:
        grids["n_synapses"] = _int(raw.pop("n_synapses"), "bench.n_synapses")
    kw = _read_section(raw, "bench", bench.SweepSpec)
    if seed is not None:
        kw["seed"] = seed
    try:
        return bench.SweepSpec(**kw), grids
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# rows that ``write_csv`` formats at a time: each row held as Python objects
# costs ~0.5 kB, so larger chunks raise a trace export's peak memory
CSV_CHUNK = 512


def write_csv(path: Path | str, columns: dict[str, np.ndarray | list]) -> None:
    """Write one CSV data file from named columns: the header names, then
    one line per row.  Each column is a 1-D array or a list, all of one
    length (ValueError otherwise).  Rows are formatted ``CSV_CHUNK`` at a
    time with one template for the chunk, every cell as ``str`` of its
    Python value (an array's chunk goes through ``tolist()``), so a float
    cell, numpy float64 included, is its ``repr`` and reads back exactly."""
    lengths = {len(c) for c in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"write_csv: columns have different lengths {sorted(lengths)}")
    line = ",".join(["{!s}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for k in range(0, max(lengths, default=0), CSV_CHUNK):
            chunk = [c[k:k + CSV_CHUNK] for c in columns.values()]
            chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            fh.write((line * len(chunk[0])).format(*chain.from_iterable(zip(*chunk))))


def _finite(obj):
    """``obj`` with every non-finite float in it, at any depth, as None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj) -> None:
    # a non-finite float is written as null: every JSON file is strict JSON
    path.write_text(json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def emit_outputs(out_dir: str, files: dict[str, object], meta: dict) -> None:
    """Write data files and summary.json, then the manifest.  `files` maps
    a ``*.csv`` name to its named columns (``write_csv``) and any other
    name to a JSON value; data outputs carry no timestamps."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        if name.endswith(".csv"):
            write_csv(out / name, payload)
        else:
            _write_json(out / name, payload)
    _write_json(out / "manifest.json", meta | {
        "outputs": sorted(files), "created_utc": datetime.now(timezone.utc).isoformat()})


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


def _rows(columns: dict[str, list]) -> list[dict]:
    """The rows of named columns, each a dict from name to cell."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _run_columns(run: NeuronRun) -> dict:
    """``neuron_run.csv``: one row per reported cycle, its code named by
    one digit per bit."""
    names = ["".join(map(str, code)) for code in run.table]
    return {"cycle": np.arange(run.index.size), "code": [names[i] for i in run.index.tolist()],
            "V_m_peak": run.stats.v_m_peak, "OutP": run.outputs, "delay_ns": run.delays * 1e9,
            "E_tree_pJ": run.ledger.s_e * 1e12, "E_soma_pJ": run.ledger.soma * 1e12}


def _trace_columns(trace: Trace) -> dict:
    """``trace.csv``: one row per waveform sample."""
    return {"t": trace.t, "I_L": trace.i_l, "V_PC": trace.v_pc, "V_s": trace.v_s, "V_m": trace.v_m}


def _surface_artifacts(surface: bench.Surface, name: str, x_name: str, x_unit: float):
    """A surface's CSV, x in units of ``x_unit``, and its summary."""
    x = [v / x_unit for v in surface.x]
    ax, ay, ae = surface.argmin
    columns = {x_name: np.repeat(x, len(surface.y)), "duty": np.tile(surface.y, len(x)),
               "energy_J": surface.energy.ravel()}
    return {name: columns}, {"x_name": x_name, "y_name": "duty", "x": x, "y": list(surface.y),
                             "energy_J": surface.energy.tolist(),
                             "argmin": {x_name: ax / x_unit, "duty": ay, "energy_J": ae}}


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
    files = {"neuron_run.csv": _run_columns(run)}
    if args.trace:
        files["trace.csv"] = _trace_columns(run.trace)
    return files, summary


def _cmd_sweep_freq(args, cfg, spec, grids):
    f_nom = cfg.pc.f_nominal
    f_grid = grids.get("f_grid", tuple(f_nom * r for r in np.linspace(0.90, 1.10, 11)))
    d_grid = grids.get("d_grid", (0.01, 0.02, 0.05, 0.10))
    if args.load:
        spec = replace(spec, load_case=args.load)
    files, summary = _surface_artifacts(bench.sweep_freq_duty(cfg, f_grid, d_grid, spec=spec),
                                        "surface_freq_duty.csv", "f_Hz", 1.0)
    return files, summary | {"load_case": spec.load_case}


def _cmd_sweep_width(args, cfg, spec, grids):
    w_grid = grids.get("w_grid", tuple(np.linspace(10e-6, 100e-6, 10)))
    d_grid = grids.get("d_grid", tuple(x / 100 for x in range(1, 11)))
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    surface = bench.sweep_width_duty(cfg, w_grid, d_grid, spec=spec, jobs=args.jobs)
    return _surface_artifacts(surface, "surface_width_duty.csv", "W_um", 1e-6)


def _cmd_sweep_scaling(args, cfg, spec, grids):
    n = args.n if args.n is not None else grids.get("n_synapses", 512)
    c_e_grid = grids.get("c_e_grid", (25e-12, 100e-12, 1000e-12))
    alpha_grid = grids.get("alpha_grid", (0.0, 0.5, 1.0))
    rows = bench.scaling_study(cfg, n, c_e_grid, alpha_grid, spec=spec).rows
    columns = {"C_E_pF": [r.c_e * 1e12 for r in rows], "alpha": [r.alpha for r in rows],
               "f_opt_Hz": [r.f_opt for r in rows], "S_E_pJ": [r.s_e * 1e12 for r in rows],
               "N_E_pJ": [r.n_e * 1e12 for r in rows]}
    return {"scaling.csv": columns}, {"n": n, "rows": [
        row | {"unimodal": r.unimodal} for row, r in zip(_rows(columns), rows)]}


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
    rows = table.rows
    columns = {"corner": [r.corner for r in rows], "temp_C": [r.temperature_c for r in rows],
               "E_tree_J": [r.e_tree for r in rows], "E_soma_J": [r.e_soma for r in rows],
               "outputs_ok": [int(r.outputs_ok) for r in rows]}
    return {"corners.csv": columns}, {
        "rows": [row | {"outputs": r.outputs, "outputs_ok": r.outputs_ok}
                 for row, r in zip(_rows(columns), rows)],
        "spread_by_temperature": {str(t): s for t, s in table.spread_by_temperature().items()},
        "functionality_consistent": (
            len({r.outputs for r in rows}) == 1 and all(r.outputs_ok for r in rows))}


def _cmd_compare(args, cfg, spec, grids):
    if args.mode == "loading":
        n = args.n if args.n is not None else grids.get("n_synapses", cfg.tree.n)
        c_e = cfg.pc.c_e if args.c_e is None else parse_quantity(args.c_e, "--c-e")
        cfg = bench.scaled_tree(cfg, n, c_e)
    else:
        given = [flag for flag, value in (("--n", args.n), ("--c-e", args.c_e)) if value is not None]
        if given:
            raise ConfigError(f"{', '.join(given)}: only with --mode loading")
    r = bench.compare_designs(cfg, mode=args.mode, spec=spec)
    report = {"mode": r.mode, "f_Hz": r.f_hz, "duty": r.duty, "adiabatic_J": r.adiabatic,
              "baseline_J": r.baseline, "savings": r.savings}
    if r.loading is not None:
        report |= {"loading": r.loading, "adiabatic_ratio": r.adiabatic_ratio,
                   "baseline_ratio": r.baseline_ratio}
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
