"""The four benchmark workloads.

Constructing a workload imports acansim and generates its inputs from the
seed; that is the set-up the benchmark times.  ``run`` executes one study
through the public API or the CLI, ``check`` turns one point's raw output
into invariant problems and the values compared with the reference, and
``result`` does the same for the whole study.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from harness import Point, Study, audit, bits_digest, patched, worst_window

PASSES = 4                        # sweep_stream: passes per input order; the last is scored
FREQ_ALPHAS = (1.0, 0.75, 0.5)    # freq_search: loading by seed, seed 0 gives 1.0
WIDE_N = 512                      # wide_tree: synapse count
WIDE_C_E = 25e-12                 # wide_tree: equalising capacitance
WIDE_SPREAD = 6                   # wide_tree: enabled synapses 256 +/- this, by seed
TRACE_REPEATS = 6                 # trace_export: passes of the 16-code sweep per CLI call


class _Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        import acansim

        self.ac = acansim
        self.seed = seed
        self.cfg = acansim.CircuitConfig()

    def warm_up(self) -> None:
        """Run every numerical path once on a few cycles before timing."""
        ac = self.ac
        codes = [(1, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 0)]
        ac.run_neuron(self.cfg, codes)
        ac.run_baseline(ac.BaselineConfig.from_circuit(self.cfg), codes)

    def run(self, study: Study) -> None:
        raise NotImplementedError

    def check(self, pt: Point) -> None:
        raise NotImplementedError

    def result(self, study: Study, last: Point) -> dict:
        raise NotImplementedError


class SweepStream(_Workload):
    """Five input orders of the 4-synapse tree through both designs."""

    name = "sweep_stream"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ac = self.ac
        self.orders = ac.input_sweeps(self.cfg.tree.n, seed=seed)
        self.base_cfg = ac.BaselineConfig.from_circuit(self.cfg)

    def run(self, study: Study) -> None:
        ac = self.ac
        tuned = ac.tune_inductor(self.cfg)
        for i, order in enumerate(self.orders):
            with study.point(f"order{i}") as pt:
                f = ac.sweep_lock_frequency(tuned, order)
                run_cfg = replace(tuned, pc=replace(tuned.pc, f_nominal=f, duty_d=tuned.pc.t_on * f))
                codes = list(order) * PASSES
                pt.payload = (f, len(order), ac.run_neuron(run_cfg, codes),
                              ac.run_baseline(self.base_cfg, codes))

    def check(self, pt: Point) -> None:
        f, block, run_a, run_b = pt.payload
        pt.values = {"f_lock_Hz": float(f)}
        pt.cycles = run_a.ledger_full.n_cycles + run_b.ledger.n_cycles
        for label, run, full in (("adiabatic", run_a, run_a.ledger_full),
                                 ("baseline", run_b, run_b.ledger)):
            bits = run.output_bits[-block:]
            if bits != run.oracle_string[-block:]:
                pt.problems.append(f"{label}: scored pass decides {bits}, "
                                   f"oracle {run.oracle_string[-block:]}")
            audit(full, self.ac.energy_residual, pt, label)
            pt.values[f"{label}.tree_J"] = float(run.ledger.s_e[-block:].mean())
            pt.values[f"{label}.dissipated_J"] = float(full.dissipated_total)
            pt.values[f"{label}.bits"] = bits
        pt.values["savings"] = 1.0 - pt.values["adiabatic.tree_J"] / pt.values["baseline.tree_J"]

    def result(self, study: Study, last: Point) -> dict:
        a = sum(p.values.get("adiabatic.tree_J", math.nan) for p in study.points)
        b = sum(p.values.get("baseline.tree_J", math.nan) for p in study.points)
        return {"savings": 1.0 - a / b}


class Search(_Workload):
    """A frequency search whose objective runs are the points."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spec = self.ac.SweepSpec()

    def search(self, study: Study):
        raise NotImplementedError

    def run(self, study: Study) -> None:
        def make(orig):
            def objective_run(cfg, codes, *args, **kwargs):
                with study.point(repr(float(cfg.pc.f_nominal))) as pt:
                    pt.payload = orig(cfg, codes, *args, **kwargs)
                return pt.payload
            return objective_run

        with patched(self.ac.bench, "run_neuron", make):
            study.output = self.search(study)

    def check(self, pt: Point) -> None:
        run = pt.payload
        audit(run.ledger_full, self.ac.energy_residual, pt, "objective run")
        pt.cycles = run.ledger_full.n_cycles
        s_e = run.ledger.s_e
        pt.values = {
            "tree_J_mean": float(s_e.mean()),
            "tree_J_worst_window": worst_window(s_e, self.spec.skip, self.spec.window),
            "dissipated_J": float(run.ledger_full.dissipated_total),
            "bits": bits_digest(run.output_bits),
        }


class FreqSearch(Search):
    """``optimize_frequency`` on the 4-synapse tree at the default spec."""

    name = "freq_search"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.alpha = FREQ_ALPHAS[seed % len(FREQ_ALPHAS)]

    def search(self, study: Study):
        return self.ac.optimize_frequency(self.cfg, self.alpha, spec=self.spec)

    def result(self, study: Study, last: Point) -> dict:
        opt = study.output
        return {"f_opt_Hz": float(opt.frequency), "energy_J": float(opt.energy),
                "unimodal": bool(opt.unimodal)}


class WideTree(Search):
    """One ``sweep-scaling`` row: 512 synapses at 25 pF, alpha near 0.5."""

    name = "wide_tree"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # seed 0 gives 256 of 512 enabled; other seeds shift it by at most
        # WIDE_SPREAD so the work per study stays the same
        n_on = WIDE_N // 2 + (seed + WIDE_SPREAD) % (2 * WIDE_SPREAD + 1) - WIDE_SPREAD
        self.alpha = n_on / WIDE_N

    def search(self, study: Study):
        return self.ac.scaling_study(self.cfg, WIDE_N, [WIDE_C_E], [self.alpha], spec=self.spec)

    def result(self, study: Study, last: Point) -> dict:
        table = study.output
        try:
            table.validate()
        except ValueError as exc:
            last.problems.append(f"scaling table: {exc}")
        if len(table.rows) != 1:
            last.problems.append(f"scaling table: {len(table.rows)} rows, expected 1")
            return {}
        row = table.rows[0]
        return {"f_opt_Hz": float(row.f_opt), "s_e_J": float(row.s_e),
                "n_e_J": float(row.n_e), "unimodal": bool(row.unimodal)}


class TraceExport(_Workload):
    """``acansim run --trace`` through ``cli.dispatch``, one call per study."""

    name = "trace_export"
    _SUMMARY_FLOATS = ("mean_tree_energy_J", "worst_tree_energy_J", "soma_energy_J", "v_pk_V")

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        import acansim.cli

        self.cli = acansim.cli
        self.out = out_dir
        n = self.cfg.tree.n
        self.cycles = 2 ** n * TRACE_REPEATS
        sim = self.cfg.sim
        self.rows = (self.cycles + sim.startup_discard_cycles) * sim.steps_per_cycle // sim.trace_stride
        self.argv = ["run", "--trace", "--repeats", str(TRACE_REPEATS),
                     "--seed", str(seed), "--out", str(out_dir)]

    def run(self, study: Study) -> None:
        cli = self.cli
        runs = []

        def make(orig):
            def captured(*args, **kwargs):
                runs.append(orig(*args, **kwargs))
                return runs[-1]
            return captured

        shutil.rmtree(self.out, ignore_errors=True)
        with study.point("call") as pt, patched(cli, "run_neuron", make):
            rc = cli.dispatch(self.argv)
        pt.payload = (rc, runs)

    def check(self, pt: Point) -> None:
        rc, runs = pt.payload
        if rc != 0 or len(runs) != 1:
            pt.problems.append(f"cli returned {rc} after {len(runs)} runs")
            return
        audit(runs[0].ledger_full, self.ac.energy_residual, pt, "cli run")
        pt.cycles = runs[0].ledger_full.n_cycles
        summary = json.loads((self.out / "summary.json").read_text())
        manifest = json.loads((self.out / "manifest.json").read_text())
        want = ["neuron_run.csv", "summary.json", "trace.csv"]
        if manifest.get("outputs") != want:
            pt.problems.append(f"manifest lists {manifest.get('outputs')}, expected {want}")
        if summary.get("cycles") != self.cycles or summary.get("seed") != self.seed:
            pt.problems.append(f"summary.json has cycles={summary.get('cycles')} "
                               f"seed={summary.get('seed')}")
        if summary.get("oracle_match") != (summary.get("output_bits") == summary.get("oracle_bits")):
            pt.problems.append("summary.json oracle_match disagrees with its bit strings")
        pt.values = {k: summary.get(k) for k in self._SUMMARY_FLOATS + ("output_bits", "oracle_bits")}
        if not all(isinstance(pt.values[k], float) and math.isfinite(pt.values[k])
                   for k in self._SUMMARY_FLOATS):
            pt.problems.append("summary.json energies are missing or not finite")

        path = self.out / "trace.csv"
        with open(path) as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header != "t,I_L,V_PC,V_s,V_m" or data.shape != (self.rows, 5):
            pt.problems.append(f"trace.csv has header {header!r} and shape {data.shape}, "
                               f"expected {self.rows} rows of 5")
            return
        if not np.all(np.diff(data[:, 0]) > 0.0):
            pt.problems.append("trace.csv times are not strictly increasing")
        for j, col in enumerate(header.split(",")):
            pt.values[f"trace.{col}.sum"] = float(data[:, j].sum())
        pt.values["trace.V_PC.max"] = float(data[:, 2].max())

    def result(self, study: Study, last: Point) -> dict:
        study.counts["cli.bytes_written"] = sum(p.stat().st_size for p in self.out.iterdir())
        return {}


WORKLOADS = {w.name: w for w in (SweepStream, FreqSearch, WideTree, TraceExport)}
