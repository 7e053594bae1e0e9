#!/usr/bin/env python3
"""acansim benchmark: four study workloads in host time, with output checks.

Run from the repository root:

    python3 perfbench/run.py --workload freq_search --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py                      # all four workloads, one after another
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference.json

``--trace 0`` measures for ``--seconds`` with tracing off and reports the
end-to-end metrics.  ``--trace 1`` spends half of ``--seconds`` untraced
and half traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread: the box is shared and the matrices are tiny
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402  (standard library only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("sweep_stream", "freq_search", "wide_tree", "trace_export")
EXACT_SUFFIXES = (".calls", ".steps", ".cycles")
EXACT_NAMES = ("bench.evals", "bench.diverged")


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import harness, workloads and acansim, the latter from this checkout only."""
    if not (SRC / "acansim" / "__init__.py").is_file():
        _fail(f"no acansim source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import harness
    import workloads
    import acansim

    if Path(acansim.__file__).resolve().parent != (SRC / "acansim").resolve():
        _fail(f"acansim imported from {acansim.__file__}, not from {SRC}")
    return harness, workloads


def _make(workloads, name: str, seed: int):
    cls = workloads.WORKLOADS[name]
    if name == "trace_export":
        return cls(seed, OUT / f"trace_export-{seed}-{os.getpid()}")
    return cls(seed)


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "acansim").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _meta(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "alpha": getattr(workload, "alpha", None),
        "git_sha": _git_sha(), "source_sha256": _source_hash(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, import plus input generation: CPU
    time at the reference speed, and wall time."""
    out, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
        cpu_s, wall_s = proc.stdout.split()[-2:]
        out.append(float(cpu_s))
        wall.append(float(wall_s))
    return out, wall


def _quantile(values, q: int) -> float:
    """The q-th percentile of ``values`` (inclusive method)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(studies, setup: list[float]) -> dict:
    """Bounded metrics.  Host times are CPU times at the reference speed
    (``harness.scaled``) and medians or totals over the whole run, so that
    other tenants' load, which preempts this process and slows the CPU
    by up to 2x in stretches of seconds, moves them least."""
    points = [p for s in studies for p in s.points if p.speed > 0.0]
    point_ms = [p.scaled_cpu * 1e3 for p in points]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "study_s": (statistics.median(s.scaled_cpu for s in studies), "s"),
        "sim_cycles_per_s": (sum(p.cycles for p in points) / sum(p.scaled_cpu for p in points), "1/s"),
        "point_ms_p50": (_quantile(point_ms, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "residual_rel_max": (max(p.residual for p in points), "ratio"),
    }


def _spread_info(studies) -> dict:
    """The tail of the point times, unscaled timings and the speed
    samples, printed but not bounded."""
    point_ms = [p.seconds * 1e3 for s in studies for p in s.points]
    samples = [p.speed for s in studies for p in s.points if p.speed > 0.0]
    scaled_ms = [p.scaled_cpu * 1e3 for s in studies for p in s.points if p.speed > 0.0]
    return {
        "info.point_ms_p90": (_quantile(scaled_ms, 90), "ms"),
        "info.wall_s_median": (statistics.median(s.seconds for s in studies), "s"),
        "info.cpu_s_median": (statistics.median(s.cpu - s.calibration_cpu for s in studies), "s"),
        "info.cpu_over_wall": (sum(s.cpu for s in studies) / sum(s.seconds for s in studies), "ratio"),
        "info.speed_sample_ms_p10": (_quantile(samples, 10) * 1e3, "ms"),
        "info.speed_sample_ms_p50": (_quantile(samples, 50) * 1e3, "ms"),
        "info.speed_sample_ms_p90": (_quantile(samples, 90) * 1e3, "ms"),
        "info.studies": (len(studies), "count"),
        "info.points": (len(point_ms), "count"),
        "info.point_wall_ms_p50": (_quantile(point_ms, 50), "ms"),
    }


def _checks(studies) -> dict:
    points = [p for s in studies for p in s.points]
    return {
        "check.fail_ratio": (sum(p.failed for p in points) / len(points), "ratio"),
        "check.ref_rel_err_max": (max(p.ref_err for p in points), "ratio"),
        "check.ref_points": (sum(p.ref_checked for p in points), "count"),
    }


def _study_layers(totals: dict, study, is_search: bool) -> dict:
    """Per-layer values of one traced study."""
    m = {}
    for name, (_, _, _, fields) in spans.SPANS.items():
        calls, count, secs, self_s = totals.get(name, (0, 0, 0.0, 0.0))
        by_field = {"calls": calls, "s": secs, "self_s": self_s}
        for f in fields:
            m[f"{name}.{f}"] = by_field.get(f, count)
    steps = m["engine.propagate.steps"]
    m["engine.propagate.ns_per_step"] = m["engine.propagate.s"] / steps * 1e9 if steps else 0.0
    segs = m["engine.propagate.calls"]
    m["engine.map_hit_ratio"] = 1.0 - m["engine.step_maps.calls"] / segs if segs else 0.0
    evals = [p for p in study.points if p.key != "study"] if is_search else []
    finite = [p for p in evals if p.error is None
              and math.isfinite(p.values.get("tree_J_worst_window", math.nan))]
    m["bench.evals"] = len(evals)
    m["bench.diverged"] = sum(type(p.error).__name__ == "SimulationError" for p in evals)
    m["bench.useful_eval_ratio"] = len(finite) / len(evals) if evals else 0.0
    m["cli.bytes_written"] = study.counts.get("cli.bytes_written", 0)
    return m


def _layer_unit(name: str) -> str:
    """Unit of a per-layer metric that is not an exact count."""
    if name.endswith("ns_per_step"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "B" if name == "cli.bytes_written" else "s"


def _is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES


def _per_layer(tracer, traced, untraced, is_search: bool, faults: list) -> dict:
    totals = tracer.totals()
    rows = [_study_layers(totals.get(s.index, {}), s, is_search) for s in traced]
    metrics = {}
    for name in rows[0]:
        vals = [r[name] for r in rows]
        if _is_exact(name):
            if len(set(vals)) != 1:
                faults.append(f"exact count {name} differs across repeats: {vals}")
            metrics[name] = (vals[0], "count")
        else:
            metrics[name] = (statistics.median(vals), _layer_unit(name))
    metrics["trace.overhead_s"] = (statistics.median(s.scaled_cpu for s in traced)
                                   - statistics.median(s.scaled_cpu for s in untraced), "s")
    return metrics


def _check_counts_across_runs(args, metrics: dict, faults: list) -> None:
    """Exact counts of the same code, workload and seed must repeat across runs."""
    counts = {k: v for k, (v, _) in metrics.items() if _is_exact(k)}
    path = OUT / f"counts-{args.workload}-{args.seed}-{_source_hash()[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if diff:
            faults.append(f"exact counts differ from an earlier run of this code: {diff}")
    else:
        path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


def _run_one(args) -> int:
    harness, workloads = _import_program()
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(args.workload) if args.seed == harness.DEFAULT_SEED else None
    if args.seed == harness.DEFAULT_SEED and ref is None:
        _fail(f"no reference recorded for {args.workload}; run --record-reference")

    setup, setup_wall = _setup_seconds(args)
    OUT.mkdir(exist_ok=True)
    wl = _make(workloads, args.workload, args.seed)
    faults: list[str] = []
    try:
        wl.warm_up()
        if args.trace:
            untraced = harness.run_studies(wl, args.seconds / 2, ref)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = harness.run_studies(wl, args.seconds / 2, ref, tracer)
            finally:
                tracer.uninstall()
            studies = untraced + traced
            metrics = _per_layer(tracer, traced, untraced,
                                 isinstance(wl, workloads.Search), faults)
            metrics.update(_checks(studies))
            _check_counts_across_runs(args, metrics, faults)
        else:
            studies = harness.run_studies(wl, args.seconds, ref)
            metrics = _end_to_end(studies, setup)
    finally:
        if getattr(wl, "out", None) is not None:
            shutil.rmtree(wl.out, ignore_errors=True)

    meta = _meta(args, wl)
    if args.trace:
        meta["absent"] = tracer.absent
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv", json.dumps(meta))
    points = [p for s in studies for p in s.points]
    failed = [p for p in points if p.failed]
    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    if not args.trace:
        info = _checks(studies) | _spread_info(studies)
        info["info.setup_wall_s_median"] = (statistics.median(setup_wall), "s")
        for name, (value, unit) in info.items():
            print(f"{args.workload} {name} = {value!r} {unit}")
    for p in failed[:10]:
        why = "; ".join(p.problems) if p.problems else f"raised {p.error!r}"
        print(f"failed point {p.key}: {why}", file=sys.stderr)
    for f in faults:
        print(f"benchmark fault: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not faults,
        "attempted": len(points),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def _record_reference(args) -> int:
    """Run one study of each selected workload at the default seed and
    store its checked results as the reference."""
    harness, workloads = _import_program()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        wl = _make(workloads, name, harness.DEFAULT_SEED)
        try:
            study = harness.Study(index=0)
            wl.run(study)
            result = harness.check_study(wl, study, None)
        finally:
            if getattr(wl, "out", None) is not None:
                shutil.rmtree(wl.out, ignore_errors=True)
        bad = [p for p in study.points if p.failed]
        if bad:
            _fail(f"{name}: not recording, point {bad[0].key} failed: {bad[0].problems or bad[0].error!r}")
        refs[name] = {
            "seed": harness.DEFAULT_SEED,
            "points": {p.key: p.values for p in study.points},
            "result": result,
        }
        print(f"recorded {name}: {len(study.points)} points", flush=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference results at the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        harness, workloads = _import_program()
        _make(workloads, args.workload, args.seed)
        wall, cpu = time.perf_counter() - _T0, time.process_time()
        harness.calibration_call()   # its first call runs cold
        print(repr(harness.scaled(cpu, harness.speed_sample())), repr(wall))
        return 0
    if args.record_reference:
        return _record_reference(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
