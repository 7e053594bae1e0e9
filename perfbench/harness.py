"""Closed-loop study runner and output checks.

One caller runs one study at a time; inside a study each point starts
only after the previous one returned.  Timing covers the study calls
only: every point is checked after its study has finished, against the
invariants and, for the default seed, against the recorded reference.
Points and studies record wall time and the process's CPU time.  After
every point a calibration kernel that does not touch acansim measures
the host's current speed, and the bounded host times are CPU times scaled
by it to a fixed reference speed (see README.md, "Host-speed scaling").
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

DEFAULT_SEED = 0
RESIDUAL_BOUND = 1e-2   # |energy residual| / dissipated energy, any run
REF_TOL = 1e-9          # relative deviation from the reference that fails a point
MIN_STUDIES = 2         # so that exact counts can be compared across repeats
CALIBRATION_REF_S = 1e-3  # CPU seconds of one calibration call at the reference speed
CALIBRATION_CALLS = 3     # calls per speed sample; the sample is their median

_CAL_M = np.full((5, 5), 0.19)
_CAL_X = np.linspace(0.0, 1.0, 5 * 1024).reshape(1024, 5)


def calibration_call() -> float:
    """CPU seconds of a fixed piece of work that does not touch acansim.
    Its three parts take about a third each and mirror the simulator's
    hot paths: interpreted float and dict work, tiny matrix-vector
    products, and products of a block of states with a small matrix."""
    c0 = time.process_time()
    acc = 0.0
    d = {}
    for i in range(1800):
        x = i * 1.0001
        acc += (x * x) % 7.0
        d[i & 63] = acc
    v = np.ones(5)
    for _ in range(110):
        v = _CAL_M @ v + 0.1
    for _ in range(14):
        acc += float((_CAL_X @ _CAL_M.T + v).sum())
    return time.process_time() - c0


def speed_sample() -> float:
    """The host's current speed as the median CPU time of a few
    calibration calls."""
    return statistics.median(calibration_call() for _ in range(CALIBRATION_CALLS))


def scaled(cpu: float, sample: float) -> float:
    """CPU seconds taken at the speed ``sample`` measured, expressed at
    the reference speed."""
    return cpu * CALIBRATION_REF_S / sample


@dataclass
class Point:
    """One study unit: its timing, its raw output and what the checks found."""

    key: str
    seconds: float = 0.0
    cpu: float = 0.0
    speed: float = 0.0    # speed sample taken right after the point
    speed_before: float = 0.0  # the study's previous sample, if any
    payload: object = None
    error: BaseException | None = None
    cycles: int = 0
    residual: float = 0.0
    values: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    ref_err: float = 0.0
    ref_checked: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def scaled_cpu(self) -> float:
        """The point's CPU time at the reference speed, by the mean of the
        samples taken around it."""
        if self.speed <= 0.0:
            return 0.0
        if self.speed_before <= 0.0:
            return scaled(self.cpu, self.speed)
        return scaled(self.cpu, 0.5 * (self.speed + self.speed_before))


@dataclass
class Study:
    """One repeat of a workload's study."""

    index: int
    tracer: object = None
    seconds: float = 0.0
    cpu: float = 0.0
    speed: float = 0.0    # speed sample taken right after the study
    calibration_cpu: float = 0.0  # CPU time of the samples taken inside the study
    points: list[Point] = field(default_factory=list)
    output: object = None
    error: BaseException | None = None
    counts: dict = field(default_factory=dict)

    @property
    def scaled_cpu(self) -> float:
        """The study's CPU time at the reference speed: each point scaled
        by the samples taken around it, the rest of the study by the
        median sample."""
        samples = [p.speed for p in self.points if p.speed > 0.0] + [self.speed]
        outside = self.cpu - self.calibration_cpu - sum(p.cpu for p in self.points)
        return (sum(p.scaled_cpu for p in self.points)
                + scaled(max(outside, 0.0), statistics.median(samples)))

    @contextmanager
    def point(self, key: str):
        pt = Point(key, speed_before=self.points[-1].speed if self.points else 0.0)
        self.points.append(pt)
        if self.tracer is not None:
            self.tracer.point = len(self.points) - 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield pt
        except Exception as exc:
            pt.error = exc
            raise
        finally:
            pt.cpu = time.process_time() - c0
            pt.seconds = time.perf_counter() - t0
            c1 = time.process_time()
            pt.speed = speed_sample()
            self.calibration_cpu += time.process_time() - c1
            if self.tracer is not None:
                self.tracer.point = -1


@contextmanager
def patched(module, attr: str, make):
    """Replace ``module.attr`` by ``make(original)`` for the block."""
    orig = getattr(module, attr)
    setattr(module, attr, make(orig))
    try:
        yield
    finally:
        setattr(module, attr, orig)


def audit(ledger, energy_residual, pt: Point, label: str) -> None:
    """Finite ledger and a conservation residual within ``RESIDUAL_BOUND``."""
    for f in fields(ledger):
        if not np.all(np.isfinite(getattr(ledger, f.name))):
            pt.problems.append(f"{label}: ledger field {f.name} is not finite")
            return
    diss = ledger.dissipated_total
    rel = abs(energy_residual(ledger)) / diss if diss > 0.0 else math.inf
    pt.residual = max(pt.residual, rel)
    if not rel <= RESIDUAL_BOUND:
        pt.problems.append(f"{label}: residual/dissipation {rel:.3g} above {RESIDUAL_BOUND}")


def worst_window(series: np.ndarray, skip: int, window: int) -> float:
    """Largest sliding-window mean after dropping ``skip`` entries."""
    tail = np.asarray(series[skip:], dtype=float)
    sums = np.convolve(tail, np.ones(window), mode="valid")
    return float(sums.max() / window)


def bits_digest(bits: str) -> str:
    return hashlib.sha256(bits.encode()).hexdigest()[:16]


def rel_err(value, ref) -> float:
    """Relative deviation of one result from its reference; 1 for any
    mismatch of a string, bool or missing value."""
    if isinstance(ref, (str, bool)) or ref is None or isinstance(value, (str, bool)) or value is None:
        return 0.0 if value == ref else 1.0
    value, ref = float(value), float(ref)
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def compare(pt: Point, values: dict, ref: dict, label: str) -> None:
    """Fold the deviation of ``values`` from ``ref`` into the point."""
    pt.ref_checked = True
    for name, want in ref.items():
        err = rel_err(values.get(name), want)
        pt.ref_err = max(pt.ref_err, err)
        if not err <= REF_TOL:
            pt.problems.append(f"{label} {name}: {values.get(name)!r} differs from reference {want!r}")


def run_studies(workload, seconds: float, ref: dict | None, tracer=None) -> list[Study]:
    """Run studies back to back for ``seconds`` and check every point of
    each.  A study starts only if it is expected to end within
    ``seconds``, but at least ``MIN_STUDIES`` run."""
    studies: list[Study] = []
    t_start = time.perf_counter()
    while True:
        study = Study(index=len(studies), tracer=tracer)
        if tracer is not None:
            tracer.study = study.index
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            workload.run(study)
        except Exception as exc:
            study.error = exc
        study.cpu = time.process_time() - c0
        study.seconds = time.perf_counter() - t0
        study.speed = speed_sample()
        if tracer is not None:
            tracer.study = -1
        check_study(workload, study, ref)
        studies.append(study)
        expected = statistics.median(s.seconds for s in studies)
        if len(studies) >= MIN_STUDIES and time.perf_counter() - t_start + expected > seconds:
            return studies


def check_study(workload, study: Study, ref: dict | None) -> dict:
    """Check every point of a finished study; returns the study-level
    values, which are checked with the study's last point."""
    if study.error is not None and not any(p.error is study.error for p in study.points):
        study.points.append(Point("study", error=study.error))
    for pt in study.points:
        if pt.error is None and pt.key != "study":
            try:
                workload.check(pt)
            except Exception as exc:   # unreadable output fails the point
                pt.problems.append(f"check raised {exc!r}")
            pt.payload = None   # keep memory flat across repeats
            if ref is not None and pt.key in ref["points"]:
                compare(pt, pt.values, ref["points"][pt.key], pt.key)
    if study.error is not None or not study.points:
        return {}
    last = study.points[-1]
    try:
        result = workload.result(study, last)
    except Exception as exc:
        last.problems.append(f"study check raised {exc!r}")
        result = {}
    if ref is not None:
        compare(last, result, ref["result"], "result")
    return result
