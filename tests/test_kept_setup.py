"""What a design keeps of its runs for the next run on the same circuit
(phase systems, step allocations, cycle plans, step and end maps) never
changes a run: every config field, changed after a run, gives the run
that the same change gives from nothing kept, bit for bit."""

import functools
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    Corner,
    DlccConfig,
    Environment,
    PowerClockConfig,
    SimConfig,
    SynapseTreeConfig,
    run_baseline,
    run_neuron,
    scaled_tree,
    tune_inductor,
)
from acansim import baseline as baseline_mod
from acansim import engine
from acansim import neuron as neuron_mod

_SECTIONS = {"pc": PowerClockConfig, "tree": SynapseTreeConfig, "dlcc": DlccConfig,
             "env": Environment, "sim": SimConfig}
# the changed value of each field that is not a float; a float is scaled by 0.8
_CHANGED = {
    ("tree", "c_s"): (1e-12, 2e-12, 1e-12, 4e-12),
    ("tree", "c_d"): 3e-12,
    ("env", "corner"): Corner.SS,
    ("sim", "steps_per_cycle"): 2048,
    ("sim", "startup_discard_cycles"): 3,
    ("sim", "recal_every"): 5,
    ("sim", "trace_stride"): 4,
    ("baseline", "steps_per_cycle"): 2048,
}
_CODES = [(1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0), (0, 1, 1, 1), (1, 1, 1, 1)] * 3
_BASE = tune_inductor(CircuitConfig())


def _changed(section, obj, name):
    value = getattr(obj, name)
    new = value * 0.8 if type(value) is float else _CHANGED[section, name]
    assert new != value, (section, name)
    return replace(obj, **{name: new})


def _cases():
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            for design in ("adiabatic", "baseline"):
                yield pytest.param(design, section, f.name, id=f"{design}-{section}.{f.name}")
    for f in fields(BaselineConfig):
        value = getattr(BaselineConfig(), f.name)
        if is_dataclass(value):   # its fields are the sections' own
            assert type(value) in _SECTIONS.values()
        else:
            yield pytest.param("baseline", "baseline", f.name, id=f"baseline-baseline.{f.name}")


def _config(design, section, name):
    """The design's base config and the same with one field changed."""
    if section == "baseline":
        base = BaselineConfig.from_circuit(_BASE)
        return base, _changed(section, base, name)
    changed = replace(_BASE, **{section: _changed(section, getattr(_BASE, section), name)})
    if design == "adiabatic":
        return _BASE, changed
    return BaselineConfig.from_circuit(_BASE), BaselineConfig.from_circuit(changed)


def _run(cfg, codes=_CODES):
    if isinstance(cfg, BaselineConfig):
        return run_baseline(cfg, codes)
    return run_neuron(cfg, codes, keep_trace=True)


def _another_circuit(design):
    # a run that replaces what the design keeps
    cfg = tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=(2e-12,) * 3)))
    _run(cfg if design == "adiabatic" else BaselineConfig.from_circuit(cfg), [(1, 0, 1)] * 2)


def _assert_same(got, want):
    for f in fields(engine.EnergyLedger):
        assert np.array_equal(getattr(got.ledger_full, f.name),
                              getattr(want.ledger_full, f.name)), f.name
    assert got.output_bits == want.output_bits and got.oracle_string == want.oracle_string
    np.testing.assert_array_equal(got.delays, want.delays)
    for a, b in zip(got.observed.stats, want.observed.stats, strict=True):   # samples and peaks
        np.testing.assert_array_equal(a, b)
    assert (got.trace is None) == (want.trace is None)
    if got.trace is not None:
        for name in ("t", "i_l", "v_pc", "v_s", "v_m"):
            np.testing.assert_array_equal(getattr(got.trace, name), getattr(want.trace, name))


@pytest.mark.parametrize("design, section, name", _cases())
def test_a_changed_field_runs_as_it_does_from_nothing_kept(design, section, name):
    base, changed = _config(design, section, name)
    _run(base)
    warm = _run(changed)
    _another_circuit(design)
    _assert_same(warm, _run(changed))


def _wrapped_counter(monkeypatch, owner, name, record):
    # counts the calls of owner.name through a wrapper that names the
    # function it wraps, so the design still keys what it keeps by that one
    orig = getattr(owner, name)

    @functools.wraps(orig)
    def counted(*args):
        record.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)


def test_a_new_clock_timing_builds_no_system_and_reuses_the_bypass_maps(monkeypatch):
    # twice the frequency and twice the duty hold t_ON, so the bypass
    # window keeps its step size: the run builds no phase system, and only
    # the main-phase step maps; and it runs as from nothing kept
    cfg = _BASE
    timed = replace(cfg, pc=replace(cfg.pc, f_nominal=2 * cfg.pc.f_nominal, duty_d=2 * cfg.pc.duty_d))
    run_neuron(cfg, _CODES)
    built, maps = [], []
    _wrapped_counter(monkeypatch, neuron_mod, "_phase_system", built)
    _wrapped_counter(monkeypatch, engine, "step_maps", maps)
    warm = run_neuron(timed, _CODES)
    assert built == [] and len(maps) == 1
    bypass_dt = timed.pc.duty_d * timed.pc.t_pc / (timed.sim.steps_per_cycle // 8)
    assert bypass_dt == cfg.pc.duty_d * cfg.pc.t_pc / (cfg.sim.steps_per_cycle // 8)
    (_, _, dts), = maps
    assert bypass_dt not in dts.tolist()
    _another_circuit("adiabatic")
    _assert_same(warm, run_neuron(timed, _CODES))


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
def test_a_run_on_another_circuit_replaces_what_is_kept(monkeypatch, design):
    # after a 512-synapse run and a 4-synapse run the design holds the
    # 4-synapse run's phase systems only, each with that run's maps, all
    # of them read-only
    wide = tune_inductor(scaled_tree(CircuitConfig(), 512))
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 2, size=(6, 512))
    module = neuron_mod if design == "adiabatic" else baseline_mod
    runs = []
    run_cycles = module.run_cycles

    def kept(ledger, kinds, order, x0, t_cycle, *args):
        runs.append((kinds, t_cycle))
        return run_cycles(ledger, kinds, order, x0, t_cycle, *args)

    monkeypatch.setattr(module, "run_cycles", kept)
    for cfg, stream in ((wide, codes), (_BASE, _CODES)):
        _run(cfg if design == "adiabatic" else BaselineConfig.from_circuit(cfg), stream)
    (_, _), (kinds, t_cycle) = runs
    used = {}   # per system of the 4-synapse run, its (dt, n)
    for _, phases in kinds:
        for p in phases:
            used.setdefault(p.system, set()).add(((p.end - p.start) * t_cycle / p.n_steps, p.n_steps))
    systems = list(module._kept.systems.values())
    assert set(systems) == set(used) and len(systems) == len(used)
    if design == "baseline":
        assert set(module._kept.plans) == set(used)
    for system, phases in used.items():
        assert set(system.maps) == {(engine.step_maps, dt) for dt, _ in phases}
        assert set(system.ends) == {(engine.step_maps, dt, n) for dt, n in phases}
        arrays = [system.a, system.b, *system.ends.values()]
        for e, f in system.maps.values():
            arrays += [e, f]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
