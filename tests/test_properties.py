"""Property tests over short random code streams: on the 4-synapse tree
both designs return finite, passive ledgers that conserve energy, the
adiabatic one at any clock from 0.4 to 1.6 of nominal, and the same run
whatever form the stream takes; on random small trees the
closed-form kernel matches the per-step reference kernel, and so do its
divergence errors on steps that grow the state; on random circuits of
either design (the adiabatic clock, or the baseline's drive, rail, code
rate, step count and weights) a run either fails by name or returns
finite results; on random per-cycle keys pass 1's order of work tiles
the run, batches only repeated cycles and equals that of the
whole-slice comparison; on random unequal-weight trees the baseline's
lumped legs give the grouped legs' run; on random phase operators and
start clouds the peak search returns the exhaustive maximum; on random
trees with repeated and unequal weights the run path's code matrix keeps
the per-bit rules: the same run from tuples, lists or one array, oracle
bits equal to the per-bit sum (``scalar_oracles.fires``), drive accounts
equal to the bit toggles, and the same errors; one ``CodeStream`` run
through two random circuits gives the runs of its raw codes; and any
finite number written with an SI prefix and unit, or none, parses to
its scaled value, while an unknown suffix fails by field name."""

import math
import re
import string
import warnings
from contextlib import nullcontext
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from acansim import (
    BaselineConfig,
    CircuitConfig,
    CodeStream,
    EnergyLedger,
    NeuronSpec,
    SimConfig,
    SimulationError,
    SynapseTreeConfig,
    baseline,
    baseline_oracle_spec,
    dlcc_offset,
    energy_residual,
    engine,
    run_baseline,
    run_neuron,
    tune_inductor,
)
from acansim.cli import _PREFIXES, _UNITS, ConfigError, parse_quantity
from acansim.engine import PhaseOperator
from acansim.model import effective_pc_capacitance
from acansim.neuron import SwitchState
from grouped_baseline import grouped_legs
from reference_kernel import Gathers, assert_same_run, reference_kernel
from scalar_oracles import build_phase_system, fires

CFG = tune_inductor(CircuitConfig())
BASE = BaselineConfig.from_circuit(CFG)

streams = st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=12)


def _check_finite_and_passive(ledger):
    for name in ("source_dc", "source_ref", "r_pc", "r_lc", "r_tg", "r_reset",
                 "drive", "reconfig", "soma"):
        assert np.all(np.isfinite(getattr(ledger, name))), name
    for name in ("r_pc", "r_lc", "r_tg", "r_reset", "drive"):
        assert np.all(getattr(ledger, name) >= 0.0), name


def _check_conservation(ledger):
    # Idle baseline codes dissipate ~1e-39 J: the membrane sits ~1e-15 V off
    # V_REF (round-off in the step map's fixed point), which the V_REF source
    # term books to first order (~1e-24 J per cycle) and the reset loss to
    # second.  The floor at 1e-9 of the stored energy covers that and stays
    # six orders below the dissipation bound of any switching cycle.
    scale = max(abs(ledger.e_stored_first), abs(ledger.e_stored_last))
    assert abs(energy_residual(ledger)) <= 1e-3 * ledger.dissipated_total + 1e-9 * scale


def _check_input_forms(design, cfg, want, codes):
    # the stream as fresh lists and as one int array gives the tuples' run
    for form in ([list(code) for code in codes], np.array(codes, dtype=int)):
        got = design(cfg, form)
        for f in fields(EnergyLedger):
            assert np.array_equal(getattr(got.ledger_full, f.name),
                                  getattr(want.ledger_full, f.name)), f.name
        assert got.output_bits == want.output_bits
        np.testing.assert_array_equal(got.oracle_bits, want.oracle_bits)


@settings(max_examples=25, deadline=None)
@given(codes=streams)
def test_run_neuron_ledger_finite_passive_conserving(codes):
    run = run_neuron(CFG, codes)
    _check_finite_and_passive(run.ledger_full)
    _check_conservation(run.ledger_full)
    _check_input_forms(run_neuron, CFG, run, codes)


@settings(max_examples=25, deadline=None)
@given(codes=streams, scale=st.floats(0.4, 1.6))
def test_run_neuron_conserves_energy_off_nominal(codes, scale):
    # the tuned default circuit driven from 0.4 to 1.6 of its nominal
    # clock, the top-up window t_ON held: the residual stays within 1e-3 of
    # the dissipation (at most 6.0e-4 and 6.2e-4 in two runs of 200 draws).
    # Most of the random circuits of ``circuits`` break that bound, even at
    # 4096 steps.
    f = scale * CFG.pc.f_nominal
    ledger = run_neuron(replace(CFG, pc=replace(CFG.pc, f_nominal=f, duty_d=CFG.pc.t_on * f)),
                        codes).ledger_full
    assert abs(energy_residual(ledger)) <= 1e-3 * ledger.dissipated_total


@settings(max_examples=25, deadline=None)
@given(codes=streams)
def test_run_baseline_ledger_finite_and_passive(codes):
    run = run_baseline(BASE, codes)
    _check_finite_and_passive(run.ledger_full)
    _check_input_forms(run_baseline, BASE, run, codes)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "baseline dense window is sized by the slowest mode: when the reset closes "
    "behind a falling edge it spans the whole cycle and the fast driver mode "
    "is under-resolved (residual 1.1% here, 4x smaller per step halving)"))
@settings(max_examples=25, deadline=None)
@example(codes=[(0, 0, 0, 1), (0, 0, 0, 0)])
@given(codes=streams)
def test_run_baseline_conserves_energy(codes):
    _check_conservation(run_baseline(BASE, codes).ledger_full)


@st.composite
def trees_and_streams(draw):
    # weights of 1 or 2 pF, so equal weights lump into shared phases; a
    # run-length stream, each code repeated 1 to 40 times, so repeated
    # cycles run as batches between recalibrations
    weights = draw(st.lists(st.sampled_from((1e-12, 2e-12)), min_size=2, max_size=5))
    runs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * len(weights)),
                                   st.integers(1, 40)), min_size=1, max_size=12))
    recal_every = draw(st.sampled_from((1, 2, 5, 16, 10_000)))
    return tuple(weights), [code for code, count in runs for _ in range(count)], recal_every


@settings(max_examples=25, deadline=None)
@given(case=trees_and_streams())
def test_closed_form_kernel_matches_reference_on_random_trees(case):
    weights, codes, recal_every = case
    cfg = tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=weights),
                                      sim=SimConfig(recal_every=recal_every)))
    base = BaselineConfig.from_circuit(cfg)
    runs = [run_neuron(cfg, codes, keep_trace=True), run_baseline(base, codes)]
    with reference_kernel():
        refs = [run_neuron(cfg, codes, keep_trace=True), run_baseline(base, codes)]
    for run, ref in zip(runs, refs):
        assert_same_run(run, ref)


@st.composite
def unequal_trees_and_streams(draw):
    # 2 to 6 synapses of 1, 2 or 4 pF, so equal and unequal weights mix,
    # and a stream in which the all-zero code, a reset cycle, recurs
    weights = draw(st.lists(st.sampled_from((1e-12, 2e-12, 4e-12)), min_size=2, max_size=6))
    zero = (0,) * len(weights)
    code = st.one_of(st.just(zero), st.tuples(*[st.integers(0, 1)] * len(weights)))
    return tuple(weights), draw(st.lists(code, min_size=1, max_size=16))


@settings(max_examples=25, deadline=None)
# spread states on two weight values, a reset, and both again after it
@example(case=((1e-12, 2e-12, 1e-12, 2e-12, 4e-12),
               [(1, 1, 0, 0, 1), (1, 1, 1, 1, 0), (0,) * 5, (1, 0, 1, 1, 0), (0, 0, 1, 0, 0),
                (1, 1, 1, 1, 0)]))
# a stream that never sets a bit, on three weight values: no charge
# moves, and both runs build the same systems, so they agree to round-off
# of the synaptic energy's round-off
@example(case=((1e-12, 2e-12, 4e-12), [(0, 0, 0)] * 3))
@given(case=unequal_trees_and_streams())
def test_lumped_baseline_matches_the_grouped_legs(case):
    # the baseline's legs lumped by (new level, weight value), with spread
    # states, against one leg per (previous level, new level, weight
    # value), each padded with held states to its run's widest
    # transition: the same decisions, accounts within 1e-11 of the
    # largest synaptic energy, peaks and samples within 1e-11 relative,
    # and per cycle the same phases
    weights, codes = case
    cfg = BaselineConfig.from_circuit(CircuitConfig(tree=SynapseTreeConfig(c_s=weights)))
    runs, phases = [], []
    for legs in (nullcontext, grouped_legs):
        with legs(), mock.patch.object(baseline, "run_cycles", wraps=baseline.run_cycles) as kernel:
            runs.append(run_baseline(cfg, codes))
        _, kinds, order, *_ = kernel.call_args.args
        phases.append([[(p.start, p.end, p.n_steps) for p in kinds[i][1]]
                       for i in order.kind_of.tolist()])
    run, want = runs
    assert run.output_bits == want.output_bits
    np.testing.assert_array_equal(run.outputs, want.outputs)
    tol = 1e-11 * np.abs(want.ledger_full.s_e).max()
    for f in fields(EnergyLedger):
        got, ref = getattr(run.ledger_full, f.name), getattr(want.ledger_full, f.name)
        assert np.all(np.abs(got - ref) <= tol), f.name
    for got, ref in zip(run.stats, want.stats):
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)
    for lumped, grouped in zip(*phases, strict=True):
        assert [n for _, _, n in lumped] == [n for _, _, n in grouped]
        np.testing.assert_allclose([b for p in lumped for b in p[:2]],
                                   [b for p in grouped for b in p[:2]], rtol=1e-12, atol=0.0)


@st.composite
def trees_and_repeating_streams(draw):
    # up to 8 synapses of three weight values, so repeated and unequal
    # weights mix; a stream drawn from up to four distinct codes, so codes
    # repeat; and where a malformed code goes in the error cases
    weights = draw(st.lists(st.sampled_from((0.5e-12, 1e-12, 2e-12)), min_size=1, max_size=8))
    distinct = draw(st.lists(st.tuples(*[st.integers(0, 1)] * len(weights)),
                             min_size=1, max_size=4))
    codes = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    return tuple(weights), codes, draw(st.integers(0, len(codes)))


def _assert_same_runs(got, want):
    assert got.table == want.table
    for name in ("index", "outputs", "delays", "oracle_bits"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    for a, b in zip(got.stats, want.stats):
        np.testing.assert_array_equal(a, b)
    for f in fields(EnergyLedger):
        assert np.array_equal(getattr(got.ledger_full, f.name),
                              getattr(want.ledger_full, f.name)), f.name


def _raises(design, cfg, codes, message):
    with pytest.raises(ValueError) as err:
        design(cfg, codes)
    assert str(err.value) == message


@settings(max_examples=25, deadline=None)
@given(case=trees_and_repeating_streams())
def test_code_matrix_keeps_the_per_bit_rules(case):
    weights, codes, bad_at = case
    n = len(weights)
    cfg = tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=weights)))
    base = BaselineConfig.from_circuit(cfg)
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    e_toggle = 0.5 * cfg.tree.c_inv * cfg.dlcc.v_dd ** 2
    zero = (0,) * n
    for design, config in ((run_neuron, cfg), (run_baseline, base)):
        want = design(config, codes)
        for form in ([list(code) for code in codes], [tuple(map(float, code)) for code in codes],
                     np.array(codes, dtype=int)):
            _assert_same_runs(design(config, form), want)
        assert [want.table[i] for i in want.index.tolist()] == codes
        assert want.table[0] == zero and len(set(want.table)) == len(want.table)

        spec = (NeuronSpec.from_circuit(cfg, want.v_pk_reference, v_os=v_os)
                if design is run_neuron else baseline_oracle_spec(base, v_os=v_os))
        assert want.oracle_bits.tolist() == [fires(spec, code) for code in codes]

        # one toggle per bit that differs from the previous cycle's code,
        # from every gate open; warm-up cycles hold the all-zero code
        full = [zero] * want.warm_up + codes
        toggles = [sum(x != y for x, y in zip(prev, code)) for prev, code in zip([zero] + full, full)]
        np.testing.assert_array_equal(want.ledger_full.drive, np.array(toggles) * e_toggle)

        for form in (tuple, list):
            stream = [form(code) for code in codes]

            def spliced(bad):
                return stream[:bad_at] + [form(bad)] + stream[bad_at:]

            _raises(design, config, [], "code stream is empty: need at least one code")
            _raises(design, config, spliced((1,) * (n + 1)),
                    f"code {bad_at} has {n + 1} bits, tree has {n} synapses")
            for bit in (math.nan, "1"):
                _raises(design, config, spliced((0,) * (n - 1) + (bit,)),
                        f"code {bad_at} has a bit that is not a finite number")
        _raises(design, config, np.zeros((0, n), dtype=int),
                "code stream is empty: need at least one code")
        _raises(design, config, np.ones((len(codes), n + 1), dtype=int),
                f"code 0 has {n + 1} bits, tree has {n} synapses")
        floats = np.array(codes, dtype=float)
        floats[min(bad_at, len(codes) - 1), -1] = math.nan
        _raises(design, config, floats,
                f"code {min(bad_at, len(codes) - 1)} has a bit that is not a finite number")


@st.composite
def cycle_keys(draw):
    # per-cycle kind indices from four kinds of part: constant runs,
    # nested periodic blocks (an inner block repeated, plus a tail, the
    # whole repeated and cut anywhere, so a partial period may trail),
    # noise, and pairs (keys of their own, each twice, in random places,
    # so candidate periods reach far)
    keys = st.integers(0, 4)
    out = []
    for part in draw(st.lists(st.sampled_from(("constant", "nested", "noise", "pairs")),
                              min_size=1, max_size=6)):
        if part == "constant":
            out += [draw(keys)] * draw(st.integers(1, 40))
        elif part == "nested":
            inner = draw(st.lists(keys, min_size=1, max_size=3)) * draw(st.integers(1, 4))
            block = (inner + draw(st.lists(keys, max_size=3))) * draw(st.integers(1, 8))
            out += block[:draw(st.integers(1, len(block)))]
        elif part == "noise":
            out += draw(st.lists(keys, min_size=1, max_size=12))
        else:
            fresh = range(5 + len(out), 5 + len(out) + draw(st.integers(1, 20)))
            out += draw(st.permutations([*fresh, *fresh]))
    return out


def _sliced_periods(keys):
    """``engine._periods`` as it compared whole slices: the output to pin."""
    n = keys.size
    by_key = np.argsort(keys, kind="stable")
    same = keys[by_key[1:]] == keys[by_key[:-1]]
    nxt = np.full(n, 2 * n)
    nxt[by_key[:-1][same]] = by_key[1:][same]
    nxt, ids = nxt.tolist(), keys.tolist()
    out = []
    k = 0
    while k < n:
        p = nxt[k] - k
        size = 2 * p
        if k + size > n or ids[k + p:k + size] != ids[k:k + p]:
            out.append((k, 1, 1))
            k += 1
            continue
        while k + size < n:
            take = min(size, n - k - size)
            if ids[k + size:k + size + take] != ids[k:k + take]:
                size += next(i for i, (a, b) in enumerate(zip(ids[k + size:], ids[k:])) if a != b)
                break
            size += take
        out.append((k, p, size))
        k += size
    return out


@settings(max_examples=200, deadline=None)
@example(keys=[0])
@example(keys=[3] * 600)
@example(keys=([0, 1] * 3 + [2]) * 5 + [0, 1])
@given(keys=cycle_keys())
def test_periods_tile_the_run_and_batch_only_repeats(keys):
    order = engine._periods(np.array(keys))
    assert order == _sliced_periods(np.array(keys))
    ran = 0   # cycles 0 .. ran - 1 ran in earlier items
    for k, p, count in order:
        # the items tile 0 .. n - 1 in order, with no gap and no overlap
        assert k == ran and p >= 1 and count >= 1
        if count == 1:
            assert p == 1   # a lone cycle
        else:
            # a batch holds at least two whole periods, its first included
            # (``run_cycles`` reads the period from its first p cycles), and
            # every cycle past its first period has the key of the cycle p
            # before it
            assert count >= 2 * p
            assert keys[k + p:k + count] == keys[k:k + count - p]
        ran += count
    assert ran == len(keys)


@st.composite
def growing_streams(draw):
    # a run-length stream (each code 1 to 12 times) repeated 1 to 3 times,
    # so pass 1 batches repeated cycles and periodic blocks, on steps that
    # grow the state by a factor 1 + eps: from no growth, through a guard
    # crossed late or early, to states that overflow float64 long before
    # the stream ends (eps 3e-3 grows them ~1e5x per cycle)
    runs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * 4), st.integers(1, 12)),
                         min_size=1, max_size=4))
    repeats = draw(st.integers(1, 3))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-7, 3e-3)))
    return [code for code, count in runs for _ in range(count)] * repeats, eps


# states that overflow in the batches after the divergence
OVERFLOWING = (([(1, 1, 0, 1)] * 12 + [(0, 1, 1, 0)] * 12) * 3, 3e-3)


@settings(max_examples=20, deadline=None)
@example(case=OVERFLOWING, design="adiabatic")
@example(case=OVERFLOWING, design="baseline")
@given(case=growing_streams(), design=st.sampled_from(("adiabatic", "baseline")))
def test_deferred_guard_names_the_reference_divergence(case, design):
    # pass 1 carries every cycle before any guard runs; the guard must
    # still raise the reference kernel's error, or leave its run, and no
    # overflow or invalid-value warning may escape
    codes, eps = case
    step_maps = engine.step_maps

    def grown(a, b, dt):
        e, f = step_maps(a, b, dt)
        return (1.0 + eps) * e, f

    def run():
        return run_neuron(CFG, codes) if design == "adiabatic" else run_baseline(BASE, codes)

    with mock.patch.object(engine, "step_maps", grown):
        with reference_kernel():
            try:
                ref, want = run(), None
            except SimulationError as err:
                want = str(err)
        event("ran" if want is None else "diverged")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                assert_same_run(run(), ref)
            else:
                with pytest.raises(SimulationError) as err:
                    run()
                assert str(err.value) == want


@st.composite
def circuits(draw):
    # an inductor and tank capacitor, a clock off the pair's resonance by
    # up to 60% either way, a step budget and stride, a recalibration rate
    cfg = CircuitConfig()
    l_pc = draw(st.floats(1e-4, 1e-2))
    pc = replace(cfg.pc, l_pc=l_pc, c_e=draw(st.floats(5e-12, 100e-12)))
    f_res = 1.0 / (2.0 * math.pi * math.sqrt(l_pc * effective_pc_capacitance(cfg.tree, pc, 0.0)))
    pc = replace(pc, f_nominal=f_res * draw(st.floats(0.4, 1.6)))
    stride = draw(st.sampled_from((1, 2, 4, 8, 16)))
    sim = SimConfig(steps_per_cycle=stride * draw(st.integers(-(-256 // stride), 4096 // stride)),
                    trace_stride=stride, recal_every=draw(st.integers(1, 20)))
    return replace(cfg, pc=pc, sim=sim)


def _extreme(**pc):
    cfg = CircuitConfig()
    return replace(cfg, pc=replace(cfg.pc, **pc), sim=SimConfig(steps_per_cycle=256, trace_stride=1))


# The drawn circuits are passive and the trapezoid rule is A-stable, so
# none of them diverges (a 400-example run found none); these valid
# extremes do: a feed voltage past the limit, and a feed inductor whose
# step maps turn the states NaN.  Configs are checked when built, so no
# circuit reaches a run only to fail validation.
@settings(max_examples=25, deadline=None)
@example(cfg=_extreme(v_dc=1e3), codes=[(1, 0, 1, 0)] * 3)
@example(cfg=_extreme(l_pc=1e300), codes=[(1, 0, 1, 0)] * 3)
@given(cfg=circuits(), codes=streams)
def test_random_circuits_fail_by_name_or_run_finite(cfg, codes):
    # a run raises a named error or returns finite ledgers, peaks and
    # samples: overflow past a divergence never reaches a result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run = run_neuron(cfg, codes, keep_trace=True)
            run.stats   # the peak search, under the same warnings filter
        except (SimulationError, ValueError) as err:
            event(f"{type(err).__name__}: {str(err).split(':')[0]}")
            return
    event("ran")
    for f in fields(EnergyLedger):
        assert np.all(np.isfinite(getattr(run.ledger_full, f.name))), f.name
    for name, values in run.stats._asdict().items():
        assert np.all(np.isfinite(values)), name
    for name in ("t", "i_l", "v_pc", "v_s", "v_m"):
        assert np.all(np.isfinite(getattr(run.trace, name))), name


def _log_floats(lo, hi):
    # log-uniform over [10**lo, 10**hi]
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# a field value its interval refuses
_OUT_OF_RANGE = st.sampled_from((0.0, -1.0, math.inf, math.nan))


@st.composite
def baseline_circuits(draw):
    # a tree of 1-5 weights from 0.1 to 10 pF, and the baseline's own
    # fields, each drawn in range or, now and then, out of it; the config
    # is built in the test, so a refused field fails there by name
    weights = tuple(draw(st.lists(_log_floats(-13, -11), min_size=1, max_size=5)))
    fields_ = {name: draw(st.one_of(values, _OUT_OF_RANGE) if draw(st.integers(0, 9)) == 0
                          else values)
               for name, values in (("r_drv", _log_floats(1, 6)), ("v_dd", _log_floats(-1, 1)),
                                    ("f_clock", _log_floats(4, 8)))}
    fields_["steps_per_cycle"] = draw(st.integers(200, 4096))
    codes = draw(st.lists(st.tuples(*[st.integers(0, 1)] * len(weights)), min_size=1, max_size=8))
    return weights, fields_, codes


@settings(max_examples=50, deadline=None)
@example(case=((1e-12,) * 4, {"r_drv": math.nan, "v_dd": 1.8, "f_clock": 1e6,
                              "steps_per_cycle": 4096}, [(1, 0, 1, 0)]))
@example(case=((1e-12, 2e-12), {"r_drv": 1e3, "v_dd": 1.8, "f_clock": 1e6,
                                "steps_per_cycle": 255}, [(1, 0)]))
@given(case=baseline_circuits())
def test_random_baseline_circuits_fail_by_name_or_run_finite(case):
    # a config is refused naming its field, or a run raises a named error,
    # or it returns finite ledgers, samples and peaks and 0/1 decisions
    weights, values, codes = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = BaselineConfig(tree=SynapseTreeConfig(c_s=weights), **values)
            run = run_baseline(cfg, codes)
            run.stats, run.oracle_bits   # the peak search, under the same warnings filter
        except (SimulationError, ValueError) as err:
            assert re.match(r"^(baseline\.\w+|state diverged in cycle \d+): ", str(err)), str(err)
            event(f"{type(err).__name__}: {str(err).split(':')[0]}")
            return
    event("ran")
    for f in fields(EnergyLedger):
        assert np.all(np.isfinite(getattr(run.ledger_full, f.name))), f.name
    for name, series in run.stats._asdict().items():
        assert np.all(np.isfinite(series)), name
    assert np.all(np.isfinite(run.delays))
    assert set(run.outputs.tolist()) <= {0, 1} and set(run.oracle_bits.tolist()) <= {0, 1}


@st.composite
def peak_searches(draw):
    # a phase at random switches and step size, of fewer steps than a block
    # or a last block of 1, 2 or B steps, and a cloud of start states: a
    # tight cluster about the operator's reference start plus far outliers,
    # so that the blocks some start needs are few or nearly all
    sw = SwitchState(draw(st.booleans()), draw(st.booleans()),
                     draw(st.tuples(*[st.booleans()] * 4)))
    per_period = draw(st.floats(3.0, 3000.0))   # steps per clock period
    block = engine._BLOCK
    n = draw(st.one_of(st.integers(1, block - 1),
                       st.builds(lambda b, m: block * b + m, st.integers(1, 3840 // block),
                                 st.sampled_from((0, 1, block - 1)))))
    spread = draw(st.floats(1e-9, 1e-2))   # of the cluster, relative
    reach = draw(st.floats(1.0, 30.0))     # of the outliers, relative
    counts = draw(st.integers(1, 16)), draw(st.integers(0, 4))
    return sw, per_period, n, spread, reach, counts, draw(st.integers(0, 2 ** 32 - 1))


# A settling phase (reset and bypass closed, gates open) from one start
# above its rest: both rows fall from step 0, so only the first block,
# the one of the best block start, is searched step by step.
SETTLING = (SwitchState(True, True, (False,) * 4), 2000.0, 3584, 1e-9, 1.0, (1, 0), 0)


@settings(max_examples=20, deadline=None)
@given(codes=streams, cfgs=st.lists(st.tuples(circuits(), st.integers(0, 4)), min_size=2, max_size=2))
def test_runs_from_a_stream_are_runs_from_its_codes(codes, cfgs):
    # one stream through two random circuits and warm-ups, in both
    # designs: each run is the run of the raw codes
    stream = CodeStream(codes, 4)
    for cfg, warm in cfgs:
        cfg = replace(cfg, sim=replace(cfg.sim, startup_discard_cycles=warm))
        for design, config in ((run_neuron, cfg), (run_baseline, BaselineConfig.from_circuit(cfg))):
            _assert_same_runs(design(config, stream), design(config, codes))


@settings(max_examples=60, deadline=None)
@example(case=SETTLING)
@given(case=peak_searches())
def test_peaks_equal_the_exhaustive_maximum(case):
    # peaks() evaluates step by step only the blocks that some start of the
    # cloud needs, in one product per row; each start's maximum must equal
    # the maximum of its states at every step of the phase to within
    # 1e-14 of the row's largest magnitude over the phase (a few ulp: the
    # two evaluate the same powers in a different association)
    sw, per_period, n, spread, reach, (near, far), seed = case
    system = build_phase_system(CFG, sw)
    d = system.dim
    dt = CFG.pc.t_pc / per_period
    rng = np.random.default_rng(seed)
    scale = np.array([2e-4, *[0.5] * (d - 2), 0.2])
    x_ref = np.array([1e-4, 0.3, *[0.3] * (d - 3), 0.8]) + rng.normal(scale=scale)
    x0s = x_ref + np.concatenate([rng.normal(scale=spread * scale, size=(near, d)),
                                  rng.normal(scale=reach * scale, size=(far, d))])
    op = PhaseOperator(system, dt, n, engine.step_maps(system.a, system.b, dt), x_ref,
                       (1, -1), math.inf)
    engine.compile_operators([op])
    engine.compile_chords([op])
    zs = np.column_stack([x0s, np.ones(len(x0s))]) - op.ref
    every = op.states(zs, np.arange(n + 1))[:, :, [1, -1]]
    op.blocks = op.blocks.view(Gathers)
    op.blocks.gathered = []
    got = op.peaks(zs)
    assert np.all(np.abs(got - every.max(1)) <= 1e-14 * np.abs(every).max(1))
    blocks = n // engine._BLOCK + 1
    for row in op.blocks.gathered:
        share = len(row) / blocks
        event("one block" if len(row) == 1 else "all blocks" if share == 1
              else "under half the blocks" if share < 0.5 else "half the blocks or more")
    if case == SETTLING:
        assert op.blocks.gathered == [[0], [0]]


# every suffix parse_quantity reads: an SI prefix, a unit, both or neither
_KNOWN_SUFFIXES = {p + u for p in ("", *_PREFIXES) for u in ("", *_UNITS)} | {"%"}


@settings(max_examples=200, deadline=None)
@example(value=10.0, prefix="m", unit="")
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       prefix=st.sampled_from(("", *_PREFIXES)), unit=st.sampled_from(("", *_UNITS)))
def test_si_strings_parse_to_their_scaled_value(value, prefix, unit):
    # any finite float written with repr, then a prefix and a unit, each
    # possibly empty, parses to float(text) times the prefix's scale.  A
    # bare "m" reads as the metre unit, not milli, so "10m" is 10
    text = repr(value)
    scale = 1.0 if (prefix, unit) == ("m", "") else _PREFIXES.get(prefix, 1.0)
    assert parse_quantity(text + prefix + unit, "tree.C_d") == float(text) * scale


@settings(max_examples=200, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       suffix=st.text(string.ascii_letters + "\u00b5\u03bc%_", min_size=1, max_size=5).filter(
           lambda suffix: suffix not in _KNOWN_SUFFIXES))
def test_unknown_suffixes_fail_by_field(value, suffix):
    # letters after the number that are no prefix and unit raise a
    # ConfigError that names the field and the suffix
    text = repr(value) + suffix
    with pytest.raises(ConfigError, match=rf"^tree\.C_d: unknown unit suffix "
                                          rf"{re.escape(repr(suffix))} in {re.escape(repr(text))}$"):
        parse_quantity(text, "tree.C_d")
