"""Closed-form circuit algebra checked against hand-computed values."""

import math

import numpy as np
import pytest

from acansim import (
    CircuitConfig,
    CodeStream,
    Corner,
    Environment,
    NeuronSpec,
    PowerClockConfig,
    SimConfig,
    SynapseTreeConfig,
    active_count,
    bypass_resistance,
    effective_pc_capacitance,
    lc_series_resistance,
    predicted_optimal_frequency,
    reset_resistance,
    resonant_frequency,
    run_neuron,
    series_capacitance,
    sweep_lock_frequency,
    synapse_energy_analytic,
    tg_resistance,
    topup_energy_analytic,
    tune_inductor,
)
from scalar_oracles import fires


def test_series_capacitance_values():
    assert series_capacitance(2e-12, 2e-12) == pytest.approx(1e-12, rel=1e-12)
    assert series_capacitance(1e-12, 3e-12) == pytest.approx(0.75e-12, rel=1e-12)
    assert series_capacitance(0.0, 1e-12) == 0.0
    assert series_capacitance(1e-12, 0.0) == 0.0


def test_resonant_frequency_reference_tank():
    # 1 mH with 25 pF rings just above 1 MHz
    assert resonant_frequency(1e-3, 25e-12) == pytest.approx(1.00658e6, rel=1e-4)


def test_resonant_frequency_quadrupled_lc_product_halves():
    f1 = resonant_frequency(1e-3, 25e-12)
    f2 = resonant_frequency(2e-3, 50e-12)
    assert f2 == pytest.approx(f1 / 2.0, rel=1e-12)


def test_resonant_frequency_rejects_nonpositive():
    with pytest.raises(ValueError):
        resonant_frequency(0.0, 25e-12)
    with pytest.raises(ValueError):
        resonant_frequency(1e-3, -1e-12)


def test_active_count_rounds_to_nearest():
    tree = SynapseTreeConfig()
    assert active_count(tree, 0.0) == 0
    assert active_count(tree, 1.0) == 4
    assert active_count(tree, 0.5) == 2
    assert active_count(tree, 0.3) == 1
    with pytest.raises(ValueError):
        active_count(tree, 1.5)


def test_effective_pc_capacitance_all_off():
    cfg = CircuitConfig()
    # tank plus four open gates: 25 pF + 4 * (2 fF + 1.5 fF)
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0)
    assert c0 == pytest.approx(25.014e-12, rel=1e-12)


def test_effective_pc_capacitance_fully_loaded():
    cfg = CircuitConfig()
    # four enabled gates: on-plate parasitics plus the 4 pF weight bank in
    # series with the 4 pF divider
    expect = 25e-12 + 4 * (3e-15 + 3e-15) + (4e-12 * 4e-12) / 8e-12
    c1 = effective_pc_capacitance(cfg.tree, cfg.pc, 1.0)
    assert c1 == pytest.approx(expect, rel=1e-12)
    assert c1 == pytest.approx(27.024e-12, rel=1e-9)


def test_effective_pc_capacitance_half_loaded():
    cfg = CircuitConfig()
    expect = (25e-12 + 2 * (2e-15 + 1.5e-15) + 2 * (3e-15 + 3e-15)
              + (2e-12 * 4e-12) / 6e-12)
    assert effective_pc_capacitance(cfg.tree, cfg.pc, 0.5) == pytest.approx(expect, rel=1e-12)


def test_tune_inductor_hits_nominal_resonance():
    cfg = tune_inductor(CircuitConfig())
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0)
    assert resonant_frequency(cfg.pc.l_pc, c0) == pytest.approx(1e6, rel=1e-12)
    assert cfg.pc.l_pc == pytest.approx(1.0126447553603759e-3, rel=1e-9)


def test_lc_series_resistance_constant_q():
    cfg = tune_inductor(CircuitConfig())
    expect = math.sqrt(cfg.pc.l_pc / 25.014e-12) / 630.0
    r = lc_series_resistance(cfg)
    assert r == pytest.approx(expect, rel=1e-12)
    assert r == pytest.approx(10.0994, rel=1e-4)


def test_lc_series_resistance_lossless_limit():
    from dataclasses import replace
    cfg = CircuitConfig()
    cfg = replace(cfg, pc=replace(cfg.pc, q_lc=math.inf))
    assert lc_series_resistance(cfg) == 0.0


def test_predicted_optimal_frequency_unloaded_is_nominal():
    cfg = tune_inductor(CircuitConfig())
    assert predicted_optimal_frequency(cfg, 0.0) == pytest.approx(1e6, rel=1e-12)


def test_predicted_optimal_frequency_fully_loaded():
    cfg = tune_inductor(CircuitConfig())
    expect = 1e6 * math.sqrt(25.014e-12 / 27.024e-12)
    f1 = predicted_optimal_frequency(cfg, 1.0)
    assert f1 == pytest.approx(expect, rel=1e-12)
    assert f1 == pytest.approx(962.09e3, rel=1e-4)
    # loading only ever drags the optimum down
    f_half = predicted_optimal_frequency(cfg, 0.5)
    assert f1 < f_half < 1e6


def test_sweep_lock_frequency_mean_capacitance():
    cfg = tune_inductor(CircuitConfig())
    codes = [tuple((v >> b) & 1 for b in range(4)) for v in range(16)]
    # per-count clock capacitances assembled by hand
    c_by_count = {
        0: 25.014e-12,
        1: 25e-12 + 3 * 3.5e-15 + 1 * 6e-15 + (1e-12 * 4e-12) / 5e-12,
        2: 25e-12 + 2 * 3.5e-15 + 2 * 6e-15 + (2e-12 * 4e-12) / 6e-12,
        3: 25e-12 + 1 * 3.5e-15 + 3 * 6e-15 + (3e-12 * 4e-12) / 7e-12,
        4: 25e-12 + 4 * 6e-15 + (4e-12 * 4e-12) / 8e-12,
    }
    mean = sum(c_by_count[sum(c)] for c in codes) / 16.0
    expect = 1e6 * math.sqrt(25.014e-12 / mean)
    f = sweep_lock_frequency(cfg, codes)
    assert f == pytest.approx(expect, rel=1e-12)
    # the full 4-bit sweep locks about 2.4% below nominal
    assert f == pytest.approx(975.75e3, rel=1e-3)


def test_sweep_lock_frequency_constant_stream():
    cfg = tune_inductor(CircuitConfig())
    f = sweep_lock_frequency(cfg, [(1, 1, 1, 1)])
    assert f == pytest.approx(predicted_optimal_frequency(cfg, 1.0), rel=1e-12)


@pytest.mark.parametrize("codes, message", [
    ([], "code stream is empty: need at least one code"),
    ([(1, 0)], "code 0 has 2 bits, tree has 4 synapses"),
    ([(math.nan, 0, 0, 0), (1, 1, 0, 0)], "code 0 has a bit that is not a finite number"),
    ([("x", 0, 0, 0)], "code 0 has a bit that is not a finite number"),
    ([(None, 0, 0, 0)], "code 0 has a bit that is not a finite number"),
    (5, "code stream is not a sequence of codes"),
])
def test_sweep_lock_frequency_reads_codes_as_the_designs_do(codes, message):
    cfg = tune_inductor(CircuitConfig())
    with pytest.raises(ValueError) as err:
        sweep_lock_frequency(cfg, codes)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        run_neuron(cfg, codes)
    assert str(err.value) == message


def test_sweep_lock_frequency_counts_nonzero_bits():
    # a bit is on where it is nonzero, as the designs read it: ints other
    # than 1, floats, bools and numpy scalars; a stream or its CodeStream
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 0, 2, -1), (0.5, 0.0, 0, 0), (True, False, True, True), (0, 0, 0, 0),
             tuple(np.array([0, 3, 0, 1])), np.array([0.0, -0.0, 1e-300, 0.0]), (0, 0, 0, 0)]
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0)
    total = sum(effective_pc_capacitance(cfg.tree, cfg.pc, sum(1 for b in code if b) / 4)
                for code in codes)
    want = cfg.pc.f_nominal * math.sqrt(c0 * len(codes) / total)
    assert sweep_lock_frequency(cfg, codes) == want
    assert sweep_lock_frequency(cfg, CodeStream(codes, 4)) == want


def test_sweep_lock_frequency_uses_each_codes_own_weights():
    # on a (1, 2, 4, 8) pF tree, 0001 hangs the 8 pF synapse off the clock
    # node and 1000 the 1 pF one: one enabled gate each, but 0001 locks
    # lower.  A stream's clock capacitances are each code's own, assembled
    # by hand (an enabled gate's on-parasitics, a disabled one's
    # off-parasitics, the enabled weights in series with C_D)
    tree = SynapseTreeConfig(c_s=(1e-12, 2e-12, 4e-12, 8e-12))
    cfg = tune_inductor(CircuitConfig(tree=tree))
    assert sweep_lock_frequency(cfg, [(0, 0, 0, 1)]) == pytest.approx(909.6e3, rel=1e-4)
    assert sweep_lock_frequency(cfg, [(1, 0, 0, 0)]) == pytest.approx(981.7e3, rel=1e-4)
    codes = [(0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0)]
    c0 = effective_pc_capacitance(tree, cfg.pc, 0.0)
    total = 0.0
    for code in codes:
        n_on = sum(code)
        c_active = sum(c for c, b in zip(tree.c_s, code) if b)
        total += (cfg.pc.c_e + (4 - n_on) * (tree.c_pl_off + tree.c_sh)
                  + n_on * (tree.c_pl_on + tree.c_pr) + series_capacitance(c_active, tree.c_d))
    want = cfg.pc.f_nominal * math.sqrt(c0 * len(codes) / total)
    assert sweep_lock_frequency(cfg, codes) == pytest.approx(want, rel=1e-12)


def test_neuron_spec_from_circuit():
    cfg = CircuitConfig()
    spec = NeuronSpec.from_circuit(cfg, v_pk=1.8)
    # dv = 1.1 - 0.7; each weight 1 pF * (1.8 - 0.4) minus the parasitic pull
    assert spec.theta == pytest.approx(0.4 * 4.5e-12, rel=1e-12)
    for w in spec.weights:
        assert w == pytest.approx(1e-12 * 1.4 - 0.4 * 3e-15, rel=1e-12)
    codes = np.array([(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)], dtype=bool)
    assert spec.fires_rows(codes).tolist() == [0, 1, 1]


def test_neuron_spec_tie_does_not_fire():
    spec = NeuronSpec(weights=(1.0, 1.0), theta=2.0)
    assert spec.fires_rows(np.array([(1, 1), (1, 0)], dtype=bool)).tolist() == [0, 0]


def test_fires_rows_sums_left_to_right_as_fires():
    # the scalar oracle is the rule itself: one bit at a time, left to right
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right and 0.6 summed
    # right to left: at theta 0.6 only the left-to-right sum fires
    spec = NeuronSpec(weights=(0.1, 0.2, 0.3, 0.5), theta=0.6)
    codes = [(1, 1, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1)]
    assert [fires(spec, code) for code in codes] == [1, 0, 0, 0, 1]
    bits = np.array(codes, dtype=bool)
    assert spec.fires_rows(bits).tolist() == [1, 0, 0, 0, 1]
    assert NeuronSpec(weights=(1.0, 1.0), theta=2.0).fires_rows(np.ones((1, 2), bool)).tolist() == [0]
    # 16 weights sum to 6.000000000000001 left to right, but to 6.0 by a
    # dot product or numpy's pairwise sum
    spec = NeuronSpec(weights=(0.2, 0.3, 0.7, 0.7, 0.1, 0.1, 0.7, 0.7,
                               0.1, 0.2, 0.7, 0.2, 0.2, 0.7, 0.2, 0.2), theta=6.0)
    assert fires(spec, (1,) * 16) == spec.fires_rows(np.ones((1, 16), bool))[0] == 1
    with pytest.raises(ValueError, match="length mismatch"):
        spec.fires_rows(bits[:, :3])


def test_neuron_spec_unreachable_threshold():
    cfg = CircuitConfig()
    spec = NeuronSpec.from_circuit(cfg, v_pk=0.3)
    assert math.isinf(spec.theta)
    assert spec.fires_rows(np.ones((1, 4), dtype=bool)).tolist() == [0]


def test_synapse_energy_analytic_terms():
    c_t = series_capacitance(1e-12, 4.5e-12)
    e = synapse_energy_analytic(c_t, 5e3, 1e-6, 1.8, 2e-15)
    adiabatic = (math.pi ** 2 / 8.0) * 5e3 * c_t ** 2 * 1.8 ** 2 / 1e-6
    assert e == pytest.approx(adiabatic + 2e-15 * 1.8 ** 2, rel=1e-12)
    # no conduction path leaves only the driver term
    assert synapse_energy_analytic(0.0, 5e3, 1e-6, 1.8, 2e-15) == pytest.approx(
        2e-15 * 1.8 ** 2, rel=1e-12)


def test_topup_energy_analytic_limits():
    # full discharge in the window: everything stored on C is burnt
    e_full = topup_energy_analytic(25e-12, 0.05, 50e-9, 80.0)
    assert e_full == pytest.approx(0.5 * 25e-12 * 0.05 ** 2, rel=1e-6)
    # partial discharge follows the RC exponential exactly
    e_part = topup_energy_analytic(25e-12, 0.05, 1e-9, 80.0)
    expect = 0.5 * 25e-12 * 0.05 ** 2 * (1.0 - math.exp(-2e-9 / (80.0 * 25e-12)))
    assert e_part == pytest.approx(expect, rel=1e-12)
    assert topup_energy_analytic(25e-12, 0.05, 0.0, 80.0) == 0.0


def test_bypass_resistance_width_and_environment():
    env = Environment()
    assert bypass_resistance(30e-6, env) == pytest.approx(80.0, rel=1e-12)
    assert bypass_resistance(60e-6, env) == pytest.approx(40.0, rel=1e-12)
    slow = Environment(corner=Corner.SS)
    assert bypass_resistance(30e-6, slow) == pytest.approx(96.0, rel=1e-12)
    hot = Environment(temperature_c=75.0)
    assert bypass_resistance(30e-6, hot) == pytest.approx(80.0 * 1.15, rel=1e-12)
    with pytest.raises(ValueError):
        bypass_resistance(0.0, env)


def test_gate_resistances_track_corner_and_temperature():
    tree = SynapseTreeConfig()
    assert tg_resistance(tree, Environment()) == pytest.approx(5e3, rel=1e-12)
    assert tg_resistance(tree, Environment(corner=Corner.FF)) == pytest.approx(
        5e3 * 0.85, rel=1e-12)
    # mixed corners: complementary gate takes the geometric mean
    assert tg_resistance(tree, Environment(corner=Corner.FS)) == pytest.approx(
        5e3 * math.sqrt(0.85 * 1.20), rel=1e-12)
    assert reset_resistance(tree, Environment(corner=Corner.SS, temperature_c=75.0)) == \
        pytest.approx(1e3 * 1.20 * 1.15, rel=1e-12)


def test_environment_coercion_and_bounds():
    env = Environment(corner="SS")
    assert env.corner is Corner.SS
    with pytest.raises(ValueError):
        Environment(temperature_c=200.0)
    with pytest.raises(ValueError):
        Environment(corner="XX")


def test_power_clock_config_validation():
    with pytest.raises(ValueError):
        PowerClockConfig(duty_d=0.6)
    with pytest.raises(ValueError):
        PowerClockConfig(c_e=0.0)
    with pytest.raises(ValueError):
        PowerClockConfig(q_lc=0.0)
    pc = PowerClockConfig()
    assert pc.t_pc == pytest.approx(1e-6, rel=1e-12)
    assert pc.t_on == pytest.approx(50e-9, rel=1e-12)


def test_synapse_tree_config_validation():
    with pytest.raises(ValueError):
        SynapseTreeConfig(c_s=())
    with pytest.raises(ValueError):
        SynapseTreeConfig(c_s=(1e-12, -1e-12))
    tree = SynapseTreeConfig(c_s=(1e-12, 2e-12))
    assert tree.n == 2
    assert tree.c_d == pytest.approx(3e-12, rel=1e-12)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(steps_per_cycle=128)
    with pytest.raises(ValueError):
        SimConfig(steps_per_cycle=4096, trace_stride=3)


def test_circuit_config_rejects_rest_above_supply():
    from dataclasses import replace
    tree = SynapseTreeConfig(v_ref=2.0)
    with pytest.raises(ValueError):
        CircuitConfig(tree=tree)
    assert replace(SynapseTreeConfig(), v_ref=0.9).v_ref == 0.9

