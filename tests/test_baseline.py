"""Level-driven reference design: analytic transition charge and transients."""

from dataclasses import fields, replace

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    CodeStream,
    EnergyLedger,
    SimulationError,
    SynapseTreeConfig,
    baseline_oracle_spec,
    baseline_transition_energy_analytic,
    energy_residual,
    run_baseline,
)
from acansim import baseline, engine
from acansim.neuron import input_sweeps


def test_baseline_config_from_circuit():
    cfg = CircuitConfig()
    b = BaselineConfig.from_circuit(cfg)
    assert b.tree is cfg.tree
    assert b.v_dd == cfg.dlcc.v_dd
    assert b.f_clock == cfg.pc.f_nominal
    assert b.r_drv == 1e3
    with pytest.raises(ValueError):
        BaselineConfig(r_drv=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(steps_per_cycle=100)


def test_transition_energy_hand_values():
    tree = SynapseTreeConfig(c_s=(1e-12, 2e-12))
    # c_tot = 1 + 2 + 3 (divider) + 0.5 wiring = 6.5 pF
    dv = 1.8 * 1e-12 / 6.5e-12
    expect = 1.8 * 1e-12 * (1.8 - dv)
    e = baseline_transition_energy_analytic(tree, (0, 0), (1, 0), 1.8)
    assert e == pytest.approx(expect, rel=1e-12)
    dv2 = 1.8 * 2e-12 / 6.5e-12
    expect2 = 1.8 * 2e-12 * (1.8 - dv2)
    assert baseline_transition_energy_analytic(tree, (1, 0), (1, 1), 1.8) == \
        pytest.approx(expect2, rel=1e-12)


def test_transition_energy_without_rising_branch_is_zero():
    tree = SynapseTreeConfig(c_s=(1e-12, 2e-12))
    assert baseline_transition_energy_analytic(tree, (1, 1), (0, 1), 1.8) == 0.0
    assert baseline_transition_energy_analytic(tree, (1, 0), (1, 0), 1.8) == 0.0
    with pytest.raises(ValueError):
        baseline_transition_energy_analytic(tree, (1,), (1, 0), 1.8)


def test_transition_energy_matches_simulated_supply():
    # when no branch stays high across the edge, the net rail draw is
    # exactly the rising-driver energy, and the endpoint-charge accounting
    # lands on the closed form to rounding
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    tree = cfg.tree
    zero = (0, 0, 0, 0)
    for a, b in [(zero, (1, 1, 0, 0)), ((0, 1, 0, 1), (1, 0, 1, 0)),
                 ((1, 1, 0, 0), (0, 0, 1, 1))]:
        run = run_baseline(cfg, [zero, a, b])
        expect = baseline_transition_energy_analytic(tree, a, b, cfg.v_dd)
        assert run.ledger.source_dc[2] == pytest.approx(expect, rel=1e-6), (a, b)


def test_supply_backflow_from_branches_held_high():
    # a branch held high returns charge to the rail while the membrane
    # rises under it, so the net draw sits below the rising-driver energy
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    a, b = (1, 0, 0, 0), (1, 1, 1, 0)
    run = run_baseline(cfg, [(0, 0, 0, 0), a, b])
    dv = 1.8 * 2e-12 / 8.5e-12
    expect = 1.8 * (2e-12 * (1.8 - dv) - 1e-12 * dv)
    assert run.ledger.source_dc[2] == pytest.approx(expect, rel=1e-6)
    rising_only = baseline_transition_energy_analytic(cfg.tree, a, b, 1.8)
    assert run.ledger.source_dc[2] < rising_only


def test_baseline_oracle_spec_weights():
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    spec = baseline_oracle_spec(cfg)
    assert spec.weights == tuple(1e-12 * 1.8 for _ in range(4))
    assert spec.theta == pytest.approx(0.4 * 8.5e-12, rel=1e-12)
    # always-driven divider: one active synapse cannot reach threshold
    assert spec.fires_rows(np.array([(1, 0, 0, 0), (1, 1, 0, 0)], dtype=bool)).tolist() == [0, 1]


def test_run_baseline_full_sweep():
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    codes = input_sweeps(4, n_scrambles=0, seed=0)[0]
    run = run_baseline(cfg, codes)
    assert run.output_bits == run.oracle_string
    assert run.v_pk_reference == cfg.v_dd
    mean_pj = run.ledger.s_e.mean() * 1e12
    assert 1.3 < mean_pj < 5.3
    assert abs(energy_residual(run.ledger)) <= 1e-3 * run.ledger.dissipated_total


def test_run_baseline_conservation_improves_with_step():
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    codes = input_sweeps(4, n_scrambles=0, seed=0)[0]
    coarse = run_baseline(cfg, codes)
    fine = run_baseline(replace(cfg, steps_per_cycle=8192), codes)
    r_coarse = abs(energy_residual(coarse.ledger)) / coarse.ledger.dissipated_total
    r_fine = abs(energy_residual(fine.ledger)) / fine.ledger.dissipated_total
    assert 2.5 < r_coarse / r_fine < 6.0


def test_run_baseline_idle_codes_stay_quiet():
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    run = run_baseline(cfg, [(0, 0, 0, 0)] * 3)
    assert run.output_bits == "000"
    assert float(run.ledger.s_e.sum()) == pytest.approx(0.0, abs=1e-20)
    assert run.stats.v_m_sample == pytest.approx([0.7] * 3, abs=1e-6)


def test_run_baseline_divergence_is_an_error():
    # a vanishing drive resistance makes the trapezoidal steps ring far past
    # the rails; the guard must stop the run instead of returning its ledger
    cfg = BaselineConfig(r_drv=1e-15)
    with pytest.raises(SimulationError, match="diverged"):
        run_baseline(cfg, [(1, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0)])


def test_run_baseline_validation():
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    with pytest.raises(ValueError):
        run_baseline(cfg, [])
    with pytest.raises(ValueError):
        run_baseline(cfg, [(1, 0)])
    # a ragged stream names the first code of the wrong length
    with pytest.raises(ValueError, match=r"^code 1 has 3 bits, tree has 4 synapses$"):
        run_baseline(cfg, [(1, 0, 0, 1), (1, 0, 0), (1, 0, 0, 1, 1)])


def test_run_baseline_passivity():
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    codes = input_sweeps(4, n_scrambles=1, seed=3)[1]
    run = run_baseline(cfg, codes)
    assert np.all(run.ledger.r_tg >= 0.0)
    assert np.all(run.ledger.r_reset >= 0.0)
    assert np.all(run.ledger.drive >= 0.0)


def test_random_512_bit_codes_share_their_phase_systems(monkeypatch):
    # 600 distinct random codes on 512 equal weights: the legs lump by new
    # level, so the systems are keyed by the high count (with the spread
    # and the reset) and the operators number ~2 per popcount, not ~2 per
    # distinct transition (1188 for one leg per previous and new level)
    tree = SynapseTreeConfig(c_s=(1e-12,) * 512)
    cfg = BaselineConfig.from_circuit(CircuitConfig(tree=tree))
    codes = np.random.default_rng(0).integers(0, 2, (600, 512))
    compiled, kinds = [], []
    compile_operators, run_cycles = engine.compile_operators, baseline.run_cycles

    def counted(ops):
        ops = list(ops)
        compiled.append(len(ops))
        compile_operators(ops)

    def kept(ledger, run_kinds, *args):
        kinds.extend(run_kinds)
        return run_cycles(ledger, run_kinds, *args)

    monkeypatch.setattr(engine, "compile_operators", counted)
    monkeypatch.setattr(baseline, "run_cycles", kept)
    run_baseline(cfg, codes)
    assert len(compiled) == 1 and compiled[0] <= 130
    # every spread state (stored to ground, not the membrane) starts at
    # most v_dd / 2 above zero: the divergence guard still reads voltages
    spreads = []
    for entry, phases in kinds:
        system = phases[0].system
        spreads += [entry[i, -1] for _, i, j in system.stores if j is None and i != system.dim - 1]
    assert len(spreads) >= len(kinds) - 1   # all but the first cycle's mix both levels
    assert all(0.0 < s <= cfg.v_dd / 2 for s in spreads)


def test_one_stream_serves_every_baseline_config(monkeypatch):
    # configs that differ in code rate, rail, drive resistance and tree
    # weights give from one stream what they give from fresh ones; the
    # stream derives its transitions once per tree
    codes = [(1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0), (0, 1, 1, 1)] * 3
    base = BaselineConfig.from_circuit(CircuitConfig())
    configs = [base, replace(base, f_clock=2e6), replace(base, v_dd=1.2), replace(base, r_drv=3e3),
               replace(base, tree=SynapseTreeConfig(c_s=(1e-12, 2e-12, 4e-12, 8e-12))), base]
    stream = CodeStream(codes, 4)
    calls = []
    pairs = baseline._pairs
    monkeypatch.setattr(baseline, "_pairs", lambda *args: calls.append(args) or pairs(*args))
    for cfg in configs:
        got, want = run_baseline(cfg, stream), run_baseline(cfg, codes)
        assert got.table == want.table
        for name in ("index", "outputs", "delays", "oracle_bits"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        for a, b in zip(got.stats, want.stats, strict=True):
            np.testing.assert_array_equal(a, b)
        for f in fields(EnergyLedger):
            assert np.array_equal(getattr(got.ledger_full, f.name),
                                  getattr(want.ledger_full, f.name)), f.name
    # per config one for the raw codes, and one per tree for the stream
    assert [c[0] for c in calls].count(stream) == 2 and len(calls) == len(configs) + 2
