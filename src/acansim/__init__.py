"""Simulator and benchmarks for adiabatic capacitive artificial neurons.

A resonant LC power clock with a brief bypass top-up drives a gated
capacitive synapse tree; a latched comparator with a programmable
resistive offset turns the membrane peak into a firing decision.  The
package simulates the switched linear network with exact per-component
energy accounting and reproduces the associated parametric studies.
"""

__version__ = "0.1.0"

from .model import (
    CircuitConfig,
    Corner,
    DlccConfig,
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
    series_capacitance,
    sweep_lock_frequency,
    synapse_energy_analytic,
    tg_resistance,
    topup_energy_analytic,
    tune_inductor,
)
from .engine import (
    EnergyLedger,
    SimulationError,
    energy_residual,
)
from .neuron import (
    CodeStream,
    CycleStats,
    NeuronRun,
    SwitchState,
    Trace,
    dlcc_offset,
    input_sweeps,
    run_neuron,
    simulate,
)
from .baseline import (
    BaselineConfig,
    baseline_oracle_spec,
    baseline_transition_energy_analytic,
    run_baseline,
)
from .bench import (
    CornerTable,
    FrequencyOpt,
    SavingsReport,
    ScalingTable,
    Surface,
    SweepSpec,
    compare_designs,
    corner_study,
    optimize_frequency,
    scaled_tree,
    scaling_study,
    sweep_freq_duty,
    sweep_width_duty,
    worst_window_mean,
)

__all__ = [
    "__version__",
    "CircuitConfig", "Corner", "DlccConfig", "Environment",
    "NeuronSpec", "PowerClockConfig", "SimConfig", "SynapseTreeConfig",
    "active_count", "bypass_resistance",
    "effective_pc_capacitance", "lc_series_resistance",
    "predicted_optimal_frequency", "reset_resistance", "resonant_frequency",
    "series_capacitance", "sweep_lock_frequency", "synapse_energy_analytic",
    "tg_resistance", "topup_energy_analytic", "tune_inductor",
    "EnergyLedger", "SimulationError", "energy_residual",
    "CodeStream", "CycleStats", "NeuronRun", "SwitchState", "Trace", "dlcc_offset",
    "input_sweeps", "run_neuron", "simulate",
    "BaselineConfig", "baseline_oracle_spec",
    "baseline_transition_energy_analytic", "run_baseline",
    "CornerTable", "FrequencyOpt", "SavingsReport", "ScalingTable", "Surface",
    "SweepSpec", "compare_designs", "corner_study", "optimize_frequency",
    "scaled_tree", "scaling_study", "sweep_freq_duty", "sweep_width_duty",
    "worst_window_mean",
]
