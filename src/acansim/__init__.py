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
    DelayModel,
    DlccConfig,
    Environment,
    NeuronSpec,
    PowerClockConfig,
    SimConfig,
    SynapseTreeConfig,
    active_count,
    bypass_resistance,
    effective_pc_capacitance,
    effective_tree_capacitance,
    lc_series_resistance,
    membrane_peak_active_divider,
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
    CycleStats,
    DecayFit,
    EnergyLedger,
    FitError,
    SimulationError,
    SwitchState,
    Trace,
    energy_residual,
    fit_decay,
    simulate,
)
from .neuron import (
    Decision,
    NeuronRun,
    dlcc_decide,
    dlcc_offset,
    input_sweeps,
    make_schedule,
    run_neuron,
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
    "CircuitConfig", "Corner", "DelayModel", "DlccConfig", "Environment",
    "NeuronSpec", "PowerClockConfig", "SimConfig", "SynapseTreeConfig",
    "active_count", "bypass_resistance",
    "effective_pc_capacitance", "effective_tree_capacitance", "lc_series_resistance",
    "membrane_peak_active_divider",
    "predicted_optimal_frequency", "reset_resistance", "resonant_frequency",
    "series_capacitance", "sweep_lock_frequency", "synapse_energy_analytic",
    "tg_resistance", "topup_energy_analytic", "tune_inductor",
    "CycleStats", "DecayFit", "EnergyLedger", "FitError", "SimulationError",
    "SwitchState", "Trace", "energy_residual", "fit_decay", "simulate",
    "Decision", "NeuronRun", "dlcc_decide", "dlcc_offset",
    "input_sweeps", "make_schedule", "run_neuron",
    "BaselineConfig", "baseline_oracle_spec",
    "baseline_transition_energy_analytic", "run_baseline",
    "CornerTable", "FrequencyOpt", "SavingsReport", "ScalingTable", "Surface",
    "SweepSpec", "compare_designs", "corner_study", "optimize_frequency",
    "scaled_tree", "scaling_study", "sweep_freq_duty", "sweep_width_duty",
    "worst_window_mean",
]
