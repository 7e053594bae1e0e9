"""Scalar statements of the package's per-code rules, for tests only.

The package applies these rules to a run's distinct codes at once; the
tests state them again one code at a time, from the rule itself, and pin
the package to them:

- ``make_schedule``: the two-segment switch plan of one cycle;
- ``build_phase_system``: the phase system of one switch state on a
  whole tree, one plate per weight value of the tree;
- ``legs``: the RC legs of a phase system, read from the terms the
  kernel books;
- ``fires``: the threshold unit's decision on one code;
- ``v_s``: the trace's top-plate aggregate, one cycle at a time.
"""

import numpy as np

from acansim.neuron import SwitchState, _phase_system, _weight_counts


def make_schedule(cfg, code, cycle=0):
    """The plan of one cycle of ``code``, the ``cycle``-th of its run: a
    bypass window [0, duty) whose reset is on for the all-zero code or on
    a recalibration cycle, then [duty, 1) whose reset is on for the
    all-zero code; the gates equal the code's bits all cycle."""
    duty = cfg.pc.duty_d
    gates = tuple(map(bool, code))
    idle = not any(gates)
    forced = cycle % cfg.sim.recal_every == 0
    return ((0.0, duty, SwitchState(bypass_on=True, reset_on=idle or forced, synapse_on=gates)),
            (duty, 1.0, SwitchState(bypass_on=False, reset_on=idle, synapse_on=gates)))


def build_phase_system(cfg, sw):
    """The phase system of switch state ``sw`` with a plate for every
    weight value of the tree, enabled or held."""
    values, counts = _weight_counts(cfg.tree.c_s, np.array([sw.synapse_on], dtype=bool))
    return _phase_system(cfg, sw, values, counts[0].tolist())


def legs(system):
    """(top-plate state, resistance, capacitance) of each RC leg onto the
    membrane of a phase system, in state order: its capacitance is its
    store across the leg, ``Store(c, j, im)``, and its resistance the
    inverse conductance of the ``r_tg`` loss that names its plate."""
    im = system.dim - 1
    found = []
    for c, j, other in system.stores:
        if other == im:
            g, = (loss.g for loss in system.losses
                  if loss.account == "r_tg" and j in (loss.i, loss.j))
            found.append((j, 1.0 / g, c))
    return sorted(found)


def fires(spec, code):
    """1 if ``code`` fires the threshold unit ``spec``, else 0: its enabled
    weights summed left to right from zero, one bit at a time, against
    theta; a tie does not fire."""
    assert len(code) == len(spec.weights), "code: length mismatch with weights"
    drive = 0.0
    for w, x in zip(spec.weights, code):
        if x:
            drive += w
    return 1 if drive > spec.theta else 0


def v_s(c_s, codes, plates):
    """The V_s column of a run's trace, cycle by cycle, from each cycle's
    code and sampled top plates (``plates[k]``: samples x plates, a plate
    per weight value that some code enables, ascending).  In a cycle with
    a gate on, each sample is the mean of the enabled synapses' plates,
    each synapse at its weight value's plate and weighted by its
    capacitance; in a cycle with every gate open, every sample is the last
    sample before it, or 0 before the first cycle with a gate on."""
    values = sorted({c for code in codes for c, x in zip(c_s, code) if x})
    out, last = [], 0.0
    for code, rows in zip(codes, plates):
        on = [(c, values.index(c)) for c, x in zip(c_s, code) if x]
        if on:
            total = sum(c for c, _ in on)
            cycle = [sum(c * row[j] for c, j in on) / total for row in rows]
            last = cycle[-1]
        else:
            cycle = [last] * len(rows)
        out.append(cycle)
    return np.array(out)
