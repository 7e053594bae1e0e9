"""Grouped legs for ``baseline.run_baseline``, for tests only.

The level-driven design lumps the legs of a transition by (new level,
weight value), with one spread state per weight value whose new levels
mix both previous levels.  The grouping here keeps one leg per (previous
level, new level, weight value): no spread state, and each leg's top
plate starts at the rail its driver held last cycle.  It is the exact
system the lumping aggregates, so runs through both agree to round-off;
the property tests pin the lumped run to it.  Like the design, its
systems take the run's state size: a transition's own legs, then held
states (a zero row and column, no element), then V_m.
"""

from contextlib import contextmanager

import numpy as np

from acansim import baseline
from acansim.engine import BranchGroup, Loss, PhaseSystem, Source, Store, reset_terms
from acansim.model import reset_resistance


def grouped_legs_of(cfg, counts, reset):
    """``baseline._legs`` with one leg per (previous level, new level,
    weight value) group: per transition its key, the group tuple and the
    reset, and each plate's start, the previous level's rail."""
    values = np.unique(cfg.tree.c_s).tolist()   # ascending, as ``_level_counts`` counts them
    counts = counts.reshape(counts.shape[0], -1)   # column (2 p + n) w + j, w values
    w = len(values)
    levels = [[] for _ in range(counts.shape[0])]
    ts, ks = counts.nonzero()
    for t, k, count in zip(ts.tolist(), ks.tolist(), counts[ts, ks].tolist()):
        levels[t].append((k // (2 * w), k // w % 2, values[k % w], count))
    return [((tuple(lv), r), [p * cfg.v_dd for p, _, _, _ in lv])
            for lv, r in zip(levels, reset.tolist())]


def build_grouped_system(cfg, levels, reset_on, dim=None):
    """Phase system of one cycle over [V_t per group..., held..., V_m],
    ``dim`` states in all (no held state by default): each group one
    driver leg of r_drv/count in series with its lumped weight capacitor,
    its driver held at the new level's rail."""
    tree = cfg.tree
    c_mb = tree.c_d + tree.c_par
    g_reset = 1.0 / reset_resistance(tree, cfg.env) if reset_on else 0.0
    groups = tuple(BranchGroup(r=cfg.r_drv / cnt, c=cnt * c) for _, _, c, cnt in levels)
    u = [n * cfg.v_dd for _, n, _, _ in levels]

    dim = dim or len(groups) + 1
    a = np.zeros((dim, dim))
    b = np.zeros(dim)
    im = dim - 1
    a[im, im] = -g_reset / c_mb
    b[im] = g_reset * tree.v_ref / c_mb
    for j, g in enumerate(groups):
        a[im, j] -= (1.0 / g.r) / c_mb
        b[im] += (u[j] / g.r) / c_mb
    for j, g in enumerate(groups):
        a[j, :] = a[im, :]
        b[j] = b[im]
        a[j, j] -= 1.0 / (g.r * g.c)
        b[j] += u[j] / (g.r * g.c)

    stores = (Store(c_mb, im), *(Store(g.c, j, im) for j, g in enumerate(groups)))
    losses = [Loss("r_tg", 1.0 / g.r, j, u=-u[j]) for j, g in enumerate(groups)]
    sources = [Source("source_dc", -u[j] / g.r, j, -u[j])
               for j, g in enumerate(groups) if u[j] > 0.0]
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, groups=groups, stores=stores,
                       losses=tuple(losses), sources=tuple(sources))


@contextmanager
def grouped_legs():
    """Run ``run_baseline`` on the grouped legs above inside the block,
    and fail on exit if no run used them."""
    calls = []

    def counted(*args):
        calls.append(None)
        return grouped_legs_of(*args)

    saved = baseline._legs, baseline.build_baseline_system
    baseline._legs, baseline.build_baseline_system = counted, build_grouped_system
    try:
        yield
    finally:
        baseline._legs, baseline.build_baseline_system = saved
    assert calls, "no run went through the grouped legs"
