"""Stress of the master LP on drawn `full` grids, against two oracles.

    PYTHONPATH=src python tests/stress_master.py FIRST_SEED STOP_SEED

For each ``np.random.default_rng`` seed in ``range(FIRST_SEED,
STOP_SEED)`` it draws 150 `full` grids: gains 0 (p = 1/4) or uniform on
[0, 3]; budgets from {0.01, 1, 1e4, 1e6} (p = 1/2) or uniform on [0, 20];
steps 2 or 3; one or two states, with steps 2 for two.  A grid is bad
when ``region_union`` raises ``SolverFailure``, when its frontier misses
the merged per-state frontiers by more than 1e-9 (``dominates``), or when
its support departs from HiGHS's unlimited time sharing by more than 1e-9
at any angle that pins it; a grid on which HiGHS finds no optimum counts
too.  Each bad grid is printed on one line, then the count of bad grids.
Pytest does not collect this file; it runs for minutes, not seconds.
"""

import sys

import numpy as np

from gicee import ChannelParams, RegionSpec, SolverFailure, region_union
from conftest import dominates
from test_region import check_angles, highs_supports, per_allocation_union, supports

GRIDS_PER_SEED = 150
BUDGETS = (0.01, 1.0, 1e4, 1e6)
TOL = 1e-9


def draw(rng):
    """One grid: its channel, steps and states."""
    gains = [0.0 if rng.uniform() < 0.25 else rng.uniform(0.0, 3.0) for _ in range(4)]
    budgets = [BUDGETS[rng.integers(len(BUDGETS))] if rng.uniform() < 0.5
               else rng.uniform(0.0, 20.0) for _ in range(2)]
    states = int(rng.integers(1, 3))
    steps = 2 if states == 2 else int(rng.integers(2, 4))
    return ChannelParams(*gains, *budgets), steps, states


def faults(spec):
    """What is wrong with the master on one grid, as text; empty if nothing."""
    try:
        union = region_union(spec)
    except SolverFailure as exc:
        return [f"SolverFailure: {exc}"]
    found = []
    if not dominates(union, per_allocation_union(spec), tol=TOL):
        found.append("misses a per-state point")
    thetas = check_angles(union)
    try:
        gap = np.abs(supports(union, thetas) - highs_supports(spec, thetas)).max()
    except AssertionError:   # HiGHS reported no optimum: no verdict
        return found + ["HiGHS found no optimum"]
    if gap > TOL:
        found.append(f"HiGHS gap {gap:.2g}")
    return found


def main(first, stop):
    bad = 0
    for seed in range(first, stop):
        rng = np.random.default_rng(seed)
        for index in range(GRIDS_PER_SEED):
            channel, steps, states = draw(rng)
            found = faults(RegionSpec(channel=channel, variant="full", steps=steps,
                                      states=states))
            if found:
                bad += 1
                print(f"seed {seed} grid {index}: {channel}, steps {steps}, "
                      f"states {states}: {'; '.join(found)}", flush=True)
    print(f"{bad} bad of {(stop - first) * GRIDS_PER_SEED} grids")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
