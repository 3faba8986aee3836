"""Stress of the master LP on drawn grids, against two oracles.

    PYTHONPATH=src python tests/stress_master.py FIRST_SEED STOP_SEED

For each ``np.random.default_rng`` seed in ``range(FIRST_SEED,
STOP_SEED)`` it draws 150 `full` grids: gains 0 (p = 1/4) or uniform on
[0, 3]; budgets from {0.01, 1, 1e4, 1e6} (p = 1/2) or uniform on [0, 20];
steps 2 or 3; one or two states, with steps 2 for two.  From a separate
generator, seeded ``(seed, 1)``, it draws 150 grids of `r3`, `borcp` or
`ncp`, whose masters run on the live rows only: channels drawn alike; one
to three states, with steps 2 to 7, 2 to 4 or 2.  A grid is bad
when ``region_union`` raises ``SolverFailure``, when its frontier misses
the merged per-state frontiers by more than 1e-9 (``dominates``), or when
its support departs from HiGHS's unlimited time sharing by more than 1e-9
at any angle that pins it; a grid on which HiGHS finds no optimum counts
too.  Each bad grid is printed on one line, then the count of bad `full`
grids and, on a line of its own, that of the other variants.
Pytest does not collect this file; it runs for minutes, not seconds.
"""

import sys

import numpy as np

from gicee import ChannelParams, RegionSpec, SolverFailure, region_union
from conftest import dominates
from test_region import check_angles, highs_supports, per_allocation_union, supports

GRIDS_PER_SEED = 150
BUDGETS = (0.01, 1.0, 1e4, 1e6)
LIVE_VARIANTS = ("r3", "borcp", "ncp")
TOL = 1e-9


def draw_channel(rng):
    gains = [0.0 if rng.uniform() < 0.25 else rng.uniform(0.0, 3.0) for _ in range(4)]
    budgets = [BUDGETS[rng.integers(len(BUDGETS))] if rng.uniform() < 0.5
               else rng.uniform(0.0, 20.0) for _ in range(2)]
    return ChannelParams(*gains, *budgets)


def draw(rng):
    """One `full` grid: its spec."""
    channel = draw_channel(rng)
    states = int(rng.integers(1, 3))
    steps = 2 if states == 2 else int(rng.integers(2, 4))
    return RegionSpec(channel=channel, variant="full", steps=steps, states=states)


def draw_live(rng):
    """One grid of `r3`, `borcp` or `ncp`: its spec."""
    channel = draw_channel(rng)
    variant = LIVE_VARIANTS[rng.integers(len(LIVE_VARIANTS))]
    states = int(rng.integers(1, 4))
    steps = {1: int(rng.integers(2, 8)), 2: int(rng.integers(2, 5)), 3: 2}[states]
    return RegionSpec(channel=channel, variant=variant, steps=steps, states=states)


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
    bad = {draw: 0, draw_live: 0}
    for seed in range(first, stop):
        for drawer, rng in ((draw, np.random.default_rng(seed)),
                            (draw_live, np.random.default_rng((seed, 1)))):
            for index in range(GRIDS_PER_SEED):
                spec = drawer(rng)
                found = faults(spec)
                if found:
                    bad[drawer] += 1
                    print(f"seed {seed} {spec.variant} grid {index}: {spec.channel}, "
                          f"steps {spec.steps}, states {spec.states}: {'; '.join(found)}",
                          flush=True)
    grids = (stop - first) * GRIDS_PER_SEED
    print(f"{bad[draw]} bad of {grids} full grids")
    print(f"{bad[draw_live]} bad of {grids} r3, borcp and ncp grids")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
