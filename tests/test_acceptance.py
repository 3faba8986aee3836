"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The slow sweep (criterion 5) reuses a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from gicee import (
    ChannelParams,
    PowerState,
    RegionSpec,
    build_system,
    ctdma_region,
    gamma,
    preset,
    region_for_allocation,
    region_union,
    single_user_wiretap,
)
from gicee.validation import mi_oracle_suite, projection_suite
from gicee.region import A_UB, N_VARS
from conftest import (
    allocation_system,
    check_point,
    ctdma_allocation,
    dominates,
    sample_nonneg_bracket_params,
    single,
    support,
)

WIRETAP_10 = 0.4372345589580706
GAMMA_20 = 2.1961587113893803
GAMMA_21 = 2.2297158093186487


def report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


@pytest.fixture(scope="module")
def fig2():
    return preset("fig2")


@pytest.fixture(scope="module")
def fig3():
    return preset("fig3")


@pytest.fixture(scope="module")
def fig3_r3_region(fig3):
    start = time.perf_counter()
    frontier = region_union(
        RegionSpec(channel=fig3, variant="r3", steps=11)
    )
    return frontier, time.perf_counter() - start


def test_criterion_1_gamma_spot_values():
    assert gamma(0) == 0.0
    assert gamma(1) == 0.5
    assert gamma(3) == 1.0
    report(1, "gamma(0)=0, gamma(1)=0.5, gamma(3)=1.0 bit-exact")


def test_criterion_2_mi_oracle_equivalence():
    start = time.perf_counter()
    worst = mi_oracle_suite(seed=20240811, samples=1000)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(2, f"1000 instances, max |closed - oracle| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_3_symmetric_presets_prefer_no_jamming(fig2):
    start = time.perf_counter()
    full = ctdma_region(fig2, "ctdma", steps=11)
    no_jam = ctdma_region(fig2, "tdma", steps=11)
    elapsed = time.perf_counter() - start
    assert abs(full.max_r1 - 0.437235) <= 1e-3
    # the optimum is attained without jamming: removing every jamming knob
    # does not lower the best rate
    assert abs(full.max_r1 - no_jam.max_r1) <= 1e-12
    assert elapsed < 10.0
    report(3, f"max r1 = {full.max_r1:.6f} (= jam-free optimum) in {elapsed:.1f}s")


def test_criterion_4_asymmetric_preset_jamming_gain(fig3):
    start = time.perf_counter()
    frontier = ctdma_region(fig3, "ctdma", steps=11)
    elapsed = time.perf_counter() - start
    assert frontier.max_r2 <= 1e-9
    assert abs(frontier.max_r1 - 0.5192) <= 0.01
    assert frontier.max_r1 >= WIRETAP_10 + 0.05
    assert elapsed < 30.0
    report(4, f"max r2 = {frontier.max_r2:.1e}, max r1 = {frontier.max_r1:.4f} "
              f"(gain {frontier.max_r1 - WIRETAP_10:+.3f}) in {elapsed:.1f}s")


def test_criterion_5_cooperative_binning_region(fig3, fig3_r3_region):
    point_frontier = region_for_allocation(fig3, *single(PowerState(pc1=10.0, pc2=1.0)))
    best_r1, best_r2 = point_frontier.points[0]
    assert best_r1 <= 1e-9
    assert abs(best_r2 - 0.329430) <= 1e-4
    merged, elapsed = fig3_r3_region
    assert merged.max_r2 >= 0.32
    assert elapsed < 300.0
    report(5, f"allocation point (0, {best_r2:.6f}), merged max r2 = "
              f"{merged.max_r2:.4f}, sweep took {elapsed:.0f}s")


def test_criterion_6_empty_region_detection(fig3):
    alloc = single(PowerState(pc1=10.0, pc2=10.0))
    rhs = build_system(fig3, *alloc)
    assert rhs[-1] == pytest.approx(GAMMA_21, abs=1e-12)
    assert min(
        b for row, b in zip(A_UB, rhs)
        if row[1] == 1.0 and row[6] == 1.0
    ) == pytest.approx(GAMMA_20, abs=1e-12)
    frontier = region_for_allocation(fig3, *alloc)
    assert frontier.is_empty
    assert frontier.metadata["infeasible"] is True
    report(6, "full-power allocation reported infeasible "
              f"(equality {GAMMA_21:.4f} > pair bound {GAMMA_20:.4f})")


def test_criterion_7_projection_vs_grid_oracle():
    worst = projection_suite(seed=424242, systems=20)
    assert worst <= 1.0 + 1e-6
    report(7, f"20 random systems, worst Hausdorff gap = {worst:.2f} pitch")


def test_criterion_8_nesting_and_symmetry(fig2, fig3):
    for channel in (fig2, fig3):
        tdma = ctdma_region(channel, "tdma", steps=7)
        nscp = ctdma_region(channel, "ctdma_nscp", steps=7)
        full = ctdma_region(channel, "ctdma", steps=7)
        assert dominates(nscp, tdma, tol=1e-9)
        assert dominates(full, nscp, tol=1e-9)
    ncp = region_union(RegionSpec(channel=fig2, variant="ncp", steps=4))
    r3 = region_union(RegionSpec(channel=fig2, variant="r3", steps=4))
    assert dominates(r3, ncp, tol=1e-9)
    for frontier in (r3, ctdma_region(fig2, "ctdma", steps=7)):
        for k in range(41):
            theta = 0.5 * math.pi * k / 40
            assert abs(
                support(frontier, theta) - support(frontier, 0.5 * math.pi - theta)
            ) <= 1e-9
    report(8, "tdma within ctdma_nscp within ctdma, ncp within r3, "
              "symmetric-channel frontiers swap-invariant")


def test_criterion_9_closed_form_embeds_in_general_system(fig2, fig3):
    rng = np.random.default_rng(90210)
    channels = [fig2, fig3]
    for _ in range(8):
        channels.append(ChannelParams(
            c12=rng.uniform(0.0, 2.0), c21=rng.uniform(0.0, 2.0),
            c1e=rng.uniform(0.0, 0.9), c2e=rng.uniform(0.0, 0.9),
            p1=rng.uniform(2.0, 15.0), p2=rng.uniform(2.0, 15.0),
        ))
    checked = 0
    worst = 0.0
    for channel in channels:
        for params, a1, b1, a2, b2 in sample_nonneg_bracket_params(rng, channel, 10):
            system = allocation_system(channel, *ctdma_allocation(params))
            x = np.zeros(N_VARS)
            x[2] = params.alpha * (a1 - b1)
            x[3] = params.alpha * b1
            x[7] = (1 - params.alpha) * (a2 - b2)
            x[8] = (1 - params.alpha) * b2
            slack = check_point(*system, x)
            worst = min(worst, slack)
            assert slack >= -1e-9
            checked += 1
    assert checked >= 100
    report(9, f"{checked} operating points embedded, worst slack = {worst:.1e}")


def test_criterion_10_degenerate_single_user():
    for c12, c21, c1e, c2e in ((1.9, 1.9, 0.5, 0.5), (1.9, 1.0, 0.5, 1.6),
                               (1.9, 1.9, 1.6, 0.5)):
        channel = ChannelParams(c12=c12, c21=c21, c1e=c1e, c2e=c2e, p1=10.0, p2=0.0)
        frontier = region_for_allocation(channel, *single(PowerState(pc1=10.0)))
        achieved = 0.0 if frontier.is_empty else frontier.max_r1
        assert abs(achieved - single_user_wiretap(10.0, c1e)) <= 1e-9
    report(10, "lone-user allocations reproduce [gamma(P) - gamma(cP)]+ exactly")
