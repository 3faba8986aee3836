"""The power grids of the region sweep and the time-division scheme, and
their sizes in closed form, so that a grid too large is refused unbuilt."""

from __future__ import annotations

import math

import numpy as np

from .model import BUDGET_TOL

VARIANTS = ("full", "r3", "borcp", "ncp")

# Jamming grids are dense up to this level and coarse beyond: the useful
# helper-jamming levels sit well below the power budgets.
JAM_DENSE_MAX = 2.0


def _uniform_grid(cap: float, steps: int) -> np.ndarray:
    return np.linspace(0.0, cap, steps) if cap > 0 else np.zeros(1)


def _jam_grid(cap: float, steps: int) -> np.ndarray:
    """Two-segment jamming grid: dense in [0, JAM_DENSE_MAX], coarse above,
    sorted and without repeats."""
    if cap <= 0:
        return np.zeros(1)
    levels = [np.linspace(0.0, min(cap, JAM_DENSE_MAX), steps)]
    if cap > JAM_DENSE_MAX:
        levels.append(np.linspace(JAM_DENSE_MAX, cap, _jam_grid_size(steps) - steps))
    # return_index keeps np.unique off the path that imports numpy.ma (12 ms)
    return np.unique(np.concatenate(levels), return_index=True)[0]


def _jam_grid_size(steps: int) -> int:
    """Most levels of a :func:`_jam_grid`, dense and coarse."""
    return steps + max(2, steps // 2)


def user_power_grid(tag: str, cap: float, steps: int) -> np.ndarray:
    """One user's per-state powers on the grid of a variant in
    ``VARIANTS``, capped at ``cap``.

    Rows are (common, self, other, jamming), in the order the grid runs:
    ``r3`` sweeps common over jamming power, ``borcp`` keeps only the rows
    where the user bins or jams but not both, ``ncp`` pins jamming to zero,
    and ``full`` sweeps all four components, the first slowest.  A row is
    kept when its powers, added left to right, stay within ``cap`` plus
    ``BUDGET_TOL``.

    The components are joined one at a time, each row only with the levels
    that keep its running sum within the cap, so no row past the cap is
    ever built: adding a nonnegative level never lowers a rounded sum.
    """
    grid = _uniform_grid(cap, steps)
    zero = np.zeros(1)
    if tag == "borcp":
        # pc = 0 with every pj, then every pc > 0 with pj = 0
        off, on = grid[grid == 0], grid[grid > 0]
        products = [(off, zero, zero, grid), (on, zero, zero, off)]
    else:
        products = [{"full": (grid, grid, grid, grid), "r3": (grid, zero, zero, grid),
                     "ncp": (grid, zero, zero, zero)}[tag]]
    parts = []
    for levels in products:
        rows, total = np.zeros((1, 0)), np.zeros(1)
        for level in levels:
            at, pick = np.nonzero(total[:, np.newaxis] + level <= cap + BUDGET_TOL)
            rows = np.column_stack([rows[at], level[pick]])
            total = total[at] + level[pick]
        parts.append(rows)
    return np.concatenate(parts)


def on_user_grid(rows: np.ndarray, cap: float, steps: int) -> np.ndarray:
    """Which rows of a variant's user grid at any cap are on its
    :func:`user_power_grid` at ``cap``: every power a level of that grid
    (zero always is), their sum, added left to right, within the cap plus
    ``BUDGET_TOL``."""
    total = ((rows[:, 0] + rows[:, 1]) + rows[:, 2]) + rows[:, 3]
    return np.isin(rows, _uniform_grid(cap, steps)).all(axis=1) & (total <= cap + BUDGET_TOL)


def first_user_rows(rows: np.ndarray, cap: float, steps: int) -> np.ndarray:
    """Whether each row of a :func:`user_power_grid` at ``cap`` is the first
    with its powers: all, unless a subnormal pitch repeats a level."""
    levels = _uniform_grid(cap, steps)
    if (levels[1:] > levels[:-1]).all():
        return np.ones(len(rows), dtype=bool)
    seen: set = set()
    return np.array([not (row in seen or seen.add(row)) for row in map(tuple, rows.tolist())])


def _tuples_within(k: int, size: int, total: int) -> int:
    """How many k-tuples of integers in [0, size) sum to at most ``total``:
    stars and bars, with inclusion-exclusion over the entries that reach
    ``size``."""
    return sum(
        (-1) ** j * math.comb(k, j) * math.comb(total - j * size + k, k)
        for j in range(k + 1)
        if total >= j * size
    )


def _user_grid_size(variant: str, cap: float, steps: int) -> int:
    """Rows of :func:`user_power_grid` for a variant, in closed form."""
    if cap <= 0:
        return 1
    if variant == "ncp":
        return steps
    if variant == "borcp":
        return 2 * steps - 1
    k = 4 if variant == "full" else 2
    # Grid points sum within the cap plus BUDGET_TOL up to this many grid
    # pitches, and always up to steps - 1 (the cap itself).
    most = k * (steps - 1)
    pitch = cap / (steps - 1)
    reach = (cap + BUDGET_TOL) / pitch if pitch > 0 else math.inf
    return _tuples_within(k, steps, most if reach >= most else max(int(reach), steps - 1))
