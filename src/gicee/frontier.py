"""Pareto frontiers of (r1, r2) rate points: the frontier type, the Pareto
prune with its numpy record filter, and the upper-hull merge.

Every command writes a :class:`Frontier`, so this module is all that the
closed-form schemes need; the simplex and the projections that produce
frontiers from rate polytopes live in :mod:`gicee.polytope`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable

import numpy as np

# Feasibility / pivot tolerance for the simplex; frontier coordinates
# within it of zero are zero.
FEASIBILITY_TOL = 1e-9
# Points closer than this in either coordinate are treated as ties when
# pruning Pareto sets.
PARETO_EPS = 1e-12


def _records(points: np.ndarray) -> np.ndarray:
    """The strict records of an (n, 2) array of points, as a (k, 2) array:
    taken in decreasing (r1, r2) order, the points whose r2 exceeds that of
    every point before them.  Of points that compare equal
    (``-0.0 == 0.0``) the first occurrence is the one that can be a record.

    Cutting each of several arrays to its records first leaves the records
    of their concatenation unchanged: a record of the whole is a record of
    its own part, and dropping non-records changes no other point's status,
    since the largest r2 before any point is always a record's.
    """
    if len(points):
        # A point is no record if some point before it reaches its r2.
        # Before every point left of it comes the top point (the largest
        # r1 among those of largest r2), and before every point below it
        # the rightmost one (the largest r2 among those of largest r1), so
        # one cheap pass drops all those points ahead of the sort.
        r1, r2 = points[:, 0], points[:, 1]
        top, right = r2.max(), r1.max()
        points = points[(r1 >= r1[r2 == top].max()) & (r2 >= r2[r1 == right].max())]
    rev = points[::-1]
    # a stable sort of the reversed input, reversed again: decreasing
    # (r1, r2), ties in input order
    order = np.lexsort((rev[:, 1], rev[:, 0]))[::-1]
    r2 = rev[order, 1]
    record = np.ones(len(r2), dtype=bool)
    np.greater(r2[1:], np.maximum.accumulate(r2)[:-1], out=record[1:])
    return rev[order[record]]


def _pareto_prune(
    points: Collection, eps: float = PARETO_EPS
) -> tuple[tuple[float, float], ...]:
    """Drop dominated and tie-duplicated points; result has strictly
    increasing r1 and strictly decreasing r2.

    ``points`` holds finite (r1, r2) pairs, as pairs or as an (n, 2) array.
    The input is first cut to its strict records (:func:`_records`).
    That loses nothing: the loop below visits points in decreasing order,
    and a point that is no record has r2 <= r2 of a point visited before
    it, which is <= ``best + eps``, so the loop skips it without moving
    ``best``.  The records are distinct, with r1 strictly falling and r2
    strictly rising, so the loop takes them in the order they come.
    """
    kept: list[tuple[float, float]] = []
    best = -math.inf
    for r1, r2 in _records(np.asarray(points, dtype=float).reshape(-1, 2)).tolist():
        if r2 > best + eps:
            kept.append((r1, r2))
            best = r2
    kept.reverse()
    out: list[tuple[float, float]] = []
    for pt in kept:
        if out and pt[0] - out[-1][0] <= eps:
            continue
        out.append(pt)
    return tuple(out)


@dataclass(frozen=True)
class Frontier:
    """Pareto-optimal (r1, r2) points in bits per channel use, r1 ascending."""

    points: tuple[tuple[float, float], ...] = ()
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        cleaned = []
        for r1, r2 in self.points:
            r1, r2 = float(r1), float(r2)
            if r1 < -FEASIBILITY_TOL or r2 < -FEASIBILITY_TOL:
                raise ValueError(f"negative frontier point ({r1}, {r2})")
            # Coordinates within the solver tolerance of zero are zero, so
            # rounding residue such as 2.2e-16 never reaches the output.
            cleaned.append(tuple(0.0 if r <= FEASIBILITY_TOL else r for r in (r1, r2)))
        for (a1, a2), (b1, b2) in zip(cleaned, cleaned[1:]):
            if b1 < a1 or b2 > a2:
                raise ValueError("frontier points must be sorted and Pareto")
        object.__setattr__(self, "points", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def max_r1(self) -> float:
        if not self.points:
            raise ValueError("empty frontier has no maximum")
        return self.points[-1][0]

    @property
    def max_r2(self) -> float:
        if not self.points:
            raise ValueError("empty frontier has no maximum")
        return self.points[0][1]

    def r2_at(self, r1: float) -> float:
        """Height of the piecewise-linear boundary at ``r1``.

        The region is down-closed, so left of the first point the boundary
        is flat at max_r2; beyond max_r1 nothing is achievable (-inf).
        """
        if not self.points:
            return -math.inf
        if r1 > self.points[-1][0] + PARETO_EPS:
            return -math.inf
        if r1 <= self.points[0][0]:
            return self.points[0][1]
        for (a1, a2), (b1, b2) in zip(self.points, self.points[1:]):
            if r1 <= b1:
                if b1 == a1:
                    return max(a2, b2)
                t = (r1 - a1) / (b1 - a1)
                return a2 + t * (b2 - a2)
        return self.points[-1][1]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper convex hull vertices (monotone chain), from the rightmost
    point to the leftmost.  A point within ``PARETO_EPS`` of its
    neighbours' chord, relative to the chord's length, is no vertex, so
    the hull holds the same vertices whichever points on an edge it gets;
    one that turns left past either end of a near-vertical chord is one.

    The lower chain is not needed.  :func:`pareto_merge` adds each point's
    axis projections, so the leftmost point has r1 = 0 and an r2 no larger
    than the rightmost point's.  Every lower-chain vertex lies on or below
    the chord between the two, so the rightmost point dominates it and the
    Pareto prune would drop it.
    """
    upper: list[tuple[float, float]] = []
    for p in sorted(set(points), reverse=True):
        while len(upper) >= 2:
            o, a = upper[-2], upper[-1]
            cross, span = _cross(o, a, p), math.dist(o, p) ** 2
            along = (a[0] - o[0]) * (p[0] - o[0]) + (a[1] - o[1]) * (p[1] - o[1])
            if cross > 0 and (cross > PARETO_EPS * span or not 0 <= along <= span):
                break
            upper.pop()
        upper.append(p)
    return upper


def pareto_merge(
    frontiers: Iterable[Frontier], *, metadata: dict | None = None
) -> Frontier:
    """Pareto frontier of the convex hull of all points and their axis
    projections (time sharing with silence is always allowed)."""
    raw: list[tuple[float, float]] = []
    for frontier in frontiers:
        for r1, r2 in frontier.points:
            raw.append((r1, r2))
            raw.append((0.0, r2))
            raw.append((r1, 0.0))
    meta = dict(metadata or {})
    if not raw:
        return Frontier(points=(), metadata=meta)
    vertices = _hull_vertices(raw)
    return Frontier(points=_pareto_prune(vertices), metadata=meta)
