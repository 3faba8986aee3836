"""Small dense linear programs and rate-polytope projections.

Everything here is sized for systems of ten variables and about a hundred
constraints, so the solver is a plain dense two-phase simplex: Dantzig's
entering column, Harris's ratio test for the leaving row, deterministic,
no sparsity.  The one scaling is the master's: each resource row is divided
by its cap (:class:`_Master`).
Every LP here is a fixed matrix ``(a_ub, a_eq)`` and a right-hand side
``(b, e)``, one array holding the inequality bounds, then the equality
values: ``a_ub x <= b``, ``a_eq x = e``, ``x >= 0``.  :func:`lp_solve`
and :func:`project_frontier` take one right-hand side; frontiers come
from one master LP over many right-hand sides shared out by time sharing
(:func:`time_share`), grown column by column.  Right-hand sides are
nonnegative, as every MI bound is, and equality rows independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import SolverFailure
from .frontier import FEASIBILITY_TOL, Frontier, _pareto_prune

# Not used here: served from this module too, as the same function object,
# for callers that name it under ``gicee.polytope``.
from .frontier import pareto_merge  # noqa: F401

_MAX_PIVOTS = 5000

# Pivots in a row without the objective gaining, after which Bland's rule
# takes over: far past the longest run met on a master (219, budgets up to
# 1e6), since there Bland's small pivots grew the tableau's entries to 1e16.
_STALL = 1000

# How far below zero the ratio test lets a basic value drift, so that it
# can pick a large pivot among nearly tied rows.
_DRIFT = 1e-12

# Smallest pivot, as a share of its column's largest entry, that the
# simplex takes while another entering column offers a larger one: a
# pivot of 1.7e-9 in a column reaching 11 cost a master ten digits.
_PIVOT_SHARE = 1e-4

# Columns a pricing round adds to the master at most: the most negative
# reduced costs, ties broken by the columns' keys.
_ENTER = 8


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None


class _Tableau:
    """Dense simplex tableau of ``a_ub x <= b, a_eq x = e, x >= 0``, ``rhs``
    being ``(b, e) >= 0``; every LP here is built, and its data checked, here.

    Rows are the constraints, then the objective (reduced-cost) row;
    columns are the variables, one slack per inequality row, one
    artificial per equality row, and the right-hand side last.  The slacks
    and artificials start as the identity, the initial basis (``unit``),
    so they hold the current basis's inverse.  The basis survives between
    objectives: every phase-2 solve warm-starts from the last optimal
    basis.  After phase 1 the artificials stay in place but never enter
    again.  Columns added later (:meth:`append`) go before the right-hand
    side.
    """

    def __init__(self, a_ub, a_eq, rhs) -> None:
        if (a_ub.ndim != 2 or a_eq.shape[1:] != a_ub.shape[1:]
                or rhs.shape != (len(a_ub) + len(a_eq),)):
            raise ValueError("constraint matrix and right-hand side disagree in shape")
        if not all(np.isfinite(part).all() for part in (a_ub, a_eq, rhs)):
            raise ValueError("constraint data must be finite")
        if (rhs < 0.0).any():
            raise ValueError("the right-hand side must be nonnegative")
        m, n = len(rhs), a_ub.shape[1]
        t = np.zeros((m + 1, n + m + 1))
        t[:m, :n] = np.vstack([a_ub, a_eq])
        t[:m, n:-1] = np.eye(m)
        t[:m, -1] = rhs
        self.t, self.n = t, n
        self.unit = n + np.arange(m)
        self.basis = self.unit.copy()
        self.real = np.arange(n + m) < n + len(a_ub)
        self.pivots = 0
        # the constraint rows as built, which refactor() solves afresh, and
        # the pivot and column counts at its last solve that succeeded
        self.rows = t[:m].copy()
        self.solved = None

    def _pivot(self, row: int, col: int) -> None:
        t = self.t
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= factors[:, np.newaxis] * t[row]
        self.basis[row] = col
        self.pivots += 1

    def _pivot_to_optimum(self, allowed: np.ndarray | None, tol: float) -> str:
        """Pivot to an optimum of the objective row (minimization).

        Entering is the column of most negative reduced cost among
        ``allowed`` (all columns when None), ties to the lowest index; a
        column whose pivot would be below ``_PIVOT_SHARE`` of its largest
        entry gives way to the next one, and if every such column does,
        the largest of their pivots is taken.  Leaving follows Harris's
        ratio test: of the rows that bound the step no shorter than the
        longest step leaving every basic value above ``-_DRIFT``, the one
        with the largest pivot, ties broken by the lowest basic variable
        index.  Both keep pivots large, where lowest-index rules take them
        as small as the tolerance on a degenerate vertex.  After ``_STALL``
        pivots in a row without the objective gaining ``tol``, Bland's rule
        (lowest index entering; leaving, the least ratio, ties to the
        lowest basic index) takes over until it does: no cycling.
        """
        t, basis = self.t, self.basis
        level, stalled = t[-1, -1], 0
        for _ in range(_MAX_PIVOTS):
            negative = t[-1, :-1] < -tol
            if allowed is not None:
                negative &= allowed
            entering = negative.nonzero()[0]
            if not entering.size:
                return "optimal"
            bland = stalled >= _STALL
            if not bland:
                entering = entering[np.argsort(t[-1, entering], kind="stable")]
            fallback = None
            for col in entering.tolist():
                column = t[:-1, col]
                rows = (column > tol).nonzero()[0]
                if not rows.size:
                    return "unbounded"
                pivots, values = column[rows], t[rows, -1]
                step = ((np.maximum(values, 0.0) + (0.0 if bland else _DRIFT)) / pivots).min()
                within = values / pivots <= step
                ties = rows[within if bland else within & (pivots == pivots[within].max())]
                row = ties[np.argmin(basis[ties])]
                if bland or column[row] >= _PIVOT_SHARE * column.max():
                    break
                if fallback is None or column[row] > t[fallback[0], fallback[1]]:
                    fallback = (row, col)
            else:
                row, col = fallback
            self._pivot(row, col)
            if t[-1, -1] > level + tol:
                level, stalled = t[-1, -1], 0
            else:
                stalled += 1
        raise SolverFailure(f"simplex stalled after {_MAX_PIVOTS} pivots")

    def phase1(self, tol: float) -> bool:
        """Find a basic feasible solution; False if the system is infeasible.

        Afterwards no artificial is basic: one left basic at zero is
        pivoted out on its row's first real column.  A row with none is a
        combination of the other equality rows: a SolverFailure.
        """
        t, artificial = self.t, ~self.real
        t[-1] = 0.0
        t[-1, :-1][artificial] = 1.0
        t[-1] -= t[:-1][artificial[self.basis]].sum(axis=0)
        if self._pivot_to_optimum(None, tol) != "optimal":
            raise SolverFailure("phase 1 reported unbounded; system is malformed")
        if -t[-1, -1] > tol:
            return False
        for row in np.flatnonzero(artificial[self.basis]):
            candidates = np.flatnonzero(self.real & (np.abs(t[row, :-1]) > tol))
            if not candidates.size:
                raise SolverFailure("the equality rows are linearly dependent")
            self._pivot(row, candidates[0])
        return True

    def maximize(self, objective: np.ndarray, tol: float) -> str:
        """Phase 2 from the current basis, artificial columns never
        entering.  ``objective`` weighs the first structural columns, the
        rest cost nothing."""
        t, basis = self.t, self.basis
        t[-1] = 0.0
        t[-1, :objective.size] = -objective
        priced = np.flatnonzero(t[-1, basis])
        if priced.size:
            t[-1] -= (t[-1, basis[priced], None] * t[priced]).sum(axis=0)
        return self._pivot_to_optimum(self.real, tol)

    def solution(self, tol: float, columns: bool = False) -> np.ndarray:
        """The basic solution: the structural variables, or every column."""
        values = np.zeros(self.t.shape[1] - 1)
        values[self.basis] = self.t[:-1, -1]
        values[(values < 0) & (values > -tol)] = 0.0
        return values if columns else values[:self.n]

    def duals(self) -> np.ndarray:
        """Per row, the reduced cost its objective row gives a column that
        is that row's unit vector: a column ``a`` of cost 0 has reduced
        cost ``duals() . a``."""
        return self.t[-1, self.unit]

    def append(self, columns: np.ndarray) -> None:
        """Add structural columns of cost 0, given as an (m, k) array,
        after every other column, and refactor: the basis stays, so phase 2
        goes on from it, unless rounding had led it astray (then
        :meth:`restart`).  The objective row is left for the next
        :meth:`maximize`."""
        block = np.zeros((self.t.shape[0], columns.shape[1]))
        self.t = np.concatenate([self.t[:, :-1], block, self.t[:, -1:]], axis=1)
        self.rows = np.concatenate([self.rows[:, :-1], columns, self.rows[:, -1:]], axis=1)
        self.real = np.append(self.real, np.ones(columns.shape[1], dtype=bool))
        if not self.refactor():
            self.restart()

    def refactor(self) -> bool:
        """Recompute the constraint rows from the rows as built and the
        current basis, which clears the rounding that pivots accumulate;
        the objective row is left for the next :meth:`maximize`.  False
        when rounding has led the basis astray: it is singular or its
        basic solution is infeasible.  After a solve that succeeded, a call
        before the next pivot or column is a no-op."""
        key = (self.pivots, self.t.shape[1])
        if key == self.solved:
            return True
        try:
            self.t[:-1] = np.linalg.solve(self.rows[:, self.basis], self.rows)
        except np.linalg.LinAlgError:
            return False
        if not self.t[:-1, -1].min() >= -FEASIBILITY_TOL:
            return False
        self.solved = key
        return True

    def restart(self) -> None:
        """Go back to the basis the tableau was built with, keeping every
        column, and run phase 1 again."""
        self.t[:-1] = self.rows
        self.basis = self.unit.copy()
        self.solved = None
        if not self.phase1(FEASIBILITY_TOL):
            raise SolverFailure("the system became infeasible on a restart")


def lp_solve(a_ub, a_eq, rhs, objective) -> LpResult:
    """Maximize ``objective . x`` over ``a_ub x <= b``, ``a_eq x = e``,
    ``x >= 0``, where ``rhs`` is ``(b, e)``, the inequality bounds first;
    deterministic two-phase simplex.  Data that are not finite, or a
    negative ``rhs`` entry, are a ValueError; equality rows that are
    linearly dependent are a SolverFailure."""
    a_ub, a_eq, rhs, c_max = (np.asarray(v, dtype=float) for v in (a_ub, a_eq, rhs, objective))
    tableau = _Tableau(a_ub, a_eq, rhs)
    if c_max.shape != (tableau.n,):
        raise ValueError(f"objective must have length {tableau.n}")
    if not tableau.phase1(FEASIBILITY_TOL):
        return LpResult(status="infeasible")
    if tableau.maximize(c_max, FEASIBILITY_TOL) == "unbounded":
        return LpResult(status="unbounded")
    x = tableau.solution(FEASIBILITY_TOL)
    return LpResult(status="optimal", value=float(c_max @ x), x=x)


def _dichotomic(best, tol: float) -> list:
    """The vertices of one frontier, by the dichotomic search, where
    ``best(weights)`` gives the image of an optimum of ``weights . (r1,
    r2)``.  The search starts from the optima of r1 and of r2 alone; such
    an end may be dominated, by a point on the same vertical or horizontal
    edge, and then the segment between the ends finds the point as a new
    vertex and the caller's prune drops the end.  A point more than
    ``tol`` above a segment splits it; the margin is absolute, since one
    scaled by the value would hide such edge ends, found 7e-9 above their
    segment where rates near 10 bits."""
    right = best((1.0, 0.0))
    top = best((0.0, 1.0))
    vertices = [top, right]
    # Segments run from the upper-left vertex to the lower-right one.
    segments = [(top, right)]
    while segments:
        upper, lower = segments.pop()
        w1, w2 = upper[1] - lower[1], lower[0] - upper[0]
        if not (w1 > 0.0 and w2 > 0.0):
            continue  # one end dominates the other: nothing lies between
        norm = math.hypot(w1, w2)
        w1, w2 = w1 / norm, w2 / norm
        point = best((w1, w2))
        value = w1 * point[0] + w2 * point[1]
        chord = max(w1 * upper[0] + w2 * upper[1], w1 * lower[0] + w2 * lower[1])
        if value > chord + tol:
            vertices.append(point)
            segments += [(point, lower), (upper, point)]
    return vertices


class _Master:
    """The master LP of one :func:`time_share` call.

    The first column's weight is eliminated, ``w_f = 1 - sum_{s != f}
    w_s``, so the tableau starts as the system of right-hand side f
    itself, with one row per resource, ``0 <= caps - u_f``, and the row
    ``0 <= 1`` whose slack is ``w_f``: the tableau (:class:`_Tableau`)
    checks that data, and the matrix's, once.  Column s enters as ``b_f - b_s``
    on the inequality rows, ``u_s - u_f`` on the resource rows, 1 on the
    ``w_f`` row and ``e_f - e_s`` on the equality rows, once it prices
    out (:meth:`_price`).  ``recipes`` maps the image of each optimum to
    the right-hand sides it uses, their weights and its ``x``; ``rounds``
    counts the pricing rounds.
    """

    def __init__(self, a_ub: np.ndarray, a_eq: np.ndarray, rhs, r1_row: np.ndarray,
                 r2_row: np.ndarray, usage: np.ndarray, caps: np.ndarray, first: int,
                 keys: np.ndarray) -> None:
        # Each resource row is divided by its cap, so that its slack is on
        # the scale of the weights: the simplex's absolute tolerance on a
        # reduced cost then bounds the objective it can leave, where a cap
        # of 1e4 let a stop at -1e-9 leave 1e-5 of it.
        scale = np.where(caps > 0.0, caps, 1.0)
        usage, caps = usage / scale, caps / scale
        self.r1_row, self.r2_row, self._reader, self.keys = r1_row, r2_row, rhs, keys
        self.usage, self.caps, self.first = usage, caps, first
        self.n_ub, self.n = a_ub.shape
        self.rounds = 0
        self.columns: dict[int, np.ndarray] = {}
        self.present = np.zeros(len(usage), dtype=bool)
        self.present[first] = True
        self.recipes: dict[tuple[float, float], tuple] = {}
        self.rhs = self._read(np.array([first]), None)[0]
        self.tableau = _Tableau(
            np.vstack([a_ub, np.zeros((caps.size + 1, self.n))]), a_eq,
            np.concatenate([self.rhs[:self.n_ub], caps - usage[first], [1.0],
                            self.rhs[self.n_ub:]]))
        # per weight column, its right-hand side and its tableau column; the
        # first one's is the slack of the row before the equalities
        self.states, self.at = [first], [self.tableau.unit[self.n_ub + caps.size]]

    def _read(self, at, columns) -> np.ndarray:
        values = self._reader(at, columns)
        if not np.all(np.isfinite(values)):
            raise ValueError("constraint data must be finite")
        return values

    def _price(self, y: np.ndarray) -> np.ndarray:
        """The reduced cost of every column under the duals ``y`` of the
        master's rows, one per right-hand side.  Bound columns (one bound
        of every right-hand side) are read when a nonzero dual first needs
        them and kept for the call; whole rows are read only as columns
        enter."""
        n_ub, c = self.n_ub, self.caps.size
        y_bounds = np.concatenate([y[:n_ub], y[n_ub + c + 1:]])
        y_use, y_one = y[n_ub:n_ub + c], y[n_ub + c]
        used = np.flatnonzero(y_bounds).tolist()
        missing = [j for j in used if j not in self.columns]
        if missing:
            values = self._read(slice(None), np.array(missing))
            self.columns.update((j, values[:, i].copy()) for i, j in enumerate(missing))
        cost = np.full(len(self.usage),
                       y_one + y_bounds @ self.rhs - y_use @ self.usage[self.first])
        for u in range(c):
            cost += y_use[u] * self.usage[:, u]
        for j in used:
            cost -= y_bounds[j] * self.columns[j]
        return cost

    def _add(self, at: np.ndarray) -> None:
        rows = self.rhs - self._read(at, None)
        n_ub = self.n_ub
        start = self.tableau.t.shape[1] - 1
        self.tableau.append(np.vstack([rows[:, :n_ub].T,
                                       (self.usage[at] - self.usage[self.first]).T,
                                       np.ones((1, at.size)), rows[:, n_ub:].T]))
        self.present[at] = True
        self.states += at.tolist()
        self.at += range(start, start + at.size)

    def _optimize(self, objective: np.ndarray) -> None:
        """Maximize ``objective`` over the master; each round adds the
        ``_ENTER`` columns of most negative reduced cost, ties broken by
        their keys, until none is below ``-FEASIBILITY_TOL``; the optimum
        stands unless the objective gains more than that on the refactored
        tableau, so bases that only rounding tells apart cannot take turns,
        and ``_MAX_PIVOTS`` pivots in all end the call."""
        tableau, tol = self.tableau, FEASIBILITY_TOL
        confirming, restarted, value = False, False, -math.inf
        begin = tableau.pivots
        while True:
            if tableau.maximize(objective, tol) != "optimal":
                raise SolverFailure("projection unbounded along an objective")
            if tableau.pivots - begin > _MAX_PIVOTS:
                raise SolverFailure(f"the master stalled after {_MAX_PIVOTS} pivots")
            gained, value = tableau.t[-1, -1] > value + tol, tableau.t[-1, -1]
            if self.present.all() or confirming and not gained:
                return
            cost = self._price(tableau.duals())
            self.rounds += 1
            candidates = np.flatnonzero(~self.present & (cost < -tol))
            confirming = not candidates.size
            if confirming:
                # confirm the optimum on a tableau freed of pivot rounding,
                # or solve again from the start if rounding led it astray
                if not tableau.refactor():
                    if restarted:
                        raise SolverFailure("rounding led the master astray twice")
                    tableau.restart()
                    restarted, confirming = True, False
                continue
            if candidates.size > _ENTER:   # none above the _ENTER-th lowest cost enters
                cut = np.partition(cost[candidates], _ENTER - 1)[_ENTER - 1]
                candidates = candidates[cost[candidates] <= cut]
            keys = self.keys[candidates].T[::-1]
            at = candidates[np.lexsort((*keys, cost[candidates]))[:_ENTER]]
            self._add(at)

    def best(self, weights) -> tuple[float, float]:
        """The image of an optimum of ``weights . (r1, r2)`` over the
        master, a :func:`_dichotomic` objective, whose recipe it records."""
        rows = (self.r1_row, self.r2_row)
        self._optimize(weights[0] * rows[0] + weights[1] * rows[1])
        values = self.tableau.solution(FEASIBILITY_TOL, columns=True)
        x = values[:self.n]
        point = (max(float(rows[0] @ x), 0.0), max(float(rows[1] @ x), 0.0))
        weights_at = values[self.at]
        used = np.flatnonzero(weights_at > 0.0)
        self.recipes[point] = (np.array(self.states)[used], weights_at[used], x)
        return point


def time_share(a_ub: np.ndarray, a_eq: np.ndarray, rhs, r1_row: np.ndarray,
               r2_row: np.ndarray, usage: np.ndarray, caps: np.ndarray, first: int,
               keys: np.ndarray) -> tuple[list, dict, dict]:
    """Frontier vertices of the master LP that time-shares the right-hand
    sides ``(b, e)`` of the matrix ``(a_ub, a_eq)`` that ``rhs`` reads,
    under the objective rows ``(r1_row, r2_row)``:

        maximize  c . x   over  x >= 0, w >= 0
        a_ub x - sum_s w_s b_s <= 0
        sum_s w_s u_s          <= caps
        a_eq x - sum_s w_s e_s  = 0
        sum_s w_s               = 1

    ``u_s``, row s of ``usage`` (one row per right-hand side, len(caps)),
    is right-hand side s's use of each resource.  Phase 1 runs once, on
    column ``first`` alone: if that system is infeasible, there are no
    vertices.  The vertices come from the bicriteria dichotomic search
    (Aneja & Nair 1979, :func:`_dichotomic`), unsorted and unpruned, each
    objective solved to optimality over all columns by column generation
    (Dantzig-Wolfe): each optimum's duals price every column, and those of
    negative reduced cost enter the live tableau, so phase 2 goes on from
    the last basis.  Returns the vertices, the recipe of each (see
    :class:`_Master`) and the master's pricing ``rounds``, ``columns`` and
    simplex ``pivots``.

    ``rhs(at, columns)`` gives the right-hand sides ``at`` (an index
    array, or a slice for all), only the given columns of them, or whole
    rows for ``columns`` None.  A non-finite value read, or in the matrix
    or the resources, is a ValueError, as are a right-hand side whose
    length is not the matrix's row count and a column ``first`` with a
    negative bound or one that overspends a resource.  Pricing breaks
    ties by the lexicographic order of ``keys`` (one row per right-hand
    side): keys that depend on each right-hand side alone make every step
    independent of their order.  A SolverFailure ends the search.
    """
    master = _Master(a_ub, a_eq, rhs, r1_row, r2_row, usage, caps, first, keys)
    feasible = master.tableau.phase1(FEASIBILITY_TOL)
    vertices = _dichotomic(master.best, FEASIBILITY_TOL) if feasible else []
    counts = {"rounds": master.rounds, "columns": len(master.states),
              "pivots": master.tableau.pivots}
    return vertices, master.recipes, counts


def project_frontier(a_ub, a_eq, rhs, r1_row, r2_row) -> Frontier:
    """Pareto frontier of the image of ``a_ub x <= b``, ``a_eq x = e``,
    ``x >= 0``, with ``rhs`` the one right-hand side ``(b, e)``, under
    (r1_row, r2_row).

    The master of :func:`time_share` with that one right-hand side: phase
    1 decides feasibility, and every later objective warm-starts from the
    previous optimal basis.  Infeasible systems give an empty frontier,
    with ``metadata["infeasible"]`` set.
    """
    a_ub, a_eq, rhs, r1_row, r2_row = (
        np.asarray(v, dtype=float) for v in (a_ub, a_eq, rhs, r1_row, r2_row))
    vertices, _, _ = time_share(
        a_ub, a_eq, lambda at, columns: (rhs if columns is None else rhs[columns])[np.newaxis],
        r1_row, r2_row, np.zeros((1, 0)), np.zeros(0), first=0, keys=rhs[np.newaxis])
    return Frontier(points=_pareto_prune(vertices), metadata={"infeasible": not vertices})
