"""Small dense linear programs and rate-polytope projections.

Everything here is sized for systems of ten variables and about a hundred
constraints, so the solver is a plain dense two-phase simplex with Bland's
anti-cycling pivot rule: deterministic, no sparsity, no scaling tricks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frontier import FEASIBILITY_TOL, Frontier, SolverFailure, _pareto_prune

# Not used here: served from this module too, as the same function object,
# for callers that name it under ``gicee.polytope``.
from .frontier import pareto_merge  # noqa: F401

_MAX_PIVOTS = 5000

# A cached basis answers a new right-hand side only if its basic solution
# is nonnegative up to this much rounding.  The answer moves by about as
# much as a clipped basic value, so the floor is absolute: scaled by the
# largest bound, it let a basis infeasible by 2.9e-12 answer a corner that
# far short of the tableau's.  The tableau's own basic solutions stay
# feasible to rounding, so a looser test (FEASIBILITY_TOL) let a basis
# infeasible by 7e-10 answer bounds below 1e-9 with a point the tableau
# does not reach.
BASIS_TOL = 1e-12


@dataclass(frozen=True)
class RateSystem:
    """Dense constraint system ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``."""

    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        if a_ub.size == 0:
            raise ValueError("system needs at least one inequality row")
        if a_ub.shape[0] != b_ub.shape[0]:
            raise ValueError("inequality rows and bounds disagree in length")
        dim = a_ub.shape[1]
        if self.a_eq is None:
            a_eq = np.zeros((0, dim))
            b_eq = np.zeros(0)
        else:
            a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
            if a_eq.shape[1] != dim or a_eq.shape[0] != b_eq.shape[0]:
                raise ValueError("equality block shape mismatch")
        for arr in (a_ub, b_ub, a_eq, b_eq):
            if not np.all(np.isfinite(arr)):
                raise ValueError("constraint data must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def dim(self) -> int:
        return self.a_ub.shape[1]

    @property
    def n_inequalities(self) -> int:
        return self.a_ub.shape[0]

    @property
    def n_equalities(self) -> int:
        return self.a_eq.shape[0]

    def with_equalities(
        self, rows: Sequence[Sequence[float]], values: Sequence[float]
    ) -> "RateSystem":
        """A copy of the system with extra equality rows appended."""
        extra = np.atleast_2d(np.asarray(rows, dtype=float))
        return RateSystem(
            a_ub=self.a_ub,
            b_ub=self.b_ub,
            a_eq=np.vstack([self.a_eq, extra]),
            b_eq=np.concatenate([self.b_eq, np.asarray(values, dtype=float)]),
        )


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None


class _Tableau:
    """Dense simplex tableau of one system, kept in canonical form.

    Rows are the constraints with nonnegative right-hand sides followed by
    the objective (reduced-cost) row; columns are the variables, one slack
    per ``<=`` row, one surplus per flipped ``>=`` row, one artificial per
    row without a slack, and the right-hand side last.  The basis survives
    between objectives, so every phase-2 solve warm-starts from the last
    optimal basis.  After phase 1 the artificial columns stay in place but
    never enter again; with the slack columns they hold the basis inverse.
    """

    def __init__(self, system: RateSystem) -> None:
        a = np.vstack([system.a_ub, system.a_eq])
        b = np.concatenate([system.b_ub, system.b_eq])
        m, n = a.shape
        flip = b < 0
        a[flip] = -a[flip]
        b = np.abs(b)
        inequality = np.arange(m) < system.n_inequalities
        le_rows = np.flatnonzero(inequality & ~flip)
        ge_rows = np.flatnonzero(inequality & flip)
        art_rows = np.flatnonzero(~inequality | flip)
        slack_at = n
        surplus_at = slack_at + le_rows.size
        self.art_start = surplus_at + ge_rows.size
        ncols = self.art_start + art_rows.size

        t = np.zeros((m + 1, ncols + 1))
        t[:m, :n] = a
        t[:m, -1] = b
        t[le_rows, slack_at + np.arange(le_rows.size)] = 1.0
        t[ge_rows, surplus_at + np.arange(ge_rows.size)] = -1.0
        t[art_rows, self.art_start + np.arange(art_rows.size)] = 1.0
        basis = np.empty(m, dtype=np.intp)
        basis[le_rows] = slack_at + np.arange(le_rows.size)
        basis[art_rows] = self.art_start + np.arange(art_rows.size)
        self.t, self.basis, self.n = t, basis, n
        # The variable behind each column but the artificials: structural j
        # is j, and inequality row i's slack or surplus is n + i, the same
        # variable ``b_i - a_i x`` whichever way the row was flipped.
        self.variables = np.concatenate([np.arange(n), n + le_rows, n + ge_rows])
        self.real = np.arange(ncols) < self.art_start
        # Each row's unit column in the initial tableau, and the row's sign
        # flip: ``t[:-1, unit] * sign`` is the inverse of the basis matrix
        # of the unflipped system.
        self.unit = basis.copy()
        self.sign = np.where(flip, -1.0, 1.0)
        self.complete = True

    def _pivot(self, row: int, col: int) -> None:
        t = self.t
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= factors[:, np.newaxis] * t[row]
        self.basis[row] = col

    def _bland(self, allowed: np.ndarray | None, tol: float) -> str:
        """Pivot to an optimum of the objective row (minimization).

        Bland's rule: entering is the lowest-index column with a negative
        reduced cost among ``allowed`` (all columns when None); leaving is
        the ratio-test row, ties within 1e-15 broken by the lowest basic
        variable index.
        """
        t, basis = self.t, self.basis
        for _ in range(_MAX_PIVOTS):
            negative = t[-1, :-1] < -tol
            if allowed is not None:
                negative &= allowed
            entering = negative.nonzero()[0]
            if not entering.size:
                return "optimal"
            col = entering[0]
            rows = (t[:-1, col] > tol).nonzero()[0]
            if not rows.size:
                return "unbounded"
            ratios = t[rows, -1] / t[rows, col]
            ties = rows[ratios <= ratios.min() + 1e-15]
            self._pivot(ties[np.argmin(basis[ties])], col)
        raise SolverFailure(f"simplex stalled after {_MAX_PIVOTS} pivots")

    def phase1(self, tol: float) -> bool:
        """Find a basic feasible solution; False if the system is infeasible.

        Afterwards no artificial is basic: leftover artificials are pivoted
        out of the basis, and rows where that is impossible are redundant
        and dropped (the tableau is then no longer ``complete``).
        """
        t, art_start = self.t, self.art_start
        if art_start == t.shape[1] - 1:
            return True
        t[-1] = 0.0
        t[-1, art_start:-1] = 1.0
        t[-1] -= t[:-1][self.basis >= art_start].sum(axis=0)
        if self._bland(None, tol) != "optimal":
            raise SolverFailure("phase 1 reported unbounded; system is malformed")
        if -t[-1, -1] > tol:
            return False
        keep = np.ones(t.shape[0], dtype=bool)
        for row in np.flatnonzero(self.basis >= art_start):
            candidates = np.flatnonzero(np.abs(t[row, :art_start]) > tol)
            if candidates.size:
                self._pivot(row, candidates[0])
            else:
                keep[row] = False
        if not keep.all():
            self.t = t[keep]
            self.basis = self.basis[keep[:-1]]
            self.complete = False
        return True

    def maximize(self, objective: np.ndarray, tol: float,
                 allowed: np.ndarray | None = None) -> str:
        """Phase 2 from the current basis; entering columns limited to ``allowed``."""
        t, basis = self.t, self.basis
        t[-1] = 0.0
        t[-1, :self.n] = -objective
        priced = np.flatnonzero(t[-1, basis])
        if priced.size:
            t[-1] -= (t[-1, basis[priced], None] * t[priced]).sum(axis=0)
        return self._bland(self.real if allowed is None else allowed & self.real, tol)

    def optimal_face(self, tol: float) -> np.ndarray:
        """Columns that may move without leaving the current optimal face:
        those whose reduced cost is not positive."""
        return self.t[-1, :-1] <= tol

    def solution(self, tol: float) -> np.ndarray:
        x = np.zeros(self.n)
        structural = self.basis < self.n
        x[self.basis[structural]] = self.t[:-1, -1][structural]
        x[(x < 0) & (x > -tol)] = 0.0
        return x

    def basis_inverse(self) -> np.ndarray:
        """Inverse of the current basis matrix of the unflipped system, its
        rows in basis order; only for a ``complete`` tableau."""
        return self.t[:-1, self.unit] * self.sign


def lp_solve(
    system: RateSystem,
    objective: Sequence[float],
    *,
    tol: float = FEASIBILITY_TOL,
) -> LpResult:
    """Maximize ``objective . x`` over the system; deterministic two-phase simplex."""
    c_max = np.asarray(objective, dtype=float)
    if c_max.shape != (system.dim,):
        raise ValueError(f"objective must have length {system.dim}")
    tableau = _Tableau(system)
    if not tableau.phase1(tol):
        return LpResult(status="infeasible")
    if tableau.maximize(c_max, tol) == "unbounded":
        return LpResult(status="unbounded")
    x = tableau.solution(tol)
    return LpResult(status="optimal", value=float(c_max @ x), x=x)


class _Infeasible(Exception):
    """Phase 1 found no feasible point."""


def _dichotomic(tol: float):
    """The dichotomic search of one frontier, as a generator: it yields each
    objective ``(weights, corner)``, is sent the image of that objective's
    optimum, and returns the vertices found.  ``weights`` None stands for
    corner 0 (r1, then r2) or 1 (r2, then r1); otherwise the objective is
    ``weights . (r1, r2)``."""
    right = yield None, 0
    top = yield None, 1
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
        point = yield (w1, w2), 0
        value = w1 * point[0] + w2 * point[1]
        chord = max(w1 * upper[0] + w2 * upper[1], w1 * lower[0] + w2 * lower[1])
        if value > chord + tol * max(1.0, abs(value)):
            vertices.append(point)
            segments += [(point, lower), (upper, point)]
    return vertices


def _keys(objective, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What an objective maximizes at each of an (n, 2) array of image
    points, first and second: ``weights . point`` (then nothing), or for a
    corner the primary coordinate, then the secondary one."""
    weights, corner = objective
    if weights is None:
        return points[:, corner], points[:, 1 - corner]
    return weights[0] * points[:, 0] + weights[1] * points[:, 1], np.zeros(len(points))


# Bound values read per call (rows times columns), so that a read's arrays
# and the screen's stay within a few megabytes however large the grid; and
# right-hand sides tested per product against a cached basis.  A (93, 93)
# @ (93, 64) product stays under OpenBLAS's threading threshold (4 * 65536
# multiply-adds per thread in its sources), so each test runs on one core.
# The command line starts OpenBLAS on one thread anyway; the block keeps a
# library caller whose numpy loaded with BLAS threads on one core too.
_READ_VALUES = 1 << 15
_PRODUCT_BLOCK = 64


class _Rows:
    """The full rows of some right-hand sides of a :class:`_Union`, each
    read on first use; indexed by position in ``at``."""

    def __init__(self, union: "_Union", at: np.ndarray) -> None:
        self._union, self._at = union, at
        self._values = np.zeros((at.size, union.m))
        self._read = np.zeros(at.size, dtype=bool)

    def __getitem__(self, index: np.ndarray) -> np.ndarray:
        need = index[~self._read[index]]
        if need.size:
            self._values[need] = self._union._read(self._at[need], None)
            self._read[need] = True
        return self._values[index]


class _Union:
    """The state of one :meth:`Projector.search` over ``count`` right-hand
    sides, whose bounds ``bounds(at, columns)`` computes on demand.

    Every right-hand side has the bound columns the weak-duality bounds
    read (``columns``, one array per column) and, once a bound needs it,
    its bound on the sum of the variables (``sums``).  An examined one
    also has a slot, in examination order, and by slot its verdict
    (``alive`` is False once the screen or phase 1 finds it infeasible),
    its tableau once one has run, and per cached basis whether that basis
    is feasible for it and the image of its basic solution.  Full rows are
    read again when needed rather than kept, so memory stays small when
    many right-hand sides are examined.
    """

    def __init__(self, projector: "Projector", count: int, bounds, screen) -> None:
        self.projector = projector
        self.count = count
        self._bounds, self._screen = bounds, screen
        self.m = projector._matrix.shape[0]
        self.columns: dict[int, np.ndarray] = {}
        self.sums: np.ndarray | None = None
        self.alive = np.ones(count, dtype=bool)
        self.slot = np.full(count, -1)
        self.examined = 0
        self.tableaus: dict[int, _Tableau] = {}
        self.fits = np.zeros((0, 0), dtype=np.int8)  # -1 not yet tested
        self.images = np.zeros((0, 0, 2))
        self.screened = self.infeasible = 0

    def _read(self, at, columns) -> np.ndarray:
        values = self._bounds(at, columns)
        if not np.all(np.isfinite(values)):
            raise ValueError("constraint data must be finite")
        return values

    def _blocks(self, width: int):
        """Slices of the right-hand sides that a read of ``width`` columns
        takes at a time."""
        step = max(1, _READ_VALUES // width)
        return (slice(start, start + step) for start in range(0, self.count, step))

    def _require(self, columns: np.ndarray) -> None:
        """Read the given bound columns for every right-hand side."""
        missing = [j for j in columns.tolist() if j not in self.columns]
        if missing:
            values = {j: np.empty(self.count) for j in missing}
            for at in self._blocks(len(missing)):
                block = self._read(at, np.array(missing))
                for i, j in enumerate(missing):
                    values[j][at] = block[:, i]
            self.columns.update(values)

    def _sums(self) -> np.ndarray:
        """``sum b + s max b`` for every right-hand side (see :meth:`upper`),
        read once."""
        if self.sums is None:
            n_ub, scale = self.projector._a_ub.shape[0], self.projector._sum_scale
            self.sums = np.empty(self.count)
            for at in self._blocks(self.m):
                rows = self._read(at, None)
                self.sums[at] = rows[:, :n_ub].sum(axis=1) + scale * rows.max(axis=1)
        return self.sums

    def upper(self, objective) -> np.ndarray:
        """An upper bound on the objective's optimum for every right-hand
        side, (count,); infinite where nothing bounds it.

        Weak duality.  Let ``M`` be the matrix with one slack column per
        inequality row, so that the feasible points of right-hand side
        ``b`` are the ``v = (x, z) >= 0`` with ``M v = b``, and let ``c``
        be the objective on ``v``.  For any vector ``y``, ``c . v = y . b +
        d . v`` with ``d = c - y M``.  A cached basis that passes the
        objective's stopping test gives ``y = c_B B^-1`` (the duals stored
        per basis, weighted like the objective) with ``d_j <= delta`` for
        every column, ``delta`` being its most negative accepted reduced
        cost of the minimization, negated, or 0.  So ``c . v <= y . b +
        delta * sum(v)`` for every feasible ``v`` of every ``b``.  When all
        inequality rows are nonnegative, each slack is at most its row's
        bound, ``z_i = b_i - a_i x <= b_i``, and each variable at most
        ``max b / s_j``, ``s_j`` its largest coefficient in a nonnegative
        row; on the region matrix ``s_j = 1``, since every rate variable
        has coefficient 1 in some single-subset row, so ``sum(v) <= sum b +
        10 max b`` (``Projector._sum_scale`` is the 10).  Otherwise there is
        no such bound and a basis with ``delta > 0`` bounds nothing.  A
        nonnegative inequality row at least the objective row, coefficient
        by coefficient, is the dual ``y = e_i`` with ``d <= 0`` everywhere,
        so before any basis is cached its bound (weighted for a segment)
        already orders the right-hand sides.  The bound of ``b`` is the
        least over these duals of ``y . b + delta * (sum b + s max b)``
        plus ``2 m eps |y| . |b|``, which covers the rounding of the
        product and of the image an examination computes.
        """
        duals = self.projector._duals(objective)
        if duals:  # one read of the columns every bound below needs
            self._require(np.flatnonzero(np.any([y for y, _ in duals], axis=0)))
        bound = np.full(self.count, math.inf)
        for y, delta in duals:
            np.minimum(bound, self.dual_bound(y, delta), out=bound)
        return bound

    def dual_bound(self, y: np.ndarray, delta: float) -> np.ndarray:
        """``y . b`` plus the margin of :meth:`upper` for every right-hand
        side, (count,); infinite when ``delta > 0`` and the variables'
        sum has no bound."""
        scale = self.projector._sum_scale
        if delta > 0.0 and not math.isfinite(scale):
            return np.full(self.count, math.inf)
        columns = np.flatnonzero(y)
        self._require(columns)
        value, size = np.zeros(self.count), np.zeros(self.count)
        for j in columns.tolist():
            value += y[j] * self.columns[j]
            size += abs(y[j]) * np.abs(self.columns[j])
        value += 2 * self.m * np.finfo(float).eps * size
        if delta > 0.0:
            value += delta * self._sums()
        return value

    def _sync(self) -> None:
        """Grow the verdict and image tables to every slot and basis, the
        slots by doubling."""
        have = self.fits.shape
        need = (self.examined, len(self.projector._inverses))
        if need[0] > have[0] or need[1] > have[1]:
            shape = (have[0] if need[0] <= have[0] else max(need[0], 2 * have[0]), need[1])
            fits = np.full(shape, -1, dtype=np.int8)
            images = np.zeros(shape + (2,))
            fits[:have[0], :have[1]] = self.fits
            images[:have[0], :have[1]] = self.images
            self.fits, self.images = fits, images

    def _feasible(self, slots: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
        """Whether cached basis k is feasible for each of ``rows``, the full
        rows of ``slots``, and where it is, the image of its basic
        solution; computed once per slot and basis.

        One product per block of rows, ``B^-1 b``, decides a verdict unless
        its rounding could flip it; then the one-row product decides, so a
        verdict never depends on the other rows.  An image needs only the
        basic values the objective rows weigh, each summed elementwise per
        row, so it too depends on the row alone.
        """
        self._sync()
        todo = np.flatnonzero(self.fits[slots, k] < 0)
        projector = self.projector
        inverse = projector._inverses[k]
        carriers, weights = projector._carriers[k]
        for start in range(0, todo.size, _PRODUCT_BLOCK):
            at = todo[start:start + _PRODUCT_BLOCK]
            block = rows[at]
            lowest = (inverse @ block.T).min(axis=0)
            fits = lowest >= -BASIS_TOL
            spread = projector._spread[k] * np.abs(block).max(axis=1)
            for j in np.flatnonzero(np.abs(lowest + BASIS_TOL) <= spread):
                fits[j] = (inverse @ block[j]).min() >= -BASIS_TOL
            self.fits[slots[at], k] = fits
            values = (block[:, np.newaxis, :] * carriers).sum(axis=2)
            np.maximum(values, 0.0, out=values)
            images = (values[:, :, np.newaxis] * weights).sum(axis=1)
            self.images[slots[at], k] = np.maximum(images, 0.0)
        return self.fits[slots, k] == 1

    def _answer(self, at: np.ndarray, rows, bases,
                waiting: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``at`` that are ``waiting`` one of ``bases`` answers,
        the first feasible in their order, and the images the answers give.
        ``rows`` (an array or :class:`_Rows`) gives their full rows, taken
        only where a verdict is not known yet."""
        found = np.zeros(at.size, dtype=bool)
        points = np.zeros((at.size, 2))
        slots = self.slot[at]
        self._sync()
        for k in bases:
            todo = np.flatnonzero(waiting & ~found)
            if not todo.size:
                break
            untested = todo[self.fits[slots[todo], k] < 0]
            if untested.size:
                self._feasible(slots[untested], rows[untested], k)
            hit = todo[self.fits[slots[todo], k] == 1]
            points[hit] = self.images[slots[hit], k]
            found[hit] = True
        self.projector.cached_solves += int(found.sum())
        return found, points

    def _tableau_point(self, slot: int, rhs: np.ndarray, objective) -> tuple[float, float]:
        """The objective's optimum from the slot's own tableau, built from
        its full row ``rhs`` and run through phase 1 on first use."""
        projector = self.projector
        tableau = self.tableaus.get(slot)
        if tableau is None:
            n_ub = projector._a_ub.shape[0]
            tableau = _Tableau(RateSystem(projector._a_ub, rhs[:n_ub],
                                          projector._a_eq, rhs[n_ub:]))
            projector.phase1_runs += 1
            if not tableau.phase1(FEASIBILITY_TOL):
                raise _Infeasible
            self.tableaus[slot] = tableau
        return projector._tableau_solve(tableau, objective)

    def _examine(self, at: np.ndarray, objective, bound: np.ndarray) -> np.ndarray:
        """The images of the objective's optima at those of ``at`` that are
        not infeasible, (n, 2).

        Each right-hand side is screened on its first examination.  Then
        the first cached basis, in caching order, that passes the stopping
        test and is feasible answers it.  The rest go to their tableaus one
        at a time, in decreasing bound, ties broken by row; each basis a
        tableau solve caches is then tried on those still waiting.
        """
        projector = self.projector
        points = np.zeros((at.size, 2))
        passing = np.flatnonzero(projector._passing(objective))
        waiting = np.zeros(at.size, dtype=bool)
        missed, missed_rows = [], []
        step = _READ_VALUES // self.m
        for start in range(0, at.size, step):
            block = np.arange(start, min(start + step, at.size))
            rows = _Rows(self, at[block])
            fresh = np.flatnonzero(self.slot[at[block]] < 0)
            if fresh.size:
                self.slot[at[block[fresh]]] = self.examined + np.arange(fresh.size)
                self.examined += fresh.size
                if self._screen is not None:
                    certified = fresh[self._screen(rows[fresh])]
                    self.alive[at[block[certified]]] = False
                    self.screened += certified.size
            waiting[block] = self.alive[at[block]]
            found, images = self._answer(at[block], rows, passing, waiting[block])
            points[block[found]] = images[found]
            waiting[block[found]] = False
            left = np.flatnonzero(waiting[block])
            missed.append(block[left])
            missed_rows.append(rows[left])
        missed = np.concatenate(missed) if missed else np.zeros(0, dtype=np.intp)
        if missed.size:
            rows = np.concatenate(missed_rows)
            order = sorted(range(missed.size), reverse=True,
                           key=lambda i: (bound[at[missed[i]]], rows[i].tobytes()))
            missed, rows = missed[order], rows[order]
            tried = len(projector._inverses)
            for i, j in enumerate(missed.tolist()):
                if not waiting[j]:
                    continue
                waiting[j] = False
                try:
                    points[j] = self._tableau_point(int(self.slot[at[j]]), rows[i], objective)
                except _Infeasible:
                    self.alive[at[j]] = False
                    self.infeasible += 1
                    continue
                new = np.flatnonzero(projector._passing(objective)[tried:]) + tried
                tried = len(projector._inverses)
                later = missed[i + 1:]
                found, images = self._answer(at[later], rows[i + 1:], new, waiting[later])
                points[later[found]] = images[found]
                waiting[later[found]] = False
        return points[self.alive[at]]

    def best(self, objective) -> tuple[float, float] | None:
        """The image of the objective's optimum over all right-hand sides,
        or None when every one is infeasible.

        Right-hand sides are examined in decreasing upper bound, in batches:
        the first takes those whose bound reaches the largest, each next one
        the most that reach the incumbent, up to twice as many as before,
        and a batch always takes every bound tied with its lowest.  The
        search stops when no bound left reaches the incumbent.  Among the
        examined optima the largest key wins (see :func:`_keys`), ties broken
        by the point, so every choice depends on values, not on the order
        of the right-hand sides.  Bounds are recomputed whenever a basis
        joins the cache.
        """
        weights, corner = objective
        answered = np.zeros(self.count, dtype=bool)
        best = np.zeros((0, 2))
        size, bases = 1, -1
        bound = np.full(self.count, math.inf)
        while True:
            if self.count > 1 and bases != len(self.projector._inverses):
                bases = len(self.projector._inverses)
                bound = self.upper(objective)
            open_ = self.alive & ~answered
            if len(best):
                open_ &= bound >= _keys(objective, best)[0]
            at = np.flatnonzero(open_)
            if not at.size:
                return tuple(best[0].tolist()) if len(best) else None
            if at.size > size:
                reach = bound[at]
                at = at[reach >= np.partition(reach, at.size - size)[at.size - size]]
            answered[at] = True
            points = np.concatenate([best, self._examine(at, objective, bound)])
            if len(points):
                primary, secondary = _keys(objective, points)
                best = points[np.lexsort((points[:, 1], points[:, 0], secondary, primary))[-1:]]
            size *= 2


class Projector:
    """Frontier projections of many systems that share one matrix.

    The projector holds the constraint matrix (``a_ub``, ``a_eq``) and the
    objective rows; :meth:`search` and :meth:`project` take only right-hand
    sides ``b``.  Reduced costs do not depend on ``b``, so a basis optimal
    for one system is optimal for every other whose basic solution ``B^-1
    b`` is nonnegative, and its duals ``c_B B^-1`` bound every system's
    optimum (weak duality, see :meth:`_Union.upper`).  The projector caches
    each basis a tableau solve ends in, with ``B^-1``, the duals and reduced
    costs of both objective rows and the rows of the basic variables in
    them.  An objective is answered for a system by the first cached basis,
    in caching order, that passes the test the simplex stops on (reduced
    costs ``>= -tol``; for a corner lexicographically: the secondary's on
    the primary's optimal face) and whose basic solution is nonnegative up
    to ``BASIS_TOL``.  Any other objective goes to the system's own
    warm-started tableau, built from ``b`` on the first miss; it runs phase
    1 first and so decides feasibility, and the basis it ends in joins the
    cache.
    """

    def __init__(
        self,
        a_ub: np.ndarray,
        a_eq: np.ndarray,
        r1_row: Sequence[float],
        r2_row: Sequence[float],
    ) -> None:
        self._a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        n_ub, n = self._a_ub.shape
        self._a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        a = np.vstack([self._a_ub, self._a_eq])
        # columns: the variables, then one slack per inequality row
        self._matrix = np.hstack([a, np.eye(a.shape[0], n_ub)])
        self.r1_row = np.asarray(r1_row, dtype=float)
        self.r2_row = np.asarray(r2_row, dtype=float)
        self._rows = np.zeros((2, self._matrix.shape[1]))
        self._rows[:, :n] = self.r1_row, self.r2_row
        # Weak-duality constants (see _Union.upper): the bound on the sum
        # of the variables per max b, and per objective row the nonnegative
        # inequality row that covers it, if any, with the fewest nonzeros.
        nonneg = np.all(a >= 0.0, axis=1)
        largest = np.where(nonneg[:, np.newaxis], a, 0.0).max(axis=0)
        bounded = nonneg[:n_ub].all() and np.all(largest > 0.0)
        self._sum_scale = float((1.0 / largest).sum()) if bounded else math.inf
        cover = []
        for row in (self.r1_row, self.r2_row):
            fits = nonneg[:n_ub] & np.all(self._a_ub >= row, axis=1)
            fits = np.flatnonzero(fits)
            if fits.size:
                cover.append(int(fits[np.argmin(np.count_nonzero(self._a_ub[fits], axis=1))]))
        self._cover = cover if len(cover) == 2 else None
        self._keys: set[bytes] = set()
        self._inverses: list[np.ndarray] = []
        self._carriers: list[tuple[np.ndarray, np.ndarray]] = []
        self._spread: list[float] = []
        self._dual_rows = np.zeros((0, 2, a.shape[0]))
        self._reduced = np.zeros((0, 2, self._matrix.shape[1]))
        self._corners = np.zeros((0, 2), dtype=bool)
        self.phase1_runs = self.cached_solves = self.tableau_solves = 0

    @property
    def counts(self) -> dict:
        """LP work so far: phase-1 runs, objectives answered from the cache
        and by a tableau, and bases cached."""
        return {
            "phase1_runs": self.phase1_runs,
            "cached_solves": self.cached_solves,
            "tableau_solves": self.tableau_solves,
            "bases_cached": len(self._inverses),
        }

    def _remember(self, tableau: _Tableau) -> None:
        if not tableau.complete:
            return
        basis = tableau.variables[tableau.basis]
        key = np.sort(basis).tobytes()
        if key in self._keys:
            return
        self._keys.add(key)
        inverse = tableau.basis_inverse()
        costs = -self._rows  # the tableau minimizes the negated objective
        reduced = costs - (costs[:, basis] @ inverse) @ self._matrix
        tol = FEASIBILITY_TOL
        corners = [
            bool(np.all(reduced[p] >= -tol) and np.all(reduced[s][reduced[p] <= tol] >= -tol))
            for p, s in ((0, 1), (1, 0))
        ]
        self._inverses.append(inverse)
        images = self._rows[:, basis].T
        carriers = np.flatnonzero(images.any(axis=1))
        self._carriers.append((inverse[carriers], images[carriers][np.newaxis]))
        # Two roundings of a dot product of length m differ by at most
        # 2 m u |B^-1| |b| (u = eps / 2), bounded by this times max |b|.
        self._spread.append(
            len(inverse) * np.finfo(float).eps * np.abs(inverse).sum(axis=1).max())
        duals = self._rows[:, basis] @ inverse
        self._dual_rows = np.concatenate([self._dual_rows, duals[np.newaxis]])
        self._reduced = np.concatenate([self._reduced, reduced[np.newaxis]])
        self._corners = np.concatenate([self._corners, [corners]])

    def _priced(self, objective) -> np.ndarray:
        """Each cached basis's reduced costs of the objective's primary row
        (the weighted row of a segment), (bases, columns)."""
        weights, corner = objective
        if weights is None:
            return self._reduced[:, corner]
        return weights[0] * self._reduced[:, 0] + weights[1] * self._reduced[:, 1]

    def _passing(self, objective) -> np.ndarray:
        """Which cached bases pass the simplex's stopping test for the
        objective, (bases,)."""
        weights, corner = objective
        if weights is None:
            return self._corners[:, corner]
        return self._priced(objective).min(axis=1, initial=0.0) >= -FEASIBILITY_TOL

    def _duals(self, objective) -> list[tuple[np.ndarray, float]]:
        """The dual vectors that bound the objective, each with its
        ``delta``: those of the passing bases, then the covering rows'."""
        weights, corner = objective
        if weights is None:
            duals = self._dual_rows[:, corner]
        else:
            duals = weights[0] * self._dual_rows[:, 0] + weights[1] * self._dual_rows[:, 1]
        delta = -self._priced(objective).min(axis=1, initial=0.0)
        out = [(duals[k], float(delta[k])) for k in np.flatnonzero(self._passing(objective))]
        if self._cover is not None:
            y = np.zeros(self._dual_rows.shape[2])
            if weights is None:
                y[self._cover[corner]] = 1.0
            else:
                y[self._cover[0]] += weights[0]
                y[self._cover[1]] += weights[1]
            out.append((y, 0.0))
        return out

    def _tableau_solve(self, tableau: _Tableau, objective) -> tuple[float, float]:
        """Image of an optimum of the objective from a tableau past phase 1;
        the basis the solve ends in joins the cache."""
        tol = FEASIBILITY_TOL
        r1_row, r2_row = self.r1_row, self.r2_row
        weights, corner = objective
        if weights is None:
            rows = (r1_row, r2_row)
            if tableau.maximize(rows[corner], tol) != "optimal":
                raise SolverFailure("projection unbounded along a corner objective")
            face = tableau.optimal_face(tol)
            if tableau.maximize(rows[1 - corner], tol, face) != "optimal":
                raise SolverFailure("lexicographic refinement failed")
        elif tableau.maximize(weights[0] * r1_row + weights[1] * r2_row, tol) != "optimal":
            raise SolverFailure("projection unbounded along a segment normal")
        self.tableau_solves += 1
        self._remember(tableau)
        x = tableau.solution(tol)
        return max(float(r1_row @ x), 0.0), max(float(r2_row @ x), 0.0)

    def search(self, count: int, bounds, screen=None) -> tuple[list, dict]:
        """The dichotomic vertices of the union of ``count`` systems'
        projections, and how many systems were examined, screened and found
        infeasible by phase 1.

        Exact, by the bicriteria dichotomic search (Aneja & Nair 1979) run
        once over the union: solve the two lexicographic corners, then
        maximize along the normal of each segment between adjacent known
        vertices; a point above the segment is a new vertex and splits it,
        otherwise the segment is a frontier edge.  The optimum of each
        objective over the union is found by :meth:`_Union.best`, which
        examines only the systems whose weak-duality bound reaches the best
        optimum found.  The vertices are neither sorted nor pruned, and
        empty when every system is infeasible.

        ``bounds(at, columns)`` gives the right-hand sides of the systems
        ``at`` (an index array, or a slice for all), only the given columns
        of them, or whole rows for ``columns`` None; every value the search
        reads is checked finite first, and a non-finite one is a
        ValueError.  ``screen(rows)``, if given, marks whole rows that are
        certainly infeasible; they count as examined and screened.  A
        SolverFailure ends the search.
        """
        union = _Union(self, count, bounds, screen)
        steps = _dichotomic(FEASIBILITY_TOL)
        objective = next(steps)
        vertices: list[tuple[float, float]] = []
        try:
            while (point := union.best(objective)) is not None:
                objective = steps.send(point)
        except StopIteration as stop:
            vertices = stop.value
        return vertices, {"examined": union.examined, "screened": union.screened,
                          "infeasible": union.infeasible}

    def project(self, rhs: np.ndarray) -> Frontier:
        """Pareto frontier of the image of the system with right-hand side
        ``rhs`` (the inequality bounds, then the equality values) under the
        objective rows: :meth:`search` over that one system, without a
        screen, so phase 1 decides feasibility.  Infeasible systems give an
        empty frontier, with ``metadata["infeasible"]`` set.  A non-finite
        ``rhs`` is a ValueError, raised before any cached basis could turn
        it into a point.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self._matrix.shape[0],):
            raise ValueError(f"right-hand sides must have {self._matrix.shape[0]} entries")
        vertices, _ = self.search(
            1, lambda at, columns: (rhs if columns is None else rhs[columns])[np.newaxis])
        return Frontier(points=_pareto_prune(vertices), metadata={"infeasible": not vertices})


def project_frontier(
    system: RateSystem,
    r1_row: Sequence[float],
    r2_row: Sequence[float],
) -> Frontier:
    """Pareto frontier of the polytope's image under (r1_row, r2_row).

    See :meth:`Projector.project`.  The projection starts from an empty
    cache, so phase 1 runs once and every later objective warm-starts from
    the previous optimal basis or reuses one of this projection's own.
    """
    projector = Projector(system.a_ub, system.a_eq, r1_row, r2_row)
    return projector.project(np.concatenate([system.b_ub, system.b_eq]))


def grid_feasibility_oracle(
    system: RateSystem,
    r1_row: Sequence[float],
    r2_row: Sequence[float],
    pitch: float,
) -> frozenset[tuple[float, float]]:
    """LP-feasible points of a pitch-spaced grid over the projection's box.

    Brute-force comparison target for :func:`project_frontier`: each grid
    point is pinned through two equality rows and tested for feasibility.
    """
    if not pitch > 0:
        raise ValueError("pitch must be positive")
    r1_row = np.asarray(r1_row, dtype=float)
    r2_row = np.asarray(r2_row, dtype=float)
    res1 = lp_solve(system, r1_row)
    if res1.status == "infeasible":
        return frozenset()
    res2 = lp_solve(system, r2_row)
    if res1.status != "optimal" or res2.status != "optimal":
        raise SolverFailure("projection box is unbounded")
    zero = np.zeros(system.dim)
    feasible = set()
    for i in range(int(res1.value / pitch + 1e-9) + 1):
        for j in range(int(res2.value / pitch + 1e-9) + 1):
            target = (i * pitch, j * pitch)
            pinned = system.with_equalities([r1_row, r2_row], list(target))
            if lp_solve(pinned, zero).status == "optimal":
                feasible.add(target)
    return frozenset(feasible)
