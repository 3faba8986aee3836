"""Small dense linear programs and rate-polytope projections.

Everything here is sized for systems of ten variables and about a hundred
constraints, so the solver is a plain dense two-phase simplex with Bland's
anti-cycling pivot rule: deterministic, no sparsity, no scaling tricks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

import numpy as np

# Feasibility / pivot tolerance for the simplex.
FEASIBILITY_TOL = 1e-9
# Points closer than this in either coordinate are treated as ties when
# pruning Pareto sets.
PARETO_EPS = 1e-12

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


class SolverFailure(RuntimeError):
    """The pivot sequence stalled or behaved inconsistently."""


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


# Inputs of at least this many points are first cut to their records in
# numpy (see ``_records``).  Shorter ones, such as the vertices of one
# projection or of a hull, go straight to the loop, which at that size
# costs less than numpy's per-call overhead.
_RECORD_FILTER_MIN = 64


def _records(points: np.ndarray) -> list[tuple[float, float]]:
    """The strict records of an (n, 2) array of points: taken in
    decreasing (r1, r2) order, the points whose r2 exceeds that of every
    point before them.  Of points that compare equal (``-0.0 == 0.0``) the
    first occurrence is the one that can be a record."""
    rev = points[::-1]
    # a stable sort of the reversed input, reversed again: decreasing
    # (r1, r2), ties in input order
    order = np.lexsort((rev[:, 1], rev[:, 0]))[::-1]
    r2 = rev[order, 1]
    record = np.empty(len(r2), dtype=bool)
    record[0] = True
    np.greater(r2[1:], np.maximum.accumulate(r2)[:-1], out=record[1:])
    return rev[order[record]].tolist()


def _pareto_prune(
    points: Collection, eps: float = PARETO_EPS
) -> tuple[tuple[float, float], ...]:
    """Drop dominated and tie-duplicated points; result has strictly
    increasing r1 and strictly decreasing r2.

    ``points`` holds finite (r1, r2) pairs, as pairs or as an (n, 2) array.
    A long input is first cut to its strict records (:func:`_records`).
    That loses nothing: the loop below visits points in decreasing order,
    and a point that is no record has r2 <= r2 of a point visited before
    it, which is <= ``best + eps``, so the loop skips it without moving
    ``best``.
    """
    if len(points) >= _RECORD_FILTER_MIN:
        points = _records(np.asarray(points, dtype=float).reshape(-1, 2))
    pts = sorted(set((float(a), float(b)) for a, b in points))
    kept: list[tuple[float, float]] = []
    best = -math.inf
    for r1, r2 in reversed(pts):
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


class _Infeasible(Exception):
    """Phase 1 found no feasible point."""


# Right-hand sides whose lookups one pass of :meth:`Projector.project_block`
# answers together.  A pass tests every cached basis against its window
# with one (93, 93) @ (93, W) product per basis.  OpenBLAS splits a product
# over threads only past a size threshold (4 * 65536 multiply-adds per
# thread in its sources); at W = 24 a product is 207 576, so a pass stays
# on one thread.  Measured with OpenBLAS 0.3.31 on a 2-CPU host: CPU time
# equals wall time up to W = 64 and doubles it from W = 128 on.
BLOCK_WINDOW = 24


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


class _Search:
    """The dichotomic search of one right-hand side, paused at its next
    ``objective`` (None once done); its ``vertices`` stay empty when phase 1
    finds the system infeasible."""

    def __init__(self, rhs: np.ndarray) -> None:
        self.rhs = rhs
        self.images: dict[int, tuple[float, float]] = {}  # cached basis -> image
        self.tableau: _Tableau | None = None
        self.vertices: list[tuple[float, float]] = []
        self._steps = _dichotomic(FEASIBILITY_TOL)
        self.objective = next(self._steps)

    def answer(self, point: tuple[float, float]) -> None:
        try:
            self.objective = self._steps.send(point)
        except StopIteration as stop:
            self.objective, self.vertices = None, stop.value


class Projector:
    """Frontier projections of many systems that share one matrix.

    The projector holds the constraint matrix (``a_ub``, ``a_eq``) and the
    objective rows; :meth:`project` and :meth:`project_block` take only
    right-hand sides ``b``.  Reduced costs do not depend on ``b``, so a
    basis optimal for one system is optimal for every other whose basic
    solution ``B^-1 b`` is nonnegative.  The projector caches each basis a
    tableau solve ends in, with ``B^-1``, the reduced costs of both
    objective rows and the rows of the basic variables in them.  An
    objective is answered by the first cached basis, in caching order, that
    passes the test the simplex stops on (reduced costs ``>= -tol``; for a
    corner lexicographically: the secondary's on the primary's optimal face)
    and whose basic solution is nonnegative up to ``BASIS_TOL``.  Any other
    objective goes to the system's own warm-started tableau, built from
    ``b`` on the first miss; it runs phase 1 first and so decides
    feasibility, and the basis it ends in joins the cache.  The result thus
    depends only on the sequence of right-hand sides projected, not on how
    it is split into blocks.
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
        self._keys: set[bytes] = set()
        self._inverses: list[np.ndarray] = []
        self._images: list[np.ndarray] = []
        self._spread: list[float] = []
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
        self._images.append(self._rows[:, basis].T.copy())
        # Two roundings of a dot product of length m differ by at most
        # 2 m u |B^-1| |b| (u = eps / 2), bounded by this times max |b|.
        self._spread.append(
            len(inverse) * np.finfo(float).eps * np.abs(inverse).sum(axis=1).max())
        self._reduced = np.concatenate([self._reduced, reduced[np.newaxis]])
        self._corners = np.concatenate([self._corners, [corners]])

    def _feasible(self, rows: np.ndarray, known: np.ndarray) -> np.ndarray:
        """Which cached bases are feasible for each of ``rows``, (bases,
        rows): ``known``, the answer for the first bases, extended to all.

        One product per basis tests the whole window.  It may round apart
        from the one-row product :meth:`_image` uses; where the difference
        could flip the verdict, the one-row product decides, so a verdict
        never depends on the window.
        """
        have, total = len(known), len(self._inverses)
        if have == total:
            return known
        scale = np.abs(rows).max(axis=1)
        lowest = np.array([(inverse @ rows.T).min(axis=0) for inverse in self._inverses[have:]])
        extra = lowest >= -BASIS_TOL
        unsure = np.abs(lowest + BASIS_TOL) <= np.multiply.outer(self._spread[have:total], scale)
        for i, j in zip(*np.nonzero(unsure)):
            extra[i, j] = (self._inverses[have + i] @ rows[j]).min() >= -BASIS_TOL
        return np.concatenate([known, extra])

    def _optimal(self, objectives: list) -> np.ndarray:
        """Which cached bases pass the simplex's stopping test for each
        objective, (bases, objectives)."""
        optimal = self._corners[:, [corner for _, corner in objectives]]
        segment = [i for i, (weights, _) in enumerate(objectives) if weights is not None]
        if segment:
            w = np.array([objectives[i][0] for i in segment])
            reduced = self._reduced[:, np.newaxis]
            priced = w[:, 0, None] * reduced[:, :, 0] + w[:, 1, None] * reduced[:, :, 1]
            optimal[:, segment] = priced.min(axis=2) >= -FEASIBILITY_TOL
        return optimal

    def _image(self, k: int, rows: np.ndarray) -> list[tuple[float, float]]:
        """Image of cached basis k's basic solution for each of ``rows``.

        ``B^-1 b`` is one matrix-vector product per row, the same product
        for a row whatever the other rows are, so an image never depends
        on the window."""
        values = np.matmul(self._inverses[k], rows[:, :, np.newaxis])
        np.maximum(values, 0.0, out=values)
        images = np.matmul(values.transpose(0, 2, 1), self._images[k])[:, 0]
        return [(max(r1, 0.0), max(r2, 0.0)) for r1, r2 in images.tolist()]

    def _tableau_solve(self, search: _Search) -> tuple[float, float]:
        """Image of an optimum of the search's objective from its own
        tableau, built and run through phase 1 on its first miss; the basis
        the solve ends in joins the cache."""
        tol = FEASIBILITY_TOL
        r1_row, r2_row = self.r1_row, self.r2_row
        weights, corner = search.objective
        tableau = search.tableau
        if tableau is None:
            n_ub, rhs = self._a_ub.shape[0], search.rhs
            system = RateSystem(self._a_ub, rhs[:n_ub], self._a_eq, rhs[n_ub:])
            tableau = search.tableau = _Tableau(system)
            self.phase1_runs += 1
            if not tableau.phase1(tol):
                raise _Infeasible
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

    def _rounds(self, searches: list[_Search], rows: np.ndarray, feasible: np.ndarray,
                *, tableau: bool) -> np.ndarray:
        """Answer the searches' objectives round by round, one lookup over
        all of them per round, until each search is done or paused.

        ``rows`` are the searches' right-hand sides and ``feasible`` which
        cached bases are known feasible for them; it is returned extended
        to every basis cached meanwhile.  An objective no cached basis
        answers goes to the search's tableau with ``tableau`` set, and
        otherwise leaves the search paused at it.
        """
        active = [i for i, search in enumerate(searches) if search.objective is not None]
        while active:
            feasible = self._feasible(rows, feasible)
            hit = self._optimal([searches[i].objective for i in active]) & feasible[:, active]
            if len(hit):
                first = hit.argmax(axis=0)
                found = hit[first, np.arange(len(active))]
            else:
                first = found = np.zeros(len(active), dtype=np.intp)
            first, found = first.tolist(), found.tolist()
            # the images this round needs, one product per basis
            needed: dict[int, list[int]] = {}
            for i, k, ok in zip(active, first, found):
                if ok and k not in searches[i].images:
                    needed.setdefault(k, []).append(i)
            for k, group in needed.items():
                for i, point in zip(group, self._image(k, rows[group])):
                    searches[i].images[k] = point
            still = []
            for i, k, ok in zip(active, first, found):
                search = searches[i]
                if ok:
                    self.cached_solves += 1
                    search.answer(search.images[k])
                elif not tableau:
                    continue
                else:
                    try:
                        search.answer(self._tableau_solve(search))
                    except _Infeasible:
                        search.objective = None
                if search.objective is not None:
                    still.append(i)
            active = still
        return feasible

    def project_block(
        self, rows: np.ndarray
    ) -> list[list[tuple[float, float]] | SolverFailure]:
        """The dichotomic vertices of each row of ``rows``, (n, m), in
        order: a list of (r1, r2) image points, empty when the row's system
        is infeasible, or the SolverFailure its projection raised.  The
        vertices are neither sorted nor pruned; :meth:`project` turns one
        row's into a :class:`Frontier`.

        Answers equal those of one call per row.  Each window of
        ``BLOCK_WINDOW`` rows is run against the cache as it stands, every
        round of the dichotomic searches one lookup for the whole window; a
        search that misses pauses at that objective.  Then
        the first paused search, in row order, resumes alone with its
        tableau, which caches the bases it ends in, and the other paused
        searches run against the grown cache again; this repeats until all
        are done, or until such a pass finishes none of them, after which
        they resume one by one.  New bases join the cache after every
        basis already there, so the basis that answered an objective
        before would answer it after, and a search meets the bases of the
        rows before it whenever it misses.  Any non-finite entry is a
        ValueError, raised before any cached basis could turn a row into a
        point.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self._matrix.shape[0]:
            raise ValueError(f"right-hand sides must have {self._matrix.shape[0]} entries")
        if not np.all(np.isfinite(rows)):
            raise ValueError("constraint data must be finite")
        results: list[list[tuple[float, float]] | SolverFailure] = []
        for start in range(0, len(rows), BLOCK_WINDOW):
            window = rows[start:start + BLOCK_WINDOW]
            searches = [_Search(rhs) for rhs in window]
            failures: dict[int, SolverFailure] = {}
            paused = list(range(len(window)))
            feasible = np.zeros((0, len(window)), dtype=bool)
            speculate = True
            while paused:
                if speculate:
                    feasible = self._rounds([searches[j] for j in paused], window[paused],
                                            feasible, tableau=False)
                    left = [i for i, j in enumerate(paused) if searches[j].objective is not None]
                    # Once a pass after a resumed search finishes none of
                    # the others, the cache is not catching up with the
                    # window: the rest resume in turn without more passes.
                    speculate = len(left) < len(paused) or len(paused) == len(window)
                    paused, feasible = [paused[i] for i in left], feasible[:, left]
                    if not paused:
                        break
                first = paused.pop(0)
                try:
                    self._rounds([searches[first]], window[first:first + 1], feasible[:, :1],
                                 tableau=True)
                except SolverFailure as exc:
                    failures[first] = exc
                feasible = feasible[:, 1:]
            results += [failures.get(j, search.vertices) for j, search in enumerate(searches)]
        return results

    def project(self, rhs: np.ndarray) -> Frontier:
        """Pareto frontier of the image of the system with right-hand side
        ``rhs`` (the inequality bounds, then the equality values) under the
        objective rows.

        Exact, by the bicriteria dichotomic search (Aneja & Nair 1979):
        solve the two lexicographic corners, then maximize along the normal
        of each segment between adjacent known vertices; a point above the
        segment is a new vertex and splits it, otherwise the segment is a
        frontier edge.  Infeasible systems give an empty frontier, with
        ``metadata["infeasible"]`` set.  A non-finite ``rhs`` is a
        ValueError, raised before any cached basis could turn it into a
        point.  A block of one: see :meth:`project_block`.
        """
        [vertices] = self.project_block(np.asarray(rhs, dtype=float)[np.newaxis])
        if isinstance(vertices, SolverFailure):
            raise vertices
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


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull vertices (monotone chain); collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


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
