"""Frontier checks against the stored references.

A frontier CSV (``r1_bits,r2_bits``) describes a down-closed convex region,
so it is compared through its support function at ``ANGLES`` fixed angles
in [0, pi/2].  Two references per workload and seed live in ``refs/``:

- ``<workload>/seed<k>.csv``: the frontier the program wrote when the
  references were made.  The output may not fall short of it anywhere.
- ``<workload>/upper.json``: the support of unlimited time sharing over the
  workload's state grid under the average power budgets, computed with
  scipy HiGHS from ``mi_covariance_oracle`` bounds (see ``make_refs.py``).
  The output may not rise above it anywhere.

Workloads without an upper reference (the closed-form ``ctdma`` one) are
checked two-sided against the stored CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"
ANGLES = np.linspace(0.0, 0.5 * math.pi, 33)
LOWER_TOL = 1e-7   # the CSV prints nine significant digits
UPPER_TOL = 1e-6   # HiGHS primal/dual feasibility tolerance is 1e-7


def read_csv(path: Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "r1_bits,r2_bits":
        raise ValueError(f"{path}: not a frontier CSV")
    points = [tuple(float(v) for v in line.split(",")) for line in lines[1:] if line]
    return np.array(points, dtype=float).reshape(-1, 2)


def support(points: np.ndarray) -> np.ndarray:
    """max over points of cos(t) r1 + sin(t) r2, at every angle t."""
    if not len(points):
        return np.full(ANGLES.size, -math.inf)
    dirs = np.stack([np.cos(ANGLES), np.sin(ANGLES)], axis=1)
    return (dirs @ points.T).max(axis=1)


def ref_csv(workload: str, index: int) -> Path:
    return REFS / workload / f"seed{index}.csv"


def load_upper(workload: str, index: int) -> np.ndarray | None:
    path = REFS / workload / "upper.json"
    if not path.exists():
        return None
    return np.array(json.loads(path.read_text())[str(index)], dtype=float)


@dataclass(frozen=True)
class Check:
    """Outcome of one frontier check; all values in bits."""

    deficit: float     # largest shortfall below the lower reference
    overclaim: float   # largest excess above the upper reference
    coverage: float    # min over angles of output / lower-reference support
    ok: bool


def check(workload: str, index: int, csv_path: Path) -> Check:
    out = support(read_csv(csv_path))
    lower = support(read_csv(ref_csv(workload, index)))
    upper, upper_tol = load_upper(workload, index), UPPER_TOL
    if upper is None:
        upper, upper_tol = lower, LOWER_TOL
    deficit = max(float(np.max(lower - out)), 0.0)
    overclaim = max(float(np.max(out - upper)), 0.0)
    positive = lower > 0
    coverage = float(np.min(out[positive] / lower[positive])) if positive.any() else 1.0
    ok = deficit <= LOWER_TOL and overclaim <= upper_tol
    return Check(deficit, overclaim, coverage, ok)
