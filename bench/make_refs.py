"""Write the reference frontiers under ``refs/`` for every workload and seed.

    python3 bench/make_refs.py

Run from the repository root at the commit whose output is the reference.
All workloads are regenerated together, so that every stored reference
comes from the same commit.
For each seed jitter it stores the CSV the program writes (the lower
reference) and, for the region workloads, the support of unlimited time
sharing over the workload's state grid (the upper reference).  The upper
bound uses scipy HiGHS and ``mi_covariance_oracle``, both independent of
the program's closed-form bounds and its simplex.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from frontier import ANGLES, REFS, ref_csv  # noqa: E402
from workloads import CHANNEL_FLAGS, REF_SEEDS, WORKLOADS  # noqa: E402

from gicee import ChannelParams, mi_covariance_oracle, single_power_states  # noqa: E402
from gicee.gaussmi import DECODABLE, SignalIndex  # noqa: E402

# Rate variables: a message and a randomization rate for the common and
# self parts of each user, and a randomization rate alone for the "other"
# parts, whose message rates are zero.
_MSG = {SignalIndex.C1: 0, SignalIndex.S1: 2, SignalIndex.C2: 5, SignalIndex.S2: 7}
_RAND = {SignalIndex.C1: 1, SignalIndex.S1: 3, SignalIndex.O1: 4,
         SignalIndex.C2: 6, SignalIndex.S2: 8, SignalIndex.O2: 9}
_NX = 10


def _rows():
    """(receiver, subset, row) of every bound; the last is the equality."""
    out = []
    for receiver in ("y1", "y2", "ye"):
        ground = sorted(DECODABLE[receiver])
        for size in range(1, len(ground) + 1):
            for subset in combinations(ground, size):
                if receiver == "ye" and size == len(ground):
                    continue
                row = np.zeros(_NX)
                for i in subset:
                    row[_RAND[i]] = 1.0
                    if receiver != "ye" and i in _MSG:
                        row[_MSG[i]] = 1.0
                out.append((receiver, subset, row))
    full = sorted(DECODABLE["ye"])
    eq = np.zeros(_NX)
    eq[[_RAND[i] for i in full]] = 1.0
    out.append(("ye", tuple(full), eq))
    return out


def upper_support(channel: ChannelParams, states) -> list[float]:
    """Support, at every check angle, of unlimited time sharing over
    ``states`` under the channel's average power budgets."""
    rows = _rows()
    bounds = np.array([
        [mi_covariance_oracle(channel, s, rx, subset) for s in states]
        for rx, subset, _ in rows
    ])
    a = np.array([row for _, _, row in rows])
    n = len(states)
    # Variables [x (10 rates), w (one weight per state)].
    a_ub = np.hstack([a[:-1], -bounds[:-1]])
    power = np.array([[s.pc1 + s.ps1 + s.po1 + s.pj1 for s in states],
                      [s.pc2 + s.ps2 + s.po2 + s.pj2 for s in states]])
    a_ub = np.vstack([a_ub, np.hstack([np.zeros((2, _NX)), power])])
    b_ub = np.concatenate([np.zeros(len(rows) - 1), [channel.p1, channel.p2]])
    a_eq = np.vstack([
        np.concatenate([a[-1], -bounds[-1]]),
        np.concatenate([np.zeros(_NX), np.ones(n)]),
    ])
    b_eq = np.array([0.0, 1.0])
    r1 = np.zeros(_NX + n)
    r1[[_MSG[SignalIndex.C1], _MSG[SignalIndex.S1]]] = 1.0
    r2 = np.zeros(_NX + n)
    r2[[_MSG[SignalIndex.C2], _MSG[SignalIndex.S2]]] = 1.0
    values = []
    for theta in ANGLES:
        c = np.cos(theta) * r1 + np.sin(theta) * r2
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed at angle {theta}: {res.message}")
        values.append(float(-res.fun))
    return values


def state_grid(workload, channel: ChannelParams):
    """Every state of the workload's per-state grids, for spans 1..states."""
    budgets = (channel.p1, channel.p2)
    grid = {}
    for span in range(1, workload.states + 1):
        for s in single_power_states(workload.variant, budgets, workload.steps, span):
            grid[s] = None
    return list(grid)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    env.pop("GICEE_WORKERS", None)
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        (REFS / name).mkdir(parents=True, exist_ok=True)
        upper = {}
        for index in range(REF_SEEDS):
            with tempfile.TemporaryDirectory(prefix=".bench-", dir=Path.cwd()) as tmp:
                out = str(Path(tmp) / "out.csv")
                subprocess.run([sys.executable, "-m", "gicee.cli",
                                *workload.argv(index, out)], env=env, check=True)
                shutil.copyfile(out, ref_csv(name, index))
            if workload.command == "region":
                channel = ChannelParams(**dict(zip(CHANNEL_FLAGS, workload.channel(index))))
                upper[str(index)] = upper_support(channel, state_grid(workload, channel))
            print(f"{name} seed {index} done", flush=True)
        if upper:
            (REFS / name / "upper.json").write_text(json.dumps(upper, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        raise SystemExit("usage: python3 bench/make_refs.py (no arguments)")
    sys.exit(main())
