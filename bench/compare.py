"""Compare a parent's and a change's result sets written by ``run.py --save``.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

One row per workload and end-to-end metric: each side's median and
quartiles over its runs, and a verdict under the bounds in BENCHMARK.json:

- regressed: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
- improved: the change wins at least nine tenths of the runs paired by
  seed, and the medians differ by more than the parent's quartile distance
  (or, under a wide spread, every change run beats every parent run);
- unchanged: otherwise.

Traced runs are summarized below as per-layer medians and their deltas;
a layer metric that one side left out (its entry point was missing from
the program) is shown as not measured rather than as a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result records in {directory}")
    return records


def series(records: list[dict], workload: str, trace: int, metric: str):
    """(seed, value) of every run of a workload that reported the metric."""
    out = [(r["seed"], r["metrics"][metric]["value"]) for r in records
           if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]]
    return sorted(out)


def verdict(spec: dict, parent: list, change: list) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_vals, c_vals = [v for _, v in parent], [v for _, v in change]
    q1, pm, q3 = quartiles(p_vals)
    cm = statistics.median(c_vals)
    scale = abs(pm) or 1.0
    spread = (q3 - q1) / scale
    worse = sign * (cm - pm) / scale
    all_better = max(sign * v for v in c_vals) < min(sign * v for v in p_vals)
    if spread > spec["bound"]:
        return "improved" if all_better else "unresolved"
    if worse > spec["bound"]:
        return "regressed"
    parent_by_seed = dict(parent)
    pairs = [(parent_by_seed[s], v) for s, v in change if s in parent_by_seed]
    if len(pairs) < min(len(parent), len(change)):
        pairs = list(zip(p_vals, c_vals))   # seeds differ: pair in order
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > q3 - q1:
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    for label, records in (("parent", parent), ("change", change)):
        host = records[0]["machine"]
        print(f"{label}: {len(records)} runs, commit {host['gicee_commit']}, "
              f"src {host['src_sha256'][:12]}, {host['nproc']} CPUs {host['cpu_model']}")

    def fmt(values):
        q1, q2, q3 = quartiles([v for _, v in values])
        return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

    print(f"\n{'workload':16s} {'metric':20s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            p = series(parent, w["name"], 0, m["name"])
            c = series(change, w["name"], 0, m["name"])
            if not p or not c:
                continue
            pm, cm = statistics.median(v for _, v in p), statistics.median(v for _, v in c)
            delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
            print(f"{w['name']:16s} {m['name']:20s} {fmt(p):34s} {fmt(c):34s} "
                  f"{delta:>8s}  {verdict(m, p, c)}")

    print(f"\nper-layer medians of traced runs\n{'workload':16s} {'metric':26s} "
          f"{'parent':>12s} {'change':>12s} {'delta':>12s}")
    for w in spec["workloads"]:
        for m in spec["per_layer"]:
            p = series(parent, w["name"], 1, m["name"])
            c = series(change, w["name"], 1, m["name"])
            if not p and not c:
                continue
            if not p or not c:
                side = "parent" if not p else "change"
                print(f"{w['name']:16s} {m['name']:26s} not measured in the {side}")
                continue
            pm, cm = statistics.median(v for _, v in p), statistics.median(v for _, v in c)
            rel = f"{(cm - pm) / abs(pm):+.1%}" if pm else ""
            print(f"{w['name']:16s} {m['name']:26s} {pm:12.5g} {cm:12.5g} {cm - pm:+12.5g} {rel:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
