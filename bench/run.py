"""End-to-end and per-layer benchmark of the ``gicee`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save DIR]

Run from the repository root; the program is taken from ``src/``.  Each
workload (see ``workloads.py``) is one ``gicee`` command run as a fresh
process, one at a time, with ``GICEE_WORKERS`` unset so the pool takes its
default size.  Every frontier the program writes is checked against the
references in ``refs/`` (see ``frontier.py``).

``--trace 0`` repeats the command for about S seconds and reports the
end-to-end metrics: median wall, CPU (process plus pool children) and
peak RSS per run, the median of several interpreter-plus-import set-up
times, the share of runs that succeed and the frontier coverage.

``--trace 1`` runs the command three times: once as above, once serially
(``GICEE_WORKERS=1``) and once serially under ``tracer.py``, which records
a span around each layer's entry points.  It reports per-layer counts,
times and self times; the self times plus ``trace.unattributed_s`` add up
to the traced wall time.  An entry point the program no longer has is
printed as ``trace.missing: NAME``, and the metrics that read it are left
out rather than reported as 0.

Human-readable lines come first; the last line of standard output is the
JSON result.  ``--save DIR`` also writes the full record, with every
sample and the machine description, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import frontier  # noqa: E402
from workloads import REF_SEEDS, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPS = 7
DEADLINE_S = 170.0
SETUP_CODE = "import time, gicee.cli; print(time.monotonic())"


@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    children: int   # most child processes seen at once (0 unless watched)
    stderr: str


def program_env(workers: int | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GICEE_WORKERS", None)
    if workers is not None:
        env["GICEE_WORKERS"] = str(workers)
    return env


def _count_children(pid: int) -> int:
    count = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            count += 1
    return count


class Runner:
    """Starts one program process at a time and reaps it with its usage."""

    def __init__(self, deadline: float, workdir: Path) -> None:
        self.deadline = deadline
        self.workdir = workdir

    def run(self, argv: list[str], env: dict, *, watch: bool = False,
            stdout=subprocess.DEVNULL) -> Run:
        """Run ``argv`` to completion; the process group is killed at the
        deadline and always reaped.  ``watch`` polls /proc for its children."""
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=err,
                                    start_new_session=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                _kill_group, (proc.pid,))
        timer.start()
        peak, stop = [0], threading.Event()
        watcher = None
        if watch:
            def poll() -> None:
                while not stop.wait(0.1):
                    peak[0] = max(peak[0], _count_children(proc.pid))
            watcher = threading.Thread(target=poll)
            watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            timer.cancel()
            stop.set()
            if watcher is not None:
                watcher.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)   # strays left by a crashed pool, if any
        return Run(
            code=proc.returncode, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
            children=peak[0], stderr=err_path.read_text()[-2000:],
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def measure_setup(runner: Runner, reps: int) -> list[float]:
    """Seconds from process start until ``gicee.cli`` and its imports are
    loaded; one unrecorded warm-up first fills the bytecode cache."""
    env, out = program_env(None), runner.workdir / "setup.txt"
    values = []
    for _ in range(reps + 1):
        with open(out, "w") as fh:
            start = time.monotonic()
            run = runner.run([sys.executable, "-c", SETUP_CODE], env, stdout=fh)
        if run.code != 0:
            raise RuntimeError(f"import of gicee failed:\n{run.stderr}")
        values.append(float(out.read_text()) - start)
    return values[1:]


def cli_argv(workload, seed: int, out: Path) -> list[str]:
    return [sys.executable, "-m", "gicee.cli", *workload.argv(seed, str(out))]


def checked(workload, seed: int, run: Run, csv: Path, problems: list[str]):
    """Frontier check of one run's output; ``None`` when the run failed."""
    if run.code != 0:
        problems.append(f"exit {run.code}: {run.stderr.strip()}")
        return None
    try:
        result = frontier.check(workload.name, seed % REF_SEEDS, csv)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable frontier: {exc}")
        return None
    if not result.ok:
        problems.append(f"frontier check failed: deficit {result.deficit:.3e} bits, "
                        f"overclaim {result.overclaim:.3e} bits")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workload, seed: int, seconds: float, runner: Runner):
    setup = measure_setup(runner, SETUP_REPS)
    csv = runner.workdir / "out.csv"
    runs, checks, problems = [], [], []
    begin = time.monotonic()
    # Start another run only if it should end within the measuring time.
    while not runs or (
        time.monotonic() - begin + statistics.median(r.wall_s for r in runs) <= seconds
        and time.monotonic() < runner.deadline
    ):
        run = runner.run(cli_argv(workload, seed, csv), program_env(None))
        runs.append(run)
        checks.append(checked(workload, seed, run, csv, problems))
    failed = sum(1 for c in checks if c is None or not c.ok)
    done = [c for c in checks if c is not None]
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "setup_s": setup,
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }
    metrics = {name: (statistics.median(v), unit) for name, v, unit in (
        ("wall_s", samples["wall_s"], "s"),
        ("setup_s", setup, "s"),
        ("cpu_s", samples["cpu_s"], "s"),
        ("peak_rss_mb", samples["peak_rss_mb"], "MB"),
    )}
    metrics["success_rate"] = (1.0 - failed / len(runs), "ratio")
    metrics["frontier_coverage"] = (
        max(min((c.coverage for c in done), default=0.0), 0.0), "ratio")
    extra = {
        "fail_rate": (failed / len(runs), "ratio"),
        "frontier_deficit_bits": (max((c.deficit for c in done), default=float("inf")), "bits"),
        "frontier_overclaim_bits": (max((c.overclaim for c in done), default=float("inf")), "bits"),
    }
    return len(runs), failed, metrics, extra, samples, problems, []


def per_layer(workload, seed: int, seconds: float, runner: Runner):
    setup = statistics.median(measure_setup(runner, 3))
    csvs = {kind: runner.workdir / f"{kind}.csv" for kind in ("pool", "serial", "traced")}
    spans_path = runner.workdir / "spans.json"
    commands = {
        "pool": (cli_argv(workload, seed, csvs["pool"]), program_env(None)),
        "serial": (cli_argv(workload, seed, csvs["serial"]), program_env(1)),
        "traced": ([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--",
                    *workload.argv(seed, str(csvs["traced"]))], program_env(1)),
    }
    runs = {"pool": [], "serial": [], "traced": []}
    problems, failed, trace, first = [], 0, None, None
    # Serial and traced runs go in ABBA order, so that a drift in machine
    # speed cancels out of the tracing overhead.
    for i, kind in enumerate(("pool", "serial", "traced", "traced", "serial")):
        first_pair = sum(r.wall_s for r in runs["serial"] + runs["traced"])
        if i == 3 and time.monotonic() + 1.5 * first_pair > runner.deadline:
            break   # no time for the second pair; the first one stands alone
        run = runner.run(*commands[kind], watch=kind == "pool")
        runs[kind].append(run)
        result = checked(workload, seed, run, csvs[kind], problems)
        if result is None or not result.ok:
            failed += 1
            continue
        data = csvs[kind].read_bytes()
        first = first or data
        if data != first:
            problems.append(f"the {kind} run wrote a different CSV")
            failed += 1
        elif kind == "traced" and trace is None:
            trace = json.loads(spans_path.read_text())
            traced_wall = run.wall_s
    attempted = sum(len(r) for r in runs.values())
    if trace is None:
        return attempted, failed, {}, {}, {}, problems, []
    serial = statistics.mean(r.wall_s for r in runs["serial"])
    metrics = layer_metrics(
        trace["spans"], trace["missing"], traced=traced_wall, serial=serial,
        overhead=statistics.mean(r.wall_s for r in runs["traced"]) - serial,
        pool=runs["pool"][0].wall_s, setup=setup,
        workers=max(runs["pool"][0].children, 1), csv_bytes=csvs["traced"].stat().st_size,
    )
    notes = [f"trace.missing: {name}" for name in trace["missing"]]
    return attempted, failed, metrics, {}, {}, problems, notes


# Metrics that read a layer entry point besides their own module's self
# time; they are left out when the program no longer has that entry point.
_READS = {
    "region._family_allocations": (
        "region.enumerate_s", "region.allocations", "region.infeasible_share",
        "polytope.lps_per_alloc", "pool.efficiency"),
    "region.region_union": ("pool.efficiency",),
    "region.build_system": ("region.bounds_calls", "region.bounds_s", "region.bounds_us"),
    "model.validate_allocation": ("model.validate_calls", "model.validate_s"),
    "polytope.lp_solve": (
        "polytope.lp_calls", "polytope.lp_s", "polytope.lp_us", "polytope.lps_per_alloc",
        "polytope.lp_infeasible", "polytope.project_self_s"),
    "polytope.project_frontier": (
        "polytope.project_calls", "polytope.project_self_s", "region.infeasible_share"),
    "polytope.pareto_merge": (
        "polytope.merge_s", "polytope.merge_in_points", "polytope.hull_yield",
        "pool.efficiency"),
    "polytope._pareto_prune": ("polytope.prune_s", "polytope.prune_in_points"),
    "schemes.ctdma_region": ("schemes.ctdma_s",),
    "schemes.single_power_states": ("schemes.grid_states",),
    "cli.main": ("trace.unattributed_s",),
    "cli._write_frontier": ("cli.write_s",),
}


def layer_metrics(spans, missing, *, traced, serial, overhead, pool, setup, workers,
                  csv_bytes) -> dict:
    """Per-layer metrics from the spans ``[name, parent, start, end, note]``
    of one traced run whose wall time was ``traced``; ``serial`` and
    ``pool`` are untraced wall times, ``overhead`` the traced-minus-serial
    difference of their means.  Metrics that read an entry point named in
    ``missing`` are left out, as is the self time of its module."""
    dur = [end - start for _, _, start, end, _ in spans]
    inner = [0.0] * len(spans)
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            inner[parent] += dur[i]
    total, own, calls, notes = {}, {}, {}, {}
    for i, (name, _, _, _, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + dur[i] - inner[i]
        calls[name] = calls.get(name, 0) + 1
        notes.setdefault(name, []).append(note)

    def ratio(a, b):
        return a / b if b else 0.0

    allocations = sum(notes.get("region._family_allocations", []))
    lp_calls = calls.get("polytope.lp_solve", 0)
    bounds_calls = calls.get("region.build_system", 0)
    merges = notes.get("polytope.pareto_merge", [])
    merge_in = sum(n[0] for n in merges)
    # Per-allocation busy time: the sweep minus its enumeration and merge,
    # scaled from the traced to the untraced serial run.
    sweep = total.get("region.region_union", 0.0) - sum(
        dur[i] for i, (name, parent, *_r) in enumerate(spans)
        if parent >= 0 and spans[parent][0] == "region.region_union"
        and name in ("region._family_allocations", "polytope.pareto_merge"))
    busy = sweep * ratio(serial - setup, traced - setup)
    roots = sum(dur[i] for i, span in enumerate(spans) if span[1] < 0)
    m = {
        "region.enumerate_s": (total.get("region._family_allocations", 0.0), "s"),
        "region.allocations": (allocations, "count"),
        "region.infeasible_share": (
            ratio(sum(notes.get("polytope.project_frontier", [])), allocations), "ratio"),
        "model.validate_calls": (calls.get("model.validate_allocation", 0), "count"),
        "model.validate_s": (total.get("model.validate_allocation", 0.0), "s"),
        "region.bounds_calls": (bounds_calls, "count"),
        "region.bounds_s": (total.get("region.build_system", 0.0), "s"),
        "region.bounds_us": (1e6 * ratio(total.get("region.build_system", 0.0), bounds_calls), "us"),
        "polytope.lp_calls": (lp_calls, "count"),
        "polytope.lp_s": (total.get("polytope.lp_solve", 0.0), "s"),
        "polytope.lp_us": (1e6 * ratio(total.get("polytope.lp_solve", 0.0), lp_calls), "us"),
        "polytope.lps_per_alloc": (ratio(lp_calls, allocations), "count"),
        "polytope.lp_infeasible": (sum(notes.get("polytope.lp_solve", [])), "count"),
        "polytope.project_calls": (calls.get("polytope.project_frontier", 0), "count"),
        "polytope.project_self_s": (own.get("polytope.project_frontier", 0.0), "s"),
        "polytope.merge_s": (total.get("polytope.pareto_merge", 0.0), "s"),
        "polytope.merge_in_points": (merge_in, "count"),
        "polytope.hull_yield": (ratio(sum(n[1] for n in merges), merge_in), "ratio"),
        "polytope.prune_s": (total.get("polytope._pareto_prune", 0.0), "s"),
        "polytope.prune_in_points": (
            sum(n[0] for n in notes.get("polytope._pareto_prune", [])), "count"),
        "schemes.ctdma_s": (total.get("schemes.ctdma_region", 0.0), "s"),
        "schemes.grid_states": (sum(notes.get("schemes.single_power_states", [])), "count"),
        "pool.workers": (workers, "count"),
        "pool.efficiency": (ratio(busy, workers * (pool - setup)), "ratio"),
        "cli.write_s": (total.get("cli._write_frontier", 0.0), "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
    }
    for layer in ("cli", "region", "model", "polytope", "schemes"):
        m[f"self.{layer}_s"] = (
            sum(v for k, v in own.items() if k.startswith(layer + ".")), "s")
    m["trace.wall_s"] = (traced, "s")
    m["trace.unattributed_s"] = (traced - roots, "s")
    m["trace.overhead_s"] = (overhead, "s")
    for name in missing:
        for metric in _READS.get(name, ()) + (f"self.{name.split('.')[0]}_s",):
            m.pop(metric, None)
    return m


def machine() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "loadavg": os.getloadavg(),
        "python": platform.python_version(), "numpy": np.__version__,
        "gicee_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="gicee CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--save", type=Path, help="also write the full record here")
    args = parser.parse_args()
    if not (SRC / "gicee" / "__init__.py").is_file():
        print(f"error: no gicee sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    host = machine()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, extra, samples, problems, notes = measure(
            workload, args.seed, args.seconds, Runner(deadline, Path(tmp)))

    print(f"workload {workload.name} seed {args.seed} "
          f"(jitter {args.seed % REF_SEEDS}): gicee {' '.join(workload.argv(args.seed, 'OUT'))}")
    print("machine " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        line = f"  {name:28s} {value:14.6g} {unit}"
        if name in samples:
            q1, q2, q3 = quartiles(samples[name])
            line += f"   median of {len(samples[name])}, quartiles {q1:.4g} .. {q3:.4g}"
        print(line)
    for note in notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  FAIL {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, samples=samples, machine=host, notes=notes,
                      extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        (args.save / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
