"""Check that two source trees of gicee print and write the same outputs.

    python tests/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the directories holding each tree's ``gicee``
package (a checkout's ``src``).  Both run the same command lines, each in
a fresh directory: the benchmark's (every workload of ``bench/workloads.py``
at each of its ``REF_SEEDS`` seeds), six larger region sweeps, ``point`` on
three allocations (the README's, a two-state one, and one whose unweighted
state has an infinite bound) and ``validate`` twice.  Exit codes, stdout,
stderr, CSV bytes and JSON sidecars, less their ``timing`` block, must
match: each difference is printed, and the exit code is 1 if there is any.
Pytest does not collect this file.
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import REF_SEEDS, WORKLOADS  # noqa: E402

EXTRAS = (
    "region --preset fig3 --variant r3 --steps 31",
    "region --preset fig2 --variant r3 --steps 21 --states 2",
    "region --preset fig3 --variant ncp --steps 11 --states 2",
    "region --preset fig3 --variant borcp --steps 41",
    "region --preset fig3 --variant full --steps 5",
    "region --preset fig2 --variant full --steps 3 --states 2",
)

# file name: (preset, allocation)
ALLOCATIONS = {
    "readme.json": ("fig3", {"states": [
        {"weight": 1.0, "pc1": 10.0, "ps1": 0.0, "po1": 0.0, "pj1": 0.0,
         "pc2": 1.0, "ps2": 0.0, "po2": 0.0, "pj2": 0.0}]}),
    "two_states.json": ("fig3", {"states": [
        {"weight": 0.5, "pc1": 10.0, "pc2": 1.0},
        {"weight": 0.5, "ps1": 5.0, "pj1": 5.0, "pc2": 10.0}]}),
    "overflow.json": ("fig2", {"states": [
        {"weight": -0.0, "po2": 1e308, "pj2": 1e-308},
        {"weight": 25.0, "pc2": 1.0}]}),
}


def commands():
    """Every (name, argv) to run; a sweep writes ``out.csv``."""
    for workload in WORKLOADS.values():
        for seed in range(REF_SEEDS):
            yield f"{workload.name} seed {seed}", workload.argv(seed, "out.csv")
    for line in EXTRAS:
        yield line, line.split() + ["--out", "out.csv"]
    for name, (preset, _) in ALLOCATIONS.items():
        yield f"point {name}", ["point", "--preset", preset, "--alloc", name]
    yield "validate", ["validate"]
    yield "validate --seed 7 --systems 40", ["validate", "--seed", "7", "--systems", "40"]


def outputs(src: Path, argv: list[str]) -> dict:
    """What one command line run on the tree ``src`` prints and writes."""
    with tempfile.TemporaryDirectory() as work:
        for name, (_, allocation) in ALLOCATIONS.items():
            Path(work, name).write_text(json.dumps(allocation))
        result = subprocess.run([sys.executable, "-m", "gicee.cli", *argv], cwd=work,
                                env=dict(os.environ, PYTHONPATH=str(src)),
                                capture_output=True, text=True)
        csv, sidecar = Path(work, "out.csv"), Path(work, "out.json")
        found = {"exit code": result.returncode, "stdout": result.stdout,
                 "stderr": result.stderr, "csv": csv.read_bytes() if csv.exists() else None,
                 "sidecar": json.loads(sidecar.read_text()) if sidecar.exists() else None}
    if found["sidecar"] is not None:
        found["sidecar"].pop("timing", None)
    return found


def differences(old: dict, new: dict) -> list[str]:
    """One line per output that differs, the text ones with their diff."""
    lines = []
    for key in old:
        if old[key] == new[key]:
            continue
        if key in ("stdout", "stderr"):
            diff = difflib.unified_diff(old[key].splitlines(), new[key].splitlines(),
                                        "old", "new", lineterm="")
            lines.append(f"{key}:\n    " + "\n    ".join(diff))
        elif key == "sidecar" and old[key] and new[key]:
            keys = sorted(k for k in old[key].keys() | new[key].keys()
                          if old[key].get(k) != new[key].get(k))
            lines.append(f"sidecar: fields {', '.join(keys)} differ")
        elif key == "csv" and old[key] and new[key]:
            lines.append(f"csv: {len(old[key])} bytes against {len(new[key])}")
        else:
            lines.append(f"{key}: {old[key]!r} against {new[key]!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(src).resolve() for src in argv]
    differing = 0
    with ThreadPoolExecutor(2) as pool:
        for name, command in commands():
            old, new = pool.map(lambda src: outputs(src, command), trees)
            lines = differences(old, new)
            differing += bool(lines)
            for line in lines:
                print(f"{name}: {line}")
    print(f"{differing} command lines differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
