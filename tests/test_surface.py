import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gicee

ROOT = Path(__file__).resolve().parent.parent


def used_names(path):
    """Names a module reads or imports: loaded names, attribute names and
    imported names.  A definition (def, class or assignment) is none of
    these, so a name only defined in the module does not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_by_the_program():
    # a public name only the tests use belongs in tests/, not in the package
    sources = [p for p in (ROOT / "src" / "gicee").glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in sources))
    assert sorted(set(gicee.__all__) - used) == []


def test_every_traced_layer_exists():
    # bench/tracer.py wraps the functions its LAYERS table names; one the
    # program no longer has reads as trace.missing, so a refactor that
    # drops or renames one must fail here first
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    [layers] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    missing = [f"{module}.{name}"
               for module, names in ast.literal_eval(layers).items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


IMPORT_PROBE = """
import sys
def loaded():
    # numpy.ma too: numpy loads it on first use of some functions, ~12 ms
    return sorted(name for name in sys.modules if name.startswith("gicee.") or name == "numpy.ma")
import gicee
print(loaded())
import gicee.cli
print(loaded())
print("numpy" in sys.modules)
gicee.cli.main([sys.argv[1], "--preset", "fig2", "--steps", "3", "--out", sys.argv[2]])
print(loaded())
"""


# the gicee modules each command loads, besides ``gicee.cli`` itself
COMMAND_MODULES = {
    "ctdma": {"frontier", "model", "grid", "gaussmi", "schemes"},
    "region": {"frontier", "model", "grid", "gaussmi", "region", "polytope"},
}


def test_each_command_imports_only_its_own_modules(tmp_path):
    # ``import gicee`` loads no submodule, ``import gicee.cli`` no other
    # submodule and not numpy, ``ctdma`` runs no LP and no oracle, and
    # ``region`` neither the time-division scheme nor an oracle
    from test_cli import CHILD_ENV

    for command, modules in COMMAND_MODULES.items():
        out = tmp_path / f"{command}.csv"
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, command, str(out)],
            capture_output=True, text=True, env=CHILD_ENV, check=True,
        )
        bare, cli, numpy, ran = (ast.literal_eval(line)
                                 for line in result.stdout.splitlines())
        assert bare == []
        assert cli == ["gicee.cli"]
        assert numpy is False
        assert set(ran) == {f"gicee.{name}" for name in modules} | set(cli)
        assert out.read_text().startswith("r1_bits,r2_bits")


EARLY_EXIT_PROBE = """
import contextlib, io, json, sys
import gicee.cli
outcomes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gicee.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    outcomes.append([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules])
print(json.dumps(outcomes))
"""


def test_flag_and_config_errors_exit_before_numpy_loads(tmp_path):
    # each command checks its own flags before it imports numpy or its
    # engine, so these end, with their usual code and message, in a
    # process that never loaded numpy
    from test_cli import CHILD_ENV

    config = tmp_path / "run.json"
    config.write_text('{"preset": "fig2", "grid": 3}')
    missing = tmp_path / "missing" / "r.csv"
    over_budget = tmp_path / "alloc.json"
    over_budget.write_text('{"states": [{"weight": 1, "pc1": 25}]}')
    cases = [
        (["--version"], 0, gicee.__version__ + "\n", ""),
        (["region"], 1, "",
         "error: no channel given: use --preset or all six inline values\n"),
        (["region", "--preset", "fig2", "--steps", "1"], 1, "",
         "error: steps must be at least 2, got 1\n"),
        (["ctdma", "--c12", "1", "--c21", "1", "--c1e", "1", "--c2e", "1", "--p1", "1"],
         1, "", "error: inline channel is missing ['p2']\n"),
        (["region", "--config", str(config)], 1, "",
         f"error: config file {config} has unknown keys ['grid']; region takes "
         "['c12', 'c1e', 'c21', 'c2e', 'out', 'p1', 'p2', 'preset', 'states', "
         "'steps', 'variant']\n"),
        (["region", "--preset", "fig2", "--out", str(missing)], 1, "",
         f"error: output directory {str(missing.parent)!r} does not exist\n"),
        (["point", "--preset", "fig2"], 1, "", "error: --alloc FILE is required\n"),
        (["point", "--preset", "fig2", "--alloc", str(over_budget)], 1, "",
         "error: allocation invalid (budget): user 1: average power 25.0 > budget 10.0\n"),
        (["validate", "--samples", "0"], 1, "", "error: samples must be at least 1, got 0\n"),
    ]
    result = subprocess.run(
        [sys.executable, "-c", EARLY_EXIT_PROBE, json.dumps([argv for argv, *_ in cases])],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert json.loads(result.stdout) == [[code, out, err, False]
                                         for _, code, out, err in cases]


def readme_allocation():
    # the JSON block under the README's "Allocation JSON" heading
    text = (ROOT / "README.md").read_text().split("## Allocation JSON", 1)[1]
    return text.split("```json\n", 1)[1].split("```", 1)[0]


POINT_PROBE = """
import sys
import gicee.cli
gicee.cli.main(["point", "--preset", "fig3", "--alloc", sys.argv[1]])
print(sorted(name for name in sys.modules if name.startswith("gicee.")))
"""


def test_point_loads_no_sweep_scheme_and_no_oracle(tmp_path):
    # ``point`` on the README's allocation adds what ``region`` adds,
    # never the time-division scheme or an oracle
    from test_cli import CHILD_ENV

    alloc = tmp_path / "alloc.json"
    alloc.write_text(readme_allocation())
    result = subprocess.run([sys.executable, "-c", POINT_PROBE, str(alloc)],
                            capture_output=True, text=True, env=CHILD_ENV, check=True)
    *printed, loaded = result.stdout.splitlines()
    assert '  "infeasible": false,' in printed
    assert set(ast.literal_eval(loaded)) == {
        f"gicee.{name}" for name in
        ("cli", "frontier", "model", "region", "polytope", "grid", "gaussmi")}


THREAD_PROBE = """
import os, sys
def threads():
    return len(os.listdir("/proc/self/task"))
import gicee.cli
print(threads())
gicee.cli.main(["region", "--preset", "fig3", "--steps", "4", "--out", sys.argv[1]])
print(threads())
gicee.cli.main(["ctdma", "--preset", "fig2", "--steps", "3", "--out", sys.argv[2]])
print(threads())
"""

ENV_PROBE = """
import os
before = dict(os.environ)
import gicee, gicee.region
print(dict(os.environ) == before)
import gicee.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_free_env(**extra):
    # this process imported gicee.cli, so its own environment already
    # carries OPENBLAS_NUM_THREADS; a child must start without it
    from test_cli import CHILD_ENV

    env = {k: v for k, v in CHILD_ENV.items() if k not in BLAS_THREAD_VARIABLES}
    return env | extra


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and a second CPU for a BLAS worker")
def test_the_command_line_runs_on_one_thread(tmp_path):
    # numpy's OpenBLAS would start a worker thread per extra CPU, which
    # busy-waits; the command line starts none
    result = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, str(tmp_path / "r.csv"), str(tmp_path / "c.csv")],
        capture_output=True, text=True, env=blas_free_env(), check=True,
    )
    assert [int(line) for line in result.stdout.splitlines()] == [1, 1, 1]


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_only_the_command_line_pins_blas_threads(given, expected):
    # library imports leave the environment alone, and a value the caller
    # set wins over the command line's default
    extra = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    result = subprocess.run(
        [sys.executable, "-c", ENV_PROBE],
        capture_output=True, text=True, env=blas_free_env(**extra), check=True,
    )
    assert result.stdout.splitlines() == ["True", expected]


def test_readme_shows_exactly_the_command_lines_flags():
    # a flag the parser dropped, or one the README never mentions, fails
    # here; -h/--help is argparse's and --no-build-isolation is pip's
    from gicee.cli import build_parser

    parsers, flags = [build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            flags.update(o for o in action.option_strings if o.startswith("--"))
    shown = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", (ROOT / "README.md").read_text()))
    assert shown - {"--no-build-isolation"} == flags - {"--help"}
