import ast
import importlib
import subprocess
import sys
from pathlib import Path

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
    return sorted(name for name in sys.modules if name.startswith("gicee."))
import gicee
print(loaded())
import gicee.cli
print(loaded())
gicee.cli.main(["ctdma", "--preset", "fig2", "--steps", "3", "--out", sys.argv[1]])
print(loaded())
"""


def test_each_command_imports_only_its_own_modules(tmp_path):
    # ``ctdma`` runs no LP, so neither it nor ``import gicee.cli`` may
    # compile the simplex or the region sweep; ``import gicee`` loads no
    # submodule at all
    from test_cli import CHILD_ENV

    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "ctdma.csv")],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    bare, cli, ctdma = (ast.literal_eval(line) for line in result.stdout.splitlines())
    assert bare == []
    assert {"gicee.region", "gicee.polytope"}.isdisjoint(cli)
    assert {"gicee.region", "gicee.polytope"}.isdisjoint(ctdma)
    assert "gicee.schemes" in ctdma
    assert (tmp_path / "ctdma.csv").read_text().startswith("r1_bits,r2_bits")
