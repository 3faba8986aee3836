import ast
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
