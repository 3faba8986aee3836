"""Run one ``gicee`` command in-process with spans around its layers.

    python3 bench/tracer.py SPANS.json -- <gicee arguments>

Wraps the layer entry points named in ``LAYERS`` from outside the package,
rebinding every module-level name that holds the original function, so the
program itself is unchanged.  Spans stay in memory and are written to
SPANS.json when the command returns: one ``[name, parent, start, end,
note]`` row per call, ``parent`` being the index of the enclosing span or
-1.  ``note`` holds a count where a layer has one (see ``_NOTES``).  The
names in ``LAYERS`` that the program no longer has are listed under
``missing``, so that their layers read as not measured rather than as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> function names; names a later version of the program no longer
# has are recorded as missing, so the benchmark keeps running across
# refactors and says what it could not measure.
LAYERS = {
    "gicee.cli": ("main", "cmd_region", "cmd_ctdma", "_write_frontier"),
    "gicee.region": ("region_union", "_family_allocations", "region_for_allocation",
                     "build_system"),
    "gicee.model": ("validate_allocation",),
    "gicee.polytope": ("lp_solve", "project_frontier", "pareto_merge", "_pareto_prune"),
    "gicee.schemes": ("single_power_states", "ctdma_region"),
}


def _count(result) -> int:
    return len(result)


def _lp_infeasible(result) -> int:
    return int(getattr(result, "status", None) == "infeasible")


def _empty(result) -> int:
    return int(bool(getattr(result, "is_empty", False)))


_NOTES = {
    "region._family_allocations": _count,
    "schemes.single_power_states": _count,
    "polytope.lp_solve": _lp_infeasible,
    "polytope.project_frontier": _empty,
}

# Layers whose first argument is a collection of points or frontiers; it
# may be a one-shot iterator, so it is materialized before the call.  The
# note is [points in, points out].
_IN_OUT = {
    "polytope.pareto_merge": lambda items, result: [
        sum(len(f.points) for f in items), len(result.points)],
    "polytope._pareto_prune": lambda items, result: [len(items), len(result)],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note, in_out = _NOTES.get(name), _IN_OUT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if in_out is not None:
                    items = list(args[0])
                    args = (items,) + args[1:]
                result = fn(*args, **kwargs)
                if in_out is not None:
                    span[4] = in_out(items, result)
                elif note is not None:
                    span[4] = note(result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "gicee" or k.startswith("gicee.")]
        for module_name, names in LAYERS.items():
            module = sys.modules[module_name]
            for fn_name in names:
                name = f"{module_name.split('.')[1]}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                traced = self.wrap(name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <gicee arguments>")
    for module_name in LAYERS:
        importlib.import_module(module_name)
    tracer = Tracer()
    tracer.install()
    from gicee import cli

    code = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
