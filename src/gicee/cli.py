"""Command-line surface: region sweeps, scheme comparisons, self-validation.

Commands write frontiers as CSV (``r1_bits,r2_bits``) with a JSON sidecar
describing the run, so any plotting tool can reproduce the region charts.
Exit codes: 0 ok, 1 configuration error, 2 validation failure, 3 solver
failure.

``import gicee.cli`` loads only the standard library and :mod:`gicee`.
Each command checks its flags first and imports the modules it needs only
then, so a usage or configuration error exits before numpy loads,
``ctdma`` never loads the simplex or the region sweep, and only
``validate`` loads the oracle suites.

``run()`` is the process entry point (``python -m gicee.cli`` and the
``gicee`` script): it runs ``main()`` with the cyclic garbage collector off
and ends the process with its code, skipping the interpreter's teardown.
``main()`` is for in-process callers and returns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# set before numpy loads: OpenBLAS would start a worker thread per extra CPU
# that busy-waits, and no product here reaches its threaded kernels
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import SolverFailure, __version__  # noqa: E402

if TYPE_CHECKING:
    from .frontier import Frontier
    from .model import ChannelParams

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

_CHANNEL_FLAGS = ("c12", "c21", "c1e", "c2e", "p1", "p2")


class ConfigError(Exception):
    """Bad flags, config file or input data."""


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="use a built-in example channel (fig2, fig3)")
    for name in _CHANNEL_FLAGS:
        parser.add_argument(f"--{name}", type=float, help=f"channel parameter {name}")
    parser.add_argument("--config", type=Path,
                        help="JSON file with defaults; explicit flags win")


def _merge_config(args: argparse.Namespace) -> dict:
    """Flatten flags over config-file values; None means 'not given'.

    A config file's keys are the destinations of the command's own flags;
    any other key is a configuration error."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "func", "config")}
    merged: dict = {}
    config_path = args.config
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as exc:
            # ValueError covers malformed JSON, undecodable bytes and
            # integers past Python's digit limit for conversion
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(flags))
        if unknown:
            raise ConfigError(f"config file {config_path} has unknown keys {unknown}; "
                              f"{args.command} takes {sorted(flags)}")
        merged.update(loaded)
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return merged


def _resolve_channel(cfg: dict) -> ChannelParams:
    from .model import ChannelParams, _number, preset

    preset_name = cfg.get("preset")
    inline = [name for name in _CHANNEL_FLAGS if cfg.get(name) is not None]
    if preset_name and inline:
        raise ConfigError("give either --preset or inline channel values, not both")
    if preset_name:
        try:
            return preset(preset_name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if len(inline) == len(_CHANNEL_FLAGS):
        values = {}
        for name in _CHANNEL_FLAGS:
            try:
                values[name] = _number(cfg[name], name)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(
                    f"channel field {name} must be a number, got {cfg[name]!r}"
                ) from None
        try:
            return ChannelParams(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if inline:
        missing = sorted(set(_CHANNEL_FLAGS) - set(inline))
        raise ConfigError(f"inline channel is missing {missing}")
    raise ConfigError("no channel given: use --preset or all six inline values")


def _require(cfg: dict, key: str, minimum: int, default: int | None = None) -> int:
    value = cfg.get(key, default if default is not None else minimum)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return value


def _output_path(value, *, sidecar: bool, default: str | None = None) -> Path:
    """An output file path whose directory must already exist and which,
    like its sidecar's path if the command writes one, is not itself a
    directory, checked before any work is done.  Only a missing (None)
    value takes ``default``; an empty one names no file."""
    if value is None:
        value = default
    if value == "":
        raise ConfigError("out must name a file, got an empty path")
    if not isinstance(value, str):
        raise ConfigError(f"out must be a file path, got {value!r}")
    out = Path(value)
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {str(out.parent)!r} does not exist")
    if out.is_dir():
        raise ConfigError(f"out {value!r} is a directory, not a file path")
    if sidecar and _sidecar_path(out).is_dir():
        raise ConfigError(f"sidecar path {str(_sidecar_path(out))!r} of out {value!r} "
                          "is a directory, not a file path")
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _stdout(text: str | None = None) -> None:
    """Print ``text`` to standard output, or flush it when ``text`` is None.
    A write that fails is a configuration error."""
    if sys.stdout is None:   # started with its descriptor closed
        return
    try:
        if text is None:
            sys.stdout.flush()
        else:
            print(text)
    except OSError as exc:
        raise ConfigError(f"cannot write standard output: {exc}") from None


def _sidecar_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".json")
    return Path(str(out) + ".json")


def _write_frontier(out: Path, frontier: Frontier, sidecar: dict) -> None:
    """Write the CSV, then the sidecar; a sidecar with a ``timing`` block
    gets the seconds spent writing the CSV as its ``write`` entry."""
    start = time.perf_counter()
    lines = ["r1_bits,r2_bits"]
    lines.extend(f"{r1:.9g},{r2:.9g}" for r1, r2 in frontier.points)
    _write_text(out, "\n".join(lines) + "\n")
    sidecar = dict(sidecar, tool="gicee", version=__version__,
                   points=len(frontier.points))
    if sidecar.get("timing") is not None:
        sidecar["timing"] = dict(sidecar["timing"], write=time.perf_counter() - start)
    _write_text(_sidecar_path(out), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def _baseline(channel: ChannelParams, frontier: Frontier) -> dict:
    """Each user's lone wiretap rate, the other user silent, and how far
    the frontier's best rate for that user passes it (None if empty)."""
    from .gaussmi import single_user_wiretap

    r1 = single_user_wiretap(channel.p1, channel.c1e)
    r2 = single_user_wiretap(channel.p2, channel.c2e)
    empty = frontier.is_empty
    return {
        "r1": r1,
        "r2": r2,
        "gain_r1": None if empty else frontier.max_r1 - r1,
        "gain_r2": None if empty else frontier.max_r2 - r2,
    }


def cmd_region(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    channel = _resolve_channel(cfg)
    variant = cfg.get("variant", "r3")
    steps = _require(cfg, "steps", 2, default=11)
    states = _require(cfg, "states", 1, default=1)
    out = _output_path(cfg.get("out"), sidecar=True, default="region.csv")
    from .region import RegionSpec, region_union

    try:
        spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    frontier = region_union(spec)
    _write_frontier(out, frontier, {
        "command": "region",
        "channel": channel.to_dict(),
        "variant": variant,
        "grid": {"steps": steps, "states": states},
        "allocations": frontier.metadata.get("allocations"),
        "lp": frontier.metadata.get("lp"),
        "vertices": frontier.metadata.get("vertices"),
        "baseline": _baseline(channel, frontier),
        "timing": frontier.metadata.get("timing"),
    })
    return EXIT_OK


def cmd_ctdma(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    channel = _resolve_channel(cfg)
    variant = cfg.get("variant", "ctdma")
    steps = _require(cfg, "steps", 2, default=11)
    out = _output_path(cfg.get("out"), sidecar=True, default="ctdma.csv")
    from .schemes import ctdma_region

    try:
        frontier = ctdma_region(channel, variant=variant, steps=steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_frontier(out, frontier, {
        "command": "ctdma",
        "channel": channel.to_dict(),
        "variant": variant,
        "grid": {"steps": steps},
        "baseline": _baseline(channel, frontier),
        "timing": frontier.metadata.get("timing"),
    })
    return EXIT_OK


def cmd_point(args: argparse.Namespace) -> int:
    from .model import read_allocation, validate_allocation

    cfg = _merge_config(args)
    channel = _resolve_channel(cfg)
    alloc_path = cfg.get("alloc")
    if not alloc_path:
        raise ConfigError("--alloc FILE is required")
    try:
        data = json.loads(Path(alloc_path).read_text())
        weights, powers = read_allocation(data)
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot load allocation {alloc_path}: {exc}") from exc
    try:
        validate_allocation(channel, weights, powers)
    except ValueError as exc:
        raise ConfigError(f"allocation invalid {exc}") from None
    out = cfg.get("out")
    if out is not None:
        out = _output_path(out, sidecar=False)
    from .region import region_for_allocation

    try:
        frontier = region_for_allocation(channel, weights, powers)
    except ValueError as exc:
        raise ConfigError(
            f"allocation {alloc_path} has powers too large to evaluate: {exc}"
        ) from exc
    payload = {
        "channel": channel.to_dict(),
        "infeasible": frontier.is_empty,
        "points": [[r1, r2] for r1, r2 in frontier.points],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is not None:
        _write_text(out, text + "\n")
    _stdout(text)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    seed = _require(cfg, "seed", 0)
    samples = _require(cfg, "samples", 1, default=1000)
    systems = _require(cfg, "systems", 1, default=20)
    tol = cfg.get("tol", 1e-12)
    # an infinite tolerance would pass any deviation, so it is refused
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
            or not 0 <= tol <= sys.float_info.max:
        raise ConfigError(f"tol must be a finite nonnegative number, got {tol!r}")
    from .validation import mi_oracle_suite, projection_suite, submodularity_suite

    ok = True
    dev = mi_oracle_suite(seed, samples)
    passed = dev <= tol
    ok &= passed
    _stdout(f"mi-oracle: {'pass' if passed else 'FAIL'} "
            f"max_dev={dev:.3e} tol={tol:.1e} samples={samples}")

    gap = projection_suite(seed + 1, systems)
    passed = gap <= 1.0 + 1e-6
    ok &= passed
    _stdout(f"projection: {'pass' if passed else 'FAIL'} "
            f"max_gap={gap:.3f} pitch units, systems={systems}")

    margin = submodularity_suite(seed + 2)
    passed = margin <= 1e-12
    ok &= passed
    _stdout(f"submodularity: {'pass' if passed else 'FAIL'} "
            f"worst_violation={margin:.3e}")

    return EXIT_OK if ok else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors:
    argparse's own exit code 2 would read as a validation failure.
    Subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        sys.stderr.write(f"error: {message}\n")
        self.print_usage(sys.stderr)
        sys.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gicee",
        description="Secrecy rate regions for the two-user Gaussian "
                    "interference channel with an external eavesdropper",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="binning/prefixing power-grid region")
    _add_channel_args(p_region)
    p_region.add_argument("--variant")
    p_region.add_argument("--steps", type=int)
    p_region.add_argument("--states", type=int)
    p_region.add_argument("--out", type=str)
    p_region.set_defaults(func=cmd_region)

    p_ctdma = sub.add_parser("ctdma", help="closed-form time-division region")
    _add_channel_args(p_ctdma)
    p_ctdma.add_argument("--variant")
    p_ctdma.add_argument("--steps", type=int)
    p_ctdma.add_argument("--out", type=str)
    p_ctdma.set_defaults(func=cmd_ctdma)

    p_point = sub.add_parser("point", help="frontier of one allocation file")
    _add_channel_args(p_point)
    p_point.add_argument("--alloc", type=str, help="allocation JSON file")
    p_point.add_argument("--out", type=str)
    p_point.set_defaults(func=cmd_point)

    p_val = sub.add_parser("validate", help="run the internal oracle suites")
    p_val.add_argument("--config", type=Path)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--samples", type=int)
    p_val.add_argument("--systems", type=int)
    p_val.add_argument("--tol", type=float)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            # flushed here, so an unwritable stdout is exit 1 whatever the
            # outcome; argparse's --help and --version only while stdout is
            # buffered, since unbuffered argparse drops its own failed write
            _stdout()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> NoReturn:
    """End the process with ``main()``'s code, flushing stderr first (``main()``
    flushes stdout) and skipping the interpreter's teardown (exit hooks, the
    final collection, freeing the heap).  The cyclic collector is off: a
    run is short and ends without freeing, and loading numpy alone set off
    about 34 collections."""
    import gc

    gc.disable()
    try:
        code = main()
    except SystemExit as exc:   # argparse's --help and --version
        code = exc.code
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):   # no stderr, or an unwritable one
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
