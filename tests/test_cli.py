import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicee import Frontier, preset, single_user_wiretap
from gicee.cli import _baseline, main
from gicee.region import VARIANTS
from gicee.schemes import CTDMA_TAGS
from conftest import check_recipes

WIRETAP_10 = 0.4372345589580706

# Child interpreters running ``python -m gicee.cli`` get the source tree on
# their path, so they run the code under test whether or not it is installed.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD_ENV = os.environ | {
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "r1_bits,r2_bits"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_region_command_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main([
        "region", "--preset", "fig2", "--variant", "ncp",
        "--steps", "3", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows
    assert all(b1 > a1 for (a1, _), (b1, _) in zip(rows, rows[1:]))
    assert all(b2 < a2 for (_, a2), (_, b2) in zip(rows, rows[1:]))
    sidecar = json.loads((tmp_path / "region.json").read_text())
    assert sidecar["variant"] == "ncp"
    assert sidecar["channel"]["c12"] == 1.9
    assert sidecar["grid"]["steps"] == 3
    assert sidecar["tool"] == "gicee"
    assert sidecar["allocations"] == 9
    assert len(sidecar["vertices"]) == len(rows)


def test_region_rejects_single_step(tmp_path, capsys):
    code = main([
        "region", "--preset", "fig2", "--steps", "1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "steps" in capsys.readouterr().err


def test_region_rejects_unknown_variant(tmp_path, capsys):
    code = main([
        "region", "--preset", "fig2", "--variant", "nope",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "variant" in capsys.readouterr().err


def test_region_requires_channel(tmp_path, capsys):
    code = main(["region", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "channel" in capsys.readouterr().err


def test_region_rejects_channel_clash(tmp_path, capsys):
    code = main([
        "region", "--preset", "fig2", "--c12", "1.0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_region_rejects_partial_inline_channel(tmp_path, capsys):
    code = main(["region", "--c12", "1.0", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_unknown_preset_is_config_error(tmp_path, capsys):
    code = main(["region", "--preset", "fig4", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "fig4" in capsys.readouterr().err


def test_config_file_merging_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "preset": "fig2", "variant": "ncp", "steps": 3,
    }))
    out1 = tmp_path / "a.csv"
    assert main(["region", "--config", str(cfg), "--out", str(out1)]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["variant"] == "ncp"
    # a flag beats the file
    out2 = tmp_path / "b.csv"
    assert main([
        "region", "--config", str(cfg), "--variant", "r3",
        "--steps", "2", "--out", str(out2),
    ]) == 0
    assert json.loads((tmp_path / "b.json").read_text())["variant"] == "r3"


@pytest.mark.parametrize("command", ["region", "ctdma", "point"])
def test_out_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command):
    import gicee.region as region
    import gicee.schemes as schemes

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    # the commands look these up in their modules when they run
    for module, name in ((region, "region_union"), (schemes, "ctdma_region"),
                         (region, "region_for_allocation")):
        monkeypatch.setattr(module, name, no_work)
    argv = [command, "--preset", "fig2", "--out", str(tmp_path)]
    if command == "point":
        argv += ["--alloc", str(write_alloc(tmp_path, pc1=1.0))]
    assert main(argv) == 1
    assert "is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["region", "ctdma"])
@pytest.mark.parametrize("out, sidecar", [("y.csv", "y.json"), ("z.x", "z.x.json")])
def test_sidecar_directory_is_refused_before_any_work(tmp_path, capsys, command, out, sidecar):
    (tmp_path / sidecar).mkdir()
    argv = [command, "--preset", "fig2", "--steps", "3", "--out", str(tmp_path / out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / out).exists()


def test_point_writes_no_sidecar_so_its_path_may_be_a_directory(tmp_path):
    (tmp_path / "p.json").mkdir()
    out = tmp_path / "p.csv"
    argv = ["point", "--preset", "fig2", "--out", str(out),
            "--alloc", str(write_alloc(tmp_path, pc1=1.0))]
    assert main(argv) == 0
    assert json.loads(out.read_text())["points"]


@pytest.mark.parametrize("command", ["region", "ctdma", "point"])
def test_empty_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command):
    # only a missing --out takes the default; an empty one names no file
    import gicee.region as region
    import gicee.schemes as schemes

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    for module, name in ((region, "region_union"), (schemes, "ctdma_region"),
                         (region, "region_for_allocation")):
        monkeypatch.setattr(module, name, no_work)
    argv = [command, "--preset", "fig2", "--steps", "3", "--out", ""]
    if command == "point":
        argv = [command, "--preset", "fig2", "--out", "",
                "--alloc", str(write_alloc(tmp_path, pc1=1.0))]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(tmp_path.iterdir()) == before


STAGES = {
    "region": {"enumerate", "bounds", "solve", "merge", "write"},
    "ctdma": {"grid", "pair", "merge", "write"},
}


@pytest.mark.parametrize("command", ["region", "ctdma"])
def test_region_sidecar_reports_timing(tmp_path, command):
    # the seconds per stage; every other sidecar field and the CSV bytes
    # are the same from run to run
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert main([command, "--preset", "fig3", "--steps", "6", "--out", str(out)]) == 0
        runs.append((out.read_bytes(), json.loads((tmp_path / f"{name}.json").read_text())))
    (csv_a, side_a), (csv_b, side_b) = runs
    for sidecar in (side_a, side_b):
        timing = sidecar.pop("timing")
        assert set(timing) == STAGES[command]
        assert all(isinstance(v, float) and v >= 0.0 for v in timing.values())
    assert csv_a == csv_b
    assert side_a == side_b


def test_region_default_grid_sizes(tmp_path):
    # zero budgets keep the default-size sweep to a single allocation
    out = tmp_path / "dflt.csv"
    code = main([
        "region", "--c12", "1", "--c21", "1", "--c1e", "0.5", "--c2e", "0.5",
        "--p1", "0", "--p2", "0", "--out", str(out),
    ])
    assert code == 0
    sidecar = json.loads((tmp_path / "dflt.json").read_text())
    assert sidecar["grid"]["steps"] == 11
    # frontiers are exact, so the sidecar no longer records a direction count
    assert "directions" not in sidecar
    assert sidecar["allocations"] == 1


def test_region_sidecar_reports_lp_work(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["region", "--preset", "fig3", "--steps", "6", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "fig3.json").read_text())
    lp = sidecar["lp"]
    assert set(lp) == {"rounds", "columns", "pivots"}
    # the master starts from one state and takes some more, each round
    # adding at most 8; a column that enters need not become basic, but
    # every state a recipe weighs, bar the one the master starts from, took
    # a pivot to enter the basis
    assert 1 < lp["columns"] <= min(1 + 8 * lp["rounds"], sidecar["allocations"])
    used = {tuple(state) for vertex in sidecar["vertices"] for state in vertex["states"]}
    assert lp["pivots"] >= len(used) - 1
    for gone in ("examined_allocations", "screened_allocations", "infeasible_allocations"):
        assert gone not in sidecar


@pytest.mark.parametrize("argv", [
    ["--preset", "fig3", "--steps", "6"],
    ["--preset", "fig2", "--variant", "full", "--steps", "3"],
    ["--preset", "fig3", "--steps", "3", "--states", "2"],
])
def test_region_sidecar_reports_vertex_recipes(tmp_path, argv):
    # every frontier point comes with the grid states its optimum
    # time-shares, their weights and its rates
    from gicee.region import RegionSpec, _family_allocations

    out = tmp_path / "r.csv"
    assert main(["region", *argv, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "r.json").read_text())
    vertices = sidecar["vertices"]
    # the CSV prints nine significant digits
    assert np.allclose([v["point"] for v in vertices], read_rows(out), rtol=1e-8, atol=0.0)
    channel = preset(argv[1])
    grid = _family_allocations(RegionSpec(
        channel=channel, variant=sidecar["variant"], steps=sidecar["grid"]["steps"],
        states=sidecar["grid"]["states"]))
    check_recipes(channel, grid, vertices)


def test_region_runs_two_states_on_the_default_grid(tmp_path):
    # 8271 grid states: the k-state enumeration refused this grid at
    # 47 447 730 allocations
    out = tmp_path / "two.csv"
    assert main(["region", "--preset", "fig3", "--steps", "11", "--states", "2",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows and rows[0][1] > 0.3399
    assert json.loads((tmp_path / "two.json").read_text())["allocations"] == 8271


def test_region_runs_a_fine_borcp_grid(tmp_path, capsys):
    # 399 999 states, within MAX_ALLOCATIONS: each user's grid is built
    # within its cap, where a meshgrid of every (pc, pj) candidate would
    # take 320 GB
    out = tmp_path / "borcp.csv"
    assert main(["region", "--c12", "1.9", "--c21", "1.9", "--c1e", "0.5", "--c2e", "0.5",
                 "--p1", "10", "--p2", "0", "--variant", "borcp", "--steps", "200000",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert read_rows(out)
    assert json.loads((tmp_path / "borcp.json").read_text())["allocations"] == 399_999


@pytest.mark.parametrize("command", ["region", "ctdma"])
def test_sidecar_reports_single_user_baseline(tmp_path, command):
    # on fig3 user 2's eavesdropper gain (1.6) beats its direct gain, so
    # alone it has no secrecy rate and every r2 on the frontier is gain
    out = tmp_path / "fig3.csv"
    assert main([command, "--preset", "fig3", "--steps", "4", "--out", str(out)]) == 0
    rows = read_rows(out)
    baseline = json.loads((tmp_path / "fig3.json").read_text())["baseline"]
    assert set(baseline) == {"r1", "r2", "gain_r1", "gain_r2"}
    assert baseline["r1"] == single_user_wiretap(10.0, 0.5) == pytest.approx(WIRETAP_10)
    assert baseline["r2"] == 0.0
    assert baseline["gain_r1"] == pytest.approx(rows[-1][0] - baseline["r1"], abs=1e-8)
    assert baseline["gain_r2"] == pytest.approx(rows[0][1], abs=1e-8)


def test_baseline_gains_are_null_for_an_empty_frontier():
    baseline = _baseline(preset("fig3"), Frontier())
    assert baseline["gain_r1"] is None and baseline["gain_r2"] is None
    assert baseline["r1"] == pytest.approx(WIRETAP_10)


@pytest.mark.parametrize("command, flag", [
    ("region", "--directions"), ("region", "--weight-steps"), ("region", "--workers"),
    ("point", "--directions"),
])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    out = tmp_path / "x.csv"
    argv = [command, "--preset", "fig3", flag, "8", "--out", str(out)]
    if command == "point":
        argv += ["--alloc", str(write_alloc(tmp_path, pc1=10.0, pc2=1.0))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: unrecognized arguments: {flag} 8"]
    assert not out.exists()


@pytest.mark.parametrize("command, config, unknown", [
    ("region", {"preset": "fig3", "stpes": 5}, ["stpes"]),
    ("region", {"preset": "fig3", "steps": 3, "directions": 8, "weight_steps": 2, "workers": 2},
     ["directions", "weight_steps", "workers"]),
    ("ctdma", {"preset": "fig2", "states": 2}, ["states"]),
    ("point", {"preset": "fig3", "directions": 8}, ["directions"]),
    ("validate", {"command": "region", "func": None}, ["command", "func"]),
])
def test_config_keys_must_name_the_commands_flags(tmp_path, capsys, command, config, unknown):
    # a key that names no flag of the command, such as a typo or a removed
    # option, is refused before any work
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    if command == "point":
        argv += ["--alloc", str(write_alloc(tmp_path, pc1=10.0, pc2=1.0))]
    if command != "validate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: config file {path} has unknown keys {unknown};")
    assert not (tmp_path / "x.csv").exists()


def test_gicee_workers_is_not_read(tmp_path, monkeypatch):
    args = ["region", "--preset", "fig3", "--steps", "4"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    monkeypatch.setenv("GICEE_WORKERS", "abc")
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_ctdma_symmetric_endpoints(tmp_path):
    out = tmp_path / "tdma.csv"
    code = main([
        "ctdma", "--preset", "fig2", "--variant", "tdma",
        "--steps", "5", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[-1][0] == pytest.approx(WIRETAP_10, abs=1e-4)
    assert rows[-1][1] == pytest.approx(0.0, abs=1e-9)
    assert rows[0][1] == pytest.approx(WIRETAP_10, abs=1e-4)
    sidecar = json.loads((tmp_path / "tdma.json").read_text())
    assert sidecar["variant"] == "tdma"


def test_ctdma_asymmetric_user2_silent(tmp_path):
    out = tmp_path / "asym.csv"
    assert main([
        "ctdma", "--preset", "fig3", "--variant", "ctdma",
        "--steps", "7", "--out", str(out),
    ]) == 0
    assert all(r2 <= 1e-9 for _, r2 in read_rows(out))


def test_ctdma_unknown_variant(tmp_path, capsys):
    code = main([
        "ctdma", "--preset", "fig2", "--variant", "bogus",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def write_alloc(tmp_path, **powers):
    path = tmp_path / "alloc.json"
    state = {k: 0.0 for k in
             ("pc1", "ps1", "po1", "pj1", "pc2", "ps2", "po2", "pj2")}
    state.update(powers)
    path.write_text(json.dumps({"states": [dict(weight=1.0, **state)]}))
    return path


def test_point_command_cooperative_binning(tmp_path, capsys):
    alloc = write_alloc(tmp_path, pc1=10.0, pc2=1.0)
    code = main(["point", "--preset", "fig3", "--alloc", str(alloc)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["infeasible"] is False
    best = max(r2 for _, r2 in payload["points"])
    assert best == pytest.approx(0.329430, abs=1e-4)


def test_point_command_reports_infeasible(tmp_path, capsys):
    alloc = write_alloc(tmp_path, pc1=10.0, pc2=10.0)
    code = main(["point", "--preset", "fig3", "--alloc", str(alloc)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["infeasible"] is True
    assert payload["points"] == []


def test_point_command_zero_allocation(tmp_path, capsys):
    alloc = write_alloc(tmp_path)
    code = main(["point", "--preset", "fig2", "--alloc", str(alloc)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == [[0.0, 0.0]]


def test_point_command_rejects_bad_allocation(tmp_path, capsys):
    alloc = write_alloc(tmp_path, pc1=25.0)
    code = main(["point", "--preset", "fig2", "--alloc", str(alloc)])
    assert code == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("states, error", [
    ('[{"weight": NaN, "pc1": 1}]', "(non_finite): state 0: weight=nan"),
    ('[{"weight": 1, "pc1": 1}, {"weight": 1, "pj2": Infinity}]',
     "(non_finite): state 1: pj2=inf"),
    ('[{"weight": -0.5, "pc1": 1}, {"weight": 1.5}]',
     "(negative_weight): state 0: weight=-0.5"),
    ('[{"weight": 1, "pc1": 1, "pj1": -1}]', "(negative_power): state 0: pj1=-1.0"),
    ('[{"weight": 0, "pc1": 1}, {"weight": 0}]', "(weight_sum): weights sum to 0.0"),
    ('[{"weight": 3, "pc1": 30}, {"weight": 1, "pj2": 4}]',
     "(budget): user 1: average power 22.5 > budget 10.0"),
])
def test_point_allocation_errors_name_their_check(tmp_path, capsys, states, error):
    alloc = tmp_path / "alloc.json"
    alloc.write_text(f'{{"states": {states}}}')
    assert main(["point", "--preset", "fig2", "--alloc", str(alloc)]) == 1
    assert capsys.readouterr() == ("", f"error: allocation invalid {error}\n")


def test_point_state_without_weight_is_an_error(tmp_path, capsys):
    # it would otherwise read as weight 0, and the state be dropped
    alloc = tmp_path / "alloc.json"
    for states, idx in (([{"weight": 1, "pc1": 1}, {"pc1": 5}], 1), ([{"pc1": 1}], 0)):
        alloc.write_text(json.dumps({"states": states}))
        assert main(["point", "--preset", "fig2", "--alloc", str(alloc)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot load allocation {alloc}: state {idx} has no 'weight'\n")


def test_point_normalizes_the_weights(tmp_path, capsys):
    alloc = tmp_path / "alloc.json"
    printed = []
    for weight in (2, 0.5):
        alloc.write_text(json.dumps({"states": [{"weight": weight, "pc1": 10.0},
                                                {"weight": weight, "pc2": 4.0}]}))
        assert main(["point", "--preset", "fig3", "--alloc", str(alloc)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


# three states that each spend a budget of 1e4 exactly: their weighted
# average rounds to 10000.000000000004, past the budget by more than 1e-12
LARGE_BUDGET = ["--c12", "1.9", "--c21", "1.0", "--c1e", "0.5", "--c2e", "1.6",
                "--p1", "10000", "--p2", "1"]
LARGE_BUDGET_WEIGHTS = (0.3734363118647634, 0.32578143853224806, 0.7525654269834784)


@pytest.mark.parametrize("pc1, code", [(10000.0, 0), (10000.0 * (1 + 1e-9), 1)])
def test_point_budget_tolerance_scales_with_the_budget(tmp_path, capsys, pc1, code):
    # an allocation exactly at a large budget passes, one 1e-9 (relative)
    # over it does not
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"states": [{"weight": w, "pc1": pc1}
                                            for w in LARGE_BUDGET_WEIGHTS]}))
    assert main(["point", *LARGE_BUDGET, "--alloc", str(alloc)]) == code
    if code:
        assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("allocation, key", [
    ({"states": [{"weight": 1, "pc1": 1, "bogus": 2}]}, "bogus"),
    ({"states": [{"weight": 1, "pc1": 1}, {"weight": 1, "pj 1": 1}]}, "pj 1"),
    ({"states": [{"weigth": 1, "pc1": 1}]}, "weigth"),
    ({"states": [{"weight": 1, "pc1": 1}], "note": "x"}, "note"),
])
def test_point_rejects_unknown_allocation_keys(tmp_path, capsys, allocation, key):
    # a mistyped key would otherwise read as a power or weight of 0
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps(allocation))
    assert main(["point", "--preset", "fig2", "--alloc", str(alloc)]) == 1
    assert repr(key) in capsys.readouterr().err


def test_point_rejects_powers_too_large_to_evaluate(tmp_path, capsys):
    # within the budget, but a received power overflows, so a bound is not
    # finite: the LP refuses it and point exits 1
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"states": [{"weight": 1, "pc1": 1e308}]}))
    argv = ["point", "--c12", "1.9", "--c21", "1.9", "--c1e", "0.5", "--c2e", "0.5",
            "--p1", "1e308", "--p2", "1", "--alloc", str(alloc)]
    assert main(argv) == 1
    assert ("has powers too large to evaluate: constraint data must be finite"
            in capsys.readouterr().err)


def test_point_error_for_an_unweighted_overflowing_state_is_one_line(tmp_path):
    # the zero-weight state's infinite bound times its weight is NaN; the
    # LP refuses it, and numpy prints no warning on the way
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"states": [{"weight": -0.0, "po2": 1e308, "pj2": 1e-308},
                                            {"weight": 25.0, "pc2": 1.0}]}))
    result = subprocess.run(
        [sys.executable, "-m", "gicee.cli", "point", "--preset", "fig2", "--alloc", str(alloc)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: allocation {alloc} has powers too large to evaluate: "
        "constraint data must be finite"]


def test_point_command_requires_alloc(tmp_path, capsys):
    assert main(["point", "--preset", "fig2"]) == 1


def test_validate_default_passes(capsys):
    code = main(["validate", "--samples", "150", "--systems", "3", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("pass") == 3


def test_validate_corrupted_tolerance_fails(capsys):
    code = main(["validate", "--samples", "100", "--systems", "2",
                 "--tol", "1e-20"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_validate_judges_the_sweeps_bound_rows(monkeypatch, capsys):
    # the MI suites read the bounds the sweeps use, so a perturbed
    # bound_rows fails validation
    import gicee.validation as validation

    real = validation.bound_rows
    monkeypatch.setattr(validation, "bound_rows", lambda *args: 1.01 * real(*args))
    code = main(["validate", "--samples", "100", "--systems", "2"])
    assert code == 2
    assert "mi-oracle: FAIL" in capsys.readouterr().out


def test_validate_zero_samples_is_config_error(capsys):
    assert main(["validate", "--samples", "0"]) == 1


def test_solver_failure_maps_to_exit_3(tmp_path, monkeypatch):
    import gicee.region as region
    from gicee import SolverFailure

    def boom(*args, **kwargs):
        raise SolverFailure("stalled")

    # cmd_region looks region_union up in gicee.region when it runs
    monkeypatch.setattr(region, "region_union", boom)
    code = main(["region", "--preset", "fig2", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert sorted(tmp_path.iterdir()) == []


def test_real_solver_failure_is_exit_3_and_writes_nothing(tmp_path, capsys):
    # a 1e6 budget on which the master stalls past its pivot limit; once the
    # simplex solves this channel (ROADMAP item 4), another failing input
    # takes its place
    out = tmp_path / "x.csv"
    code = main(["region", "--c12", "0.8787512795470421", "--c21", "1.0118297811876924",
                 "--c1e", "1.569565083134378", "--c2e", "1.4509028600522562",
                 "--p1", "1e6", "--p2", "17.7121315133879",
                 "--variant", "full", "--steps", "3", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("solver failure:")] == [
        err.strip()]
    assert "Traceback" not in err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("argv", [
    ["region", "--preset", "fig3", "--variant", "r3", "--steps", "11"],
    ["ctdma", "--preset", "fig2", "--steps", "17"],
])
def test_blas_thread_count_changes_no_output(tmp_path, argv):
    # the products are small, and each entry of one is the same dot
    # product however OpenBLAS splits it, so a caller's
    # OPENBLAS_NUM_THREADS changes no byte; and the process entry point,
    # run(), writes what an in-process main() writes
    runs = []
    for threads in ("1", "2", None):
        out = tmp_path / f"threads{threads}.csv"
        if threads is None:
            assert main([*argv, "--out", str(out)]) == 0
        else:
            subprocess.run(
                [sys.executable, "-m", "gicee.cli", *argv, "--out", str(out)],
                capture_output=True, env=CHILD_ENV | {"OPENBLAS_NUM_THREADS": threads},
                check=True,
            )
        sidecar = json.loads(out.with_suffix(".json").read_text())
        del sidecar["timing"]
        runs.append((out.read_bytes(), sidecar))
    assert runs[0] == runs[1] == runs[2]


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gicee.cli", "--version"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stdout.strip()


VALIDATE_ONE = ["validate", "--samples", "1", "--systems", "1"]


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_unwritable_stdout_is_config_error(target, unbuffered):
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    if target == "/dev/full":
        stdout = open("/dev/full", "wb")
    else:
        read, write = os.pipe()
        os.close(read)   # every write to the pipe fails with EPIPE
        stdout = os.fdopen(write, "wb")
    with stdout:
        result = subprocess.run(
            [sys.executable, "-m", "gicee.cli", *VALIDATE_ONE],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert result.returncode == 1
    assert result.stderr.startswith("error: cannot write standard output")
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


def test_console_script_is_run():
    import gicee.cli

    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as fh:
        assert 'gicee = "gicee.cli:run"' in fh.read()
    assert callable(gicee.cli.run)


def test_in_process_main_freezes_nothing(tmp_path):
    # nor does it switch the cyclic collector off, as run() does
    import gc

    before = gc.get_freeze_count()
    assert main(["ctdma", "--preset", "fig2", "--steps", "3",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled()


# runs the process entry point on a main() that reports the collector
GC_CHILD = """
import gc
import gicee.cli
gicee.cli.main = lambda: print("collector on:", gc.isenabled(), flush=True) or 0
gicee.cli.run()
"""


def test_run_calls_main_with_the_collector_off():
    result = subprocess.run([sys.executable, "-c", GC_CHILD],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0
    assert result.stdout == "collector on: False\n"


# registers an exit hook, then runs the process entry point on its arguments
RUN_CHILD = """
import atexit, sys
from gicee.cli import run
atexit.register(lambda: print("exit hook ran", file=sys.stderr))
run()
"""


@pytest.mark.parametrize("argv, code", [
    (["ctdma", "--preset", "fig2", "--steps", "3", "--out", "{out}"], 0),
    (["ctdma", "--preset", "fig2", "--bogus"], 1),
    (["ctdma", "--preset", "nope", "--out", "{out}"], 1),
    (["--version"], 0),
])
def test_run_exits_with_mains_code_and_no_teardown(tmp_path, argv, code):
    # the process ends with main()'s code and its output flushed, but
    # without the interpreter's teardown, so an exit hook never runs
    argv = [a.format(out=tmp_path / "c.csv") for a in argv]
    result = subprocess.run(
        [sys.executable, "-c", RUN_CHILD, *argv],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    assert "exit hook ran" not in result.stderr
    if code:
        assert result.stderr.startswith("error:")
    if argv == ["--version"]:
        assert result.stdout.strip()
    elif code == 0:
        assert read_rows(tmp_path / "c.csv")


REGION = ["region", "--preset", "fig2"]
# budgets whose per-slot powers and SNRs would overflow to inf
OVERFLOWING = ["--c12", "1.9", "--c21", "1.9", "--c1e", "0.5", "--c2e", "0.5",
               "--p1", "1.7e308", "--p2", "10", "--steps", "2"]


# ``env`` is added to the child's environment; no case needs it now, and the
# column keeps each case's id
@pytest.mark.parametrize("argv, env", [
    # a removed flag, a mistyped config key and the removed flags' keys
    (REGION + ["--workers", "2"], {}),
    (REGION + ["--config", "{typo}"], {}),
    (REGION + ["--config", "{removed}"], {}),
    (REGION + ["--states", "9"], {}),
    (REGION + ["--weight-steps", "2"], {}),
    (REGION + ["--config", "{config}"], {}),
    (REGION + ["--out", "{missing}/region.csv"], {}),
    (["region", *OVERFLOWING], {}),
    (["ctdma", *OVERFLOWING], {}),
    # within budget on average, but 1.7e308 times a gain of 1.9 overflows
    (["point", "--preset", "fig2", "--alloc", "{huge}"], {}),
    # grids past MAX_ALLOCATIONS are refused before any enumeration
    (REGION + ["--steps", "1000000000"], {}),
    (REGION + ["--variant", "full", "--steps", "12"], {}),
    (REGION + ["--states", "2", "--steps", "40"], {}),
    # an integer past Python's 4300-digit conversion limit in a config file
    (REGION + ["--config", "{bigint}"], {}),
    (["ctdma", "--preset", "fig2", "--config", "{bigint}"], {}),
    (["validate", "--config", "{bigint}"], {}),
    # time-division grids past MAX_SLOT_ROWS are refused before enumeration
    (["ctdma", "--preset", "fig2", "--steps", "1000000000"], {}),
    (["ctdma", "--preset", "fig2", "--steps", "35"], {}),
    # an output path that names an existing directory
    (REGION + ["--out", "{outdir}"], {}),
    # usage errors argparse finds: exit 2 is reserved for validation failures
    (REGION + ["--steps", "abc"], {}),
    (REGION + ["--bogus"], {}),
    ([], {}),
    # a JSON boolean is no number, though Python counts it as 0 or 1
    (["region", "--config", "{boolchannel}"], {}),
    (["ctdma", "--config", "{boolchannel}"], {}),
    (["point", "--preset", "fig2", "--alloc", "{boolpower}"], {}),
    (["point", "--preset", "fig2", "--alloc", "{boolweight}"], {}),
    # nor is a string, though Python's float() parses one
    (["ctdma", "--config", "{strchannel}"], {}),
    (["point", "--preset", "fig3", "--alloc", "{strpower}"], {}),
    # an infinite tolerance would pass any deviation of the MI suite, and
    # an integer past the largest float has no float to print
    (["validate", "--tol", "inf"], {}),
    (["validate", "--config", "{bigtol}"], {}),
])
def test_region_bad_input_is_config_error(tmp_path, argv, env):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"steps": "many"}))
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"stpes": 3}))
    removed = tmp_path / "removed.json"
    removed.write_text(json.dumps({"directions": 8, "weight_steps": 2, "workers": 2}))
    bigint = tmp_path / "bigint.json"
    bigint.write_text('{"steps": 1' + "0" * 5000 + "}")
    bigtol = tmp_path / "bigtol.json"
    bigtol.write_text('{"tol": 1' + "0" * 400 + "}")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(
        {"states": [{"weight": 1e-308, "pc1": 1.7e308}, {"weight": 1}]}
    ))
    boolchannel = tmp_path / "boolchannel.json"
    boolchannel.write_text(json.dumps(
        {"c12": True, "c21": 1.9, "c1e": 0.5, "c2e": 0.5, "p1": 10, "p2": 10}))
    boolpower = tmp_path / "boolpower.json"
    boolpower.write_text(json.dumps({"states": [{"weight": 1, "pc1": True}]}))
    boolweight = tmp_path / "boolweight.json"
    boolweight.write_text(json.dumps({"states": [{"weight": True, "pc1": 1.0}]}))
    strchannel = tmp_path / "strchannel.json"
    strchannel.write_text(json.dumps(
        {"c12": "1.9", "c21": "1.9", "c1e": "0.5", "c2e": "0.5", "p1": " 10 ", "p2": "10"}))
    strpower = tmp_path / "strpower.json"
    strpower.write_text(json.dumps({"states": [{"weight": 1, "pc1": "1_0"}]}))
    argv = [a.format(config=config, typo=typo, removed=removed, missing=tmp_path / "missing",
                     huge=huge, bigint=bigint, bigtol=bigtol, outdir=tmp_path,
                     boolchannel=boolchannel, strchannel=strchannel,
                     boolpower=boolpower, boolweight=boolweight, strpower=strpower)
            for a in argv]
    if argv and "--out" not in argv and argv[0] != "validate":
        argv += ["--out", str(tmp_path / "region.csv")]
    result = subprocess.run(
        [sys.executable, "-m", "gicee.cli", *argv],
        capture_output=True, text=True,
        env=CHILD_ENV | env,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


# Flag and config-file fuzzing of every command.  Sizes stay small
# (steps <= 4, one state, a few validation samples) so every accepted run
# is quick; odd values range over wrong types, NaN/inf, huge and negative
# values.  ``point`` also gets a fuzzed allocation file.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(max_value=-1),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
CHANNEL_KEYS = ("c12", "c21", "c1e", "c2e", "p1", "p2")
STATE_KEYS = ("weight", "pc1", "ps1", "po1", "pj1", "pc2", "ps2", "po2", "pj2")


def mostly(good, odd):
    """``good`` seven times in eight, else ``odd``, so that many runs get
    through to the sweep."""
    return st.integers(0, 7).flatmap(lambda k: good if k else odd)


def setting(good, odd_values, odd_tokens):
    """(config value, flag token) strategies of one setting."""
    return mostly(good, odd_values), mostly(good.map(str), odd_tokens)


def name(*good):
    return setting(st.sampled_from(good), JUNK, st.sampled_from(["bogus", ""]))


def size(lo, hi, *odd):
    return setting(st.integers(lo, hi), st.one_of(st.sampled_from((-3, 0, 1) + odd), JUNK),
                   st.sampled_from(["abc", "2.5", "nan", "1e9", "-5", "", *map(str, odd)]))


ODD_NUMBERS = st.sampled_from([1e4, 1e149, 1e300, 1.7e308, -1.0, 1e-308, math.nan, math.inf])
CHANNEL = setting(
    st.floats(0.0, 20.0),
    st.one_of(ODD_NUMBERS, st.integers(), JUNK),
    st.sampled_from(["nan", "inf", "-inf", "-1", "1e4", "1e149", "1.7e308", "1e400",
                     "abc", ""]),
)
SETTINGS = {
    # a huge grid is refused at once, before any enumeration
    "region": {"steps": size(2, 4, 10**6, 10**9, 2**63, 10**30), "states": size(1, 1, 5, 9),
               "variant": name(*VARIANTS)},
    "ctdma": {"steps": size(2, 4, 10**6, 10**9, 2**63, 10**30), "variant": name(*CTDMA_TAGS)},
    "point": {},
    "validate": {"seed": size(0, 5), "samples": size(1, 20), "systems": size(1, 2),
                 "tol": setting(st.sampled_from([1e-12, 1e-20, 0.0, 1.0]), JUNK,
                                st.sampled_from(["abc", "nan", "-1", ""]))},
}
# steps is always given to the sweeps: the default grid takes seconds
ALWAYS = {"steps", "samples", "systems"}

# An allocation file: mostly a list of one to three states with powers
# within the fig presets' budgets, else odd values, keys or shapes.
POWER = mostly(st.floats(0.0, 5.0), st.one_of(ODD_NUMBERS, st.integers(), JUNK))
STATE = st.dictionaries(st.sampled_from(STATE_KEYS), POWER, max_size=len(STATE_KEYS))
ALLOCATION = mostly(
    st.fixed_dictionaries({"states": st.lists(STATE, min_size=1, max_size=3)}),
    st.one_of(JUNK, st.fixed_dictionaries({"states": JUNK}),
              st.fixed_dictionaries({"states": st.lists(JUNK, min_size=1, max_size=2)}),
              st.lists(STATE, max_size=2)),
)


@st.composite
def invocations(draw):
    """A command line, the JSON config it points at and, for ``point``, the
    allocation file's contents."""
    command = draw(st.sampled_from(sorted(SETTINGS)))
    flags, config = {}, {}

    def put(key, strategies):
        value, token = strategies
        where = draw(st.sampled_from(["flag", "config", "both"]))
        if where != "config":
            flags[key] = draw(token)
        if where != "flag":
            config[key] = draw(value)

    if command != "validate":
        # mostly a preset or a full inline channel; sometimes both or neither
        source = draw(mostly(st.sampled_from(["preset", "inline"]),
                             st.sampled_from(["both", "none", "partial"])))
        if source in ("preset", "both"):
            put("preset", name("fig2", "fig3"))
        if source in ("inline", "both", "partial"):
            dropped = draw(st.sampled_from(CHANNEL_KEYS)) if source == "partial" else None
            for key in CHANNEL_KEYS:
                if key != dropped:
                    put(key, CHANNEL)
    for key, strategies in SETTINGS[command].items():
        if key in ALWAYS or draw(st.booleans()):
            put(key, strategies)
    # a key that names no flag, one time in eight, so most runs reach the sweep
    if not draw(st.integers(0, 7)):
        config["bogus"] = draw(JUNK)
    argv = [command] + [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
    allocation = draw(ALLOCATION) if command == "point" else None
    return argv, config, allocation


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_sweep_commands_keep_exit_contract(invocation):
    argv, config, allocation = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = argv + ["--config", path]
        if argv[0] != "validate":
            argv += ["--out", os.path.join(tmp, "out.csv")]
        if argv[0] == "point":
            alloc_path = os.path.join(tmp, "alloc.json")
            with open(alloc_path, "w") as fh:
                json.dump(allocation, fh)
            argv += ["--alloc", alloc_path]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags
            code = exc.code
    # any other exception would reach the user as a traceback; only the
    # validation suites may report a failure
    if "bogus" in config:
        assert code == 1
    assert code in (0, 1, 3) or (argv[0] == "validate" and code == 2)
