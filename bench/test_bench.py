"""Tests of the benchmark itself: verification, tracing and the contract.

    python3 -m pytest -q bench

They use small versions of the benchmark's pipelines, so they take seconds.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from groundflow import cli  # noqa: E402

TAU = 2.0 * math.pi
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics a traced child reports; run.py adds trace.wall_s and trace.overhead_s
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]
               if m["name"] not in ("trace.wall_s", "trace.overhead_s")}

SMALL = [
    {"subcommand": "attract", "grid": {"dims": [[TAU, 64]]}, "beta": {"const": -0.1},
     "psi1": {"form": "sin", "a": 1.0, "b": 0.3, "k": 1}, "psi2": {"const": 1.0},
     "u0_ratio": 7.0, "tol": 1e-9, "tol_h": 1e-5},
    {"subcommand": "sweep", "grid": {"dims": [[TAU, 8], [TAU, 8]]},
     "q": {"start": 0.0, "stop": 0.2, "count": 9},
     "beta": {"form": "cos", "a": -0.1, "b": {"base": 0.02, "slope": 0.1}, "k": 1},
     "psi1": {"const": 1.0}, "psi2": {"const": 1.0}, "tol": 1e-9},
    {"subcommand": "curvature", "mode": "warp", "base_grid": {"dims": [[TAU, 32]]},
     "fiber_grid": {"dims": [[TAU, 8]]},
     "v": {"form": "cos", "a": 2.0, "b": 1.0, "k": 1, "axis": 1}},
    {"subcommand": "phase", "beta": -1.0, "psi1": 1.0, "psi2": 0.1, "u0": 0.6, "v0": 0.0,
     "T": 10.0, "dt": 1e-3,
     "portrait": {"u_min": 0.2, "u_max": 3.0, "nu": 5, "v_min": -2.0, "v_max": 2.0, "nv": 4}},
    {"subcommand": "ode", "beta": -0.1, "psi1": 1.0, "psi2": 1.0, "y0": 5.0, "T": 10.0},
]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("small")
    codes = [cli.run(cfg, run_dir / str(i)) for i, cfg in enumerate(SMALL)]
    return run_dir, codes, verify.oracle(SMALL)


def _copy(run_dir, tmp_path):
    dest = tmp_path / "run"
    shutil.copytree(run_dir, dest)
    return dest


def _edit_summary(run_dir, index, edit):
    path = run_dir / str(index) / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


def test_clean_run_passes_and_matches_its_own_digest(small_run):
    run_dir, codes, refs = small_run
    assert codes == [0] * len(SMALL)
    assert verify.check(SMALL, run_dir, codes, refs) == []
    reference = verify.digest(SMALL, run_dir)
    assert verify.check(SMALL, run_dir, codes, refs, reference) == []


@pytest.mark.parametrize("index, edit", [
    (0, lambda s: s["sandwich"].update(passed=False)),
    (0, lambda s: s["exponential_bound"].update(passed=False)),
    (0, lambda s: s.update(lambda0=s["lambda0"] + 1e-6)),
    (1, lambda s: s["smoothness"].update(passed=False)),
    (1, lambda s: s["gap"].__setitem__(3, s["gap"][3] * (1 + 1e-4))),
    (2, lambda s: s.update(max_leaf_oscillation=1e-6)),
    (2, lambda s: s["leaf_smix"].__setitem__(0, s["leaf_smix"][0] + 1e-6)),
    (3, lambda s: s.update(closed=False)),
    (3, lambda s: s.update(period=s["period"] * 1.001)),
    (4, lambda s: s["flow"].update(terminal=s["flow"]["terminal"] * (1 + 1e-6))),
    (4, lambda s: s.pop("flow")),
])
def test_corrupted_summary_is_a_failure(small_run, tmp_path, index, edit):
    run_dir, codes, refs = small_run
    run_dir = _copy(run_dir, tmp_path)
    _edit_summary(run_dir, index, edit)
    assert verify.check(SMALL, run_dir, codes, refs) != []


def test_short_csv_and_bad_exit_code_are_failures(small_run, tmp_path):
    run_dir, codes, refs = small_run
    run_dir = _copy(run_dir, tmp_path)
    assert verify.check(SMALL, run_dir, [0, 0, 0, 0, 3], refs) != []
    csv = run_dir / "3" / "portrait.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    assert verify.check(SMALL, run_dir, codes, refs) != []


def test_reference_mismatch_is_a_failure(small_run):
    run_dir, codes, refs = small_run
    reference = verify.digest(SMALL, run_dir)
    reference["phase.period"] *= 1 + 1e-5
    assert verify.check(SMALL, run_dir, codes, refs, reference) != []


def _traced_child(tmp_path, tag):
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps(SMALL))
    result = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--spawned", repr(time.monotonic()),
         "--result", str(result), "--configs", str(configs),
         "--out", str(tmp_path / tag), "--trace"],
        check=True, timeout=120,
    )
    return json.loads(result.read_text())


def test_traced_counters_repeat_exactly(tmp_path):
    first, second = _traced_child(tmp_path, "a"), _traced_child(tmp_path, "b")
    assert first["exit_codes"] == second["exit_codes"] == [0] * len(SMALL)
    assert first["missing"] == []
    assert set(LAYER_UNITS) <= set(first["layers"])
    counters = [n for n, unit in LAYER_UNITS.items() if unit != "s"]
    assert {n: first["layers"][n] for n in counters} == {n: second["layers"][n] for n in counters}
    layers = first["layers"]
    # every traced layer is reached by the small pipelines
    assert all(layers[n] > 0 for n in counters if n != "trace.missing"
               and n != "heatflow.step.rejected")
    assert layers["curvature.warp.leaves"] == 8
    assert layers["param_sweep.q_points"] == 9
    assert layers["heatflow.step.accepted"] + layers["heatflow.step.rejected"] == (
        layers["solve.solve.calls"] -
        layers["schrodinger.ground_state.solves"])
    assert all(layers[n] >= 0.0 for n, unit in LAYER_UNITS.items() if unit == "s")


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", (("groundflow.heatflow", "no_such_entry", "x"),
                                             ("groundflow.no_such_module", "f", "y")))
    tracer = tracing.install(tracing.Tracer())
    assert tracer.missing == ["groundflow.heatflow.no_such_entry", "groundflow.no_such_module.f"]
    assert tracing.layer_metrics([], {}, tracer.missing, 0)["trace.missing"] == 2


def test_self_time_subtracts_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["grid.laplacian", 1, 2.0, 3.0],
             ["solve.solve", 0, 5.0, 9.0], ["grid.laplacian", 3, 6.0, 8.0]]
    metrics = tracing.layer_metrics(spans, {}, [], 0)
    assert metrics["grid.laplacian.calls"] == 2
    assert metrics["grid.laplacian.s"] == 3.0
    assert metrics["solve.solve.s"] == 2.0
    assert metrics["solve.cg.matvecs"] == 1


def test_workload_configs_follow_the_seed():
    assert list(workloads.NAMES) == [w["name"] for w in SPEC["workloads"]]
    for name in workloads.NAMES:
        assert workloads.configs(name, 3) == workloads.configs(name, 3)
        assert workloads.configs(name, 3) != workloads.configs(name, 4)
    with pytest.raises(KeyError):
        workloads.configs("no-such-workload", 1)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-warp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
