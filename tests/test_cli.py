import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import groundflow
from groundflow import cli, comparison, heatflow
from groundflow.cli import _SCHEMAS, main, run
from groundflow.errors import (
    AdmissibilityError,
    BasinError,
    BlowdownError,
    ConvergenceError,
    PhaseSpaceExitError,
    PositivityLossError,
)
from oracles import scalar_ode_reference

TWO_PI = 2 * np.pi


def run_cli(tmp_path, config, name="config.json", out="out"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    code = main([str(path), "--out", str(out_dir)])
    summary = None
    summary_path = out_dir / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
    return code, out_dir, summary


def test_roots_subcommand(tmp_path):
    code, _, summary = run_cli(
        tmp_path, {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0}
    )
    assert code == 0
    assert summary["schema"] == 1
    assert summary["admissible"] is True
    assert summary["margin"] == pytest.approx(0.6)
    assert summary["y1"] == pytest.approx(2.978755335069904, rel=1e-12)
    assert summary["y2"] == pytest.approx(1.061610405842267, rel=1e-12)
    assert summary["y3"] == pytest.approx(1.5544125858650473, rel=1e-12)
    assert summary["y4"] == pytest.approx(np.sqrt(6.0), rel=1e-12)
    assert summary["mu0"] == 0.1


def test_roots_inadmissible_still_reports(tmp_path):
    code, _, summary = run_cli(
        tmp_path, {"subcommand": "roots", "lambda0": 0.25, "psi1": 1.0, "psi2": 1.0}
    )
    assert code == 0
    assert summary["admissible"] is False
    assert summary["margin"] == 0.0
    assert "y1" not in summary


def test_ground_state_subcommand(tmp_path):
    code, out_dir, summary = run_cli(
        tmp_path,
        {
            "subcommand": "ground-state",
            "grid": {"dims": [[TWO_PI, 32]]},
            "beta": {"const": 5.0},
        },
    )
    assert code == 0
    assert summary["lambda0"] == pytest.approx(-5.0, abs=1e-11)
    assert summary["e0_min"] == pytest.approx(summary["e0_max"], rel=1e-12)
    assert summary["gap"] > 0.0
    lines = (out_dir / "e0.csv").read_text().splitlines()
    assert lines[0] == "x0,value"
    assert len(lines) == 33


@pytest.mark.parametrize("c", [1e16, -1e16, 1e300])
def test_ground_state_of_a_huge_constant_potential(tmp_path, c):
    # the eigen-solver factors 0.01 - L - (beta - max(beta)), so the shift
    # does not round away against beta and no Lanczos vector scales with
    # 1/beta; the gap 1/theta1 - 1/theta0 subtracts nothing of the size of beta
    code, _, summary = run_cli(
        tmp_path, {"subcommand": "ground-state", "grid": {"dims": [[6.28, 8]]},
                   "beta": {"const": c}},
    )
    assert code == 0
    assert summary["lambda0"] == -c
    h = 6.28 / 8
    gap = 4.0 / h**2 * np.sin(np.pi / 8) ** 2  # the least nonzero level of -L
    assert summary["gap"] == pytest.approx(gap, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("c", [1e12, 1e13, 1e14])
def test_ground_state_of_a_large_constant_on_a_long_axis(tmp_path, c):
    # the least nonzero level of -L is 1e-4 here; a shift floor much larger
    # than 0.01 would crowd theta1 against the rest of the spectrum of
    # (H - mu)^-1 and keep the Lanczos run from converging in its steps
    code, _, summary = run_cli(
        tmp_path, {"subcommand": "ground-state", "grid": {"dims": [[628.0, 1000]]},
                   "beta": {"const": c}},
    )
    assert code == 0
    assert abs(summary["lambda0"] + c) <= 1e-14 * c
    h = 628.0 / 1000
    gap = 4.0 / h**2 * np.sin(np.pi / 1000) ** 2
    assert summary["gap"] == pytest.approx(gap, rel=1e-11, abs=0.0)


def _run_in_fresh_interpreters(tmp_path, cfg, names=("fresh1", "fresh2")):
    """Run ``cfg`` through the CLI once per name, each in a new interpreter."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(groundflow.__file__).parents[1]))
    for name in names:
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from groundflow.cli import main; sys.exit(main(sys.argv[1:]))",
             str(path), "--out", str(tmp_path / name)],
            env=env, check=True, timeout=120,
        )
    return [tmp_path / name for name in names]


def test_ground_state_gap_repeats_across_processes(tmp_path):
    # a square torus with a nearly degenerate lambda1: the gap must come out
    # bit-identical in fresh interpreters and in this one
    cfg = {
        "subcommand": "ground-state",
        "grid": {"dims": [[TWO_PI, 32], [TWO_PI, 32]]},
        "beta": {
            "form": "product",
            "factors": [
                {"form": "cos", "a": 0.0, "b": 0.05, "k": 1},
                {"form": "cos", "a": 0.0, "b": 1.0, "k": 1},
            ],
        },
    }
    outputs = _run_in_fresh_interpreters(tmp_path, cfg)
    code, out_dir, summary = run_cli(tmp_path, cfg, out="in_process")
    assert code == 0 and summary["gap"] > 0.0
    outputs.append(out_dir)
    for name in ("summary.json", "e0.csv"):
        assert len({(out / name).read_bytes() for out in outputs}) == 1


def test_sweep_repeats_across_processes(tmp_path):
    # the benchmark's sweep on a 32x32 torus: summary and CSV must come out
    # byte-identical in two fresh interpreters
    cfg = {
        "subcommand": "sweep",
        "grid": {"dims": [[TWO_PI, 32], [TWO_PI, 32]]},
        "q": {"start": 0.0, "stop": 0.2, "count": 9},
        "beta": {"form": "cos", "a": -0.1, "b": {"base": 0.02, "slope": 0.1}, "k": 1},
        "psi1": {"const": 1.0},
        "psi2": {"const": 1.0},
        "tol": 1e-9,
    }
    outputs = _run_in_fresh_interpreters(tmp_path, cfg)
    assert "error" not in json.loads((outputs[0] / "summary.json").read_text())
    for name in ("summary.json", "sweep.csv"):
        assert len({(out / name).read_bytes() for out in outputs}) == 1


def test_warp_repeats_across_processes(tmp_path):
    # every leaf takes the exact constant-potential ground state: summary and
    # field CSV must come out byte-identical in two fresh interpreters
    cfg = {
        "subcommand": "curvature",
        "mode": "warp",
        "base_grid": {"dims": [[TWO_PI, 64]]},
        "fiber_grid": {"dims": [[TWO_PI, 16]]},
        "v": {"form": "cos", "a": 2.0, "b": 1.0, "k": 1, "axis": 1},
    }
    outputs = _run_in_fresh_interpreters(tmp_path, cfg)
    assert "error" not in json.loads((outputs[0] / "summary.json").read_text())
    for name in ("summary.json", "field.csv"):
        assert len({(out / name).read_bytes() for out in outputs}) == 1


def test_attract_subcommand(tmp_path):
    base = {
        "subcommand": "attract",
        "grid": {"dims": [[TWO_PI, 64]]},
        "beta": {"const": -0.1},
        "psi1": {"const": 1.0},
        "psi2": {"const": 1.0},
        "tol": 1e-9,
        "tol_h": 1e-5,
    }
    # an explicit u0 field, 4.3 to 5.8 times e0, lies in the basin as u0_ratio does
    starts = [{"u0_ratio": 5.0}, {"u0": {"form": "cos", "a": 2.0, "b": 0.3, "k": 1}}]
    for i, start in enumerate(starts):
        code, out_dir, summary = run_cli(tmp_path, {**base, **start}, out=f"out{i}")
        assert code == 0
        assert summary["sandwich"]["passed"] is True
        assert summary["exponential_bound"]["passed"] is True
        assert summary["residual"] < 1e-8
        assert summary["converged_at"] is not None
        # every flag is backed by numbers in the same report
        assert {"min_ratio", "max_ratio", "tol_h", "passed"} <= set(summary["sandwich"])
        assert {"mu", "delta_inv", "max_ratio", "passed"} <= set(
            summary["exponential_bound"]
        )
        lines = (out_dir / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,sup_distance,min_ratio,max_ratio"
        assert len(lines) > 2


@pytest.mark.parametrize(
    "dims",
    # the torus has the circle's area, so the same u0_ratio lies in the basin
    [[[TWO_PI, 48]], [[TWO_PI, 12], [1.0, 5]]],
    ids=["circle", "torus"],
)
def test_attract_determinism(tmp_path, dims):
    cfg = {
        "subcommand": "attract",
        "grid": {"dims": dims},
        "beta": {"const": -0.1},
        "psi1": {"form": "sin", "a": 1.0, "b": 0.2, "k": 1},
        "psi2": {"const": 1.0},
        "u0_ratio": 6.0,
        "tol": 1e-8,
        "tol_h": 1e-4,
    }
    code1, out1, _ = run_cli(tmp_path, cfg, out="run1")
    code2, out2, _ = run_cli(tmp_path, cfg, out="run2")
    assert code1 == code2 == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_ode_subcommand(tmp_path):
    cfg = {
        "subcommand": "ode",
        "beta": -1.0,
        "psi1": 2.0,
        "psi2": 0.75,
        "y0": 1.0,
        "T": 80.0,
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 0
    roots = [fp["root"] for fp in summary["fixed_points"]]
    stabs = [fp["stability"] for fp in summary["fixed_points"]]
    assert roots == pytest.approx([np.sqrt(1.5), np.sqrt(0.5)], rel=1e-12)
    assert stabs == ["stable", "unstable"]
    assert summary["flow"]["terminal"] == pytest.approx(
        summary["flow"]["target_y1"], abs=1e-6
    )


def test_ode_flow_matches_reference_within_budget(tmp_path, monkeypatch):
    # 10,000 RK4 steps at the default dt: a few hundredths of a second on
    # floats, about 0.6 s when every step runs numpy on one-element arrays
    elapsed = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        traj = comparison.scalar_flow(*args, **kwargs)
        elapsed.append(time.perf_counter() - start)
        return traj

    monkeypatch.setattr(cli, "scalar_flow", timed)
    cfg = {
        "subcommand": "ode",
        "beta": -0.1,
        "psi1": 1.0,
        "psi2": 1.0,
        "y0": 5.0,
        "T": 100.0,
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 0
    ref = scalar_ode_reference(0.1, 1.0, 1.0, 5.0, np.array([0.0, 100.0]))[-1]
    assert summary["flow"]["terminal"] == pytest.approx(ref, rel=1e-8, abs=0.0)
    assert len(elapsed) == 1
    assert elapsed[0] < 0.5


def test_ode_flow_requires_negative_beta(tmp_path, capsys):
    cfg = {
        "subcommand": "ode",
        "beta": 1.0,
        "psi1": 1.0,
        "psi2": 1.0,
        "y0": 1.0,
        "T": 10.0,
    }
    code, _, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error at $.beta: 1.0 is greater than or equal to the maximum of 0\n"
    )
    # and a horizon: y0 without T is a config error too
    del cfg["T"]
    code, _, summary = run_cli(tmp_path, {**cfg, "beta": -1.0})
    assert code == 2
    assert summary is None
    assert capsys.readouterr().err == "config error at $: 'T' is a required property\n"


def test_phase_subcommand(tmp_path):
    cfg = {
        "subcommand": "phase",
        "beta": -1.0,
        "psi1": 2.0,
        "psi2": 0.75,
        "u0": 0.75,
        "v0": 0.0,
        "T": 10.0,
        "dt": 1e-3,
        "portrait": {
            "u_min": 0.5,
            "u_max": 3.0,
            "nu": 8,
            "v_min": -1.0,
            "v_max": 1.0,
            "nv": 5,
        },
    }
    code, out_dir, summary = run_cli(tmp_path, cfg)
    assert code == 0
    assert summary["fixed_points"][0]["u"] == pytest.approx(np.sqrt(1.5), rel=1e-12)
    assert summary["fixed_points"][0]["type"] == "saddle"
    assert summary["fixed_points"][1]["type"] == "center"
    y1 = np.sqrt(1.5)
    level = 0.5 * (-1.0) * y1**2 + 2.0 * np.log(y1) + 0.5 * 0.75 / y1**2
    assert summary["separatrix_level"] == pytest.approx(level)
    assert summary["energy_drift"] < 1e-9
    assert summary["closed"] is True
    orbit_lines = (out_dir / "orbit.csv").read_text().splitlines()
    assert orbit_lines[0] == "t,u,v,H"
    portrait_lines = (out_dir / "portrait.csv").read_text().splitlines()
    assert portrait_lines[0] == "u,v,H"
    assert len(portrait_lines) == 8 * 5 + 1


def test_curvature_scaling(tmp_path):
    cfg = {
        "subcommand": "curvature",
        "mode": "scaling",
        "s_mix": 5.0,
        "h_sq": 2.0,
        "t_sq": 3.0,
        "u_const": 2.0,
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 0
    assert summary["value"] == 3.6875


def test_curvature_twisted(tmp_path):
    cfg = {
        "subcommand": "curvature",
        "mode": "twisted",
        "base_grid": {"dims": [[TWO_PI, 16]]},
        "fiber_grid": {"dims": [[TWO_PI, 8]]},
        "v": {"const": 1.0},
        "u": {"form": "sin", "a": 2.0, "b": 1.0, "k": 1, "axis": 0},
    }
    code, out_dir, summary = run_cli(tmp_path, cfg)
    assert code == 0
    assert summary["smix_min"] < 0.0 < summary["smix_max"]
    lines = (out_dir / "field.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,value"
    assert len(lines) == 16 * 8 + 1


def test_curvature_warp(tmp_path):
    cfg = {
        "subcommand": "curvature",
        "mode": "warp",
        "base_grid": {"dims": [[TWO_PI, 16]]},
        "fiber_grid": {"dims": [[TWO_PI, 16]]},
        "v": {"form": "cos", "a": 2.0, "b": 1.0, "k": 1, "axis": 1},
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 0
    assert summary["max_leaf_oscillation"] < 1e-9
    assert len(summary["leaf_smix"]) == 16


_LEAVES = {"base_grid": {"dims": [[TWO_PI, 8]]}, "fiber_grid": {"dims": [[TWO_PI, 8]]},
           "v": {"const": 1.0}}


@pytest.mark.parametrize("cfg, missing", [
    pytest.param({"mode": "twisted", **_LEAVES, "u": {"const": 1.0}}, "u", id="twisted"),
    pytest.param({"mode": "warp", **_LEAVES}, "v", id="warp"),
    pytest.param({"mode": "scaling", "s_mix": 1.0, "h_sq": 0.5, "t_sq": 0.5,
                  "u_const": 2.0}, "h_sq", id="scaling"),
])
def test_curvature_missing_mode_keys(tmp_path, capsys, cfg, missing):
    # the schema holds each mode's own inputs, so the error names the key
    cfg = {"subcommand": "curvature", **cfg}
    assert run_cli(tmp_path, cfg, out="whole")[0] == 0
    del cfg[missing]
    code, out_dir, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err == f"config error at $: {missing!r} is a required property\n"


def test_product_field_spec(tmp_path):
    cfg = {
        "subcommand": "curvature",
        "mode": "twisted",
        "base_grid": {"dims": [[TWO_PI, 12]]},
        "fiber_grid": {"dims": [[TWO_PI, 12]]},
        "v": {"const": 1.0},
        "u": {
            "form": "product",
            "factors": [
                {"form": "sin", "a": 2.0, "b": 1.0, "k": 1},
                {"const": 1.0},
            ],
        },
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 0
    assert summary["smix_min"] < 0.0 < summary["smix_max"]


def test_product_field_wrong_factor_count(tmp_path):
    cfg = {
        "subcommand": "ground-state",
        "grid": {"dims": [[TWO_PI, 8], [TWO_PI, 8]]},
        "beta": {"form": "product", "factors": [{"const": 1.0}]},
    }
    code, _, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_attract_checks_epsilon_before_the_flow(tmp_path, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("the flow ran before epsilon was checked")

    monkeypatch.setattr(cli, "evolve_to_attractor", not_called)
    cfg = {
        "subcommand": "attract",
        "grid": {"dims": [[TWO_PI, 64]]},
        "beta": {"const": -0.1},
        "psi1": {"const": 1.0},
        "psi2": {"const": 1.0},
        "epsilon": 100.0,
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 2
    assert summary is None


def test_sweep_subcommand(tmp_path):
    cfg = {
        "subcommand": "sweep",
        "grid": {"dims": [[TWO_PI, 32]]},
        "q": {"start": 0.0, "stop": 0.4, "count": 5},
        "beta": {"const": -1.0},
        "psi1": {"form": "sin", "a": 2.0, "b": {"base": 0.0, "slope": 1.0}, "k": 1},
        "psi2": {"const": 0.0},
        "tol": 1e-8,
    }
    code, out_dir, summary = run_cli(tmp_path, cfg)
    assert code == 0
    keys = {"schema", "subcommand", "q", "lambda0", "gap", "gap_min", "lipschitz"}
    assert set(summary) == keys
    # one parameter, so one Lipschitz quotient of the attractors, under "0"
    (lipschitz,) = summary["lipschitz"].items()
    assert lipschitz[0] == "0"
    assert isinstance(lipschitz[1], float) and np.isfinite(lipschitz[1])
    assert summary["gap_min"] > 0.0
    assert len(summary["lambda0"]) == 5
    assert summary["lambda0"][0] == pytest.approx(1.0, abs=1e-10)
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "q1,lambda0,gap,min_ratio,max_ratio"
    assert len(lines) == 6
    assert "smoothness" not in summary
    # from 9 q points on, the summary carries the Richardson smoothness test;
    # beta = -1 + q cos x makes lambda0 vary with q, so the ratio is not degenerate
    cfg["q"]["count"] = 9
    cfg["beta"] = {"form": "cos", "a": -1.0, "b": {"base": 0.0, "slope": 1.0}, "k": 1}
    code, _, summary = run_cli(tmp_path, cfg, out="out9")
    assert code == 0
    assert set(summary) == keys | {"smoothness"}
    smooth = summary["smoothness"]
    assert set(smooth) == {"order", "ratio", "refinement_gap", "passed"}
    assert smooth["order"] == 2 and smooth["passed"] is True
    assert smooth["ratio"] == pytest.approx(4.0, abs=0.1)
    assert smooth["refinement_gap"] > 0.0


@pytest.mark.parametrize("tol", [0.0, 1e-3])
def test_sweep_bad_tol_is_a_config_error(tmp_path, tol):
    cfg = {
        "subcommand": "sweep",
        "grid": {"dims": [[TWO_PI, 16]]},
        "q": {"start": 0.0, "stop": 0.4, "count": 3},
        "beta": {"const": -1.0},
        "psi1": {"const": 2.0},
        "psi2": {"const": 0.0},
        "tol": tol,
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 2
    assert summary is None


@pytest.mark.parametrize("tol", [0.0, 1e-3])
def test_attract_bad_tol_is_a_config_error_before_the_ground_state(
    tmp_path, monkeypatch, tol
):
    def never(*args, **kwargs):
        raise AssertionError("built the problem before checking tol")

    monkeypatch.setattr(cli, "build_problem", never)
    cfg = {"subcommand": "attract", "grid": {"dims": [[TWO_PI, 16]]},
           "beta": {"const": -0.1}, "psi1": {"const": 1.0}, "psi2": {"const": 1.0},
           "tol": tol}
    code, out_dir, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("cfg", [
    {"subcommand": "ground-state", "grid": {"dims": [[TWO_PI, 16]]},
     "beta": {"form": "cos", "a": -0.1, "b": 0.3, "k": 1}},
    {"subcommand": "curvature", "mode": "warp", "base_grid": {"dims": [[TWO_PI, 16]]},
     "fiber_grid": {"dims": [[TWO_PI, 8]]},
     "v": {"form": "cos", "a": 2.0, "b": 1.0, "k": 1}},
], ids=["ground-state", "warp"])
def test_tol_is_a_config_error_without_an_attractor(tmp_path, cfg):
    # the eigen-solver stops on its residual target alone, so only the
    # attractor's subcommands take a tol
    assert run_cli(tmp_path, cfg)[0] == 0
    code, out_dir, _ = run_cli(tmp_path, {**cfg, "tol": 1e-8}, out="with_tol")
    assert code == 2
    assert not out_dir.exists()
    assert [sub for sub, schema in _SCHEMAS.items()
            if "tol" in schema["properties"]] == ["attract", "sweep"]


def test_unknown_key_rejected(tmp_path):
    code, _, _ = run_cli(
        tmp_path,
        {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0, "zzz": 1},
    )
    assert code == 2


def test_unknown_subcommand_rejected(tmp_path):
    code, _, _ = run_cli(tmp_path, {"subcommand": "frobnicate"})
    assert code == 2


def test_missing_config_file(tmp_path):
    assert main([str(tmp_path / "absent.json")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main([str(path)]) == 2


@pytest.mark.parametrize("text", [
    # valid JSON of the wrong shape
    '[{"subcommand": "roots"}]',
    '"roots"',
    '{"subcommand": ["roots"]}',
    # no --out is given, so the output directory would come from "out"
    '{"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0, "out": 5}',
    # literals that json.load accepts but JSON does not have
    '{"subcommand": "phase", "beta": -1.0, "psi1": 1.0, "psi2": 1.0,'
    ' "u0": 1.0, "v0": 0.0, "T": Infinity, "dt": 0.01}',
    '{"subcommand": "roots", "lambda0": NaN, "psi1": 1.0, "psi2": 1.0}',
    '{"subcommand": "roots", "lambda0": 0.1, "psi1": -Infinity, "psi2": 1.0}',
    # a float literal that overflows to infinity
    '{"subcommand": "roots", "lambda0": 1e400, "psi1": 1.0, "psi2": 1.0}',
    # integer literals too large for a float
    pytest.param(
        '{"subcommand": "roots", "lambda0": 1%s, "psi1": 1.0, "psi2": 1.0}'
        % ("0" * 400),
        id="lambda0-10**400",
    ),
    pytest.param(
        '{"subcommand": "ground-state", "grid": {"dims": [[6.28, 1%s]]},'
        ' "beta": {"const": 0.0}}' % ("0" * 400),
        id="points-10**400",
    ),
])
def test_malformed_configs_are_config_errors(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("exc, numbers", [
    (ConvergenceError("no root", residual=1e-3), {"residual": 1e-3}),
    (AdmissibilityError("not admissible", margin=-0.5), {"margin": -0.5}),
    (PositivityLossError("positivity lost", dt=2.0**-40, min_value=-3.25),
     {"dt": 2.0**-40, "min_value": -3.25}),
    (PositivityLossError("positivity lost", dt=0.5), {"dt": 0.5}),
    (BasinError("left the basin", time=12.5, min_ratio=0.75),
     {"time": 12.5, "min_ratio": 0.75}),
    (PhaseSpaceExitError("orbit left", exit_time=7), {"exit_time": 7.0}),
    (BlowdownError("escapes toward zero"), {}),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else "-".join(v))
def test_failure_summary_carries_every_number(tmp_path, monkeypatch, exc, numbers):
    def failing(cfg):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "roots", failing)
    code, _, summary = run_cli(
        tmp_path, {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0}
    )
    assert code == 3
    assert summary["subcommand"] == "roots"
    error = summary["error"]
    assert error.pop("type") == type(exc).__name__
    assert error.pop("message") == str(exc)
    assert error == numbers
    assert all(type(v) is float for v in error.values())


def test_numerical_failure_exit_code(tmp_path):
    cfg = {
        "subcommand": "attract",
        "grid": {"dims": [[TWO_PI, 32]]},
        "beta": {"const": -0.25},
        "psi1": {"const": 1.0},
        "psi2": {"const": 1.0},
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 3
    assert summary["error"]["type"] == "AdmissibilityError"
    assert "margin" in summary["error"]["message"]
    # the number behind the failure, not only the message
    margin = summary["error"]["margin"]
    assert isinstance(margin, float) and margin <= 0.0
    assert f"margin={margin!r}" in summary["error"]["message"]
    assert set(summary["error"]) == {"type", "message", "margin"}


def test_sweep_newton_failure_summary_carries_residual(tmp_path, monkeypatch):
    monkeypatch.setattr(heatflow, "_NEWTON_MAX_ITERATIONS", 1)
    cfg = {
        "subcommand": "sweep",
        "grid": {"dims": [[TWO_PI, 32]]},
        "q": {"start": 0.0, "stop": 0.2, "count": 3},
        "beta": {"form": "cos", "a": -0.05, "b": {"base": 0.04, "slope": 0.0}, "k": 1},
        "psi1": {"const": 1.0},
        "psi2": {"const": 1.0},
        "tol": 1e-9,
    }
    code, out_dir, summary = run_cli(tmp_path, cfg)
    assert code == 3
    error = summary["error"]
    assert error["type"] == "ConvergenceError"
    assert "after 1 iterations" in error["message"]
    assert isinstance(error["residual"], float) and error["residual"] > 1e-8
    assert f"residual={error['residual']!r}" in error["message"]
    assert set(error) == {"type", "message", "residual"}
    assert not (out_dir / "sweep.csv").exists()


def test_impossible_allocation_is_a_numerical_failure(tmp_path, capsys):
    # 1e15 RK4 steps: the orbit's arrays would take 7.11 PiB, more than the
    # address space, so the allocation fails without touching memory
    cfg = {
        "subcommand": "phase",
        "beta": -1.0,
        "psi1": 1.0,
        "psi2": 0.1,
        "u0": 0.6,
        "v0": 0.0,
        "T": 1e12,
        "dt": 1e-3,
    }
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 3
    assert set(summary["error"]) == {"type", "message"}
    assert summary["error"]["type"] == "MemoryError"
    assert "PiB" in summary["error"]["message"]
    assert "Traceback" not in capsys.readouterr().err


_ORBIT = {"subcommand": "phase", "beta": -1.0, "psi1": 1.0, "psi2": 1.0, "u0": 1.0,
          "v0": 0.0, "T": 1.0}


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("cfg, error_type", [
    pytest.param({"subcommand": "roots", "lambda0": 1e300, "psi1": 1e300,
                  "psi2": 1e-300}, "OverflowError", id="roots-margin-overflow"),
    pytest.param({"subcommand": "ode", "beta": -1e-300, "psi1": 1e300,
                  "psi2": 1e-300, "y0": 1.0, "T": 1.0}, "ZeroDivisionError",
                 id="ode-slope-zero-division"),
    pytest.param({"subcommand": "curvature", "mode": "scaling", "s_mix": 1.0,
                  "h_sq": 1e300, "t_sq": 1e300, "u_const": 1e-100}, "OverflowError",
                 id="scaling-overflow"),
    pytest.param({**_ORBIT, "dt": 1e-320}, "OverflowError", id="phase-step-count"),
    pytest.param({"subcommand": "ground-state", "grid": {"dims": [[6.28, 8]]},
                  "beta": {"form": "cos", "a": 0.0, "b": 1e300, "k": 1}},
                 "ConvergenceError", id="ground-state-nan"),
])
def test_float_range_failures_are_numerical_failures(tmp_path, capsys, cfg, error_type):
    code, out_dir, _ = run_cli(tmp_path, cfg)
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    summary = _strict_json((out_dir / "summary.json").read_text())
    assert summary["error"]["type"] == error_type


def test_non_finite_result_names_its_key(tmp_path):
    cfg = {"subcommand": "roots", "lambda0": 1e-320, "psi1": 1.0, "psi2": 1e-300}
    code, _, summary = run_cli(tmp_path, cfg)
    assert code == 3
    assert set(summary) == {"schema", "subcommand", "error"}
    assert summary["error"] == {
        "type": "GroundflowError", "message": "result summary.y1 is not finite (inf)"
    }


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_failure_number_is_null(tmp_path, monkeypatch, value):
    def failing(cfg):
        raise ConvergenceError("left float range", residual=value)

    monkeypatch.setitem(cli._RUNNERS, "roots", failing)
    code, out_dir, _ = run_cli(
        tmp_path, {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0}
    )
    assert code == 3
    error = _strict_json((out_dir / "summary.json").read_text())["error"]
    assert error == {"type": "ConvergenceError", "message": "left float range",
                     "residual": None}


def test_success_summary_bytes_are_pinned(tmp_path):
    # failure summaries gained numeric fields; success summaries keep their bytes
    code, out_dir, _ = run_cli(
        tmp_path, {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0}
    )
    assert code == 0
    assert (out_dir / "summary.json").read_text() == (
        "{\n"
        '  "admissible": true,\n'
        '  "lambda0": 0.1,\n'
        '  "margin": 0.6,\n'
        '  "mu0": 0.1,\n'
        '  "schema": 1,\n'
        '  "subcommand": "roots",\n'
        '  "y1": 2.978755335069904,\n'
        '  "y2": 1.061610405842267,\n'
        '  "y3": 1.5544125858650473,\n'
        '  "y4": 2.449489742783178\n'
        "}\n"
    )


@pytest.mark.parametrize("sub", sorted(_SCHEMAS))
def test_schemas_are_valid(sub):
    schema = _SCHEMAS[sub]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("config", [
    {"subcommand": "roots", "lambda0": "x", "psi1": 1.0, "psi2": 1.0},
    {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0},
    {"subcommand": "sweep", "grid": {"dims": [[1.0]]}, "q": {}, "beta": {},
     "psi1": {"const": 1}, "psi2": {"form": "tan"}},
    {"subcommand": "curvature", "mode": "warp", "v": {"const": 1, "b": 2}},
    # a product's factors apply by position, so a factor takes no "axis"
    {"subcommand": "ground-state", "grid": {"dims": [[1.0, 8], [1.0, 8]]},
     "beta": {"form": "product", "factors": [
         {"form": "cos", "a": -0.1, "b": 0.05, "k": 1, "axis": 1}, {"const": 1.0}]}},
])
def test_config_errors_match_jsonschema_validate(tmp_path, config):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, _SCHEMAS[config["subcommand"]])
    with pytest.raises(jsonschema.ValidationError) as got:
        run(config, tmp_path)
    assert got.value.json_path == expected.value.json_path
    assert got.value.message == expected.value.message
    assert not any(tmp_path.iterdir())


def test_run_accepts_a_str_output_directory(tmp_path):
    # the directory is made only after the runner returns, so a str path
    # must work there too, not only at the start
    out = tmp_path / "out"
    config = {"subcommand": "roots", "lambda0": 0.1, "psi1": 1.0, "psi2": 1.0}
    assert run(config, str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["admissible"] is True


def test_semantic_grid_error(tmp_path, capsys):
    const = {"const": 0.0}
    for dims, beta in [
        ([[TWO_PI, 3]], const),
        # a fractional point count is not truncated to 8
        ([[TWO_PI, 8.5]], const),
        # a one-axis field along an axis the grid does not have
        ([[TWO_PI, 8]], {"form": "cos", "a": 0.0, "b": 1.0, "k": 1, "axis": 1}),
    ]:
        cfg = {"subcommand": "ground-state", "grid": {"dims": dims}, "beta": beta}
        code, _, summary = run_cli(tmp_path, cfg)
        assert code == 2
        assert summary is None
        assert capsys.readouterr().err.startswith("config error")


_CIRCLE = {"dims": [[TWO_PI, 16]]}


@pytest.mark.parametrize("cfg", [
    pytest.param({"subcommand": "attract", "grid": _CIRCLE, "beta": {"const": -0.1},
                  "psi1": {"const": 1.0}, "psi2": {"const": 1.0}, "epsilon": 100.0},
                 id="attract-epsilon"),
    pytest.param({"subcommand": "ground-state", "grid": {"dims": [[TWO_PI, 8.5]]},
                  "beta": {"const": 0.0}}, id="fractional-points"),
    # 4/h**2 divides by zero, or overflows
    pytest.param({"subcommand": "ground-state", "grid": {"dims": [[1e-300, 4]]},
                  "beta": {"const": 0.0}}, id="spacing-zero-division"),
    pytest.param({"subcommand": "ground-state", "grid": {"dims": [[1e-160, 8]]},
                  "beta": {"const": 0.0}}, id="spacing-overflow"),
    pytest.param({"subcommand": "ground-state", "grid": _CIRCLE,
                  "beta": {"form": "cos", "a": 0.0, "b": 1.0, "k": 1, "axis": 1}},
                 id="field-axis"),
    pytest.param({"subcommand": "curvature", "mode": "twisted", "base_grid": _CIRCLE,
                  "fiber_grid": _CIRCLE, "v": {"const": 1.0}}, id="twisted-without-u"),
    pytest.param({"subcommand": "phase", "beta": -1.0, "psi1": 1.0, "psi2": 1.0,
                  "u0": 1.0, "v0": 0.0, "T": 1.0, "dt": 0.1,
                  "portrait": {"u_min": 0.0, "u_max": 2.0, "nu": 3,
                               "v_min": -1.0, "v_max": 1.0, "nv": 3}},
                 id="portrait-u-min-0"),
])
def test_config_error_leaves_no_output_directory(tmp_path, capsys, cfg):
    code, out_dir, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out_dir.exists()


def test_out_dir_from_config(tmp_path, monkeypatch):
    cfg = {
        "subcommand": "roots",
        "lambda0": 0.1,
        "psi1": 1.0,
        "psi2": 1.0,
        "out": str(tmp_path / "cfg_out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([str(path)]) == 0
    assert (tmp_path / "cfg_out" / "summary.json").exists()
