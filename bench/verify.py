"""Output checks for benchmark runs: flags, CSV shapes, oracles, references.

A run passes when every config exited 0, every certification flag in
``summary.json`` holds, every CSV has the row count its config implies,
lambda0 matches the dense ``spectrum_oracle`` and the scalar results match
adaptive-integration oracles, and the recorded per-seed reference (if
``references.json`` has one) matches.  All comparisons use the stated
tolerances below, never bit equality, because solver changes move
round-off.  ``oracle()`` is computed once per benchmark run, outside the
timed region, from the same configs the program received.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from groundflow.grid import ScalarField, make_torus_grid
from groundflow.schrodinger import spectrum_oracle

REFERENCES = Path(__file__).with_name("references.json")

LAMBDA_ATOL = 1e-8  # lambda0 against the dense eigensolver (its own error ~1e-10)
GAP_RTOL = 1e-6  # gap: block iteration stops at 1e-9 relative change
LEAF_OSCILLATION_MAX = 1e-9
PERIOD_RTOL = 1e-5  # orbit crossings are interpolated linearly in a 1e-3 step
TERMINAL_RTOL = 1e-8

#: digest key -> (relative tolerance, absolute tolerance) for per-seed references
REFERENCE_TOL = {
    "lambda0": (0.0, 1e-8),
    "gap": (1e-6, 0.0),
    "y1_minus": (1e-8, 0.0),
    "y1_plus": (1e-8, 0.0),
    "min_ratio": (1e-6, 0.0),
    "max_ratio": (1e-6, 0.0),
    "mu": (1e-8, 0.0),
    "converged_at": (0.05, 0.0),
    "smoothness_ratio": (0.0, 0.05),
    "lipschitz": (1e-3, 0.0),
    "leaf_smix": (0.0, 1e-8),
    "period": (1e-6, 0.0),
    "separatrix_level": (1e-10, 0.0),
    "terminal": (1e-8, 0.0),
}


def _grid(spec):
    return make_torus_grid([tuple(pair) for pair in spec["dims"]])


def _field_values(spec, grid, q=None):
    """Independent evaluation of the CLI's constant and one-axis fields."""
    def scalar(slot):
        return slot["base"] + slot["slope"] * q if isinstance(slot, dict) else slot

    mesh = grid.meshgrid()
    if "const" in spec:
        return np.full(grid.shape, float(scalar(spec["const"]))).ravel()
    wave = np.sin if spec["form"] == "sin" else np.cos
    coord = mesh[spec.get("axis", 0)]
    return (scalar(spec["a"]) + scalar(spec["b"]) * wave(spec["k"] * coord)).ravel()


def _lambda0(grid, beta_values, k=1):
    return spectrum_oracle(grid, ScalarField(grid, beta_values), k)


def _force(u, beta, psi1, psi2):
    return beta * u + psi1 / u - psi2 / u**3


def _orbit_period(cfg):
    """Time between the first two upward v = 0 crossings, by DOP853."""
    beta, psi1, psi2 = cfg["beta"], cfg["psi1"], cfg["psi2"]

    def upward(t, y):
        return y[1]
    upward.direction = 1.0
    sol = solve_ivp(
        lambda t, y: [y[1], -_force(y[0], beta, psi1, psi2)],
        (0.0, cfg["T"]), [cfg["u0"], cfg["v0"]],
        events=upward, rtol=1e-12, atol=1e-14, method="DOP853",
    )
    crossings = sol.t_events[0]
    return float(crossings[1] - crossings[0])


def _flow_terminal(cfg):
    lam, A, B = -cfg["beta"], cfg["psi1"], cfg["psi2"]
    sol = solve_ivp(
        lambda t, y: -lam * y + A / y - B / y**3,
        (0.0, cfg["T"]), [cfg["y0"]], rtol=1e-12, atol=1e-14, method="DOP853",
    )
    return float(sol.y[0, -1])


def oracle(configs) -> list[dict]:
    """Independent reference values, one dict per config."""
    refs = []
    for cfg in configs:
        sub = cfg["subcommand"]
        if sub == "attract":
            grid = _grid(cfg["grid"])
            refs.append({"lambda0": float(_lambda0(grid, _field_values(cfg["beta"], grid))[0])})
        elif sub == "sweep":
            grid = _grid(cfg["grid"])
            q = cfg["q"]
            lam, gap = [], []
            for qv in np.linspace(q["start"], q["stop"], q["count"]):
                vals = _lambda0(grid, _field_values(cfg["beta"], grid, qv), k=2)
                lam.append(float(vals[0]))
                gap.append(float(vals[1] - vals[0]))
            refs.append({"lambda0": lam, "gap": gap})
        elif sub == "curvature":
            base, fiber = _grid(cfg["base_grid"]), _grid(cfg["fiber_grid"])
            product = make_torus_grid(base.dims + fiber.dims)
            # one fiber axis: leaf j is column j of the (base, fiber) array
            v = _field_values(cfg["v"], product).reshape(base.total_points, -1)
            h = fiber.spacings[0]
            lap_v = (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / (h * h)
            beta = (base.ndim / fiber.ndim) * lap_v / v
            refs.append({"leaf_smix": [
                fiber.ndim * float(_lambda0(base, np.ascontiguousarray(leaf))[0])
                for leaf in beta.T
            ]})
        elif sub == "phase":
            refs.append({"period": _orbit_period(cfg)})
        elif sub == "ode":
            refs.append({"terminal": _flow_terminal(cfg)})
        else:
            raise ValueError(f"no oracle for subcommand {sub!r}")
    return refs


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _close(value, expected, rtol, atol) -> bool:
    value, expected = np.asarray(value, float), np.asarray(expected, float)
    return value.shape == expected.shape and bool(
        np.all(np.abs(value - expected) <= atol + rtol * np.abs(expected))
    )


def _check_one(cfg, out: Path, ref: dict) -> list[str]:
    summary = json.loads((out / "summary.json").read_text())
    sub = cfg["subcommand"]
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(f"{sub}: {what}")

    if sub == "attract":
        tol = cfg.get("tol", 1e-8)
        need(summary["sandwich"]["passed"] is True, "sandwich not certified")
        need(summary["exponential_bound"]["passed"] is True, "exponential bound not certified")
        need(summary["residual"] <= 10.0 * tol, f"stationary residual {summary['residual']!r}")
        need(abs(summary["lambda0"] - ref["lambda0"]) <= LAMBDA_ATOL,
             f"lambda0 {summary['lambda0']!r} vs oracle {ref['lambda0']!r}")
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        need(len(rows) >= 2 and np.all(np.diff(rows[:, 0]) > 0.0), "trace.csv times")
        need(rows[-1, 1] == 0.0 and rows[-1, 0] == summary["converged_at"],
             "trace.csv does not end at the attractor")
    elif sub == "sweep":
        need(summary["smoothness"]["passed"] is True, "smoothness test failed")
        need(_close(summary["lambda0"], ref["lambda0"], 0.0, LAMBDA_ATOL), "lambda0 vs oracle")
        need(_close(summary["gap"], ref["gap"], GAP_RTOL, 0.0), "gap vs oracle")
        need(_csv_rows(out / "sweep.csv") == cfg["q"]["count"], "sweep.csv rows")
    elif sub == "curvature":
        need(summary["max_leaf_oscillation"] < LEAF_OSCILLATION_MAX,
             f"leaf oscillation {summary['max_leaf_oscillation']!r}")
        need(_close(summary["leaf_smix"], ref["leaf_smix"], 0.0, LAMBDA_ATOL),
             "leaf curvature vs oracle")
        points = math.prod(p for _, p in cfg["base_grid"]["dims"] + cfg["fiber_grid"]["dims"])
        need(_csv_rows(out / "field.csv") == points, "field.csv rows")
    elif sub == "phase":
        need(summary["closed"] is True, "orbit not closed")
        need(summary["period"] is not None and _close(summary["period"], ref["period"], PERIOD_RTOL, 0.0),
             f"period {summary['period']!r} vs oracle {ref['period']!r}")
        steps = math.ceil(cfg["T"] / cfg["dt"] - 1e-12)
        need(_csv_rows(out / "orbit.csv") == steps + 1, "orbit.csv rows")
        pt = cfg["portrait"]
        need(_csv_rows(out / "portrait.csv") == pt["nu"] * pt["nv"], "portrait.csv rows")
    elif sub == "ode":
        flow = summary["flow"]
        need(_close(flow["terminal"], ref["terminal"], TERMINAL_RTOL, 0.0),
             f"terminal {flow['terminal']!r} vs oracle {ref['terminal']!r}")
    return bad


def check(configs, run_dir: Path, exit_codes, refs, reference=None) -> list[str]:
    """Every reason the run in ``run_dir`` fails; empty when it passes.

    ``run_dir/<index>`` holds the outputs of ``configs[index]``;
    ``reference`` is the recorded digest for this workload and seed.
    """
    if len(exit_codes) != len(configs):
        return [f"{len(exit_codes)} exit codes for {len(configs)} configs"]
    bad = []
    for index, (cfg, code, ref) in enumerate(zip(configs, exit_codes, refs)):
        if code != 0:
            bad.append(f"{cfg['subcommand']}: exit code {code}")
            continue
        try:
            bad += _check_one(cfg, run_dir / str(index), ref)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            bad.append(f"{cfg['subcommand']}: unreadable output ({type(exc).__name__}: {exc})")
    if not bad and reference is not None:
        bad += compare_reference(digest(configs, run_dir), reference)
    return bad


def digest(configs, run_dir: Path) -> dict:
    """The summary values kept as a per-seed reference."""
    keep = {
        "attract": lambda s: {
            "lambda0": s["lambda0"], "y1_minus": s["y1_minus"], "y1_plus": s["y1_plus"],
            "min_ratio": s["sandwich"]["min_ratio"], "max_ratio": s["sandwich"]["max_ratio"],
            "mu": s["exponential_bound"]["mu"], "converged_at": s["converged_at"],
        },
        "sweep": lambda s: {
            "lambda0": s["lambda0"], "gap": s["gap"],
            "smoothness_ratio": s["smoothness"]["ratio"], "lipschitz": s["lipschitz"]["0"],
        },
        "curvature": lambda s: {"leaf_smix": s["leaf_smix"]},
        "phase": lambda s: {"period": s["period"], "separatrix_level": s["separatrix_level"]},
        "ode": lambda s: {"terminal": s["flow"]["terminal"]},
    }
    out = {}
    for index, cfg in enumerate(configs):
        sub = cfg["subcommand"]
        summary = json.loads((run_dir / str(index) / "summary.json").read_text())
        out.update({f"{sub}.{k}": v for k, v in keep[sub](summary).items()})
    return out


def compare_reference(values: dict, reference: dict) -> list[str]:
    bad = []
    for key, expected in reference.items():
        rtol, atol = REFERENCE_TOL[key.split(".", 1)[1]]
        if key not in values or not _close(values[key], expected, rtol, atol):
            bad.append(f"{key}: {values.get(key)!r} vs reference {expected!r}")
    return bad


def load_reference(workload: str, seed: int):
    """Recorded digest for this workload and seed, or None if not recorded."""
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))
