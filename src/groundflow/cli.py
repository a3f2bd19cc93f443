"""Command-line frontend: one JSON config in, CSV + JSON summary out.

Usage: ``groundflow CONFIG.json [--out DIR]``.  The config selects a
subcommand and its inputs; fields are built from a small declarative
catalog (constants, a + b*sin(kx), a + b*cos(kx), per-axis products) so
runs stay reproducible.  Exit codes: 0 success, 2 config error,
3 numerical failure (with the reason, and the numbers the exception
carries, recorded in summary.json).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import circle_dynamics as cd
from . import curvature as cv
from .comparison import (
    ExtremaCoeffs,
    check_admissible,
    classify_fixed_points,
    decay_rate_mu,
    make_profile,
    scalar_flow,
)
from .errors import GroundflowError
from .grid import Grid, ScalarField, make_torus_grid
from .heatflow import (
    build_problem,
    certify_exponential_bound,
    certify_sandwich,
    evolve_to_attractor,
    stationary_residual,
    trace_to_csv,
)
from .param_sweep import (
    ParamFamily,
    smoothness_diagnostic,
    sweep_attractor,
    sweep_to_csv,
)
from .schrodinger import ground_state

SCHEMA_VERSION = 1
# numeric attributes of the package's exceptions, copied into failure summaries
_ERROR_NUMBERS = (
    "margin", "residual", "time", "min_ratio", "dt", "min_value",
    "exit_time",
)


def _object(required, **properties):
    """Schema of a JSON object with exactly the given properties."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": list(required),
        "properties": properties,
    }


def _command(name, required, **properties):
    """Schema of one subcommand's config: its name first, ``out`` last."""
    return _object(
        ["subcommand", *required],
        subcommand={"const": name},
        **properties,
        out={"type": "string"},
    )


_NUMBER = {"type": "number"}
_QNUMBER = {
    "oneOf": [
        {"type": "number"},
        _object(["base", "slope"], base={"type": "number"}, slope={"type": "number"}),
    ]
}


def _field_schema(scalar):
    one_axis = _object(
        ["form", "a", "b", "k"],
        form={"enum": ["sin", "cos"]},
        a=scalar,
        b=scalar,
        k={"type": "integer", "minimum": 0},
        axis={"type": "integer", "minimum": 0},
    )
    const = _object(["const"], const=scalar)
    return {
        "oneOf": [
            const,
            one_axis,
            _object(
                ["form", "factors"],
                form={"const": "product"},
                factors={
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "items": {"oneOf": [const, one_axis]},
                },
            ),
        ]
    }


_FIELD = _field_schema(_NUMBER)
_QFIELD = _field_schema(_QNUMBER)

_GRID = _object(
    ["dims"],
    dims={
        "type": "array",
        "minItems": 1,
        "maxItems": 3,
        "items": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": "number"},
        },
    },
)

_SCHEMAS = {
    "roots": _command(
        "roots",
        ["lambda0", "psi1", "psi2"],
        lambda0=_NUMBER,
        psi1=_NUMBER,
        psi2=_NUMBER,
    ),
    "ground-state": _command(
        "ground-state",
        ["grid", "beta"],
        grid=_GRID,
        beta=_FIELD,
        tol={"type": "number"},
    ),
    "attract": _command(
        "attract",
        ["grid", "beta", "psi1", "psi2"],
        grid=_GRID,
        beta=_FIELD,
        psi1=_FIELD,
        psi2=_FIELD,
        u0_ratio=_NUMBER,
        u0=_FIELD,
        tol={"type": "number"},
        t_max={"type": "number"},
        epsilon={"type": "number"},
        tol_h={"type": "number"},
    ),
    "ode": _command(
        "ode",
        ["beta", "psi1", "psi2"],
        beta=_NUMBER,
        psi1=_NUMBER,
        psi2=_NUMBER,
        y0=_NUMBER,
        T=_NUMBER,
        dt=_NUMBER,
    ),
    "phase": _command(
        "phase",
        ["beta", "psi1", "psi2", "u0", "v0", "T", "dt"],
        beta=_NUMBER,
        psi1=_NUMBER,
        psi2=_NUMBER,
        u0=_NUMBER,
        v0=_NUMBER,
        T=_NUMBER,
        dt=_NUMBER,
        portrait=_object(
            ["u_min", "u_max", "nu", "v_min", "v_max", "nv"],
            u_min=_NUMBER,
            u_max=_NUMBER,
            nu={"type": "integer", "minimum": 2},
            v_min=_NUMBER,
            v_max=_NUMBER,
            nv={"type": "integer", "minimum": 2},
        ),
    ),
    "curvature": _command(
        "curvature",
        ["mode"],
        mode={"enum": ["twisted", "warp", "scaling"]},
        base_grid=_GRID,
        fiber_grid=_GRID,
        u=_FIELD,
        v=_FIELD,
        tol={"type": "number"},
        s_mix=_NUMBER,
        h_sq=_NUMBER,
        t_sq=_NUMBER,
        u_const=_NUMBER,
    ),
    "sweep": _command(
        "sweep",
        ["grid", "q", "beta", "psi1", "psi2"],
        grid=_GRID,
        q=_object(
            ["start", "stop", "count"],
            start=_NUMBER,
            stop=_NUMBER,
            count={"type": "integer", "minimum": 2},
        ),
        beta=_QFIELD,
        psi1=_QFIELD,
        psi2=_QFIELD,
        tol={"type": "number"},
    ),
}


class ConfigError(Exception):
    pass


@functools.cache
def _validator(sub: str):
    """The validator of one subcommand's schema, built once.

    ``jsonschema.validate`` checks the schema against the metaschema on
    every call; the schemas are fixed, so the tests check them once.
    """
    schema = _SCHEMAS[sub]
    return jsonschema.validators.validator_for(schema)(schema)


def _parse_grid(spec) -> Grid:
    return make_torus_grid([tuple(pair) for pair in spec["dims"]])


def _resolve_scalar(slot, q):
    if isinstance(slot, dict):
        return slot["base"] + slot["slope"] * q
    return slot


def _one_axis_values(spec, coord, q):
    a = _resolve_scalar(spec["a"], q)
    b = _resolve_scalar(spec["b"], q)
    wave = np.sin if spec["form"] == "sin" else np.cos
    return a + b * wave(spec["k"] * coord)


def _parse_field(spec, grid: Grid, q=None) -> ScalarField:
    mesh = grid.meshgrid()
    if "const" in spec:
        return ScalarField.constant(grid, _resolve_scalar(spec["const"], q))
    if spec["form"] == "product":
        factors = spec["factors"]
        if len(factors) != grid.ndim:
            raise ConfigError(
                f"product field needs {grid.ndim} factors, got {len(factors)}"
            )
        vals = np.ones(grid.shape)
        for axis, factor in enumerate(factors):
            if "const" in factor:
                vals = vals * _resolve_scalar(factor["const"], q)
            else:
                vals = vals * _one_axis_values(factor, mesh[axis], q)
        return ScalarField(grid, vals.ravel())
    axis = spec.get("axis", 0)
    if axis >= grid.ndim:
        raise ConfigError(f"field axis {axis} out of range for {grid.ndim}-d grid")
    return ScalarField(grid, np.broadcast_to(
        _one_axis_values(spec, mesh[axis], q), grid.shape
    ).ravel())


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_summary(out_dir: Path, payload: dict):
    payload = {"schema": SCHEMA_VERSION, **payload}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _run_roots(cfg, out_dir):
    lam, psi1, psi2 = cfg["lambda0"], cfg["psi1"], cfg["psi2"]
    coeffs = ExtremaCoeffs(
        psi1_plus=psi1, psi1_minus=psi1, psi2_plus=psi2, psi2_minus=psi2
    )
    adm = check_admissible(lam, coeffs)
    summary = {
        "subcommand": "roots",
        "lambda0": lam,
        "admissible": adm.admissible,
        "margin": adm.margin,
    }
    if adm.admissible:
        profile = make_profile(lam, psi1, psi2)
        summary.update(
            y1=profile.y1, y2=profile.y2, y3=profile.y3, y4=profile.y4,
            mu0=decay_rate_mu(0.0, profile),
        )
    _write_summary(out_dir, summary)
    return 0


def _run_ground_state(cfg, out_dir):
    grid = _parse_grid(cfg["grid"])
    beta = _parse_field(cfg["beta"], grid)
    result = ground_state(grid, beta, tol=cfg.get("tol", 1e-8))
    cv.field_to_csv(result.e0, out_dir / "e0.csv")
    _write_summary(out_dir, {
        "subcommand": "ground-state",
        "lambda0": result.lambda0,
        "gap": result.gap,
        "iterations": result.iterations,
        "residual": result.residual,
        "e0_min": result.e0.min(),
        "e0_max": result.e0.max(),
    })
    return 0


def _run_attract(cfg, out_dir):
    grid = _parse_grid(cfg["grid"])
    p = build_problem(
        grid,
        _parse_field(cfg["beta"], grid),
        _parse_field(cfg["psi1"], grid),
        _parse_field(cfg["psi2"], grid),
        tol=cfg.get("tol", 1e-8),
    )
    y1m, y3m = p.profile_minus.y1, p.profile_minus.y3 or 0.0
    if "u0" in cfg:
        u0 = _parse_field(cfg["u0"], grid)
    else:
        ratio = cfg.get("u0_ratio", 0.5 * (y1m + p.profile_plus.y1))
        u0 = ScalarField(grid, ratio * p.e0.values)
    epsilon = cfg.get("epsilon", 0.5 * (y1m - y3m))
    tol = cfg.get("tol", 1e-8)
    u_star, trace = evolve_to_attractor(
        u0, p, tol=tol, t_max=cfg.get("t_max", 5000.0)
    )
    sandwich = certify_sandwich(u_star, p, tol_h=cfg.get("tol_h", 1e-3))
    bound = certify_exponential_bound(trace, p, epsilon)
    trace_to_csv(trace, out_dir / "trace.csv")
    _write_summary(out_dir, {
        "subcommand": "attract",
        "lambda0": p.lambda0,
        "margin": check_admissible(p.lambda0, p.coeffs).margin,
        "y1_minus": y1m,
        "y1_plus": p.profile_plus.y1,
        "y3_minus": p.profile_minus.y3,
        "epsilon": epsilon,
        "converged_at": trace.converged_at,
        "residual": stationary_residual(u_star, p),
        "sandwich": {
            "min_ratio": sandwich.min_ratio,
            "max_ratio": sandwich.max_ratio,
            "tol_h": sandwich.tol_h,
            "passed": sandwich.passed,
        },
        "exponential_bound": {
            "mu": bound.mu,
            "delta_inv": bound.delta_inv,
            "initial_distance": bound.initial_distance,
            "max_ratio": bound.max_ratio,
            "passed": bound.passed,
        },
    })
    return 0


def _run_ode(cfg, out_dir):
    beta, psi1, psi2 = cfg["beta"], cfg["psi1"], cfg["psi2"]
    points = classify_fixed_points(beta, psi1, psi2)
    summary = {
        "subcommand": "ode",
        "fixed_points": [{"root": r, "stability": s} for r, s in points],
    }
    if "y0" in cfg:
        if beta >= 0.0:
            raise ConfigError("scalar flow requires beta < 0")
        if "T" not in cfg:
            raise ConfigError("scalar flow requires T")
        profile = make_profile(-beta, psi1, psi2)
        traj = scalar_flow(
            cfg["y0"], profile, cfg["T"], dt=cfg.get("dt"), record_every=10
        )
        summary["flow"] = {
            "y0": cfg["y0"],
            "T": cfg["T"],
            "terminal": float(traj.terminal),
            "target_y1": profile.y1,
        }
    _write_summary(out_dir, summary)
    return 0


def _run_phase(cfg, out_dir):
    beta, psi1, psi2 = cfg["beta"], cfg["psi1"], cfg["psi2"]
    points = cd.fixed_points_and_types(beta, psi1, psi2)
    orbit = cd.integrate_orbit(
        cd.PlanarState(cfg["u0"], cfg["v0"]), beta, psi1, psi2, cfg["T"], cfg["dt"]
    )
    cd.orbit_to_csv(orbit, out_dir / "orbit.csv")
    if "portrait" in cfg:
        pt = cfg["portrait"]
        cd.portrait_to_csv(
            beta, psi1, psi2,
            np.linspace(pt["u_min"], pt["u_max"], pt["nu"]),
            np.linspace(pt["v_min"], pt["v_max"], pt["nv"]),
            out_dir / "portrait.csv",
        )
    _write_summary(out_dir, {
        "subcommand": "phase",
        "fixed_points": [{"u": r, "type": k} for r, k in points],
        "separatrix_level": cd.separatrix_level(beta, psi1, psi2),
        "energy_drift": orbit.energy_drift,
        "closed": orbit.closed,
        "period": orbit.period,
    })
    return 0


def _require(cfg, keys, mode):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"curvature mode {mode!r} requires keys {missing}")


def _run_curvature(cfg, out_dir):
    mode = cfg["mode"]
    summary = {"subcommand": "curvature", "mode": mode}
    if mode == "scaling":
        _require(cfg, ["s_mix", "h_sq", "t_sq", "u_const"], mode)
        summary["value"] = cv.scaled_mixed_curvature(
            cfg["s_mix"], cfg["h_sq"], cfg["t_sq"], cfg["u_const"]
        )
        _write_summary(out_dir, summary)
        return 0
    _require(cfg, ["base_grid", "fiber_grid", "v"], mode)
    base = _parse_grid(cfg["base_grid"])
    fiber = _parse_grid(cfg["fiber_grid"])
    product = make_torus_grid(base.dims + fiber.dims)
    v = _parse_field(cfg["v"], product)
    if mode == "twisted":
        _require(cfg, ["u"], mode)
        tp = cv.TwistedProduct(base, fiber, v, _parse_field(cfg["u"], product))
        smix = cv.mixed_scalar_curvature(tp)
        cv.field_to_csv(smix, out_dir / "field.csv")
        summary.update(smix_min=smix.min(), smix_max=smix.max())
    else:
        tp = cv.TwistedProduct(base, fiber, v)
        u, leaf_smix = cv.ground_state_warp(tp, tol=cfg.get("tol", 1e-8))
        smix = cv.mixed_scalar_curvature(
            cv.TwistedProduct(base, fiber, v, u)
        )
        per_leaf = smix.values.reshape(base.total_points, fiber.total_points)
        oscillation = float(np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)))
        cv.field_to_csv(u, out_dir / "field.csv")
        summary.update(
            leaf_smix=leaf_smix.tolist(), max_leaf_oscillation=oscillation
        )
    _write_summary(out_dir, summary)
    return 0


def _run_sweep(cfg, out_dir):
    grid = _parse_grid(cfg["grid"])
    q = cfg["q"]
    axis = np.linspace(q["start"], q["stop"], q["count"])

    def evaluator(spec):
        return lambda qv: _parse_field(spec, grid, q=qv)

    family = ParamFamily(
        grid=grid,
        q_axes=(axis,),
        beta_of_q=evaluator(cfg["beta"]),
        psi1_of_q=evaluator(cfg["psi1"]),
        psi2_of_q=evaluator(cfg["psi2"]),
    )
    result = sweep_attractor(family, tol=cfg.get("tol", 1e-8))
    sweep_to_csv(result, out_dir / "sweep.csv")
    summary = {
        "subcommand": "sweep",
        "q": axis.tolist(),
        "lambda0": result.lambda0.tolist(),
        "gap": result.gap.tolist(),
        "gap_min": float(result.gap.min()),
        "lipschitz": {str(k): v for k, v in result.lipschitz.items()},
    }
    if axis.size >= 9:
        smooth = smoothness_diagnostic(result, order=2)
        summary["smoothness"] = {
            "order": 2,
            "ratio": smooth.axes[0].ratio,
            "refinement_gap": smooth.axes[0].refinement_gap,
            "passed": smooth.passed,
        }
    _write_summary(out_dir, summary)
    return 0


_RUNNERS = {
    "roots": _run_roots,
    "ground-state": _run_ground_state,
    "attract": _run_attract,
    "ode": _run_ode,
    "phase": _run_phase,
    "curvature": _run_curvature,
    "sweep": _run_sweep,
}


def run(config: dict, out_dir: Path) -> int:
    sub = config.get("subcommand")
    if sub not in _RUNNERS:
        raise ConfigError(
            f"unknown subcommand {sub!r}; choose one of {sorted(_RUNNERS)}"
        )
    error = jsonschema.exceptions.best_match(_validator(sub).iter_errors(config))
    if error is not None:
        raise error
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _RUNNERS[sub](config, out_dir)
    except GroundflowError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        for name in _ERROR_NUMBERS:
            value = getattr(exc, name, None)
            if value is not None:
                error[name] = float(value)
        _write_summary(out_dir, {"subcommand": sub, "error": error})
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="groundflow",
        description="Run one certification pipeline from a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides config)")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(config.get("out", "."))
    try:
        return run(config, out_dir)
    except jsonschema.ValidationError as exc:
        print(f"config error at {exc.json_path}: {exc.message}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
