"""Command-line frontend: one JSON config in, CSV + JSON summary out.

Usage: ``groundflow CONFIG.json [--out DIR]``.  The config selects a
subcommand and its inputs; fields are built from a small declarative
catalog (constants, a + b*sin(kx), a + b*cos(kx), per-axis products) so
runs stay reproducible.  Exit codes: 0 success, 2 config error, 3 numerical
failure, float overflow, a result that is not finite or an allocation that
cannot succeed (with the reason, and the numbers the exception carries, in
summary.json, which is strict JSON).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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
    wave = {
        "form": {"enum": ["sin", "cos"]},
        "a": scalar,
        "b": scalar,
        "k": {"type": "integer", "minimum": 0},
    }
    one_axis = _object(
        ["form", "a", "b", "k"], **wave, axis={"type": "integer", "minimum": 0}
    )
    const = _object(["const"], const=scalar)
    # a product's factors apply by position, so they take no axis
    factor = _object(["form", "a", "b", "k"], **wave)
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
                    "items": {"oneOf": [const, factor]},
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
        # the attractor's stationary tolerance, checked before any numerics
        tol={"type": "number", "exclusiveMinimum": 0, "maximum": 1e-4},
        t_max={"type": "number"},
        epsilon={"type": "number"},
        tol_h={"type": "number"},
    ),
    "ode": {
        **_command(
            "ode",
            ["beta", "psi1", "psi2"],
            beta=_NUMBER,
            psi1=_NUMBER,
            psi2=_NUMBER,
            y0=_NUMBER,
            T=_NUMBER,
            dt=_NUMBER,
        ),
        # the scalar flow from y0 needs a horizon, and lambda0 = -beta > 0
        "dependentSchemas": {
            "y0": {"required": ["T"], "properties": {"beta": {"exclusiveMaximum": 0}}},
        },
    },
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
        # the phase plane is u > 0
        portrait=_object(
            ["u_min", "u_max", "nu", "v_min", "v_max", "nv"],
            u_min={"type": "number", "exclusiveMinimum": 0},
            u_max={"type": "number", "exclusiveMinimum": 0},
            nu={"type": "integer", "minimum": 2},
            v_min=_NUMBER,
            v_max=_NUMBER,
            nv={"type": "integer", "minimum": 2},
        ),
    ),
    "curvature": {
        **_command(
            "curvature",
            ["mode"],
            mode={"enum": ["twisted", "warp", "scaling"]},
            base_grid=_GRID,
            fiber_grid=_GRID,
            u=_FIELD,
            v=_FIELD,
            s_mix=_NUMBER,
            h_sq=_NUMBER,
            t_sq=_NUMBER,
            u_const=_NUMBER,
        ),
        # each mode's own inputs
        "allOf": [
            {
                "if": {"required": ["mode"], "properties": {"mode": {"const": mode}}},
                "then": {"required": keys},
            }
            for mode, keys in [
                ("twisted", ["base_grid", "fiber_grid", "v", "u"]),
                ("warp", ["base_grid", "fiber_grid", "v"]),
                ("scaling", ["s_mix", "h_sq", "t_sq", "u_const"]),
            ]
        ],
    },
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
        tol={"type": "number", "exclusiveMinimum": 0, "maximum": 1e-4},
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
    return make_torus_grid(spec["dims"])


def _resolve_scalar(slot, q):
    if isinstance(slot, dict):
        return slot["base"] + slot["slope"] * q
    return slot


def _one_axis_values(spec, grid: Grid, axis: int, q):
    """``a + b*wave(k*x)`` along ``axis``, shaped to broadcast over the grid."""
    shape = [-1 if ax == axis else 1 for ax in range(grid.ndim)]
    coord = grid.coords()[axis].reshape(shape)
    a = _resolve_scalar(spec["a"], q)
    b = _resolve_scalar(spec["b"], q)
    wave = np.sin if spec["form"] == "sin" else np.cos
    return a + b * wave(spec["k"] * coord)


def _parse_field(spec, grid: Grid, q=None) -> ScalarField:
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
                vals = vals * _one_axis_values(factor, grid, axis, q)
        return ScalarField(grid, vals.ravel())
    axis = spec.get("axis", 0)
    if axis >= grid.ndim:
        raise ConfigError(f"field axis {axis} out of range for {grid.ndim}-d grid")
    return ScalarField(grid, np.broadcast_to(
        _one_axis_values(spec, grid, axis, q), grid.shape
    ).ravel())


def _run_roots(cfg):
    lam, psi1, psi2 = cfg["lambda0"], cfg["psi1"], cfg["psi2"]
    coeffs = ExtremaCoeffs(
        psi1_plus=psi1, psi1_minus=psi1, psi2_plus=psi2, psi2_minus=psi2
    )
    adm = check_admissible(lam, coeffs)
    summary = {
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
    return summary, {}


def _run_ground_state(cfg):
    grid = _parse_grid(cfg["grid"])
    beta = _parse_field(cfg["beta"], grid)
    result = ground_state(grid, beta)
    return {
        "lambda0": result.lambda0,
        "gap": result.gap,
        "iterations": result.iterations,
        "residual": result.residual,
        "e0_min": result.e0.min(),
        "e0_max": result.e0.max(),
    }, {"e0.csv": functools.partial(cv.field_to_csv, result.e0)}


def _run_attract(cfg):
    grid = _parse_grid(cfg["grid"])
    p = build_problem(
        grid,
        _parse_field(cfg["beta"], grid),
        _parse_field(cfg["psi1"], grid),
        _parse_field(cfg["psi2"], grid),
    )
    y1m, y3m = p.profile_minus.y1, p.profile_minus.basin_edge
    if "u0" in cfg:
        u0 = _parse_field(cfg["u0"], grid)
    else:
        ratio = cfg.get("u0_ratio", 0.5 * (y1m + p.profile_plus.y1))
        u0 = ScalarField(grid, ratio * p.e0.values)
    epsilon = cfg.get("epsilon", 0.5 * (y1m - y3m))
    decay_rate_mu(epsilon, p.profile_minus)  # rejects epsilon before the flow
    u_star, trace = evolve_to_attractor(
        u0, p, tol=cfg.get("tol", 1e-8), t_max=cfg.get("t_max", 5000.0)
    )
    sandwich = certify_sandwich(u_star, p, tol_h=cfg.get("tol_h", 1e-3))
    bound = certify_exponential_bound(trace, p, epsilon)
    return {
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
        "exponential_bound": dataclasses.asdict(bound),
    }, {"trace.csv": functools.partial(trace_to_csv, trace)}


def _run_ode(cfg):
    beta, psi1, psi2 = cfg["beta"], cfg["psi1"], cfg["psi2"]
    points = classify_fixed_points(beta, psi1, psi2)
    summary = {
        "fixed_points": [{"root": r, "stability": s} for r, s in points],
    }
    if "y0" in cfg:
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
    return summary, {}


def _run_phase(cfg):
    beta, psi1, psi2 = cfg["beta"], cfg["psi1"], cfg["psi2"]
    points = cd.fixed_points_and_types(beta, psi1, psi2)
    orbit = cd.integrate_orbit(
        cd.PlanarState(cfg["u0"], cfg["v0"]), beta, psi1, psi2, cfg["T"], cfg["dt"]
    )
    tables = {"orbit.csv": functools.partial(cd.orbit_to_csv, orbit)}
    if "portrait" in cfg:
        pt = cfg["portrait"]
        tables["portrait.csv"] = functools.partial(
            cd.portrait_to_csv, beta, psi1, psi2,
            np.linspace(pt["u_min"], pt["u_max"], pt["nu"]),
            np.linspace(pt["v_min"], pt["v_max"], pt["nv"]),
        )
    return {
        "fixed_points": [{"u": r, "type": k} for r, k in points],
        "separatrix_level": cd.separatrix_level(beta, psi1, psi2),
        "energy_drift": orbit.energy_drift,
        "closed": orbit.closed,
        "period": orbit.period,
    }, tables


def _run_curvature(cfg):
    mode = cfg["mode"]
    summary = {"mode": mode}
    if mode == "scaling":
        summary["value"] = cv.scaled_mixed_curvature(
            cfg["s_mix"], cfg["h_sq"], cfg["t_sq"], cfg["u_const"]
        )
        return summary, {}
    base = _parse_grid(cfg["base_grid"])
    fiber = _parse_grid(cfg["fiber_grid"])
    product = make_torus_grid(base.dims + fiber.dims)
    v = _parse_field(cfg["v"], product)
    if mode == "twisted":
        tp = cv.TwistedProduct(base, fiber, v, _parse_field(cfg["u"], product))
        field = cv.mixed_scalar_curvature(tp)
        summary.update(smix_min=field.min(), smix_max=field.max())
    else:
        tp = cv.TwistedProduct(base, fiber, v)
        field, leaf_smix = cv.ground_state_warp(tp)
        smix = cv.mixed_scalar_curvature(cv.TwistedProduct(base, fiber, v, field))
        per_leaf = smix.values.reshape(base.total_points, fiber.total_points)
        oscillation = float(np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)))
        summary.update(
            leaf_smix=leaf_smix.tolist(), max_leaf_oscillation=oscillation
        )
    return summary, {"field.csv": functools.partial(cv.field_to_csv, field)}


def _run_sweep(cfg):
    grid = _parse_grid(cfg["grid"])
    q = cfg["q"]
    qs = np.linspace(q["start"], q["stop"], q["count"])

    def evaluator(spec):
        return lambda qv: _parse_field(spec, grid, q=qv)

    family = ParamFamily(
        grid=grid,
        q=qs,
        beta_of_q=evaluator(cfg["beta"]),
        psi1_of_q=evaluator(cfg["psi1"]),
        psi2_of_q=evaluator(cfg["psi2"]),
    )
    result = sweep_attractor(family, tol=cfg.get("tol", 1e-8))
    summary = {
        "q": qs.tolist(),
        "lambda0": result.lambda0.tolist(),
        "gap": result.gap.tolist(),
        "gap_min": float(result.gap.min()),
        "lipschitz": {"0": result.lipschitz},
    }
    if qs.size >= 9:
        smooth = smoothness_diagnostic(result)
        summary["smoothness"] = {
            "order": 2,
            "ratio": smooth.ratio,
            "refinement_gap": smooth.refinement_gap,
            "passed": smooth.passed,
        }
    return summary, {"sweep.csv": functools.partial(sweep_to_csv, result)}


# each runner returns its summary and its tables: file name -> writer(path)
_RUNNERS = {
    "roots": _run_roots,
    "ground-state": _run_ground_state,
    "attract": _run_attract,
    "ode": _run_ode,
    "phase": _run_phase,
    "curvature": _run_curvature,
    "sweep": _run_sweep,
}


def _check_finite(value, key="summary"):
    """Fail at the first number in ``value`` that strict JSON cannot hold."""
    if isinstance(value, float) and not math.isfinite(value):
        raise GroundflowError(f"result {key} is not finite ({value!r})")
    if isinstance(value, (dict, list)):
        pairs = value.items() if isinstance(value, dict) else enumerate(value)
        for name, item in pairs:
            _check_finite(item, f"{key}.{name}")


def run(config: dict, out_dir: str | Path) -> int:
    out_dir = Path(out_dir)
    sub = config.get("subcommand")
    if not isinstance(sub, str) or sub not in _RUNNERS:
        raise ConfigError(
            f"unknown subcommand {sub!r}; choose one of {sorted(_RUNNERS)}"
        )
    error = jsonschema.exceptions.best_match(_validator(sub).iter_errors(config))
    if error is not None:
        raise error
    try:
        summary, tables = _RUNNERS[sub](config)
        _check_finite(summary)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in tables.items():
            write(out_dir / name)
        code = 0
    except (GroundflowError, MemoryError, ArithmeticError) as exc:
        # numpy raises a private subclass of MemoryError for an allocation
        # that cannot succeed, so the summary names the builtin
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        error = {"type": kind, "message": str(exc)}
        numbers = exc.numbers if isinstance(exc, GroundflowError) else {}
        error.update(  # a number that is not finite is written as null
            (name, float(value) if math.isfinite(value) else None)
            for name, value in numbers.items() if value is not None
        )
        summary, code = {"error": error}, 3
        out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"schema": SCHEMA_VERSION, "subcommand": sub, **summary}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return code


def _finite_float(text):
    """``json.load`` hook for float literals and for ``NaN``, ``Infinity``
    and ``-Infinity`` (which are not JSON): only finite floats pass."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def _finite_int(text):
    """``json.load`` hook for integer literals: only those a float can hold pass."""
    _finite_float(text)
    return int(text)


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
            config = json.load(
                fh, parse_float=_finite_float, parse_int=_finite_int,
                parse_constant=_finite_float,
            )
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if not isinstance(config, dict):
            kind = type(config).__name__
            raise ConfigError(f"config must be a JSON object, not {kind}")
        out = args.out or config.get("out", ".")
        if not isinstance(out, str):
            raise ConfigError(f"out must be a string, got {out!r}")
        return run(config, Path(out))
    except jsonschema.ValidationError as exc:
        print(f"config error at {exc.json_path}: {exc.message}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
