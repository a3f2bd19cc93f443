"""Seeded CLI configs for the benchmark workloads.

Each workload is a fixed list of ``groundflow`` CLI configs run in order
in one child process.  The seed perturbs only amplitudes, inside ranges
checked to stay admissible and certified and to leave the amount of work
nearly unchanged (the step and iteration counts move by a few percent at
most), so that run-to-run spread measures the machine, not the inputs.
"""

from __future__ import annotations

import math
import random

TAU = 2.0 * math.pi


def _attract(rng: random.Random) -> list[dict]:
    return [{
        "subcommand": "attract",
        "grid": {"dims": [[TAU, 2048]]},
        "beta": {"const": -0.1},
        "psi1": {"form": "sin", "a": 1.0, "b": rng.uniform(0.28, 0.32), "k": 1},
        "psi2": {"const": 1.0},
        "u0_ratio": rng.uniform(6.9, 7.1),
        "tol": 1e-9,
        "tol_h": 1e-5,
    }]


def _sweep(rng: random.Random) -> list[dict]:
    return [{
        "subcommand": "sweep",
        "grid": {"dims": [[TAU, 32], [TAU, 32]]},
        "q": {"start": 0.0, "stop": 0.2, "count": 9},
        "beta": {
            "form": "cos",
            "a": -0.1,
            "b": {"base": rng.uniform(0.018, 0.022), "slope": rng.uniform(0.09, 0.11)},
            "k": 1,
        },
        "psi1": {"const": 1.0},
        "psi2": {"const": 1.0},
        "tol": 1e-9,
    }]


def _warp(rng: random.Random) -> list[dict]:
    return [{
        "subcommand": "curvature",
        "mode": "warp",
        "base_grid": {"dims": [[TAU, 512]]},
        "fiber_grid": {"dims": [[TAU, 128]]},
        "v": {"form": "cos", "a": 2.0, "b": rng.uniform(0.9, 1.1), "k": 1, "axis": 1},
    }]


def _orbits(rng: random.Random) -> list[dict]:
    return [
        {
            "subcommand": "phase",
            "beta": -1.0,
            "psi1": 1.0,
            "psi2": 0.1,
            "u0": rng.uniform(0.58, 0.62),
            "v0": 0.0,
            "T": 100.0,
            "dt": 1e-3,
            "portrait": {
                "u_min": 0.2, "u_max": 3.0, "nu": 300,
                "v_min": -2.0, "v_max": 2.0, "nv": 300,
            },
        },
        {
            "subcommand": "ode",
            "beta": -0.1,
            "psi1": 1.0,
            "psi2": 1.0,
            "y0": rng.uniform(4.5, 5.5),
            "T": 100.0,
        },
    ]


# Two workloads, each pairing a heavy pipeline with a light one, so that each
# run can measure for longer within the benchmark's time budget: on a shared
# machine the CPU speed drifts over tens of seconds, and only longer runs
# average that out.
# attract-orbits takes the dense solves and the scalar ODE layers, which
# barely touch the spectral gap; sweep-warp takes the CG solves and both
# gap-heavy pipelines.
_BUILDERS = {
    "attract-orbits": lambda rng: _attract(rng) + _orbits(rng),
    "sweep-warp": lambda rng: _sweep(rng) + _warp(rng),
}

NAMES = tuple(_BUILDERS)


def configs(workload: str, seed: int) -> list[dict]:
    """The CLI configs of ``workload`` for ``seed`` (same seed, same configs)."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose one of {NAMES}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
