"""The CLI's failure contract on drawn configs.

Every schema-valid config of ``roots``, ``ode``, ``phase``,
``ground-state``, ``attract``, ``curvature`` and ``sweep`` must exit 0, 2
or 3 and never escape ``main`` with an exception (a traceback at the
command line).
Exit 2 leaves no output directory; exits 0 and 3 write ``summary.json``,
which must be strict JSON: no ``NaN`` or ``Infinity``.  An ``ode`` flow
that exits 0 must end on its start's side of ``target_y1``.
Warnings are not filtered, so a ``RuntimeWarning`` fails the test too.

The draws are bounded so that no config can start a long run: at most 16
points per axis and 2 axes per grid, every number in {0} or
1e-3 <= |x| <= 10, except that the scalars of ``roots``, ``ode`` and
curvature ``scaling``, the ``dt`` of ``phase`` and the grid lengths reach
from 1e-320 to 1e300 now and then; at most 5000 RK4 steps per orbit (or
an orbit whose step count overflows), an ``ode`` flow with
``T * max(1/dt, 9*lambda0) <= 5000`` however stiff its start, and at most
9 q per sweep.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groundflow.cli import main

_magnitude = st.floats(1e-3, 10.0)
_negative = _magnitude.map(lambda x: -x)
_number = st.one_of(st.just(0.0), _magnitude, _negative)
# a magnitude out toward either end of float range, from 1e-320 (subnormal)
# to 1e300, in place of one in four ordinary magnitudes
_far = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-320, 299))
_wide = st.sampled_from([_magnitude] * 3 + [_far]).flatmap(lambda s: s)


def _usually(valid, other=_number):
    """``valid`` 7 times in 8, else ``other``: configs that pass the semantic
    checks reach the numerics, the rest test the config errors."""
    return st.sampled_from([valid] * 7 + [other]).flatmap(lambda s: s)


def _put(draw, cfg, key, strategy, usually=False):
    """Set ``cfg[key]`` from ``strategy`` 1 time in 4, or ``usually`` 7 in 8."""
    if draw(st.sampled_from(range(8))) < (7 if usually else 2):
        cfg[key] = draw(strategy)


_tol = _usually(st.sampled_from([1e-10, 1e-8]))
_points = _usually(st.integers(4, 16), st.one_of(st.integers(1, 3), st.just(8.5)))
_grid = st.fixed_dictionaries({"dims": st.lists(
    st.tuples(_usually(_wide), _points), min_size=1, max_size=2
)})


@st.composite
def _wave(draw, a=_number, b=_number, axis=True):
    wave = {"form": draw(st.sampled_from(["sin", "cos"])), "a": draw(a), "b": draw(b),
            "k": draw(st.integers(0, 3))}
    if axis and draw(st.sampled_from(range(4))) == 0:
        wave["axis"] = draw(st.integers(0, 2))
    return wave


def _field(const=_number, a=_number, b=_number):
    """Constant, one-axis or product fields; ``a`` and ``b`` bound the waves."""
    constant = st.builds(lambda c: {"const": c}, const)
    return st.one_of(
        constant,
        _wave(a, b),
        st.builds(lambda f: {"form": "product", "factors": f},
                  st.lists(st.one_of(constant, _wave(a, b, axis=False)),
                           min_size=1, max_size=3)),
    )


# waves a + b*sin(kx) with |b| < |a|, so the field keeps the sign of a; a
# potential beta of at most 1 in size leaves most drawn problems admissible
_small = st.one_of(st.just(0.0), st.floats(1e-3, 0.09), st.floats(-0.09, -1e-3))
_positive_field = _usually(_field(_magnitude, st.floats(1.0, 10.0), _small), _field())
_negative_field = _usually(
    _field(st.floats(-1.0, -1e-3), st.floats(-1.0, -0.1), _small), _field()
)


@st.composite
def _roots(draw):
    return {"subcommand": "roots", "lambda0": draw(_usually(_wide)),
            "psi1": draw(_usually(_wide)), "psi2": draw(_usually(_wide))}


@st.composite
def _ode(draw):
    cfg = {"subcommand": "ode", "beta": draw(_usually(_wide.map(lambda x: -x))),
           "psi1": draw(_usually(_wide)), "psi2": draw(_usually(_wide))}
    _put(draw, cfg, "y0", _usually(_wide), usually=True)
    _put(draw, cfg, "T", _usually(_magnitude), usually=True)
    _put(draw, cfg, "dt", _usually(_wide))
    lam, A, B = -cfg["beta"], cfg["psi1"], cfg["psi2"]
    y0, T = cfg.get("y0", 0.0), cfg.get("T", 0.0)
    # the flow's default step is min(0.01, 0.1/lambda0)
    dt = cfg.get("dt", min(0.01, 0.1 / lam) if lam > 0.0 else 0.0)
    if min(lam, A, y0, T, dt) > 0.0 and B >= 0.0:
        # a stage that leaves (0, inf) halves the step, and the step doubles
        # back every 50 accepted steps, so past a stiff start it returns to
        # dt or to the order of 1/|phi'| near the root y1, where |phi'| is
        # at most 2*lambda0, well inside the 9*lambda0 bounded here
        assume(T * max(1.0 / dt, 9.0 * lam) <= 5000)
    return cfg


@st.composite
def _phase(draw):
    cfg = {"subcommand": "phase", "beta": draw(_number), "v0": draw(_number)}
    for key in ("psi1", "psi2", "u0", "T"):
        cfg[key] = draw(_usually(_magnitude))
    cfg["dt"] = draw(_usually(_wide))
    assume(cfg["dt"] <= 0.0 or cfg["T"] <= 5000 * cfg["dt"]
           or cfg["T"] / cfg["dt"] == math.inf)
    _put(draw, cfg, "portrait", st.fixed_dictionaries({
        "u_min": _usually(_magnitude), "u_max": _usually(_magnitude),
        "nu": st.integers(2, 16), "v_min": _number, "v_max": _number,
        "nv": st.integers(2, 16),
    }))
    return cfg


@st.composite
def _ground_state(draw):
    return {"subcommand": "ground-state", "grid": draw(_grid), "beta": draw(_field())}


@st.composite
def _attract(draw):
    cfg = {"subcommand": "attract", "grid": draw(_grid),
           "beta": draw(_negative_field), "psi1": draw(_positive_field),
           "psi2": draw(_positive_field)}
    _put(draw, cfg, "u0", _positive_field)
    for key in ("u0_ratio", "t_max", "epsilon"):
        _put(draw, cfg, key, _usually(_magnitude))
    for key in ("tol", "tol_h"):
        _put(draw, cfg, key, _tol)
    return cfg


@st.composite
def _curvature(draw):
    cfg = {"subcommand": "curvature",
           "mode": draw(st.sampled_from(["twisted", "warp", "scaling"]))}
    for key in ("base_grid", "fiber_grid"):
        _put(draw, cfg, key, _grid, usually=True)
    for key in ("u", "v"):
        _put(draw, cfg, key, _positive_field, usually=True)
    for key in ("s_mix", "h_sq", "t_sq", "u_const"):
        _put(draw, cfg, key, _usually(_wide), usually=True)
    return cfg


def _sloped(number):
    """``number``, or half the time a ``{"base", "slope"}`` slot resolved at
    each q of a sweep, with a slope below 0.1 in size."""
    return st.one_of(number, st.fixed_dictionaries({"base": number, "slope": _small}))


_sloped_positive_field = _usually(
    _field(_sloped(_magnitude), _sloped(st.floats(1.0, 10.0)), _sloped(_small)),
    _field(_sloped(_number), _sloped(_number), _sloped(_number)),
)
_sloped_negative_field = _usually(
    _field(_sloped(st.floats(-1.0, -1e-3)), _sloped(st.floats(-1.0, -0.1)),
           _sloped(_small)),
    _field(_sloped(_number), _sloped(_number), _sloped(_number)),
)


@st.composite
def _sweep(draw):
    cfg = {"subcommand": "sweep", "grid": draw(_grid),
           "q": {"start": draw(_usually(st.floats(0.0, 0.5))),
                 "stop": draw(_usually(st.floats(0.6, 1.0))),
                 "count": draw(_usually(st.integers(3, 9)))},
           "beta": draw(_sloped_negative_field), "psi1": draw(_sloped_positive_field),
           "psi2": draw(_sloped_positive_field)}
    _put(draw, cfg, "tol", _tol)
    return cfg


_ORBIT = {"subcommand": "phase", "beta": -1.0, "psi1": 1.0, "psi2": 1.0, "v0": 0.0,
          "T": 1.0}


@settings(max_examples=150)
@given(st.one_of(_roots(), _ode(), _phase(), _ground_state(), _attract(),
                 _curvature(), _sweep()))
# the slope of the force at a root of 1e-150 or 1e150 took its fourth power
@example({"subcommand": "ode", "beta": -0.1, "psi1": 1.0, "psi2": 1e-300})
@example({"subcommand": "ode", "beta": -1e-300, "psi1": 1.0, "psi2": 1.0})
@example({**_ORBIT, "psi2": 1e-300, "u0": 1.0, "dt": 0.1})
# the orbit's force divided by u**3 = 0, or overflowed u**3
@example({**_ORBIT, "u0": 1e-200, "dt": 0.1})
@example({**_ORBIT, "beta": 1e-12, "psi1": 9.2, "psi2": 9.4, "u0": 2.3e-72,
          "dt": 1.0})
# the bisection polish returned the bracket end sqrt(A/lambda0) as y1
@example({"subcommand": "roots", "lambda0": 43.0382607117434,
          "psi1": 22.85539366398312, "psi2": 3.034329285715688})
# float arithmetic raised: the margin's square, a zero divisor in the slope
# at a root, u**-4, and the step count T/dt = inf
@example({"subcommand": "roots", "lambda0": 1e300, "psi1": 1e300, "psi2": 1e-300})
@example({"subcommand": "ode", "beta": -1e-300, "psi1": 1e300, "psi2": 1e-300,
          "y0": 1.0, "T": 1.0})
@example({"subcommand": "curvature", "mode": "scaling", "s_mix": 1.0, "h_sq": 1e300,
          "t_sq": 1e300, "u_const": 1e-100})
@example({**_ORBIT, "u0": 1.0, "dt": 1e-320})
# a stiff start halved the flow's step for good: minutes of steps, memory past 1 GB
@example({"subcommand": "ode", "beta": -8.077094270785885, "psi1": 1e19,
          "psi2": 1.0, "y0": 1.0, "T": 1.0, "dt": 1.0})
# the shift's absolute floor 0.01 rounded away next to beta = 1e300: a singular factor
@example({"subcommand": "ground-state", "grid": {"dims": [[6.28, 8]]},
          "beta": {"const": 1e300}})
# stencils whose 4/h**2 is zero-divided, overflows, or swamps the shift
@example({"subcommand": "ground-state", "grid": {"dims": [[1e-300, 4]]},
          "beta": {"const": 0.0}})
@example({"subcommand": "ground-state", "grid": {"dims": [[1e-160, 8]]},
          "beta": {"const": 0.0}})
@example({"subcommand": "ground-state", "grid": {"dims": [[1e-150, 8]]},
          "beta": {"const": 0.0}})
# results that are not finite: y1 overflows, the norm of e0 underflows
@example({"subcommand": "roots", "lambda0": 1e-320, "psi1": 1.0, "psi2": 1e-300})
@example({"subcommand": "ground-state", "grid": {"dims": [[6.28, 8]]},
          "beta": {"form": "cos", "a": 0.0, "b": 1e300, "k": 1}})
def test_cli_exits_only_with_its_codes(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(path), "--out", str(out_dir)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out_dir.exists()
        else:
            text = (out_dir / "summary.json").read_text()
            summary = json.loads(text, parse_constant=_not_json)
            flow = summary.get("flow")
            if code == 0 and flow is not None:
                # the exact flow is monotone and never crosses the root y1
                y0, y1, end = flow["y0"], flow["target_y1"], flow["terminal"]
                assert not min(y0, end) < y1 < max(y0, end)


def _not_json(name):
    """``json.loads`` hook for ``NaN``, ``Infinity`` and ``-Infinity``."""
    raise ValueError(f"{name} is not JSON")
