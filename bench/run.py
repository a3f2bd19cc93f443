"""groundflow benchmark: time to a certified answer, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/groundflow`` must exist).
Each pipeline run happens in a fresh single-process child (``child.py``)
through ``groundflow.cli.run``; children run one after another, as a
closed loop with one client, until ``S`` seconds have been used (but at
least ``MIN_SAMPLES`` times, so a median means something), and every
child's outputs are checked (``verify.py``).  Before the loop, and outside
the timed region, the run computes the oracles and measures set-up in
import-only children.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the children of this run).  With ``--trace 1`` children
alternate untraced and traced (``tracing.py``), at least
``MIN_TRACED_PAIRS`` pairs so that counters are compared across traced
children, and the line carries the per-layer metrics plus the tracing
overhead.  The metrics reported, with their units, are the ones
``BENCHMARK.json`` names.  The full record, with the environment, every
sample and every failure, goes to
``.bench_out/results/<workload>-seed<N>-trace<0|1>.json``; a traced run
also keeps the spans of its last traced child next to it (``-spans.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # import-only children per run, after one warm-up
MIN_SAMPLES = 3  # untraced pipeline runs per run, even past --seconds
MIN_TRACED_PAIRS = 2  # untraced + traced pairs per traced run, so counters can be compared
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (as opposed to a failed pipeline)."""


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


class Runner:
    """Starts children one at a time, none past the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.serial = 0

    def child(self, configs_path=None, out=None, trace=False) -> dict | None:
        """One child process; its record, or None if it died without one."""
        self.serial += 1
        result = self.work / f"child{self.serial}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result)]
        if configs_path is not None:
            cmd += ["--configs", str(configs_path), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("run time limit reached")
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not result.is_file():
            sys.stderr.write(proc.stderr[-2000:])
            return None
        return json.loads(result.read_text())


def _median(records, key):
    return statistics.median(r[key] for r in records)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "groundflow" / "cli.py").is_file():
        raise BenchmarkError(f"no groundflow sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import verify
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    configs = workloads.configs(workload, seed)
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs_path = work / "configs.json"
    configs_path.write_text(json.dumps(configs, indent=1))
    runner = Runner(work, deadline)

    # outside the timed region: oracles, then set-up samples after a warm-up
    refs = verify.oracle(configs)
    reference = verify.load_reference(workload, seed)
    if runner.child() is None:
        raise BenchmarkError("an import-only child failed; is the checkout complete?")
    setups = [runner.child() for _ in range(SETUP_SAMPLES)]
    if any(s is None for s in setups):
        raise BenchmarkError("an import-only child failed")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    samples = []
    start = time.monotonic()
    longest = 0.0
    while time.monotonic() + longest < deadline and (
            len(samples) < (2 * MIN_TRACED_PAIRS if trace else MIN_SAMPLES)
            or time.monotonic() - start + longest <= seconds):
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            out = work / f"out{runner.serial + 1}"
            record = runner.child(configs_path, out, traced) or {
                "errors": ["child died without a record"], "exit_codes": []}
            record["traced"] = traced
            record["failures"] = record["errors"] or verify.check(
                configs, out, record["exit_codes"], refs, reference)
            samples.append(record)
            if traced and (out / "spans.json").is_file():
                (out / "spans.json").replace(results / f"{name}-spans.json")
            shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.monotonic() - t0)
    good = [s for s in samples if not s["failures"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not plain or (trace and not traced):
        raise BenchmarkError(f"every pipeline run failed: {samples[0]['failures']}")

    problems = []
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {"trace.wall_s": _median(traced, "wall_s")}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(plain, "wall_s")
        for metric, unit in units.items():
            if metric in metrics:
                continue
            values = [s["layers"][metric] for s in traced]
            metrics[metric] = statistics.median(values) if unit == "s" else values[0]
            if unit != "s" and values.count(values[0]) != len(values):
                problems.append(f"counter {metric} differs between traced children: {values}")
        counts = {metric: len(traced) for metric in units}
        missing = sorted({m for s in traced for m in s["missing"]})
    else:
        all_setups = [s["setup_s"] for s in setups + good]
        metrics = {
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "setup_s": statistics.median(all_setups),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "certified_rate": len(good) / len(samples),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        counts = {metric: len(plain) for metric in metrics}
        counts["setup_s"] = len(all_setups)
        counts["certified_rate"] = len(samples)
        missing = []

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "configs": configs,
        "oracle": refs,
        "reference_recorded": reference is not None,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "problems": problems + [f for s in samples for f in s["failures"]],
        "missing": missing,
        "samples": samples,
        "setup_samples": [s["setup_s"] for s in setups],
        "sample_counts": counts,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, KeyError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, m in record["metrics"].items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"({record['sample_counts'][name]} samples)")
    for missing in record["missing"]:
        print(f"# missing trace target: {missing}")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
