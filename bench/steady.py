"""Steadiness check: run the benchmark in sets and compare with its bounds.

    python3 bench/steady.py [--seeds 1-10]

Runs the benchmark command of BENCHMARK.json (trace 0, ``run_seconds``)
once per workload and seed, in two consecutive sets of the same code.  For
every end-to-end metric and workload it prints each set's median with its
unit and sample count, the spread (distance between the first and third
quartile as a share of the median, from ``statistics.quantiles(values,
n=4)``) and how much worse the second set's median is than the first's.
A pair passes when both spreads and that drift stay within the metric's
``bound`` in BENCHMARK.json; the target while tuning is a third of it.
The exit code is 1 if any pair fails.  Results go to
``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = 2


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(first: float, last: float, better: str) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    change = (last - first) / first
    return change if better == "lower" else -change


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    values = {}  # (set, workload, metric) -> list of values
    failed_runs = 0
    for set_index in range(SETS):
        for workload in workloads:
            for seed in seeds:
                started = time.monotonic()
                proc = subprocess.run(
                    spec["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"set {set_index + 1} {workload} seed {seed}: exit "
                          f"{proc.returncode}\n{proc.stderr[-1000:]}", flush=True)
                    failed_runs += 1
                    continue
                result = json.loads(lines[-1])
                if not result["correct"]:
                    failed_runs += 1
                for name, m in result["metrics"].items():
                    values.setdefault((set_index, workload, name), []).append(m["value"])
                print(f"set {set_index + 1} {workload} seed {seed} "
                      f"({time.monotonic() - started:.0f} s): "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      flush=True)

    report, ok = [], failed_runs == 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [values.get((i, workload, name), []) for i in range(SETS)]
            if any(len(v) < 2 for v in sets):
                ok = False
                continue
            spreads = [spread(v) for v in sets]
            drift = worsening(statistics.median(sets[0]), statistics.median(sets[-1]),
                              metric["better"])
            passed = max(*spreads, drift) <= bound
            ok = ok and passed
            report.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "samples": [len(v) for v in sets],
                "medians": [statistics.median(v) for v in sets],
                "spreads": spreads, "drift": drift, "bound": bound, "passed": passed,
            })
            print(f"{workload:15s} {name:15s} medians "
                  + " ".join(f"{statistics.median(v):.4g}" for v in sets)
                  + f" {metric['unit']} (n={len(sets[0])}) spread "
                  + " ".join(f"{s:.3f}" for s in spreads)
                  + f" drift {drift:+.3f} bound {bound} "
                  + ("ok" if passed else "FAIL")
                  + (" (above a third of the bound)" if passed and max(*spreads, drift) > bound / 3
                     else ""))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"seeds": seeds, "sets": SETS, "failed_runs": failed_runs, "report": report},
        indent=1))
    print(f"failed runs: {failed_runs}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
