"""One fresh benchmark process: import groundflow, run configs, report.

    python3 bench/child.py --spawned T --result R.json [--configs C.json --out DIR [--trace]]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from there to ``groundflow.cli`` imported.
Without ``--configs`` the process only measures set-up.  With them it
runs each config through ``groundflow.cli.run`` into ``DIR/<index>`` and
times the whole sequence.  ``--trace`` installs the wrappers of
``tracing.py`` first and adds the per-layer numbers.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--configs")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import groundflow.cli as cli

    setup_s = time.monotonic() - args.spawned
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"groundflow imported from {cli.__file__}, not from {src}")
    record = {"setup_s": setup_s}

    if args.configs:
        import tracing

        with open(args.configs) as fh:
            configs = json.load(fh)
        tracer = tracing.install(tracing.Tracer()) if args.trace else None
        out = Path(args.out)
        exit_codes, errors = [], []
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for index, config in enumerate(configs):
            try:
                exit_codes.append(cli.run(config, out / str(index)))
            except Exception as exc:  # a crash is a failed run, not a crashed benchmark
                exit_codes.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        wall_s = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        record.update(
            wall_s=wall_s,
            cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
            peak_rss_mb=usage1.ru_maxrss / 1024.0,
            exit_codes=exit_codes,
            errors=errors,
            output_bytes=output_bytes,
        )
        if tracer is not None:
            tracer.write(out / "spans.json")
            record["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.counts, tracer.missing, output_bytes
            )
            record["missing"] = tracer.missing

    with open(args.result, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
