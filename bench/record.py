"""Record per-seed reference digests into ``bench/references.json``.

    python3 bench/record.py --seeds 0-20

Runs each workload once per seed in a fresh child, keeps the digest
(``verify.digest``) only if the run passes every other check, and merges
it into ``references.json``.  Later benchmark runs on a recorded seed
compare their outputs with it at ``verify.REFERENCE_TOL``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import OUT, ROOT, Runner
from steady import parse_seeds

sys.path.insert(0, str(ROOT / "src"))
import verify  # noqa: E402
import workloads  # noqa: E402


def _format(refs: dict) -> str:
    """JSON with one line per workload and seed, so diffs stay readable."""
    blocks = []
    for workload in sorted(refs):
        lines = [f"    {json.dumps(str(seed))}: {json.dumps(refs[workload][seed], sort_keys=True)}"
                 for seed in sorted(refs[workload], key=int)]
        blocks.append(f"  {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args(argv)
    refs = json.loads(verify.REFERENCES.read_text()) if verify.REFERENCES.is_file() else {}
    work = OUT / "record"
    status = 0
    for workload in workloads.NAMES:
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            configs = workloads.configs(workload, seed)
            configs_path = work / "configs.json"
            configs_path.write_text(json.dumps(configs))
            record = Runner(work, time.monotonic() + 600).child(configs_path, work / "out")
            bad = ["child died"] if record is None else verify.check(
                configs, work / "out", record["exit_codes"], verify.oracle(configs))
            if bad:
                print(f"{workload} seed {seed}: not recorded: {bad}")
                status = 1
                continue
            refs.setdefault(workload, {})[str(seed)] = verify.digest(configs, work / "out")
            print(f"{workload} seed {seed}: recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    verify.REFERENCES.write_text(_format(refs))
    return status


if __name__ == "__main__":
    sys.exit(main())
