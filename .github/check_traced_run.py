"""Check the standard output of one traced benchmark run.

    python3 benchmark/run.py --workload <w> --seed 1 --seconds 2 --trace 1 > out.txt
    python3 .github/check_traced_run.py out.txt

Exits 1 unless the last line is the run's JSON result and its ``metrics``
name every ``per_layer`` metric of BENCHMARK.json.  A traced run can exit 0
and still drop a metric: the thread probe returns no
``montecarlo.threads2_speedup`` when ``simulate`` rejects ``--threads``.  That
metric may be absent only where fewer than two CPUs are available, since the
probe then does not run.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEEDS_TWO_CPUS = {"montecarlo.threads2_speedup"}


def main(path: str) -> int:
    lines = Path(path).read_text().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{path}: the last line is not a JSON result", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    if len(os.sched_getaffinity(0)) < 2:
        wanted -= NEEDS_TWO_CPUS
    missing = sorted(wanted - set(result.get("metrics", {})))
    if missing:
        print(f"{path}: missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{path}: {len(result['metrics'])} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
