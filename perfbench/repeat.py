"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload mc_zmp --seeds 1-10 [--trace 0] [--json FILE]

Each run is ``run.py`` in its own interpreter, as the benchmark is meant to be
run.  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median, beside the bound that
``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        limit = f"  bound {bound}  spread/bound {spread / bound:.2f}" if bound else ""
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.3f}{limit}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                         "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
