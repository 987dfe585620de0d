"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload briefly on short series, with
tracing off and on, and checks that the result line has the contract's keys
and that every metric BENCHMARK.json names is printed by name with its unit.
It then forces failures and checks that they are counted, not fatal: an
infeasible row under ``on_infeasible="raise"`` counts in ``fail_ratio``, a
missing traced name stops a traced run, and a required span with no calls is
reported.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
import tracing
import workloads

TINY_N = {"mc_zmp": 200, "mc_zmnb": 200, "cli_long": 2000}
OUT = run.OUT / "selftest"


def quiet_report(wl, trace):
    """run.report on seed 1 for a moment; returns (result line, printed lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = run.report(wl, seed=1, seconds=0.01, trace=trace, setup_repeats=(0, 1),
                          out_dir=OUT)
    return line, buf.getvalue().splitlines()


def printed(lines, name):
    """(value, unit) of the line printed for ``name``, or None."""
    for text in lines:
        parts = text.split()
        if len(parts) >= 3 and parts[0] == name:
            return float(parts[1]), parts[2]
    return None


def main() -> int:
    zm = run.load_zmcounts()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    for name in workloads.NAMES:
        for trace in (0, 1):
            wl = workloads.make(name, zm, OUT / "work", n=TINY_N[name])
            try:
                line, lines = quiet_report(wl, trace)
            finally:
                wl.close()
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(line)}")
            if json.loads(lines[-1]) != json.loads(json.dumps(line)):
                problems.append(f"{name} trace={trace}: result is not the last line")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: outputs failed their checks")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                shown = printed(lines, metric["name"])
                if shown is None or shown[1] != metric["unit"]:
                    problems.append(f"{name} trace={trace}: {metric['name']} not printed "
                                    f"with unit {metric['unit']}")
                if line["metrics"].get(metric["name"], {}).get("unit") != metric["unit"]:
                    problems.append(f"{name} trace={trace}: {metric['name']} missing from "
                                    "the result line")
            print(f"{name} trace={trace}: attempted={line['attempted']} "
                  f"failed={line['failed']} correct={line['correct']}")

    rows = workloads.paper_rows(zm, n=TINY_N["mc_zmp"])
    infeasible = dataclasses.replace(rows["crit2"], on_infeasible="raise")
    wl = workloads.MonteCarlo("forced_fail", zm, (rows["crit1"], infeasible))
    line, lines = quiet_report(wl, 0)
    shown = printed(lines, "fail_ratio")
    if not (line["failed"] >= 1 and shown is not None
            and shown[0] == line["failed"] / line["attempted"]):
        problems.append(f"forced failure not counted in fail_ratio: {line}, {shown}")
    print(f"forced_fail: attempted={line['attempted']} failed={line['failed']}")

    tracer = tracing.Tracer()
    sites = [(zm.estimation, "no_such_function", "estimation", "estimation.none", None)]
    try:
        with tracer.active(sites):
            problems.append("a missing traced name did not stop the traced run")
    except tracing.TraceError as err:
        print(f"missing name guard: {err}")
    try:
        tracer.require(["filtering.forward_pass"], "empty")
        problems.append("a span with no calls passed the guard")
    except tracing.TraceError as err:
        print(f"zero-call guard: {err}")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
