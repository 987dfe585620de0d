"""zmcounts benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mc_zmp --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the last
line of stdout is a JSON object carrying the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced run, in which each op runs once traced and once untraced so that
the tracing overhead is measured too, and which also checks determinism and
compares serial with pooled experiments.  End-to-end times are scaled to a
nominal machine speed by ``probe.speed_probe`` (see probe.py); the raw
wall-clock figures are printed beside them.  Every metric is printed before
the result line by name and unit, and the full record is written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP thread caps for this process and every process it starts;
# they must be set before numpy is imported
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import scale, speed_probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# fresh-interpreter imports timed before and after the timed loop; spreading
# them over the run evens out slow drifts in the machine's speed
SETUP_REPEATS = (1, 2)
# worker processes for the serial-against-pooled comparison; capped to bound
# the run's time and memory on large machines
MAX_POOL_JOBS = 2


@dataclasses.dataclass
class Op:
    index: int
    kind: object
    args: object
    seconds: float
    result: object
    traced: bool
    probe: float
    failure: str | None = None
    defect: bool = False


def load_zmcounts():
    """Import zmcounts from this checkout's src/, or exit with an error."""
    if not (SRC / "zmcounts" / "__init__.py").is_file():
        print(f"perfbench: no zmcounts package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import zmcounts

    if Path(zmcounts.__file__).resolve().parent != SRC / "zmcounts":
        print(f"perfbench: zmcounts imported from {zmcounts.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    # import every layer so the traced names can be reached as attributes
    import zmcounts.cli  # noqa: F401

    return zmcounts


def git_commit(root: Path) -> str:
    """Commit of the checkout read from .git without running git; 'unknown' if none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(module: str, repeats: int) -> list[tuple[float, float]]:
    """(import seconds, speed probe seconds right after) for ``repeats``
    imports of ``module``, each in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            f"import {module}; t = time.perf_counter() - t; "
            "from probe import speed_probe; print(t, speed_probe())")
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True, timeout=120,
                              cwd=ROOT)
        seconds, probe = map(float, done.stdout.split())
        samples.append((seconds, probe))
    return samples


def run_op(wl, seed, index, kind, traced) -> Op:
    args = wl.prepare(seed, index, kind)
    probe = speed_probe()
    t0 = perf_counter()
    try:
        result = wl.run(kind, args)
    except Exception:  # one failed op is counted, not fatal to the run
        seconds = perf_counter() - t0
        detail = traceback.format_exc()
        print(f"op {index} raised:\n{detail}", file=sys.stderr)
        op = Op(index, kind, args, seconds, None, traced, probe)
        op.failure, op.defect = "raised " + detail.strip().splitlines()[-1], True
        return op
    return Op(index, kind, args, perf_counter() - t0, result, traced, probe)


def timed_loop(wl, seed, seconds, tracer=None, sites=None):
    """Whole cycles of ops until ``seconds`` have passed:
    (ops, wall seconds, speed probe after the last op).

    With a tracer, every op runs twice on its seed, once traced and once not,
    in alternating order, so the pair measures the tracing overhead.
    """
    ops = []
    index = 0
    start = perf_counter()
    while True:
        for kind in wl.cycle:
            index += 1
            if tracer is None:
                ops.append(run_op(wl, seed, index, kind, False))
                continue
            for traced in ((True, False) if index % 2 else (False, True)):
                with tracer.active(sites) if traced else contextlib.nullcontext():
                    ops.append(run_op(wl, seed, index, kind, traced))
        if perf_counter() - start >= seconds:
            return ops, perf_counter() - start, speed_probe()


def tail(times):
    """Highest percentile with at least 10 ops above it: (value, percentile).

    A run of fewer than 21 ops has no such percentile at or above the median;
    its tail is the median.
    """
    times = sorted(times)
    if len(times) < 21:
        return statistics.median(times), 50.0
    return times[-11], 100.0 * (len(times) - 10) / len(times)


def measure(wl, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Run one workload; returns (result line, all metrics, notes, meta)."""
    zm = wl.zm
    setup = [] if trace else measure_setup(wl.setup_module, setup_repeats[0])
    kind0 = wl.cycle[0]
    wl.run(kind0, wl.prepare(seed, 0, kind0))  # untimed warm-up op
    tracer = sites = None
    if trace:
        tracer, sites = tracing.Tracer(), tracing.targets(zm)
        with tracer.active(sites):  # fails here if a traced name is missing
            pass
    ops, wall, last_probe = timed_loop(wl, seed, seconds, tracer, sites)
    for op in ops:
        if op.failure is None:
            op.failure, op.defect = wl.check(op.kind, op.args, op.result) or (None, False)
    failed = sum(op.failure is not None for op in ops)
    problems = [f"op {op.index}: {op.failure}" for op in ops if op.defect]
    rmse, rmse_n = wl.rel_rmse([op for op in ops if not op.traced])
    metrics = {"est_rel_rmse": (rmse, "ratio")}
    notes = {"est_rel_rmse": f"over {rmse_n} replicates"}
    meta = {}
    if not trace:
        setup += measure_setup(wl.setup_module, setup_repeats[1])
        # each op's machine speed: the mean of the probes before and after it
        probes = [op.probe for op in ops] + [last_probe]
        scaled = [scale(op.seconds, (p0 + p1) / 2.0)
                  for op, p0, p1 in zip(ops, probes, probes[1:])]
        value, pct = tail(scaled)
        metrics.update({
            "setup_s": (statistics.median(scale(t, p) for t, p in setup), "s"),
            "op_s_p50": (statistics.median(scaled), "s"),
            "op_s_tail": (value, "s"),
            "ops_per_s": (len(ops) / sum(scaled), "1/s"),
            "fail_ratio": (failed / len(ops), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_wall_s": (statistics.median(t for t, _ in setup), "s"),
            "op_wall_s_p50": (statistics.median(op.seconds for op in ops), "s"),
            "ops_per_wall_s": (len(ops) / wall, "1/s"),
            "probe_ms_p50": (statistics.median(probes) * 1e3, "ms"),
        })
        notes["setup_s"] = f"median of {len(setup)} fresh imports of {wl.setup_module}"
        notes["op_s_tail"] = f"p{pct:.1f} of {len(ops)} ops"
        notes["fail_ratio"] = f"{failed} of {len(ops)} ops"
        notes["probe_ms_p50"] = "the op times are scaled by its nominal time over it"
        meta["setup_samples_s"] = setup
        meta["probe_s"] = probes
    else:
        tracer.require(wl.required, wl.name)
        traced = [op for op in ops if op.traced]
        plain = [op for op in ops if not op.traced]
        metrics.update(tracer.per_op(len(traced)))
        overhead = (statistics.fmean(op.seconds for op in traced)
                    / statistics.fmean(op.seconds for op in plain) - 1.0)
        metrics["trace_overhead"] = (overhead, "ratio")
        notes["trace_overhead"] = f"{len(traced)} traced against {len(plain)} untraced ops"
        for reason in ("infeasible_simulation", "infeasible_init", "estimation_error",
                       "non_converged"):
            count = sum(op.failure == reason for op in ops)
            metrics[f"experiments.discarded.{reason}"] = (count / len(ops), "ratio")
        problems += wl.determinism(seed, ops[0])
        jobs = min(len(os.sched_getaffinity(0)), MAX_POOL_JOBS)
        speedup, pool_problems = wl.pool(seed, jobs)
        problems += pool_problems
        metrics["experiments.pool_speedup"] = (speedup, "ratio")
        if speedup:
            notes["experiments.pool_speedup"] = f"jobs=1 against jobs={jobs}"
        meta["trace_overhead"] = overhead
        meta["spans"] = {k: {"calls": v[0], "seconds": v[1], "units": v[2]}
                         for k, v in sorted(tracer.stats.items())}
    line = {"correct": not problems, "attempted": len(ops), "failed": failed}
    meta.update({"problems": problems, "op_seconds": [op.seconds for op in ops],
                 "failures": [op.failure for op in ops if op.failure]})
    return line, metrics, notes, meta


def versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def report(wl, seed, seconds, trace, setup_repeats=SETUP_REPEATS, out_dir=OUT):
    """Measure, print every metric by name and unit, write the record and
    print the result line last; returns the result line as a dict."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line, metrics, notes, meta = measure(wl, seed, seconds, trace, setup_repeats)
    meta.update({
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(ROOT), "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS, **versions(),
    })
    print(" ".join(f"{k}={meta[k]}" for k in ("workload", "seed", "seconds", "trace",
                                               "commit", "nproc", "python", "numpy",
                                               "scipy")) + f" thread_caps={THREAD_CAPS}")
    for name, (value, unit) in sorted(metrics.items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    for problem in meta["problems"]:
        print(f"problem: {problem}")
    wanted = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} is not {entry['unit']}")
        wanted[entry["name"]] = {"value": value, "unit": unit}
    line["metrics"] = wanted
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {**line, "all_metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()},
              "notes": notes, "meta": meta}
    path = out_dir / f"{wl.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    zm = load_zmcounts()
    wl = workloads.make(args.workload, zm, OUT / f"work-{os.getpid()}")
    try:
        report(wl, args.seed, args.seconds, args.trace)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
