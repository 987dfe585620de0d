"""The benchmark's workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Ops run in whole cycles over the workload's kinds
(experiment rows or CLI models), so every run holds each kind equally often
and the median op time does not jump between kinds from run to run.  Op ``i``
draws its inputs from ``SeedSequence(seed, spawn_key=(i,))``; op 0 is the
untimed warm-up.

* ``mc_zmp``: one ``run_replicate`` at n = 1000, alternating the paper's
  criterion-1 row (inflated, closed-form zero mass) and criterion-2 row
  (deflated, ``gammainc`` + ``brentq`` zero mass).  A ZMP fit is cheap, so the
  cost of one deviance evaluation dominates.
* ``mc_zmnb``: one ``run_replicate`` of the criterion-3 row.  The only workload
  that runs the outer dispersion search and the Gauss-Laguerre zero mass.  Run
  by hand; BENCHMARK.json does not gate on it (see ``NAMES``).
* ``cli_long``: one in-process ``simulate -> filter -> diagnose`` CLI session
  on one long series, cycling ZMP-GAR1 (closed-form ProbTable), ZMP-EAR1 and
  ZMNB-GAR1 (Monte-Carlo ProbTable).  ``fit.json`` holds the generating
  parameters, so no estimation runs.  The only workload where the long-input
  sampler, one long filter pass, the ProbTable, CSV io and the CLI work.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

MC_N = 1000
CLI_N = 100_000
# run_experiment hands replicates to workers in chunks of this size, so fewer
# than CHUNK * jobs replicates leave a worker idle
CHUNK = 4
# replicates (first ops of a run) that est_rel_rmse averages over
RMSE_OPS = {"mc_zmp": 64, "mc_zmnb": 3}

MC_REQUIRED = (
    "experiments.replicate", "intensity.simulate", "observation.sample",
    "observation.zero_mass", "filtering.forward_pass", "filtering.variance_path",
    "filtering.gkf_filter", "estimation.fit", "estimation.init",
    "estimation.optimizer", "estimation.root_find", "diagnostics.residuals",
)
CLI_REQUIRED = (
    "cli.main", "cli.simulate", "cli.filter", "cli.diagnose", "io.read", "io.write",
    "intensity.simulate", "observation.sample", "filtering.gkf_filter",
    "filtering.variance_path", "diagnostics.probtable", "diagnostics.residuals",
    "diagnostics.ljung_box", "diagnostics.acf",
)

CLI_MODELS = (
    {"family": "zmp", "intensity": "gar1", "omega": 0.2, "rho": 0.8, "beta": 0.5, "p": 4.0},
    {"family": "zmp", "intensity": "ear1", "omega": 0.2, "rho": 0.8, "beta": 0.5, "p": 1.0},
    {"family": "zmnb", "intensity": "gar1", "omega": 0.3, "rho": 0.8, "beta": 0.5, "p": 1.0,
     "a": 0.5, "c": 1},
)


def op_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(index,))


def paper_rows(zm, n=MC_N):
    """The paper's criterion-1, -2 and -3 table rows at series length n."""
    row = zm.experiments.ExperimentRow
    return {
        "crit1": row("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0, n=n, replicates=1),
        "crit2": row("zmp", "gar1", omega=-0.2, rho=0.8, beta=2.0, p=4.0, n=n, replicates=1,
                     on_infeasible="truncate"),
        "crit3": row("zmnb", "gar1", omega=0.3, rho=0.8, beta=0.5, p=1.0, n=n, replicates=1,
                     a=0.5, c=1),
    }


# mc_zmnb fits only 5-8 replicates of 2-8 s each in a 40 s run, so its
# medians follow the data of those few; it is kept for layer evidence, but
# BENCHMARK.json does not gate on it (perfbench/README.md gives the numbers)
NAMES = ("mc_zmp", "mc_zmnb", "cli_long")


def make(name, zm, workdir: Path, n=None):
    """Build a named workload; ``n`` overrides the series length."""
    if name == "mc_zmp":
        rows = paper_rows(zm, n or MC_N)
        return MonteCarlo(name, zm, (rows["crit1"], rows["crit2"]))
    if name == "mc_zmnb":
        return MonteCarlo(name, zm, (paper_rows(zm, n or MC_N)["crit3"],))
    if name == "cli_long":
        return CliSession(name, zm, n or CLI_N, workdir)
    raise ValueError(f"unknown workload {name!r}")


@contextlib.contextmanager
def _recording(module, attr):
    """Collect every value ``module.attr`` returns inside the block."""
    orig = getattr(module, attr)
    seen = []

    def record(*args, **kwargs):
        out = orig(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, attr, record)
    try:
        yield seen
    finally:
        setattr(module, attr, orig)


def _param_keys(row):
    return ("rho", "omega", "beta", "p") + (("a",) if row.family == "zmnb" else ())


class MonteCarlo:
    """One op is one seeded simulate-and-fit replicate of a table row."""

    setup_module = "zmcounts.experiments"
    required = MC_REQUIRED

    def __init__(self, name, zm, rows):
        self.name = name
        self.zm = zm
        self.cycle = rows

    def prepare(self, seed, index, row):
        return op_seed(seed, index)

    def run(self, row, ss):
        return self.zm.experiments.run_replicate(row, ss)

    def check(self, row, ss, result):
        """None, or (reason, is_defect); a typed discard is a failure, not a defect."""
        if isinstance(result, str):
            return result, False
        est = result
        if not all(math.isfinite(est[k]) for k in _param_keys(row)):
            return "check: non-finite estimate", True
        inside = (0.0 <= est["rho"] < 1.0 and -1.0 < est["omega"] < 1.0
                  and est["beta"] > 0.0 and est["p"] > 0.0
                  and (est["a"] > 0.0 if row.family == "zmnb" else est["a"] == 0.0))
        return None if inside else ("check: estimate outside the parameter space", True)

    def rel_rmse(self, ops):
        """Relative RMSE of the estimates against the generating values over the
        completed replicates among the first RMSE_OPS ops: (value, replicates)."""
        sq = []
        done = 0
        for op in ops[: RMSE_OPS.get(self.name, len(ops))]:
            if op.failure is not None:
                continue
            truth = op.kind.true_values()
            sq += [((op.result[k] - truth[k]) / truth[k]) ** 2 for k in _param_keys(op.kind)]
            done += 1
        return (math.sqrt(sum(sq) / len(sq)) if sq else 0.0), done

    def determinism(self, seed, first):
        """Re-run the first op twice: identical counts and estimates."""
        ss = op_seed(seed, first.index)
        with _recording(self.zm.experiments, "zm_sample") as drawn:
            again = [self.run(first.kind, ss) for _ in range(2)]
        problems = []
        if len(drawn) != 2 or not np.array_equal(drawn[0], drawn[1]):
            problems.append(f"{self.name}: repeated op drew different counts")
        if not repr(again[0]) == repr(again[1]) == repr(first.result):
            problems.append(f"{self.name}: repeated op gave different estimates")
        return problems

    def pool(self, seed, jobs):
        """Serial against pooled run_experiment on the same replicates:
        (serial seconds / pooled seconds, problems)."""
        serial = pooled = 0.0
        problems = []
        for row in self.cycle:
            row = dataclasses.replace(row, replicates=CHUNK * jobs)
            t0 = perf_counter()
            one = self.zm.experiments.run_experiment(row, seed, jobs=1)
            t1 = perf_counter()
            many = self.zm.experiments.run_experiment(row, seed, jobs=jobs)
            t2 = perf_counter()
            serial += t1 - t0
            pooled += t2 - t1
            if (repr(one.estimates), one.discard_reasons) != (repr(many.estimates),
                                                              many.discard_reasons):
                problems.append(f"{self.name}: jobs=1 and jobs={jobs} estimates differ")
        return serial / pooled, problems

    def close(self):
        pass


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliSession:
    """One op is one ``simulate -> filter -> diagnose`` session of ``cli.main``."""

    setup_module = "zmcounts.cli"
    required = CLI_REQUIRED
    outputs = ("counts.csv", "filtered.csv", "residuals.csv", "acf_pacf.csv",
               "probtable.csv", "ljung_box.json")

    def __init__(self, name, zm, n, workdir: Path):
        self.name = name
        self.zm = zm
        self.n = n
        self.cycle = CLI_MODELS
        self.workdir = workdir
        # the ProbTable is compared with the empirical frequencies of one
        # autocorrelated series; at n = 1e5 the distance measured 0.003-0.008
        self.tv_tol = 10.0 / math.sqrt(n)

    def prepare(self, seed, index, model, tag=""):
        out = self.workdir / f"op{index}{tag}"
        out.mkdir(parents=True, exist_ok=True)
        cli_seed = int(op_seed(seed, index).generate_state(1)[0])
        config = {"model": model, "n": self.n, "seed": cli_seed, "max_lag": 20,
                  "write_intensity": True, "on_infeasible": "raise"}
        (out / "config.json").write_text(json.dumps(config))
        estimates = {"omega": model["omega"], "rho": model["rho"], "beta": model["beta"],
                     "p": model["p"], "a": model.get("a", 0.0), "c": model.get("c", 1)}
        fit_doc = {"family": model["family"], "intensity_family": model["intensity"],
                   "estimates": estimates}
        (out / "fit.json").write_text(json.dumps(fit_doc))
        return out

    def run(self, model, out):
        common = ["--config", str(out / "config.json"), "--out", str(out)]
        data = ["--data", str(out / "counts.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            return (
                self.zm.cli.main(["simulate", *common]),
                self.zm.cli.main(["filter", *common, *data]),
                self.zm.cli.main(["diagnose", *common, *data, "--fit", str(out / "fit.json")]),
            )

    def check(self, model, out, codes):
        """None, or (reason, True): every output must parse and hold its invariants."""
        if codes != (0, 0, 0):
            return f"check: exit codes {codes}", True
        n = self.n
        try:
            counts = np.loadtxt(out / "counts.csv", delimiter=",", skiprows=1, ndmin=2)
            filtered = np.loadtxt(out / "filtered.csv", delimiter=",", skiprows=1, ndmin=2)
            resid = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1, ndmin=2)
            with (out / "probtable.csv").open(newline="") as fh:
                table = list(csv.reader(fh))[1:]
            box = json.loads((out / "ljung_box.json").read_text())
            p_values = [box["residual_p_value"], box["raw_lag1_p_value"]]
        except (OSError, ValueError, KeyError) as err:
            return f"check: unreadable output: {err}", True
        if counts.shape != (n, 3) or filtered.shape != (n, 5) or resid.shape != (n, 2):
            return "check: output row counts differ from n", True
        y = counts[:, 1]
        if np.any(y < 0) or np.any(y != np.round(y)) or not np.all(counts[:, 2] > 0):
            return "check: counts are not non-negative integers", True
        lam_f = filtered[:, 2]
        if not np.array_equal(filtered[:, 1], y) or not (
            np.all(np.isfinite(lam_f)) and np.all(lam_f > 0)
        ):
            return "check: filtered path not positive and finite", True
        if not np.all(np.isfinite(resid[:, 1])):
            return "check: non-finite residual", True
        fitted = np.array([float(r[1]) for r in table[:-1]])
        empirical = np.array([float(r[2]) for r in table[:-1]])
        tail = float(table[-1][1])
        if np.any((fitted < 0) | (fitted > 1)) or fitted.sum() > 1.0 + 1e-9:
            return "check: ProbTable entries outside [0, 1] or summing above 1", True
        freq = np.bincount(y.astype(np.int64), minlength=len(empirical)) / n
        if len(freq) != len(empirical) or np.max(np.abs(freq - empirical)) > 1e-12:
            return "check: ProbTable empirical column differs from the counts", True
        tv = 0.5 * (np.abs(fitted - empirical).sum() + tail)
        if not tv <= self.tv_tol:
            return f"check: ProbTable total variation {tv:.4g} above {self.tv_tol:.4g}", True
        if not all(0.0 <= p <= 1.0 for p in p_values):
            return "check: Ljung-Box p-value outside [0, 1]", True
        return None

    def rel_rmse(self, ops):
        return 0.0, 0

    def determinism(self, seed, first):
        """Re-run the first session with its seed: byte-identical outputs."""
        out = self.prepare(seed, first.index, first.kind, tag="-again")
        codes = self.run(first.kind, out)
        same = codes == first.result and all(
            _digest(out / f) == _digest(first.args / f) for f in self.outputs
        )
        return [] if same else [f"{self.name}: repeated session wrote different outputs"]

    def pool(self, seed, jobs):
        return 0.0, []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
