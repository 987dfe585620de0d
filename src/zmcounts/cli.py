"""Command-line surface: simulate, filter, fit, diagnose, reproduce.

Every command takes a JSON config (``--config``) plus a few overriding flags
and writes its outputs into ``--out``.  Exit codes: 0 success, 2 parse or
configuration error, 3 infeasible model, 4 non-convergence.

Config layout::

    {
      "model": {"family": "zmp", "intensity": "gar1", "omega": 0.2,
                "rho": 0.8, "beta": 2.0, "p": 4.0, "a": 0.0, "c": 1},
      "n": 1000,
      "seed": 1,
      "write_intensity": true,
      "on_infeasible": "raise",
      "fit": {"tol": 1e-6, "max_iter": 500},
      "bootstrap": {"reps": 0},
      "experiment": {"replicates": 200, "n": 1000,
                     "rows": [{"family": "zmp", "intensity": "gar1",
                               "omega": 0.2, "rho": 0.8, "beta": 0.5, "p": 4.0}]}
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import (
    ProbTable,
    ljung_box,
    pearson_residuals,
    sample_acf_pacf,
    truncated_residuals,
)
from .errors import (
    EstimationError,
    InfeasibleInitError,
    InfeasibleOmegaError,
    InvalidSpecError,
    ZmcountsError,
)
from .estimation import fit
from .experiments import ExperimentRow, bootstrap_se, run_experiment
from .filtering import gkf_filter
from .intensity import simulate_intensity
from .observation import ModelSpec, zm_sample
from . import io

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4


def _load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise InvalidSpecError(f"cannot read config {path}: {err}") from err


def _model_spec(cfg: dict) -> ModelSpec:
    try:
        model = cfg["model"]
        return ModelSpec.create(
            model["family"],
            model["intensity"],
            omega=float(model["omega"]),
            rho=float(model["rho"]),
            beta=float(model["beta"]),
            p=float(model.get("p", 1.0)),
            a=float(model.get("a", 0.0)),
            c=int(model.get("c", 1)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidSpecError(f"bad model config: {err}") from err


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = _model_spec(cfg)
    n = int(cfg.get("n", 0))
    if n < 1:
        raise InvalidSpecError("config must set a positive n")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise InvalidSpecError("a seed is required for simulation")
    rng = np.random.default_rng(int(seed))
    out = _outdir(args)
    lam = simulate_intensity(spec.intensity, n, rng)
    y = zm_sample(
        spec.family, lam, spec.params, rng,
        on_infeasible=cfg.get("on_infeasible", "raise"),
    )
    if cfg.get("write_intensity", True):
        io.write_counts_csv(out / "counts.csv", y, intensities=lam)
    else:
        io.write_counts_csv(out / "counts.csv", y)
    io.write_metadata(out / "metadata.json", "simulate", cfg, int(seed))
    print(f"wrote {out / 'counts.csv'} (n={n})")
    return EXIT_OK


def cmd_filter(args) -> int:
    cfg = _load_config(args.config)
    spec = _model_spec(cfg)
    y = io.read_counts_csv(args.data, column=args.column)
    result = gkf_filter(y, spec)
    out = _outdir(args)
    io.write_filtered_csv(out / "filtered.csv", y, result)
    io.write_metadata(out / "metadata.json", "filter", cfg, None)
    print(f"wrote {out / 'filtered.csv'}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.get("model", {})
    fit_cfg = cfg.get("fit", {})
    y = io.read_counts_csv(args.data, column=args.column)
    options = {
        "tol": float(fit_cfg.get("tol", 1e-6)),
        "max_iter": int(fit_cfg.get("max_iter", 500)),
    }
    result = fit(
        y, model.get("family", "zmp"), model.get("intensity", "gar1"),
        c=int(model.get("c", 1)), **options,
    )
    out = _outdir(args)
    se = None
    boot = cfg.get("bootstrap", {})
    reps = int(boot.get("reps", 0))
    if reps:
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        rng = np.random.default_rng(int(seed))
        se = bootstrap_se(
            result.spec, n=len(y), reps=reps, rng=rng, jobs=args.jobs, **options
        ).se
    io.write_fit_json(out / "fit.json", result, se=se)
    filt = gkf_filter(y, result.spec)
    io.write_filtered_csv(out / "filtered.csv", y, filt)
    io.write_residuals_csv(out / "residuals.csv", result.residuals)
    io.write_metadata(out / "metadata.json", "fit", cfg, args.seed)
    ph = result.params_hat
    print(
        f"fit: omega={ph.omega:.6g} rho={ph.rho:.6g} beta={ph.beta:.6g} "
        f"p={ph.p:.6g}" + (f" a={ph.a:.6g}" if ph.a else "")
        + f"  converged={result.converged}"
    )
    if not result.converged:
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    y = io.read_counts_csv(args.data, column=args.column)
    fit_doc = io.read_fit_json(args.fit)
    est = fit_doc["estimates"]
    try:
        spec = ModelSpec.create(
            fit_doc["family"], fit_doc["intensity_family"],
            omega=est["omega"], rho=est["rho"], beta=est["beta"], p=est["p"],
            a=est.get("a", 0.0), c=int(est.get("c", 1)),
        )
    except (TypeError, ValueError) as err:
        raise InvalidSpecError(f"bad model in fit file {args.fit}: {err}") from err
    max_lag = int(cfg.get("max_lag", 20))
    out = _outdir(args)
    filt = gkf_filter(y, spec)
    if spec.params.omega < 0.0:
        residuals = truncated_residuals(y, filt.lambda_filtered, spec.params, spec.family)
    else:
        residuals = pearson_residuals(y, filt.lambda_filtered, spec.params, spec.family)
    io.write_residuals_csv(out / "residuals.csv", residuals)
    acf, pacf = sample_acf_pacf(residuals, max_lag)
    io.write_acf_pacf_csv(out / "acf_pacf.csv", acf, pacf)
    stat, pval = ljung_box(residuals, max_lag)
    raw_stat, raw_pval = ljung_box(y, 1)
    (out / "ljung_box.json").write_text(
        json.dumps(
            {
                "residual_lag": max_lag,
                "residual_statistic": stat,
                "residual_p_value": pval,
                "raw_lag1_statistic": raw_stat,
                "raw_lag1_p_value": raw_pval,
            },
            indent=2,
        )
        + "\n"
    )
    table = ProbTable.build(spec, y)
    io.write_probtable_csv(out / "probtable.csv", table)
    io.write_metadata(out / "metadata.json", "diagnose", cfg, cfg.get("seed"))
    print(f"Ljung-Box(residuals, {max_lag}): Q={stat:.4f} p={pval:.4f}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cfg = _load_config(args.config)
    exp = cfg.get("experiment")
    if not exp or not exp.get("rows"):
        raise InvalidSpecError("config must contain an experiment block with rows")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise InvalidSpecError("a seed is required for reproduction runs")
    out = _outdir(args)
    results = []
    for row_cfg in exp["rows"]:
        row = ExperimentRow(
            family=row_cfg.get("family", "zmp"),
            intensity_family=row_cfg.get("intensity", "gar1"),
            omega=float(row_cfg["omega"]),
            rho=float(row_cfg["rho"]),
            beta=float(row_cfg["beta"]),
            p=float(row_cfg.get("p", 1.0)),
            a=float(row_cfg.get("a", 0.0)),
            c=int(row_cfg.get("c", 1)),
            n=int(row_cfg.get("n", exp.get("n", 1000))),
            replicates=int(row_cfg.get("replicates", exp.get("replicates", 200))),
            on_infeasible=row_cfg.get("on_infeasible", exp.get("on_infeasible", "raise")),
        )
        res = run_experiment(row, master_seed=int(seed), jobs=args.jobs)
        if res.completed == 0:
            print(f"row {row_cfg}: all replicates failed", file=sys.stderr)
            return EXIT_NONCONVERGED
        results.append(res)
        print(
            f"row (rho={row.rho}, omega={row.omega}, beta={row.beta}, p={row.p}"
            + (f", a={row.a}" if row.family == "zmnb" else "")
            + f"): completed {res.completed}/{row.replicates}, "
            + " ".join(f"{k}={res.mean[k]:.4f}" for k in ("rho", "omega", "beta", "p"))
        )
    io.write_experiment_csv(out / "experiment.csv", results)
    io.write_metadata(out / "metadata.json", "reproduce", cfg, int(seed))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmcounts",
        description="Zero-modified count time series: simulation, filtering, "
        "estimating-function fits and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, fit_file=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        if data:
            p.add_argument("--data", required=True, help="counts CSV")
            p.add_argument("--column", default=None, help="count column name or index")
        if fit_file:
            p.add_argument("--fit", required=True, help="fit.json from a previous fit")

    common(sub.add_parser("simulate", help="simulate counts from a model"))
    common(sub.add_parser("filter", help="filter intensities at fixed parameters"), data=True)
    common(sub.add_parser("fit", help="estimate parameters from counts"), data=True)
    common(
        sub.add_parser("diagnose", help="residual and marginal-fit diagnostics"),
        data=True,
        fit_file=True,
    )
    common(sub.add_parser("reproduce", help="run simulation-table experiments"))
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "fit": cmd_fit,
    "diagnose": cmd_diagnose,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (InfeasibleOmegaError, InfeasibleInitError) as err:
        print(f"infeasible model: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidSpecError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except EstimationError as err:
        print(f"estimation failed: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except ZmcountsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
