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
from .intensity import IntensityFamily, simulate_intensity
from .observation import CountFamily, ModelSpec, zm_sample
from . import io

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4


def _load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise InvalidSpecError(f"cannot read config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise InvalidSpecError(f"config {path} is not a JSON object")
    return cfg


_REQUIRED = object()


def _setting(block: dict, key: str, convert, default=_REQUIRED, where: str = ""):
    """``block[key]`` read through ``convert``, or ``default`` as it is when
    the key is absent.  A required key that is absent, or a value that
    ``convert`` rejects with a ``TypeError`` or ``ValueError``, raises
    :class:`InvalidSpecError` naming the key as ``where + key``."""
    if key not in block:
        if default is _REQUIRED:
            raise InvalidSpecError(f"config lacks {where}{key}")
        return default
    try:
        return convert(block[key])
    except (TypeError, ValueError) as err:
        raise InvalidSpecError(f"bad config value {where}{key}={block[key]!r}: {err}") from err


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not a JSON object")
    return value


def _objects(value) -> list:
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise TypeError("not a list of JSON objects")
    return value


def _family(value) -> str:
    return CountFamily(value).value


def _intensity(value) -> str:
    return IntensityFamily(value).value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _mode(value) -> str:
    if value not in ("raise", "truncate"):
        raise ValueError("expected 'raise' or 'truncate'")
    return value


def _model(block: dict, where: str, family=_REQUIRED, intensity=_REQUIRED) -> dict:
    """The model keys of a config block as keywords of
    :meth:`ModelSpec.create` and :class:`ExperimentRow`; ``family`` and
    ``intensity`` are the defaults of the two families."""

    def value(key, convert=float, default=_REQUIRED):
        return _setting(block, key, convert, default, where)

    return {
        "family": value("family", _family, family),
        "intensity_family": value("intensity", _intensity, intensity),
        "omega": value("omega"), "rho": value("rho"), "beta": value("beta"),
        "p": value("p", default=1.0), "a": value("a", default=0.0), "c": value("c", int, 1),
    }


def _model_spec(cfg: dict) -> ModelSpec:
    return ModelSpec.create(**_model(_setting(cfg, "model", _object), "model."))


def _seed(args, cfg: dict, default=None):
    """The ``--seed`` flag, else the config's seed, else ``default``."""
    return args.seed if args.seed is not None else _setting(cfg, "seed", int, default)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = _model_spec(cfg)
    n = _setting(cfg, "n", int, 0)
    if n < 1:
        raise InvalidSpecError("config must set a positive n")
    seed = _seed(args, cfg)
    if seed is None:
        raise InvalidSpecError("a seed is required for simulation")
    on_infeasible = _setting(cfg, "on_infeasible", _mode, "raise")
    rng = np.random.default_rng(seed)
    out = _outdir(args)
    lam = simulate_intensity(spec.intensity, n, rng)
    y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible=on_infeasible)
    if _setting(cfg, "write_intensity", _flag, True):
        io.write_counts_csv(out / "counts.csv", y, intensities=lam)
    else:
        io.write_counts_csv(out / "counts.csv", y)
    io.write_metadata(out / "metadata.json", "simulate", cfg, seed)
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
    model = _setting(cfg, "model", _object, {})
    fit_cfg = _setting(cfg, "fit", _object, {})
    boot = _setting(cfg, "bootstrap", _object, {})
    options = {
        "tol": _setting(fit_cfg, "tol", float, 1e-6, "fit."),
        "max_iter": _setting(fit_cfg, "max_iter", int, 500, "fit."),
    }
    family = _setting(model, "family", _family, "zmp", "model.")
    ifam = _setting(model, "intensity", _intensity, "gar1", "model.")
    c = _setting(model, "c", int, 1, "model.")
    reps = _setting(boot, "reps", int, 0, "bootstrap.")
    # the seed is recorded only when a bootstrap draws from it
    seed = _seed(args, cfg, 0) if reps else None
    y = io.read_counts_csv(args.data, column=args.column)
    result = fit(y, family, ifam, c=c, **options)
    out = _outdir(args)
    se = None
    if reps:
        rng = np.random.default_rng(seed)
        se = bootstrap_se(
            result.spec, n=len(y), reps=reps, rng=rng, jobs=args.jobs, **options
        ).se
    io.write_fit_json(out / "fit.json", result, se=se)
    io.write_filtered_csv(out / "filtered.csv", y, result.filter_result)
    io.write_residuals_csv(out / "residuals.csv", result.residuals)
    io.write_metadata(out / "metadata.json", "fit", cfg, seed)
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
    max_lag = _setting(cfg, "max_lag", int, 20)
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


def _experiment_rows(exp: dict) -> list[ExperimentRow]:
    """Every row of the experiment block, each with a valid model."""
    n = _setting(exp, "n", int, 1000, "experiment.")
    replicates = _setting(exp, "replicates", int, 200, "experiment.")
    on_infeasible = _setting(exp, "on_infeasible", _mode, "raise", "experiment.")
    rows = []
    for i, row_cfg in enumerate(_setting(exp, "rows", _objects, [], "experiment.")):
        where = f"experiment.rows[{i}]."
        row = ExperimentRow(
            **_model(row_cfg, where, "zmp", "gar1"),
            n=_setting(row_cfg, "n", int, n, where),
            replicates=_setting(row_cfg, "replicates", int, replicates, where),
            on_infeasible=_setting(row_cfg, "on_infeasible", _mode, on_infeasible, where),
        )
        try:
            row.spec()
        except InvalidSpecError as err:
            raise InvalidSpecError(f"experiment.rows[{i}]: {err}") from err
        rows.append(row)
    if not rows:
        raise InvalidSpecError("config must contain an experiment block with rows")
    return rows


def cmd_reproduce(args) -> int:
    cfg = _load_config(args.config)
    rows = _experiment_rows(_setting(cfg, "experiment", _object, {}))
    seed = _seed(args, cfg)
    if seed is None:
        raise InvalidSpecError("a seed is required for reproduction runs")
    out = _outdir(args)
    results = []
    for row in rows:
        res = run_experiment(row, master_seed=seed, jobs=args.jobs)
        if res.completed == 0:
            print(f"row {row}: all replicates failed", file=sys.stderr)
            return EXIT_NONCONVERGED
        results.append(res)
        print(
            f"row (rho={row.rho}, omega={row.omega}, beta={row.beta}, p={row.p}"
            + (f", a={row.a}" if row.family == "zmnb" else "")
            + f"): completed {res.completed}/{row.replicates}, "
            + " ".join(f"{k}={res.mean[k]:.4f}" for k in ("rho", "omega", "beta", "p"))
        )
    io.write_experiment_csv(out / "experiment.csv", results)
    io.write_metadata(out / "metadata.json", "reproduce", cfg, seed)
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
