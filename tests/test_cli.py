import csv
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zmcounts import cli
from zmcounts.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from zmcounts.io import read_counts_csv, write_counts_csv


def write_config(path, **overrides):
    cfg = {
        "model": {
            "family": "zmp",
            "intensity": "gar1",
            "omega": 0.2,
            "rho": 0.8,
            "beta": 0.5,
            "p": 4.0,
        },
        "n": 400,
        "seed": 11,
    }
    cfg.update(overrides)
    Path(path).write_text(json.dumps(cfg))
    return cfg


FIT_DOC = {"family": "zmp", "intensity_family": "gar1",
           "estimates": {"omega": 0.2, "rho": 0.8, "beta": 0.5, "p": 4.0}}


class TestSimulate:
    def test_writes_counts_and_metadata(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        y = read_counts_csv(out / "counts.csv")
        assert len(y) == 400
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 11
        assert len(meta["config_sha256"]) == 64

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()

    def test_all_zero_under_degenerate_omega(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "family": "zmp", "intensity": "gar1", "omega": 0.9999999,
            "rho": 0.5, "beta": 1.0, "p": 1.0,
        })
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert np.all(read_counts_csv(out / "counts.csv") == 0)

    def test_zero_fraction_matches_marginal(self, tmp_path):
        from zmcounts.observation import CountFamily, marginal_zero_prob

        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=4000)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        y = read_counts_csv(out / "counts.csv")
        target = marginal_zero_prob(CountFamily.ZMP, 0.2, 0.5, 4.0)
        assert abs(np.mean(y == 0) - target) < 4 * np.sqrt(target * (1 - target) / len(y))

    def test_infeasible_model_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "family": "zmp", "intensity": "gar1", "omega": -0.3,
            "rho": 0.5, "beta": 0.5, "p": 4.0,
        })
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
        missing = tmp_path / "missing.json"
        write_config(missing, model={"family": "zmp"})
        assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG


class TestFilterCommand:
    def test_filtered_csv_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rc = main(["filter", "--config", str(cfg), "--data", str(out / "counts.csv"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        with (out / "filtered.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "y", "lambda_filtered", "error_var", "innovation"]
        assert len(rows) == 401
        # values round-trip at full precision
        lam = float(rows[1][2])
        assert lam > 0


class TestFitCommand:
    def test_round_trip_and_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=800)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rc = main(["fit", "--config", str(cfg), "--data", str(out / "counts.csv"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"] is True
        assert abs(doc["estimates"]["omega"] - 0.2) < 0.15
        assert abs(doc["estimates"]["rho"] - 0.8) < 0.25
        assert (out / "filtered.csv").exists()
        assert (out / "residuals.csv").exists()

    def test_filtered_csv_is_that_of_the_filter_command(self, tmp_path, monkeypatch):
        # the fit's own filter pass at its estimates is the one written, and
        # the series is filtered once
        from zmcounts import estimation

        calls = []

        def counted(gkf_filter):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return gkf_filter(*args, **kwargs)
            return wrapper

        for module in (cli, estimation):
            monkeypatch.setattr(module, "gkf_filter", counted(module.gkf_filter))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=800)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        data = ["--data", str(out / "counts.csv")]
        assert main(["fit", "--config", str(cfg), *data, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        doc = json.loads((out / "fit.json").read_text())
        fitted = tmp_path / "fitted.json"
        write_config(fitted, model={"family": doc["family"], "intensity": doc["intensity_family"],
                                    **doc["estimates"]})
        filtered = tmp_path / "filtered"
        assert main(["filter", "--config", str(fitted), *data, "--out", str(filtered)]) == EXIT_OK
        assert (out / "filtered.csv").read_bytes() == (filtered / "filtered.csv").read_bytes()

    def test_column_selection(self, tmp_path):
        data = tmp_path / "counts.csv"
        with data.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["idx", "extra", "count"])
            rng = np.random.default_rng(3)
            for t, v in enumerate(rng.poisson(1.0, 300)):
                writer.writerow([t, 99, int(v)])
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        rc = main(["fit", "--config", str(cfg), "--data", str(data),
                   "--column", "count", "--out", str(out)])
        assert rc in (EXIT_OK, 4)  # convergence depends on data, parse must work
        assert (out / "fit.json").exists()

    def test_missing_column_is_config_error(self, tmp_path):
        data = tmp_path / "counts.csv"
        write_counts_csv(data, [1, 2, 3])
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        rc = main(["fit", "--config", str(cfg), "--data", str(data),
                   "--column", "nope", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG


    def test_deflated_bootstrap(self, tmp_path):
        # refits of a deflated fit draw the truncated law, as the data were
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=1000, seed=0, on_infeasible="truncate", bootstrap={"reps": 4},
                     model={"family": "zmp", "intensity": "gar1", "omega": -0.2,
                            "rho": 0.8, "beta": 2.0, "p": 4.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rc = main(["fit", "--config", str(cfg), "--data", str(out / "counts.csv"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "fit.json").read_text())
        assert doc["estimates"]["omega"] < 0
        assert set(doc["se"]) == {"omega", "rho", "beta", "p", "a"}
        assert all(np.isfinite(v) for v in doc["se"].values())

    def test_bootstrap_refits_use_the_fit_block(self, tmp_path, capsys):
        # refits take the config's max_iter, so none of them converges in
        # one iteration and no standard errors are written
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=600, seed=3, fit={"max_iter": 1}, bootstrap={"reps": 4})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rc = main(["fit", "--config", str(cfg), "--data", str(out / "counts.csv"),
                   "--out", str(out)])
        assert rc == 4
        assert "4/4 bootstrap refits failed" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    @pytest.mark.parametrize("cli_seed, used", [(None, 5), (9, 9)])
    def test_metadata_records_the_bootstrap_seed(self, tmp_path, monkeypatch, cli_seed, used):
        # the seed recorded is the one the bootstrap drew from: the config's
        # seed unless --seed overrides it
        states = []

        def bootstrap(spec, n, reps, rng, jobs, **options):
            states.append(rng.bit_generator.state)
            return SimpleNamespace(se={})

        monkeypatch.setattr(cli, "bootstrap_se", bootstrap)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seed=5, bootstrap={"reps": 2})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        seed = [] if cli_seed is None else ["--seed", str(cli_seed)]
        main(["fit", "--config", str(cfg), "--data", str(out / "counts.csv"),
              "--out", str(out), *seed])
        assert states == [np.random.default_rng(used).bit_generator.state]
        assert json.loads((out / "metadata.json").read_text())["seed"] == used

    def test_metadata_seed_is_null_without_bootstrap(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seed=5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        main(["fit", "--config", str(cfg), "--data", str(out / "counts.csv"),
              "--out", str(out), "--seed", "9"])
        assert json.loads((out / "metadata.json").read_text())["seed"] is None


class TestDiagnoseCommand:
    def test_bundle(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=600)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        main(["fit", "--config", str(cfg), "--data", str(out / "counts.csv"), "--out", str(out)])
        rc = main(["diagnose", "--config", str(cfg), "--data", str(out / "counts.csv"),
                   "--fit", str(out / "fit.json"), "--out", str(out)])
        assert rc == EXIT_OK
        lb = json.loads((out / "ljung_box.json").read_text())
        assert 0.0 <= lb["residual_p_value"] <= 1.0
        assert (out / "acf_pacf.csv").exists()
        with (out / "probtable.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "fitted", "empirical"]
        fitted = [float(r[1]) for r in rows[1:-1]]
        assert sum(fitted) <= 1 + 1e-9

    def test_deflated_fit(self, tmp_path):
        # the criterion-2 row, drawn from the truncated law where omega is infeasible
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=1000, seed=0, on_infeasible="truncate", model={
            "family": "zmp", "intensity": "gar1", "omega": -0.2,
            "rho": 0.8, "beta": 2.0, "p": 4.0,
        })
        out = tmp_path / "out"
        data = ["--data", str(out / "counts.csv")]
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["fit", "--config", str(cfg), *data, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "fit.json").read_text())["estimates"]["omega"] < 0
        rc = main(["diagnose", "--config", str(cfg), *data,
                   "--fit", str(out / "fit.json"), "--out", str(out)])
        assert rc == EXIT_OK
        resid = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1)
        assert resid.shape == (1000, 2)
        assert np.all(np.isfinite(resid[:, 1]))

    def test_deterministic_outputs(self, tmp_path):
        # a ZMNB table was a Monte-Carlo average seeded from the config
        model = {"family": "zmnb", "intensity": "gar1", "omega": 0.3, "rho": 0.8,
                 "beta": 0.5, "p": 1.0, "a": 0.5, "c": 1}
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=model)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        fit_doc = {"family": "zmnb", "intensity_family": "gar1",
                   "estimates": {k: v for k, v in model.items()
                                 if k not in ("family", "intensity")}}
        (out / "fit.json").write_text(json.dumps(fit_doc))

        def diagnose(config, name):
            dest = tmp_path / name
            rc = main(["diagnose", "--config", str(config), "--data", str(out / "counts.csv"),
                       "--fit", str(out / "fit.json"), "--out", str(dest)])
            assert rc == EXIT_OK
            return [(dest / f).read_bytes() for f in ("probtable.csv", "residuals.csv")]

        first = diagnose(cfg, "a")
        assert diagnose(cfg, "b") == first
        reseeded = tmp_path / "reseeded.json"
        write_config(reseeded, model=model, seed=12)
        assert diagnose(reseeded, "c")[0] == first[0]

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps({"family": "zmp", "intensity_family": "gar1"}),
            json.dumps({"family": "zmp", "intensity_family": "gar1", "estimates": 3}),
            json.dumps([1, 2]),
            *[json.dumps({k: v for k, v in FIT_DOC.items() if k != key})
              for key in ("family", "intensity_family")],
            *[json.dumps({**FIT_DOC, "estimates": {k: v for k, v in FIT_DOC["estimates"].items()
                                                   if k != key}})
              for key in ("omega", "rho", "beta", "p")],
            json.dumps({**FIT_DOC, "family": "poisson"}),
            json.dumps({**FIT_DOC, "estimates": {**FIT_DOC["estimates"], "omega": "x"}}),
            json.dumps({**FIT_DOC, "estimates": {**FIT_DOC["estimates"], "c": "one"}}),
        ],
    )
    def test_malformed_fit_file_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        data = tmp_path / "counts.csv"
        write_counts_csv(data, [0, 1, 2, 0, 3])
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(text)
        rc = main(["diagnose", "--config", str(cfg), "--data", str(data),
                   "--fit", str(fit_file), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "fit file" in capsys.readouterr().err

    def test_missing_fit_errors(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rc = main(["diagnose", "--config", str(cfg), "--data", str(out / "counts.csv"),
                   "--fit", str(out / "nofit.json"), "--out", str(out)])
        assert rc == EXIT_CONFIG


ROW = {"family": "zmp", "intensity": "gar1", "omega": 0.2, "rho": 0.6, "beta": 0.5, "p": 4.0}


@pytest.mark.parametrize("command,overrides,key", [
    ("simulate", {"n": "abc"}, "n"),
    ("simulate", {"write_intensity": "no"}, "write_intensity"),
    ("diagnose", {"max_lag": "x"}, "max_lag"),
    ("fit", {"model": {"family": "zmpx", "intensity": "gar1"}}, "model.family"),
    ("fit", {"fit": {"tol": "abc"}}, "fit.tol"),
    ("fit", {"bootstrap": {"reps": "x"}}, "bootstrap.reps"),
    ("reproduce", {"experiment": {"rows": [{k: v for k, v in ROW.items() if k != "omega"}]}},
     "experiment.rows[0].omega"),
    ("reproduce", {"experiment": {"rows": [ROW, {**ROW, "family": "poisson"}]}},
     "experiment.rows[1].family"),
])
def test_malformed_config_is_config_error(tmp_path, monkeypatch, capsys, command, overrides,
                                          key):
    # every row of an experiment is checked before its first replicate runs
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("a replicate ran"))
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    data = tmp_path / "counts.csv"
    write_counts_csv(data, [0, 1, 2, 0, 3, 1, 0, 2])
    fit_file = tmp_path / "fit.json"
    fit_file.write_text(json.dumps(FIT_DOC))
    extra = {"simulate": [], "reproduce": [], "fit": ["--data", str(data)],
             "diagnose": ["--data", str(data), "--fit", str(fit_file)]}[command]
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err


# sha256 of the outputs of one seeded simulate -> filter -> diagnose session
# per model at n = 2000, with the generating parameters as the fit.  They were
# recorded before the CSV writers and the counts reader were rewritten for
# speed, and pin that every output byte stayed the same.
GOLDEN_MODELS = {
    "zmp-gar1": {"family": "zmp", "intensity": "gar1", "omega": 0.2, "rho": 0.8,
                 "beta": 0.5, "p": 4.0},
    "zmp-ear1": {"family": "zmp", "intensity": "ear1", "omega": 0.2, "rho": 0.8,
                 "beta": 0.5, "p": 1.0},
    "zmnb-gar1": {"family": "zmnb", "intensity": "gar1", "omega": 0.3, "rho": 0.8,
                  "beta": 0.5, "p": 1.0, "a": 0.5, "c": 1},
}
GOLDEN_SHA256 = {
    "zmp-gar1": {
        "counts.csv": "20122a712a8acfff0a7bca61a561093b577840c8bd0651e4d0ef92293be4a831",
        "filtered.csv": "2cd96a82515a118159e72b04abd624e689f340428c5453e386c54755b25f0dc5",
        "residuals.csv": "c38a3f76be52c1cac6a8e7a4323105e3c126179d2c96bf33779f663d927212bd",
        "acf_pacf.csv": "277166d3d82203d3475c301bdea0e5a318c30d7c518e309d4183a9d6500d2aa5",
        "probtable.csv": "65905ec1fac2175b33528e35d0fea2ae2f8c51d2723a085454d79a8d5518d8dd",
    },
    "zmp-ear1": {
        "counts.csv": "ac90fece1fe86c4bbd58a1a49c273ff5b25386818451b252850c246ac4fddcb3",
        "filtered.csv": "5418698b2f487c6f921dfe4fda697fde504162a6f103ea6adeaecb9db4ff4fb8",
        "residuals.csv": "1040370659a95d8c98c775e2553b4a3c2201166bbbb5f53d30d7337b08751785",
        "acf_pacf.csv": "088651ad53a5dab8eaf7702b693ccd9cba9279d0a78c22365c9547e9488e80f9",
        "probtable.csv": "5228d95089068b31d2e74f631f50514e5602d31d9a8af55b4beed2833b4ad281",
    },
    "zmnb-gar1": {
        "counts.csv": "d296e322a5a4a6df490131fe6b94de0fe54f25f3a29f4edf513c739872725153",
        "filtered.csv": "7f20d39effebc391e0dbb0c6d5c2e3fb88e475522f1f3ac243f107a746cf2918",
        "residuals.csv": "acfebc4535fe02cba5debb821b0944c14c7ec296a5e21ceaad11ee60c0235d33",
        "acf_pacf.csv": "a651b6a54e9a5a676e8017748f43d0a3a14fd9cce3aea3268d17d53b7d8d93d7",
        "probtable.csv": "6d9ba3c88dd44f6952bc6cc059b078c5bd455dc223f6ba2a766de69b9a7a469a",
    },
}


@pytest.mark.usefixtures("writer_mode")
@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_session_outputs_are_golden(tmp_path, name):
    model = GOLDEN_MODELS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "n": 2000, "seed": 7, "max_lag": 20}))
    estimates = {k: v for k, v in model.items() if k not in ("family", "intensity")}
    fit_file = tmp_path / "fit.json"
    fit_file.write_text(json.dumps({"family": model["family"],
                                    "intensity_family": model["intensity"],
                                    "estimates": estimates}))
    common = ["--config", str(cfg), "--out", str(tmp_path)]
    data = ["--data", str(tmp_path / "counts.csv")]
    codes = (main(["simulate", *common]), main(["filter", *common, *data]),
             main(["diagnose", *common, *data, "--fit", str(fit_file)]))
    assert codes == (EXIT_OK, EXIT_OK, EXIT_OK)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in GOLDEN_SHA256[name]}
    assert digests == GOLDEN_SHA256[name]


class TestReproduceCommand:
    def test_tiny_experiment(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={
            "replicates": 2, "n": 300,
            "rows": [{"family": "zmp", "intensity": "gar1",
                      "omega": 0.2, "rho": 0.6, "beta": 0.5, "p": 4.0}],
        })
        out = tmp_path / "out"
        rc = main(["reproduce", "--config", str(cfg), "--out", str(out), "--seed", "5"])
        assert rc == EXIT_OK
        with (out / "experiment.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        header = rows[0]
        row = dict(zip(header, rows[1]))
        assert int(row["completed"]) + int(row["discarded"]) == 2
        assert float(row["mse_rho"]) >= 0

    def test_single_replicate_mse_is_squared_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={
            "replicates": 1, "n": 300,
            "rows": [{"family": "zmp", "intensity": "gar1",
                      "omega": 0.2, "rho": 0.6, "beta": 0.5, "p": 4.0}],
        })
        out = tmp_path / "out"
        assert main(["reproduce", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == EXIT_OK
        with (out / "experiment.csv").open() as fh:
            rows = list(csv.reader(fh))
        row = dict(zip(rows[0], rows[1]))
        if int(row["completed"]) == 1:
            err = float(row["mean_rho"]) - 0.6
            assert float(row["mse_rho"]) == pytest.approx(err**2, rel=1e-12)

    def test_order_invariance_under_jobs(self, tmp_path):
        from zmcounts.experiments import ExperimentRow, run_experiment

        row = ExperimentRow("zmp", "gar1", omega=0.2, rho=0.6, beta=0.5, p=4.0,
                            n=300, replicates=4)
        seq = run_experiment(row, master_seed=9, jobs=1)
        par = run_experiment(row, master_seed=9, jobs=2)
        assert seq.mean == par.mean
        assert seq.mse == par.mse
