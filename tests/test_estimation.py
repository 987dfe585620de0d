import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult
from scipy.optimize._numdiff import approx_derivative

from zmcounts import estimation, experiments
from zmcounts.errors import EstimationError, InfeasibleInitError
from zmcounts.estimation import (
    SampleMoments,
    _FitCore,
    default_init,
    fit,
    grid_search_init,
    moment_init_ear1,
    moment_init_gar1_factorial,
    solve_ef_block,
)
from zmcounts.experiments import ExperimentRow, bootstrap_se, run_replicate
from zmcounts.intensity import IntensityFamily, simulate_intensity
from zmcounts.io import write_fit_json
from zmcounts.observation import (
    CountFamily,
    ModelSpec,
    Params,
    marginal_zero_prob,
    zmp_zero_mass_omega,
    zm_sample,
)

SPEC = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0)


def simulate_counts(spec, n, seed):
    rng = np.random.default_rng(seed)
    lam = simulate_intensity(spec.intensity, n, rng)
    return zm_sample(spec.family, lam, spec.params, rng)


class TestInitializers:
    def test_ear1_round_trip(self):
        # population moments of (omega=0.3, mu=2, rho=0.5)
        w, mu, rho = 0.3, 2.0, 0.5
        ybar = (1 - w) * mu
        s2 = (1 - w) * mu * (1 + (1 + w) * mu)
        r1 = (1 - w) * mu * rho / (1 + mu * (1 + w))
        init = moment_init_ear1(SampleMoments(ybar=ybar, s2=s2, r1=r1, factorial=(0, 0, 0)))
        assert init.omega == pytest.approx(w, abs=1e-12)
        assert init.mu_lambda == pytest.approx(mu, abs=1e-12)
        assert init.rho == pytest.approx(rho, abs=1e-12)

    def test_ear1_undistorted_exponential(self):
        init = moment_init_ear1(SampleMoments(ybar=1.0, s2=2.0, r1=0.2, factorial=(0, 0, 0)))
        assert init.omega == pytest.approx(0.0, abs=1e-12)

    def test_ear1_deflation_start(self):
        # s2 below ybar*(1+ybar) implies a negative starting omega
        init = moment_init_ear1(SampleMoments(ybar=1.0, s2=1.6, r1=0.1, factorial=(0, 0, 0)))
        assert init.omega < 0

    def test_gar1_factorial_round_trip(self):
        w, beta, p, rho = 0.2, 2.0, 4.0, 0.5
        mu, s2 = p / beta, p / beta**2
        y1 = (1 - w) * mu
        y2 = (1 - w) * p * (p + 1) / beta**2
        y3 = (1 - w) * p * (p + 1) * (p + 2) / beta**3
        r1 = (1 - w) * s2 * rho / (mu + s2 + w * mu**2)
        init = moment_init_gar1_factorial(
            SampleMoments(ybar=y1, s2=0.0, r1=r1, factorial=(y1, y2, y3))
        )
        assert init.omega == pytest.approx(w, abs=1e-12)
        assert init.beta == pytest.approx(beta, abs=1e-12)
        assert init.p == pytest.approx(p, abs=1e-12)
        assert init.rho == pytest.approx(rho, abs=1e-12)

    def test_gar1_omega0_identity(self):
        # omega = 0 corresponds to ybar(1)*beta/p = 1
        beta, p = 2.0, 4.0
        y1 = p / beta
        y2 = p * (p + 1) / beta**2
        y3 = p * (p + 1) * (p + 2) / beta**3
        init = moment_init_gar1_factorial(
            SampleMoments(ybar=y1, s2=0.0, r1=0.1, factorial=(y1, y2, y3))
        )
        assert init.omega == pytest.approx(0.0, abs=1e-12)

    def test_factorial_infeasible_ratios(self):
        with pytest.raises(InfeasibleInitError):
            moment_init_gar1_factorial(
                SampleMoments(ybar=1.0, s2=1.0, r1=0.1, factorial=(1.0, 2.0, 3.0))
            )

    def test_default_init_falls_back_to_grid(self):
        # data whose factorial ratios are noisy enough to break the closed form
        y = simulate_counts(SPEC, 300, 4243)
        init = default_init(y, SPEC.family, SPEC.intensity.family)
        assert 0.0 <= init.rho < 1.0
        assert init.omega < 1.0


class TestGridSearch:
    def test_single_point_grid_returns_truth(self):
        from zmcounts.estimation import GridConfig

        y = simulate_counts(SPEC, 500, 38)
        grid = GridConfig(
            rho=(0.8, 0.8, 1), omega=(0.2, 0.2, 1), beta=(2.0, 2.0, 1), p=(4.0, 4.0, 1)
        )
        init = grid_search_init(y, SPEC.family, SPEC.intensity.family, grid=grid)
        assert (init.rho, init.omega, init.beta, init.p) == (0.8, 0.2, 2.0, 4.0)

    def test_objective_no_worse_than_snapped_truth(self):
        from zmcounts.estimation import GridConfig
        from zmcounts.observation import marginal_count_moments, count_acf

        y = simulate_counts(SPEC, 2000, 39)
        mom = SampleMoments.from_series(y)
        grid = GridConfig()
        init = grid_search_init(y, SPEC.family, SPEC.intensity.family, grid=grid)

        def objective(spec):
            mean, var = marginal_count_moments(spec)
            return (
                (mean - mom.ybar) ** 2
                + (var - mom.s2) ** 2
                + (count_acf(spec, 1) - mom.r1) ** 2
            )

        def snap(value, lo, hi, num):
            pts = np.linspace(lo, hi, num)
            return float(pts[np.argmin(np.abs(pts - value))])

        snapped = Params(
            omega=snap(0.2, *grid.omega),
            rho=snap(0.8, *grid.rho),
            beta=snap(2.0, *grid.beta),
            p=snap(4.0, *grid.p),
        )
        chosen = objective(SPEC.with_params(init))
        at_snapped = objective(SPEC.with_params(snapped))
        assert chosen <= at_snapped + 1e-12

    def test_deflated_sign_recovery(self):
        spec = ModelSpec.create("zmp", "gar1", omega=-0.2, rho=0.6, beta=2.0, p=2.0)
        rng = np.random.default_rng(40)
        lam = simulate_intensity(spec.intensity, 4000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
        init = grid_search_init(y, spec.family, spec.intensity.family)
        assert init.omega < 0

    @pytest.mark.parametrize("family", ["zmp", "zmnb"])
    def test_cached_grid_matches_the_full_grid(self, family):
        # the data-free grid is kept read-only; the choice equals the
        # masked full-grid argmin built for every call
        from zmcounts.estimation import GridConfig, _grid_moments
        from zmcounts.observation import vbar_from

        y = simulate_counts(SPEC, 500, 44)
        init = grid_search_init(y, family, "gar1")
        cached = _grid_moments(CountFamily(family), IntensityFamily.GAR1, 1, GridConfig())
        assert all(not arr.flags.writeable for arr in cached[0] + cached[1:])
        with pytest.raises(ValueError):
            cached[2][0] = 0.0
        assert grid_search_init(y, family, "gar1") == init

        grid = GridConfig()
        a = np.linspace(*grid.a) if family == "zmnb" else np.array([0.0])
        W, R, B, P, A = np.meshgrid(
            np.linspace(*grid.omega), np.linspace(*grid.rho), np.linspace(*grid.beta),
            np.linspace(*grid.p), a, indexing="ij",
        )
        mu, s2 = P / B, P / B**2
        vb = vbar_from(CountFamily(family), W, mu, s2, A, 1)
        var = (1.0 - W) * (vb + (1.0 - W) * s2)
        acf1 = (1.0 - W) * s2 * R / np.where(var > 0, var / (1.0 - W), np.nan)
        mom = SampleMoments.from_series(y)
        obj = ((1.0 - W) * mu - mom.ybar) ** 2 + (var - mom.s2) ** 2 + (acf1 - mom.r1) ** 2
        idx = np.unravel_index(np.argmin(np.where((var > 0) & (vb > 0), obj, np.inf)), obj.shape)
        assert init == Params(
            omega=float(W[idx]), rho=float(R[idx]), beta=float(B[idx]), p=float(P[idx]),
            a=float(A[idx]), c=1,
        )


class TestFit:
    def test_recovery_zmp_gar1(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0)
        y = simulate_counts(spec, 2000, 41)
        res = fit(y, "zmp", "gar1")
        assert res.converged
        assert res.params_hat.omega == pytest.approx(0.2, abs=0.08)
        assert res.params_hat.rho == pytest.approx(0.8, abs=0.12)
        assert res.params_hat.mu_lambda == pytest.approx(8.0, rel=0.25)

    def test_recovery_ear1(self):
        spec = ModelSpec.create("zmp", "ear1", omega=0.3, rho=0.7, beta=0.5, p=1.0)
        y = simulate_counts(spec, 3000, 42)
        res = fit(y, "zmp", "ear1")
        assert res.converged
        assert res.params_hat.p == 1.0
        assert res.params_hat.omega == pytest.approx(0.3, abs=0.1)
        assert res.params_hat.rho == pytest.approx(0.7, abs=0.15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ear1_fit_keeps_unit_shape(self, seed):
        # sigma2 = mu^2 makes p = mu*(mu/sigma2) equal to 1 only up to rounding
        spec = ModelSpec.create("zmp", "ear1", omega=0.3, rho=0.7, beta=0.5, p=1.0)
        rng = np.random.default_rng(seed)
        lam = simulate_intensity(spec.intensity, 1000, rng)
        res = fit(zm_sample(spec.family, lam, spec.params, rng), "zmp", "ear1")
        assert res.params_hat.p == 1.0
        assert res.spec.intensity.p == 1.0

    def test_deflation_sign_recovered(self):
        spec = ModelSpec.create("zmp", "gar1", omega=-0.2, rho=0.8, beta=2.0, p=4.0)
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            lam = simulate_intensity(spec.intensity, 1000, rng)
            y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
            res = fit(y, "zmp", "gar1")
            hits += res.params_hat.omega < 0
        assert hits >= 9

    def test_determinism(self):
        y = simulate_counts(SPEC, 800, 43)
        r1 = fit(y, "zmp", "gar1")
        r2 = fit(y, "zmp", "gar1")
        assert r1.params_hat == r2.params_hat
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.filtered, r2.filtered)

    def test_rho_at_a_bound_is_noted(self):
        # iid counts end at rho = 0; a near-unit-root series at rho = 0.999;
        # both solves stop on the gradient test with rho held at its bound
        rng = np.random.default_rng(0)
        iid = rng.poisson(3.0, 300) * (rng.random(300) > 0.2)
        persistent = simulate_counts(
            ModelSpec.create("zmp", "gar1", omega=0.1, rho=0.995, beta=0.5, p=2.0), 300, 2
        )
        for y, bound in ((iid, 0.0), (persistent, estimation._RHO_MAX)):
            res = fit(y, "zmp", "gar1")
            assert res.params_hat.rho == bound
            assert res.converged
            assert res.notes == [f"rho ended at the bound {bound:g} of its solve"]

    def test_solve_ef_block_uses_spec_start(self):
        y = simulate_counts(SPEC, 800, 44)
        res = solve_ef_block(y, SPEC)
        assert res.converged
        assert len(res.trace) >= 2

    def test_consistency_trend(self):
        # mean absolute error shrinks from n=200 to n=1000
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0)
        errs = {}
        for n in (200, 1000):
            acc = np.zeros(2)
            reps = 12
            for seed in range(reps):
                y = simulate_counts(spec, n, 900 + seed)
                res = fit(y, "zmp", "gar1")
                ph = res.params_hat
                acc += [abs(ph.rho - 0.8), abs(ph.omega - 0.2)]
            errs[n] = acc / reps
        assert np.all(errs[1000] < errs[200])


class TestZmnbFit:
    # the criterion-3 row of the acceptance suite
    ROW = ExperimentRow("zmnb", "gar1", omega=0.3, rho=0.8, beta=0.5, p=1.0, a=0.5, c=1,
                        n=1000, replicates=200)

    def criterion3_series(self, child):
        seed = np.random.SeedSequence(20240811).spawn(child + 1)[child]
        rng = np.random.default_rng(seed)
        spec = self.ROW.spec()
        lam = simulate_intensity(spec.intensity, self.ROW.n, rng)
        return zm_sample(spec.family, lam, spec.params, rng)

    def test_recovery(self):
        spec = ModelSpec.create("zmnb", "gar1", omega=0.3, rho=0.8, beta=0.5, p=1.0, a=0.5, c=1)
        y = simulate_counts(spec, 2000, 45)
        res = fit(y, "zmnb", "gar1", c=1)
        ph = res.params_hat
        assert ph.a > 0
        assert ph.omega == pytest.approx(0.3, abs=0.2)
        assert ph.rho == pytest.approx(0.8, abs=0.15)

    def test_replicate_28_inside_the_bounds(self):
        # on this series a fit that accepts a solve stopped short of
        # stationarity ends at omega -0.95, a 10
        res = fit(self.criterion3_series(28), "zmnb", "gar1", c=1)
        ph = res.params_hat
        assert res.converged
        assert estimation._OMEGA_MIN < ph.omega < estimation._OMEGA_MAX
        assert estimation._A_MIN < ph.a < estimation._A_MAX
        assert res.notes == []

    def test_evaluation_budget(self):
        # a is one more variable of the one solve, not a search around it
        res = fit(self.criterion3_series(0), "zmnb", "gar1", c=1)
        assert res.converged
        assert res.stop == "gradient"
        assert res.n_eval <= 80


class TestFitEngine:
    # first spawned children of the criterion-1 and criterion-2 master seeds,
    # with the estimates the former two-run Nelder-Mead engine reached
    PINNED = [
        (0, 20240809, 0, {"rho": 0.8530508853826324, "omega": 0.19117458072619675,
                          "beta": 0.49290691963569233, "p": 4.1855015210489555}),
        (0, 20240809, 1, {"rho": 0.7200940051039129, "omega": 0.1792010294310456,
                          "beta": 0.4804663375858777, "p": 3.5684026261783552}),
        (1, 20240810, 0, {"rho": 0.8344150836921653, "omega": -0.13897868212011055,
                          "beta": 1.8844632347948265, "p": 3.910758031139935}),
        (1, 20240810, 1, {"rho": 0.8614683530187699, "omega": -0.10674706489712117,
                          "beta": 2.2003122738338208, "p": 4.3052879349874775}),
    ]
    ROWS = [
        ExperimentRow("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0,
                      n=1000, replicates=2),
        ExperimentRow("zmp", "gar1", omega=-0.2, rho=0.8, beta=2.0, p=4.0,
                      n=1000, replicates=2, on_infeasible="truncate"),
    ]

    def criterion1_series(self, seed):
        return simulate_counts(self.ROWS[0].spec(), 1000, seed)

    @pytest.mark.parametrize("row,master,child,expected", PINNED)
    def test_replicate_estimates_pinned(self, row, master, child, expected):
        seed = np.random.SeedSequence(master).spawn(child + 1)[child]
        est = run_replicate(self.ROWS[row], seed)
        assert isinstance(est, dict), est
        for key, value in expected.items():
            assert est[key] == pytest.approx(value, rel=1e-4), key

    # the benchmark's first mc_zmp ops: children 0 and 1 of seed 7919 on each
    # row, pinned exactly with the fit's evaluation count (the criterion-2
    # rows as the direct sums of the clipped law's terms give them)
    PINNED_EXACT = [
        (0, 0, 19, {"rho": 0.789502677162663, "omega": 0.1902152185279734,
                    "beta": 0.4863560718330309, "p": 3.8657872179975374, "a": 0.0}),
        (0, 1, 13, {"rho": 0.8290038210869279, "omega": 0.195125192412644,
                    "beta": 0.4206585795401782, "p": 3.801817214683099, "a": 0.0}),
        (1, 0, 10, {"rho": 0.7991134798537004, "omega": -0.21753570429467073,
                    "beta": 2.0370630338218922, "p": 4.038343037864049, "a": 0.0}),
        (1, 1, 13, {"rho": 0.8020399237826146, "omega": -0.23766319544404307,
                    "beta": 1.6625701097450505, "p": 3.5627169580878655, "a": 0.0}),
    ]

    @pytest.mark.parametrize("row,child,n_eval,expected", PINNED_EXACT)
    def test_benchmark_replicates_pinned_exactly(self, monkeypatch, row, child, n_eval, expected):
        fits = []

        def recorded(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(experiments, "fit", recorded)
        est = run_replicate(self.ROWS[row], np.random.SeedSequence(7919).spawn(2)[child])
        assert est == expected
        assert fits[0].n_eval == n_eval

    def test_objective_evaluation_budget(self, monkeypatch):
        calls = []
        objective = _FitCore.objective

        def counted(self, x):
            calls.append(1)
            return objective(self, x)

        monkeypatch.setattr(_FitCore, "objective", counted)
        res = fit(self.criterion1_series(1), "zmp", "gar1")
        assert res.converged
        # each evaluation returns the gradient too; this fit takes 10 in
        # scaled variables (22 unscaled)
        assert len(calls) <= 16
        assert res.n_eval == len(calls)

    def test_n_eval_is_the_solver_count(self, monkeypatch):
        seen = []
        solve = estimation.minimize

        def recorded(*args, **kwargs):
            seen.append(solve(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(estimation, "minimize", recorded)
        res = fit(self.criterion1_series(4), "zmp", "gar1")
        assert len(seen) == 1
        assert res.n_eval == seen[0].nfev
        assert res.iterations == seen[0].nit

    def test_grad_norm_within_tol(self, tmp_path):
        res = fit(self.criterion1_series(2), "zmp", "gar1", tol=1e-6)
        assert res.converged
        assert res.stop == "gradient"
        assert 0.0 <= res.grad_norm <= 1e-6
        write_fit_json(tmp_path / "fit.json", res)
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["grad_norm"] == res.grad_norm
        assert doc["stop"] == "gradient"

    def test_objective_stop_is_not_converged(self, monkeypatch):
        # only the projected-gradient test shows stationarity; a solve that
        # stops on the relative reduction of the objective does not
        y = self.criterion1_series(2)
        solve = estimation.minimize

        def reduction_stop(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.message = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
            return res

        assert fit(y, "zmp", "gar1").converged
        monkeypatch.setattr(estimation, "minimize", reduction_stop)
        res = fit(y, "zmp", "gar1")
        assert res.stop == "objective"
        assert not res.converged

    def test_solve_restarts_after_an_objective_stop(self, monkeypatch):
        # on this criterion-1 series the first solve stops on the relative
        # reduction test with a projected gradient of 0.046
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(167,)))
        spec = self.ROWS[0].spec()
        y = zm_sample(spec.family, simulate_intensity(spec.intensity, 1000, rng), spec.params, rng)
        seen = []
        solve = estimation.minimize

        def recorded(*args, **kwargs):
            seen.append(solve(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(estimation, "minimize", recorded)
        res = fit(y, "zmp", "gar1")
        assert [estimation._stop_reason(r) for r in seen] == ["objective", "gradient"]
        assert res.converged
        assert res.grad_norm <= 1e-6
        assert res.n_eval == sum(r.nfev for r in seen)
        assert res.iterations == sum(r.nit for r in seen)

    def test_iteration_cap(self):
        y = self.criterion1_series(3)
        capped = fit(y, "zmp", "gar1", max_iter=1)
        assert not capped.converged
        assert capped.iterations == 1
        assert capped.stop == "max_iter"
        assert fit(y, "zmp", "gar1").converged

    @pytest.mark.parametrize("status,message,stop", [
        (0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", "gradient"),
        (0, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", "objective"),
        (1, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", "max_iter"),
        (2, "ABNORMAL: ", "abnormal"),
    ])
    def test_stop_reason(self, status, message, stop):
        res = OptimizeResult(status=status, message=message)
        assert estimation._stop_reason(res) == stop

    def test_scaled_trial_points_stay_in_the_raw_bounds(self, monkeypatch):
        # at mu0 = 5.7 the scaled lower bound times the scale rounds to just
        # below _MU_MIN; the objective must see the bound itself
        assert (estimation._MU_MIN / 5.7) * 5.7 < estimation._MU_MIN
        seen = []
        objective = _FitCore.objective
        solve = estimation.minimize

        def recorded(self, x):
            seen.append(np.array(x))
            return objective(self, x)

        def at_lower_bounds_first(fun, x0, **kwargs):
            fun(np.array([b[0] for b in kwargs["bounds"]]))
            return solve(fun, x0, **kwargs)

        monkeypatch.setattr(_FitCore, "objective", recorded)
        monkeypatch.setattr(estimation, "minimize", at_lower_bounds_first)
        core = fit_core(("zmp", "gar1", 0.2, 0.8, 0.5, 4.0, 0.0), 400, 5, True)
        core.run(0.2, 5.7, 0.8, 12.0, 1e-6, 50)
        assert seen[0].tolist() == [estimation._MU_MIN, 0.0, estimation._SIGMA2_MIN]


class TestBootstrap:
    def test_untyped_errors_propagate(self, monkeypatch):
        from zmcounts import experiments

        def broken(*args, **kwargs):
            raise ValueError("not a fit failure")

        monkeypatch.setattr(experiments, "fit", broken)
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.7, beta=1.0, p=2.0)
        with pytest.raises(ValueError, match="not a fit failure"):
            bootstrap_se(spec, n=100, reps=2, rng=np.random.default_rng(0))

    def test_identical_seeds_zero_se(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.7, beta=1.0, p=2.0)
        rng = np.random.default_rng(46)
        out = bootstrap_se(spec, n=400, reps=2, rng=rng, seeds=[7, 7])
        assert all(v == 0.0 for v in out.se.values())

    def test_positive_se_and_counts(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.7, beta=1.0, p=2.0)
        rng = np.random.default_rng(47)
        out = bootstrap_se(spec, n=400, reps=6, rng=rng)
        assert out.reps == 6
        assert out.se["rho"] > 0
        assert out.se["omega"] > 0

    def test_reps_below_two_rejected(self):
        from zmcounts.errors import InvalidSpecError

        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.7, beta=1.0, p=2.0)
        with pytest.raises(InvalidSpecError):
            bootstrap_se(spec, n=100, reps=1, rng=np.random.default_rng(0))


class TestDeflatedFitPieces:
    def test_per_step_deviance_continuous_at_zero_omega(self):
        # a jump at omega = 0 would draw fits of near-zero deflation to it
        spec = ModelSpec.create("zmp", "gar1", omega=0.0, rho=0.8, beta=1.0, p=2.0)
        y = simulate_counts(spec, 500, 45).astype(float)
        for per_step in (True, False):
            core = _FitCore(y, CountFamily.ZMP, False, 0.0, 1, float(np.mean(y == 0)))
            core.per_step = per_step
            at_zero = core.deviance(0.0, 2.0, 0.8, 2.0)
            assert core.deviance(-1e-6, 2.0, 0.8, 2.0) == pytest.approx(at_zero, abs=1e-5)

    @pytest.mark.parametrize("p0,beta,p", [(0.09, 2.0, 4.0), (0.15, 2.0, 4.0), (0.02, 0.5, 1.5)])
    def test_negative_zero_mass_root_by_newton(self, p0, beta, p):
        assert p0 < marginal_zero_prob(CountFamily.ZMP, 0.0, beta, p)
        w = zmp_zero_mass_omega(p0, beta, p, -0.95)
        if w > -0.95:
            assert marginal_zero_prob(CountFamily.ZMP, w, beta, p) == pytest.approx(p0, abs=1e-14)
        else:
            assert marginal_zero_prob(CountFamily.ZMP, -0.95, beta, p) >= p0

    def test_tie_reaches_below_the_unclipped_variance_floor(self):
        # mu + omega*(sigma2 + mu^2) < 0 for omega < -0.4 here, yet the clipped
        # law the sampler draws stays defined, so the zero-mass tie and the
        # deviance both reach omega = -0.5
        beta, p = 2.0, 4.0
        p0 = marginal_zero_prob(CountFamily.ZMP, -0.5, beta, p)
        spec = ModelSpec.create("zmp", "gar1", omega=-0.5, rho=0.8, beta=beta, p=p)
        rng = np.random.default_rng(46)
        lam = simulate_intensity(spec.intensity, 500, rng)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate").astype(float)
        core = _FitCore(y, CountFamily.ZMP, False, 0.0, 1, p0)
        assert core.tied_omega(2.0, 1.0) == pytest.approx(-0.5, abs=1e-10)
        assert core.deviance(-0.5, 2.0, 0.8, 1.0) < 1e3

    def test_omega_at_tie_bound_is_reported(self):
        # the fit's omega is reported as the tie left it, with a note, rather
        # than moved afterwards onto the unclipped law's feasibility bound
        spec = ModelSpec.create("zmp", "gar1", omega=-0.3, rho=0.5, beta=1.0, p=8.0)
        rng = np.random.default_rng(3)
        lam = simulate_intensity(spec.intensity, 1000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
        res = fit(y, "zmp", "gar1")
        ph = res.params_hat
        core = _FitCore(y.astype(float), CountFamily.ZMP, False, 0.0, 1, float(np.mean(y == 0)))
        assert ph.omega == core.tied_omega(ph.mu_lambda, ph.sigma2_lambda) == -0.95
        assert res.notes == ["omega ended at the bound -0.95 of its zero-mass tie"]

    @settings(deadline=None, max_examples=40)
    @given(omega=st.floats(-0.9, -0.01), beta=st.floats(0.3, 5.0), p=st.floats(0.5, 8.0))
    def test_tie_slope_matches_central_differences(self, omega, beta, p):
        # (d omega/d mu, d omega/d sigma2) = -(dP0/d(mu, sigma2))/(dP0/d omega)
        mu, s2 = p / beta, p / beta**2
        core = _FitCore(np.zeros(3), CountFamily.ZMP, False, 0.0, 1, 0.0)

        def zero_mass(w, m, v):
            return marginal_zero_prob(CountFamily.ZMP, w, m / v, m * m / v)

        x = np.array([omega, mu, s2])
        grad = []
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-5 * abs(x[i])
            grad.append((zero_mass(*(x + step)) - zero_mass(*(x - step))) / (2.0 * step[i]))
        expected = [-grad[1] / grad[0], -grad[2] / grad[0]]
        np.testing.assert_allclose(core.tie_slope(omega, mu, s2), expected, rtol=1e-6)

    def test_deflated_fit_stores_standardized_residuals(self):
        # residuals of a deflated fit are standardized by the clipped law at
        # the filtered intensities, which the unclipped variance cannot do
        # beyond lambda = 1/|omega|
        spec = ModelSpec.create("zmp", "gar1", omega=-0.2, rho=0.8, beta=2.0, p=4.0)
        pooled = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            lam = simulate_intensity(spec.intensity, 1000, rng)
            y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
            res = fit(y, "zmp", "gar1")
            assert res.params_hat.omega < 0
            assert np.all(np.isfinite(res.residuals))
            assert not any("residuals" in note for note in res.notes)
            pooled.append(res.residuals)
        # the filtered intensity has already seen y_t, which shrinks the
        # residuals below unit variance, as it does for inflated fits
        pooled = np.concatenate(pooled)
        assert abs(pooled.mean()) < 0.15
        assert 0.4 < pooled.var() < 1.0


def fit_core(model, n, seed, per_step):
    """A :class:`_FitCore` on a series drawn from ``model`` = (family,
    intensity, omega, rho, beta, p, a), truncating where omega is infeasible."""
    family, ifam, omega, rho, beta, p, a = model
    spec = ModelSpec.create(family, ifam, omega=omega, rho=rho, beta=beta, p=p, a=a)
    rng = np.random.default_rng(seed)
    lam = simulate_intensity(spec.intensity, n, rng)
    y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate").astype(float)
    core = _FitCore(y, spec.family, ifam == "ear1", a, 1, float(np.mean(y == 0)))
    core.per_step = per_step
    return core


class TestObjectiveGradient:
    # objective values of the finite-difference engine at seeded points; the
    # analytic gradient must leave them bit-identical.  The ZMNB value's tied
    # omega is that of the Gauss-rule zero mass of marginal_zero_prob; the
    # criterion-2 value is that of the direct sums of the clipped law's terms
    PINNED = [
        (("zmp", "gar1", 0.2, 0.8, 0.5, 4.0, 0.0), True, (7.5, 0.7, 15.0), 4.047138018463497),
        (("zmp", "gar1", -0.2, 0.8, 2.0, 4.0, 0.0), False, (2.1, 0.75, 1.1), 1.7878599638574082),
        (("zmp", "ear1", 0.3, 0.7, 0.5, 1.0, 0.0), True, (2.2, 0.6), 2.519149893893033),
        (("zmnb", "gar1", 0.3, 0.8, 0.5, 1.0, 0.5), False, (2.2, 0.75, 4.0, 0.5),
         2.9483141721540247),
    ]

    @pytest.mark.parametrize("model,per_step,x,value", PINNED)
    def test_values_pinned(self, model, per_step, x, value):
        assert fit_core(model, 400, 5, per_step).objective(np.array(x))[0] == value

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["zmp", "zmnb"]),
        ear1=st.booleans(),
        omega=st.sampled_from([-0.25, -0.1, 0.1, 0.3]),
        rho=st.floats(0.3, 0.9),
        per_step=st.booleans(),
        shift=st.tuples(*[st.floats(-0.3, 0.3)] * 4),
    )
    def test_gradient_matches_finite_differences(
        self, seed, family, ear1, omega, rho, per_step, shift
    ):
        beta, p = (0.5, 1.0) if ear1 else (1.0, 3.0)
        a = 0.4 if family == "zmnb" else 0.0
        core = fit_core(
            (family, "ear1" if ear1 else "gar1", omega, rho, beta, p, a), 200, seed, per_step
        )
        mu, sigma2 = p / beta * math.exp(shift[0]), p / beta**2 * math.exp(shift[2])
        x = np.array(
            [mu, rho + 0.3 * shift[1]] + ([] if ear1 else [sigma2])
            + ([a * math.exp(shift[3])] if family == "zmnb" else [])
        )
        value, grad = core.objective(x)
        assert value < 1e3
        fd = approx_derivative(lambda z: core.objective(z)[0], x, method="3-point")
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5 * np.max(np.abs(fd)))

    def test_gradient_where_the_variance_floor_holds(self):
        # deflated per-step weights floor the predictive variance at 6 steps
        core = fit_core(("zmp", "gar1", -0.25, 0.8, 1.0, 3.0, 0.0), 200, 1, True)
        x = np.array([3.0, 0.8, 3.0])
        _, grad = core.objective(x)
        fd = approx_derivative(lambda z: core.objective(z)[0], x, method="3-point")
        np.testing.assert_allclose(grad, fd, rtol=1e-5)

    def test_zero_gradient_outside_the_domain(self):
        core = fit_core(self.PINNED[0][0], 100, 5, True)
        value, grad = core.objective(np.array([-1.0, 0.5, 1.0]))
        assert value == estimation._BIG
        assert np.all(grad == 0.0)


class TestZmnbGridEnd:
    def test_one_signed_residual_is_explained(self):
        # equidispersed counts: the objective's slope in a stays positive
        # down to a's lower bound, where the solve ends; the fit says why
        # instead of only failing to converge
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=1.0, p=4.0)
        res = fit(simulate_counts(spec, 300, 1), "zmnb", "gar1")
        assert res.params_hat.a == estimation._A_MIN
        assert not res.converged
        assert res.notes == ["a ended at the bound 0.0001 of its solve"]

    def test_omega_at_its_tie_bound_is_not_converged(self, monkeypatch):
        # criterion-3 replicate 85: the solve stops on its gradient test with
        # a inside its bounds, but the tied omega sits at its floor, where the
        # zero mass is not matched
        row = ExperimentRow("zmnb", "gar1", omega=0.3, rho=0.8, beta=0.5, p=1.0, a=0.5, c=1,
                            n=1000, replicates=1)
        fits = []

        def recorded(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(experiments, "fit", recorded)
        seed = np.random.SeedSequence(20240811).spawn(200)[85]
        assert run_replicate(row, seed) == "non_converged"
        res = fits[0]
        assert res.stop == "gradient"
        assert estimation._A_MIN < res.params_hat.a < estimation._A_MAX
        assert not res.converged
        assert res.notes == ["omega ended at the bound -0.95 of its zero-mass tie"]
