import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcounts.filtering import (
    _GAIN_TOL,
    CLAMP_EPS,
    FilterState,
    forward_adjoint,
    forward_pass,
    gkf_filter,
    gkf_init,
    gkf_step,
    variance_path,
)
from zmcounts.intensity import simulate_intensity
from zmcounts.observation import CountFamily, ModelSpec, vbar_from, zm_sample

SPEC = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0)

# 5-step recursion for SPEC on y=(3,0,5,2,0), evaluated independently in
# exact rational arithmetic (Fractions) and frozen here
GOLDEN = {
    "prediction": [2.0, 2.1226277372262774, 1.8739723250038016,
                   2.4343893379793093, 2.3560340226546161],
    "pred_var": [0.35999999999999999, 0.5702189781021898, 0.67677226417963399,
                 0.72691596881415965, 0.74968752983230336],
    "gain": [0.10948905109489052, 0.16498555426022607, 0.19110206709070818,
             0.20296225512099134, 0.20826099725313679],
    "innovation": [1.3999999999999999, -1.6981021897810218, 3.5008221399969588,
                   0.052488529616552392, -1.8848272181236927],
    "innovation_var": [2.6303999999999998, 2.7649401459854013, 2.8331342490749658,
                       2.8652262200410621, 2.879800019092674],
    "lambda_filtered": [2.1532846715328469, 1.8424654062547519, 2.5429866724741368,
                        2.44504252831827, 1.9634980265583202],
    "error_var": [0.32846715328467152, 0.49495666278067818, 0.5733062012721245,
                  0.60888676536297404, 0.62478299175941043],
}


class TestVbar:
    # stationary intensity moments mu = 2, sigma2 = 1 (beta 2, p 4)
    def test_zmp_omega0(self):
        assert vbar_from(CountFamily.ZMP, 0.0, 2.0, 1.0) == pytest.approx(2.0)

    def test_zmnb_reduces_to_zmp_as_a_vanishes(self):
        zmp = vbar_from(CountFamily.ZMP, 0.3, 2.0, 1.0)
        for c in (0, 1):
            nb = vbar_from(CountFamily.ZMNB, 0.3, 2.0, 1.0, a=1e-12, c=c)
            assert nb == pytest.approx(zmp, rel=1e-9)
            assert vbar_from(CountFamily.ZMNB, 0.3, 2.0, 1.0, a=0.0, c=c) == zmp

    def test_zmnb_c1_value(self):
        assert vbar_from(CountFamily.ZMNB, 0.2, 2.0, 1.0, a=0.5, c=1) == pytest.approx(2 + 0.7 * 5)


class TestInit:
    def test_rho_zero(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.1, rho=0.0, beta=2.0, p=4.0)
        pred, cp = gkf_init(spec)
        assert pred == pytest.approx(2.0)
        assert cp == pytest.approx(1.0)

    def test_pred_var_value(self):
        pred, cp = gkf_init(SPEC)
        assert cp == pytest.approx(0.36)

    def test_stationary_mean_fixed_point(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.1, rho=0.5, beta=2.0, p=4.0)
        pred, _ = gkf_init(spec, lambda0=2.0)
        assert pred == pytest.approx(2.0)


class TestStep:
    def test_degenerate_prior(self):
        # prediction variance collapses (sigma2 -> 0 at fixed mean): no update
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.0, beta=2e10, p=4e10)
        state, step = gkf_step(FilterState(2.0, 0.0), 5, spec)
        assert step.gain == pytest.approx(0.0, abs=1e-9)
        assert state.lambda_filtered == pytest.approx(step.prediction, rel=1e-9)
        assert state.error_var == pytest.approx(0.0, abs=1e-9)

    def test_omega0_reduction(self):
        # with omega=0 the update is lhat + C/(C+mu)*(y - lhat) at rho=0
        spec = ModelSpec.create("zmp", "gar1", omega=0.0, rho=0.0, beta=2.0, p=4.0)
        state, step = gkf_step(FilterState(2.0, 0.5), 4, spec)
        cp = 1.0  # (1-rho^2)*sigma2
        expected = 2.0 + cp / (cp + 2.0) * (4 - 2.0)
        assert state.lambda_filtered == pytest.approx(expected)

    def test_golden_trace(self):
        y = [3, 0, 5, 2, 0]
        state = FilterState(2.0, 0.0)
        for t in range(5):
            state, step = gkf_step(state, y[t], SPEC)
            assert step.prediction == pytest.approx(GOLDEN["prediction"][t], rel=1e-14)
            assert step.pred_var == pytest.approx(GOLDEN["pred_var"][t], rel=1e-14)
            assert step.gain == pytest.approx(GOLDEN["gain"][t], rel=1e-14)
            assert step.innovation == pytest.approx(GOLDEN["innovation"][t], rel=1e-14)
            assert step.innovation_var == pytest.approx(GOLDEN["innovation_var"][t], rel=1e-14)
            assert state.lambda_filtered == pytest.approx(GOLDEN["lambda_filtered"][t], rel=1e-14)
            assert state.error_var == pytest.approx(GOLDEN["error_var"][t], rel=1e-14)
            assert not step.clamped


class TestFullPass:
    def test_matches_stepwise(self):
        rng = np.random.default_rng(21)
        lam = simulate_intensity(SPEC.intensity, 3000, rng)
        y = zm_sample(SPEC.family, lam, SPEC.params, rng)
        res = gkf_filter(y, SPEC)
        state = FilterState(SPEC.params.mu_lambda, 0.0)
        for t in range(len(y)):
            state, step = gkf_step(state, y[t], SPEC)
            assert res.lambda_filtered[t] == pytest.approx(state.lambda_filtered, rel=1e-12)
            assert res.error_var[t] == pytest.approx(state.error_var, rel=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ear1=st.booleans(),
        omega=st.floats(-0.5, 0.9),
        rho=st.floats(0.0, 0.95),
        beta=st.floats(0.5, 4.0),
        p=st.floats(0.5, 8.0),
    )
    def test_iterated_step_equals_filter(self, seed, ear1, omega, rho, beta, p):
        spec = ModelSpec.create(
            "zmp", "ear1" if ear1 else "gar1", omega=omega, rho=rho, beta=beta,
            p=1.0 if ear1 else p,
        )
        # the filter takes any count series; iid intensities from the
        # stationary law keep the draw independent of the chain simulator
        rng = np.random.default_rng(seed)
        lam = rng.gamma(spec.params.p, 1.0 / beta, 40)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
        res = gkf_filter(y, spec)
        state = FilterState(spec.params.mu_lambda, 0.0)
        for t in range(len(y)):
            state, step = gkf_step(state, y[t], spec)
            # absolute slack for deflated laws, whose a0 can cancel an update
            # down to the positivity floor
            lam_t = res.lambda_filtered[t]
            assert state.lambda_filtered == pytest.approx(lam_t, rel=1e-12, abs=1e-12)
            assert state.error_var == pytest.approx(res.error_var[t], rel=1e-12)
            assert step.prediction == pytest.approx(res.prediction[t], rel=1e-12, abs=1e-12)
            assert step.gain == pytest.approx(res.gain[t], rel=1e-12)

    def test_constant_series_rho0_steady(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.1, rho=0.0, beta=2.0, p=4.0)
        res = gkf_filter(np.full(50, 3), spec)
        assert np.allclose(res.lambda_filtered, res.lambda_filtered[0])
        assert np.allclose(res.error_var, res.error_var[0])

    def test_golden_trace_arrays(self):
        res = gkf_filter([3, 0, 5, 2, 0], SPEC)
        np.testing.assert_allclose(res.lambda_filtered, GOLDEN["lambda_filtered"], rtol=1e-13)
        np.testing.assert_allclose(res.error_var, GOLDEN["error_var"], rtol=1e-13)
        np.testing.assert_allclose(res.innovation, GOLDEN["innovation"], rtol=1e-13)

    def test_filter_beats_unconditional_mean(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            lam = simulate_intensity(SPEC.intensity, 10_000, rng)
            y = zm_sample(SPEC.family, lam, SPEC.params, rng)
            res = gkf_filter(y, SPEC)
            mse_f = np.mean((res.lambda_filtered - lam) ** 2)
            mse_0 = np.mean((SPEC.params.mu_lambda - lam) ** 2)
            wins += mse_f < mse_0
        assert wins == 20


class TestVarianceRecursion:
    def test_gain_bound_and_contraction(self):
        cp, gain, jvar, cf, _ = variance_path(200, 0.8, 0.8, 1.0, 0.8 * 3.0)
        assert np.all(gain * 0.8 >= 0)
        assert np.all(gain * 0.8 < 1)
        assert np.all(cf <= cp + 1e-15)

    def test_pred_var_window(self):
        cp, _, _, _, _ = variance_path(200, 0.8, 0.8, 1.0, 0.8 * 3.0)
        assert np.all(cp >= (1 - 0.8**2) * 1.0 - 1e-12)
        assert np.all(cp <= 1.0 + 1e-12)

    def test_fixed_point_reached(self):
        cp, gain, _, _, _ = variance_path(500, 0.8, 0.8, 1.0, 0.8 * 3.0)
        assert cp[-1] == cp[-2]
        assert gain[-1] == gain[-2]


def reference_pass(y, a0, a1, noise, rho, mu, sigma2, lam0, c0):
    """The module's recursion step by step on Python floats: the variance
    recursion is held from the first step whose gain moved by at most
    _GAIN_TOL relative; the intensity update runs as
    lhat_t = (s_t*rho)*lhat_{t-1} + (s_t*(1-rho)*mu + K_t*(y_t - a0)), with
    s_t = 1 - K_t*a1, and if any update is non-positive the whole path is
    redone as s_t*(rho*lhat_{t-1} + (1-rho)*mu) + K_t*(y_t - a0), floored at
    CLAMP_EPS.  Returns per-step lists and the settle index."""
    cp, gain, jvar, cf = [], [], [], []
    c_prev, k_last, held = c0, float("inf"), None
    for _ in y:
        if held is None:
            c_pred = rho**2 * c_prev + (1.0 - rho**2) * sigma2
            j = a1**2 * c_pred + noise
            k = a1 * c_pred / j
            c_prev = (1.0 - k * a1) * c_pred
            if abs(k - k_last) <= _GAIN_TOL * max(k, 1e-300):
                held = (c_pred, j, k, c_prev)
            k_last = k
            step = (c_pred, j, k, c_prev)
        else:
            step = held
        for out, v in zip((cp, jvar, gain, cf), step):
            out.append(v)
    settle = max(
        [t for t in range(1, len(gain)) if gain[t] != gain[t - 1]], default=0
    )
    lam, lam_f = lam0, []
    for t, y_t in enumerate(y):
        s = 1.0 - gain[t] * a1
        lam = s * rho * lam + (s * (1.0 - rho) * mu + gain[t] * (y_t - a0))
        lam_f.append(lam)
    clamped = [v <= 0 for v in lam_f]
    if any(clamped):
        lam, lam_f, clamped = lam0, [], []
        for t, y_t in enumerate(y):
            lam = (1.0 - gain[t] * a1) * (rho * lam + (1.0 - rho) * mu) + gain[t] * (y_t - a0)
            clamped.append(lam <= 0)
            lam = CLAMP_EPS if lam <= 0 else lam
            lam_f.append(lam)
    return lam_f, cf, cp, gain, jvar, clamped, settle


class TestForwardPassReference:
    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 160),
        rho=st.floats(0.0, 0.99),
        a0=st.floats(-1.0, 1.5),
        a1=st.floats(0.3, 1.5),
        noise=st.floats(0.1, 10.0),
        mu=st.floats(0.2, 10.0),
        sigma2=st.floats(0.1, 20.0),
        c0=st.sampled_from([0.0, 0.4]),
    )
    def test_equals_the_stepwise_recursion(self, seed, n, rho, a0, a1, noise, mu, sigma2, c0):
        # n spans the transient, the held tail and, for rho near 1, a series
        # too short to settle; a0 > 0.5 floors some steps
        y = np.random.default_rng(seed).poisson(mu, n).astype(float)
        lam0 = mu
        fp = forward_pass(y, (a0, a1, noise), rho, mu, sigma2, lam0, c0=c0)
        lam_f, cf, cp, gain, jvar, clamped, settle = reference_pass(
            y.tolist(), a0, a1, noise, rho, mu, sigma2, lam0, c0
        )
        for got, want in ((fp.lam_f, lam_f), (fp.cp, cp), (fp.gain, gain), (fp.jvar, jvar),
                          (fp.cf, cf), (fp.clamped, clamped)):
            assert np.array_equal(got, np.array(want))
        assert fp.settle == settle
        pred = rho * np.array([lam0] + lam_f[:-1]) + (1.0 - rho) * mu
        assert np.array_equal(fp.pred, pred)
        assert np.array_equal(fp.innovation, y - a0 - a1 * pred)


class TestForwardAdjoint:
    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rho=st.floats(0.0, 0.95),
        noise=st.floats(0.3, 10.0),
        a0=st.floats(-1.0, 1.5),
        c0=st.sampled_from([0.0, 0.4]),
    )
    def test_matches_central_differences(self, seed, rho, noise, a0, c0):
        # the weighted sum of (pred, cp, jvar) moved along random directions
        # of (a0, a1, noise, rho, mu, sigma2, lam0); n spans the transient
        # and the constant-gain tail, and a0 > 0.5 floors some steps
        rng = np.random.default_rng(seed)
        y = rng.poisson(2.0, 80).astype(float)
        weights = rng.normal(size=(3, 80))
        theta = np.array([a0, 0.8, noise, rho, 3.0, 2.0, 2.5])

        def functional(th):
            fp = forward_pass(y, th[:3], *th[3:], c0=c0)
            pred = th[3] * np.concatenate([[th[6]], fp.lam_f[:-1]]) + (1.0 - th[3]) * th[4]
            return weights[0] @ pred + weights[1] @ fp.cp + weights[2] @ fp.jvar

        out = forward_pass(y, theta[:3], *theta[3:], c0=c0)
        grad = forward_adjoint(theta[:3], *theta[3:], out, weights, c0=c0)
        for d in rng.normal(size=(3, 7)):
            if rho == 0.0:
                d[3] = 0.0  # central differences would leave the domain
            h = 1e-6
            fd = (functional(theta + h * d) - functional(theta - h * d)) / (2.0 * h)
            assert d @ grad == pytest.approx(fd, rel=1e-6, abs=1e-6 * np.abs(grad).max())


class TestInnovationProperties:
    def test_mean_zero_and_variance_match(self):
        rng = np.random.default_rng(23)
        lam = simulate_intensity(SPEC.intensity, 10_000, rng)
        y = zm_sample(SPEC.family, lam, SPEC.params, rng)
        res = gkf_filter(y, SPEC)
        h = res.innovation
        assert abs(h.mean()) < 4 * h.std() / np.sqrt(len(h))
        assert abs(h.var() / res.innovation_var.mean() - 1.0) < 0.10

    def test_error_var_tracks_true_mse(self):
        rng = np.random.default_rng(24)
        lam = simulate_intensity(SPEC.intensity, 50_000, rng)
        y = zm_sample(SPEC.family, lam, SPEC.params, rng)
        res = gkf_filter(y, SPEC)
        mse = np.mean((res.lambda_filtered - lam) ** 2)
        assert abs(mse / res.error_var.mean() - 1.0) < 0.05


class TestDeflatedFilter:
    # omega = -0.2 is infeasible for lambda > log 6, about half of this
    # intensity law, where the sampler draws the clipped (truncated) law
    DEFLATED = ModelSpec.create("zmp", "gar1", omega=-0.2, rho=0.8, beta=2.0, p=4.0)

    def test_innovations_under_truncated_law(self):
        spec = self.DEFLATED
        rng = np.random.default_rng(27)
        lam = simulate_intensity(spec.intensity, 50_000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
        res = gkf_filter(y, spec)
        h = res.innovation
        assert abs(h.mean()) < 4 * h.std() / np.sqrt(len(h))
        assert abs(h.var() / res.innovation_var.mean() - 1.0) < 0.05

    def test_matches_stepwise(self):
        spec = self.DEFLATED
        rng = np.random.default_rng(28)
        lam = simulate_intensity(spec.intensity, 200, rng)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
        res = gkf_filter(y, spec)
        state = FilterState(spec.params.mu_lambda, 0.0)
        for t in range(len(y)):
            state, step = gkf_step(state, y[t], spec)
            assert res.lambda_filtered[t] == pytest.approx(state.lambda_filtered, rel=1e-12)
            assert res.innovation[t] == pytest.approx(step.innovation, rel=1e-9, abs=1e-12)

    def test_large_intensity_deflated_law(self):
        # omega = -0.001 is infeasible at every intensity of this law (about
        # 200 +- 10), far beyond the closed-form range of the coefficients
        spec = ModelSpec.create("zmp", "gar1", omega=-0.001, rho=0.8, beta=2.0, p=400.0)
        rng = np.random.default_rng(29)
        lam = simulate_intensity(spec.intensity, 20_000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
        res = gkf_filter(y, spec)
        h = res.innovation
        assert abs(h.mean()) < 4 * h.std() / np.sqrt(len(h))
        assert abs(h.var() / res.innovation_var.mean() - 1.0) < 0.05
        assert np.mean((res.lambda_filtered - lam) ** 2) < np.var(lam)
