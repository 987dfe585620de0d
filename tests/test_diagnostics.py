import numpy as np
import pytest

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betainc, gammaincc
from scipy.stats import gamma as gamma_law

from zmcounts.diagnostics import (
    ProbTable,
    empirical_probs,
    fitted_marginal_probs,
    ljung_box,
    pearson_residuals,
    sample_acf_pacf,
    truncated_residuals,
)
from zmcounts.errors import EstimationError, InvalidSpecError
from zmcounts.intensity import simulate_intensity
from zmcounts.observation import CountFamily, ModelSpec, Params, truncated_moments, zm_sample

SYPHILIS_FIT = ModelSpec.create("zmp", "gar1", omega=0.2723, rho=0.7492, beta=2.1275, p=9.9184)


def marginal_probs_by_quad(spec: ModelSpec, kmax: int) -> np.ndarray:
    """The oracle: P(Y=k) of the law the sampler draws, the clipped CDF
    max(0, omega + (1-omega)*F(k|lambda)) averaged over the gamma intensity
    law by adaptive quadrature, split at the clip's kink."""
    pp = spec.params
    w = pp.omega
    law = gamma_law(pp.p, scale=1.0 / pp.beta)
    hi = law.isf(1e-17)

    def base_cdf(k, lam):
        if spec.family == CountFamily.ZMP:
            return gammaincc(k + 1.0, lam)
        r = lam ** (1 - pp.c) / pp.a
        return betainc(r, k + 1.0, 1.0 / (1.0 + pp.a * lam**pp.c))

    cdf = []
    for k in range(kmax + 1):
        def g(lam):
            return w + (1.0 - w) * base_cdf(k, lam)

        kinks = [brentq(g, 1e-12, hi, xtol=1e-14)] if w < 0.0 and g(hi) < 0.0 else None
        cdf.append(quad(lambda lam: max(0.0, g(lam)) * law.pdf(lam), 0.0, hi,
                        points=kinks, epsabs=1e-15, epsrel=1e-13, limit=500)[0])
    return np.diff(cdf, prepend=0.0)


class TestPearsonResiduals:
    def test_exact_zero_at_conditional_mean(self):
        pp = Params(omega=0.2, rho=0.5, beta=1.0, p=2.0)
        lam = np.array([1.0, 2.0, 3.0])
        y = np.round((1 - pp.omega) * lam).astype(int)
        # pick intensities whose scaled values are integers
        lam = y / (1 - pp.omega)
        res = pearson_residuals(y, lam, pp, CountFamily.ZMP)
        np.testing.assert_allclose(res, 0.0, atol=1e-14)

    def test_poisson_standardization(self):
        pp = Params(omega=0.0, rho=0.5, beta=1.0, p=2.0)
        res = pearson_residuals([6], [4.0], pp, CountFamily.ZMP)
        assert res[0] == pytest.approx(1.0)

    def test_zmnb_variance_branch(self):
        pp = Params(omega=0.2, rho=0.5, beta=1.0, p=2.0, a=0.5, c=1)
        res = pearson_residuals([3], [2.0], pp, CountFamily.ZMNB)
        expected = (3 - 1.6) / np.sqrt(0.8 * (1 + 0.4 + 1.0) * 2.0)
        assert res[0] == pytest.approx(expected)

    def test_nonpositive_variance_raises_with_index(self):
        pp = Params(omega=-0.3, rho=0.5, beta=1.0, p=2.0)
        with pytest.raises(EstimationError, match="t=1"):
            pearson_residuals([1, 2], [1.0, 5.0], pp, CountFamily.ZMP)


class TestTruncatedResiduals:
    def test_finite_where_pearson_residuals_raise(self):
        pp = Params(omega=-0.3, rho=0.5, beta=1.0, p=2.0)
        lam = np.array([1.0, 5.0, 9.0])
        y = np.array([1, 2, 12])
        res = truncated_residuals(y, lam, pp, CountFamily.ZMP)
        mean, var = truncated_moments(CountFamily.ZMP, lam, pp)
        np.testing.assert_array_equal(res, (y - mean) / np.sqrt(var))
        assert np.all(np.isfinite(res))

    def test_equal_pearson_residuals_for_inflated_models(self):
        pp = Params(omega=0.2, rho=0.5, beta=1.0, p=2.0, a=0.5, c=1)
        lam = np.array([0.5, 2.0, 7.0])
        y = [0, 3, 5]
        np.testing.assert_array_equal(
            truncated_residuals(y, lam, pp, CountFamily.ZMNB),
            pearson_residuals(y, lam, pp, CountFamily.ZMNB),
        )


class TestAcfPacf:
    def test_lag0_is_one(self):
        rng = np.random.default_rng(50)
        acf, pacf = sample_acf_pacf(rng.normal(size=500), 10)
        assert acf[0] == 1.0
        assert pacf[0] == 1.0

    def test_white_noise_within_bands(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=20_000)
        acf, _ = sample_acf_pacf(x, 20)
        band = 2 / np.sqrt(len(x))
        assert np.mean(np.abs(acf[1:]) < band) > 0.8

    def test_ar1_structure(self):
        rng = np.random.default_rng(52)
        n = 200_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.normal(size=n)
        for t in range(1, n):
            x[t] = 0.8 * x[t - 1] + eps[t]
        acf, pacf = sample_acf_pacf(x, 6)
        for k in range(1, 6):
            assert acf[k] == pytest.approx(0.8**k, abs=0.02)
        assert pacf[1] == pytest.approx(0.8, abs=0.02)
        assert np.all(np.abs(pacf[2:]) < 0.02)

    def test_constant_series_rejected(self):
        with pytest.raises(EstimationError):
            sample_acf_pacf(np.ones(100), 5)

    def test_short_series_rejected(self):
        with pytest.raises(InvalidSpecError):
            sample_acf_pacf(np.arange(5.0), 10)


class TestLjungBox:
    def test_size_under_null(self):
        rng = np.random.default_rng(53)
        rejections = 0
        reps = 500
        for _ in range(reps):
            x = rng.normal(size=2000)
            _, p = ljung_box(x, 20)
            rejections += p < 0.05
        assert abs(rejections / reps - 0.05) < 0.025

    def test_alternating_sequence(self):
        x = np.tile([1.0, -1.0], 200)
        stat, p = ljung_box(x, 5)
        assert p < 1e-10
        assert stat > 100

    def test_statistic_formula(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=300)
        stat, p = ljung_box(x, 3)
        acf, _ = sample_acf_pacf(x, 3)
        n = len(x)
        q = n * (n + 2) * sum(acf[k] ** 2 / (n - k) for k in range(1, 4))
        assert stat == pytest.approx(q)
        from scipy.stats import chi2

        assert p == pytest.approx(chi2.sf(q, 3))


class TestMarginalProbs:
    def test_geometric_type_zero_cell(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.0, rho=0.5, beta=1.5, p=1.0)
        probs = fitted_marginal_probs(spec, 5)
        assert probs[0] == pytest.approx(1.5 / 2.5)

    def test_syphilis_zero_cell(self):
        probs = fitted_marginal_probs(SYPHILIS_FIT, 15)
        assert probs[0] == pytest.approx(0.2882, abs=5e-4)

    def test_closed_form_vs_quadrature(self):
        probs = fitted_marginal_probs(SYPHILIS_FIT, 15)
        assert np.max(np.abs(probs - marginal_probs_by_quad(SYPHILIS_FIT, 15))) < 1e-10

    @pytest.mark.parametrize(
        "family, intensity, omega, beta, p, a, c, bound",
        [
            # the unclipped ZMP-EAR1 law: the negative-binomial closed form at p = 1
            ("zmp", "ear1", 0.2, 0.5, 1.0, 0.0, 1, 1e-10),
            # the clipped law of the criterion-2 row: closed-form clip terms
            ("zmp", "gar1", -0.2, 2.0, 4.0, 0.0, 1, 1e-10),
            ("zmp", "ear1", -0.1, 0.5, 1.0, 0.0, 1, 1e-10),
            # an intensity law past lambda = 256: quadrature of the clipped law
            ("zmp", "gar1", -0.05, 2.0, 400.0, 0.0, 1, 1e-5),
            ("zmnb", "gar1", 0.3, 0.5, 1.0, 0.5, 0, 1e-8),
            ("zmnb", "gar1", 0.3, 0.5, 1.0, 0.5, 1, 1e-8),
            # the kink of the clip is integrated on its own
            ("zmnb", "gar1", -0.1, 0.5, 1.0, 0.5, 0, 1e-6),
            ("zmnb", "gar1", -0.1, 0.5, 1.0, 0.5, 1, 1e-6),
        ],
    )
    def test_against_quadrature_of_the_sampled_law(
        self, family, intensity, omega, beta, p, a, c, bound
    ):
        spec = ModelSpec.create(family, intensity, omega=omega, rho=0.8, beta=beta, p=p, a=a, c=c)
        mu = p / beta
        kmax = int(mu + 12.0 * np.sqrt(mu + (1.0 + a) * mu / beta))
        probs = fitted_marginal_probs(spec, kmax)
        assert np.max(np.abs(probs - marginal_probs_by_quad(spec, kmax))) < bound

    def test_deterministic(self):
        spec = ModelSpec.create("zmnb", "gar1", omega=-0.1, rho=0.8, beta=0.5, p=1.0, a=0.5)
        assert np.array_equal(fitted_marginal_probs(spec, 40), fitted_marginal_probs(spec, 40))

    def test_zmnb_marginal_sums_below_one(self):
        spec = ModelSpec.create("zmnb", "gar1", omega=0.1, rho=0.5, beta=1.0, p=2.0, a=0.5, c=1)
        probs = fitted_marginal_probs(spec, 30)
        assert np.all(probs >= 0)
        assert probs.sum() <= 1 + 1e-12


class TestEmpiricalProbs:
    def test_all_zeros(self):
        probs = empirical_probs(np.zeros(10, dtype=int), 3)
        assert probs[0] == 1.0
        assert probs[1:].sum() == 0.0

    def test_sums_to_one_over_support(self):
        rng = np.random.default_rng(57)
        y = rng.poisson(3.0, 1000)
        probs = empirical_probs(y, int(y.max()))
        assert probs.sum() == pytest.approx(1.0)

    def test_syphilis_style_zero_fraction(self):
        y = np.concatenate([np.zeros(59, dtype=int), np.ones(150, dtype=int)])
        assert empirical_probs(y, 2)[0] == pytest.approx(59 / 209)


class TestProbTable:
    def test_coherence(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0)
        rng = np.random.default_rng(58)
        lam = simulate_intensity(spec.intensity, 2000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng)
        table = ProbTable.build(spec, y)
        assert table.fitted.sum() <= 1 + 1e-12
        assert table.empirical.sum() <= 1 + 1e-12
        assert table.fitted_tail >= 0

    def test_residual_whiteness_on_well_specified_fit(self):
        from zmcounts.estimation import fit

        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0)
        rng = np.random.default_rng(59)
        lam = simulate_intensity(spec.intensity, 1500, rng)
        y = zm_sample(spec.family, lam, spec.params, rng)
        res = fit(y, "zmp", "gar1")
        _, p = ljung_box(res.residuals, 20)
        assert p > 0.01
