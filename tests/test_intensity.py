import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from zmcounts.errors import InvalidSpecError
from zmcounts.intensity import (
    IntensityFamily,
    IntensitySpec,
    ar1_filter,
    ear1_innovation_sample,
    gar1_innovation_sample,
    intensity_acf,
    intensity_moments,
    simulate_intensity,
)


def ear1(rho, beta):
    return IntensitySpec(IntensityFamily.EAR1, rho=rho, beta=beta, p=1.0)


def gar1(rho, beta, p):
    return IntensitySpec(IntensityFamily.GAR1, rho=rho, beta=beta, p=p)


class TestSpecValidation:
    def test_rho_boundary_rejected(self):
        with pytest.raises(InvalidSpecError):
            ear1(1.0, 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(InvalidSpecError):
            gar1(0.5, -1.0, 2.0)

    def test_ear1_requires_unit_shape(self):
        with pytest.raises(InvalidSpecError):
            IntensitySpec(IntensityFamily.EAR1, rho=0.5, beta=1.0, p=2.0)


class TestMoments:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            (gar1(0.5, 2.0, 4.0), (2.0, 1.0)),
            (ear1(0.5, 0.5), (2.0, 4.0)),
        ],
    )
    def test_closed_forms(self, spec, expected):
        assert intensity_moments(spec) == pytest.approx(expected)

    def test_fitted_syphilis_scale_moments(self):
        # derived marginal moments of the fitted real-data model
        mu, s2 = intensity_moments(gar1(0.7492, 2.1275, 9.9184))
        assert mu == pytest.approx(4.6620, abs=5e-4)
        assert s2 == pytest.approx(2.1913, abs=5e-4)

    def test_acf(self):
        assert intensity_acf(gar1(0.8, 2.0, 4.0), 0) == 1.0
        assert intensity_acf(gar1(0.8, 2.0, 4.0), 3) == pytest.approx(0.512)
        assert intensity_acf(gar1(0.95, 2.0, 4.0), 10) == pytest.approx(0.5987, abs=5e-5)


class TestInnovations:
    def test_ear1_rho0_is_pure_exponential(self):
        rng = np.random.default_rng(0)
        draws = ear1_innovation_sample(ear1(0.0, 1.0), rng, size=100_000)
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_ear1_cdf_matches_mixture(self):
        # empirical CDF against rho + (1-rho)*(1-exp(-beta*x)) on a grid
        rho, beta = 0.5, 2.0
        rng = np.random.default_rng(1)
        draws = ear1_innovation_sample(ear1(rho, beta), rng, size=100_000)
        assert abs(np.mean(draws == 0.0) - rho) < 0.005
        for x in (0.1, 0.5, 1.0, 2.0):
            target = rho + (1 - rho) * (1 - np.exp(-beta * x))
            assert abs(np.mean(draws <= x) - target) < 0.005

    def test_ear1_wrong_family_rejected(self):
        with pytest.raises(InvalidSpecError):
            ear1_innovation_sample(gar1(0.5, 1.0, 2.0), np.random.default_rng(0))

    def test_gar1_zero_count_gives_zero(self):
        # force N=0 by intercepting the Poisson draw through a tiny mean
        spec = gar1(0.999, 1.0, 1e-9)  # Poisson mean ~ 1e-12
        rng = np.random.default_rng(2)
        draws = gar1_innovation_sample(spec, rng, size=1000)
        assert np.all(draws == 0.0)

    def test_gar1_innovation_mean(self):
        # stationarity forces E(eta) = (1-rho)*p/beta
        spec = gar1(0.5, 1.0, 2.0)
        rng = np.random.default_rng(3)
        draws = gar1_innovation_sample(spec, rng, size=100_000)
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("rho", [5e-324, 1e-310])
    def test_gar1_subnormal_rho(self, rho):
        # 1/rho overflows here; the Poisson mean is p*(-log rho), about 745*p
        path = simulate_intensity(gar1(rho, 1.0, 1.0), 500, np.random.default_rng(4))
        assert np.all(np.isfinite(path)) and np.all(path > 0)
        assert abs(path.mean() - 1.0) < 0.3

    def test_gar1_rho0_rejected(self):
        with pytest.raises(InvalidSpecError):
            gar1_innovation_sample(gar1(0.0, 1.0, 2.0), np.random.default_rng(0))


class TestSimulatePath:
    def test_rho0_ear1_is_iid(self):
        rng = np.random.default_rng(4)
        path = simulate_intensity(ear1(0.0, 1.0), 100_000, rng)
        xc = path - path.mean()
        r1 = np.sum(xc[:-1] * xc[1:]) / np.sum(xc**2)
        assert abs(r1) < 0.01

    def test_gar1_marginal_moments(self):
        rng = np.random.default_rng(5)
        path = simulate_intensity(gar1(0.8, 2.0, 4.0), 100_000, rng)
        se_mean = path.std() / np.sqrt(len(path)) * 3  # ignores autocorrelation
        assert abs(path.mean() - 2.0) < 4 * se_mean
        assert abs(path.var() - 1.0) < 0.1

    def test_gar1_acf_geometric(self):
        rng = np.random.default_rng(6)
        path = simulate_intensity(gar1(0.8, 2.0, 4.0), 100_000, rng)
        xc = path - path.mean()
        denom = np.sum(xc**2)
        for k in range(1, 6):
            rk = np.sum(xc[:-k] * xc[k:]) / denom
            assert abs(rk - 0.8**k) < 0.03

    @pytest.mark.parametrize(
        "spec",
        [gar1(0.5, 2.0, 4.0), gar1(0.95, 0.5, 2.0), ear1(0.8, 1.0), ear1(0.3, 0.25)],
    )
    def test_stationary_marginal_recovery(self, spec):
        rng = np.random.default_rng(7)
        path = simulate_intensity(spec, 100_000, rng)
        mu, s2 = intensity_moments(spec)
        assert abs(path.mean() - mu) < 4 * path.std() / np.sqrt(len(path)) * 10
        assert abs(path.var() - s2) < 0.1 * s2 * 2

    def test_positivity(self):
        rng = np.random.default_rng(8)
        path = simulate_intensity(gar1(0.9, 2.0, 0.5), 50_000, rng)
        assert np.all(path > 0)

    def test_seed_reproducibility(self):
        a = simulate_intensity(gar1(0.8, 2.0, 4.0), 1000, np.random.default_rng(42))
        b = simulate_intensity(gar1(0.8, 2.0, 4.0), 1000, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestAr1Filter:
    """``ar1_filter`` calls a private SciPy name, so its output is pinned to
    that of ``lfilter`` bit for bit, over the pole, the length and the start
    value, on contiguous input and on the reversed views the adjoint uses."""

    @settings(max_examples=300, deadline=None)
    @given(
        pole=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 0.8, 1.5])),
        n=st.integers(1, 2000),
        zi=st.one_of(st.none(), st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0])),
        seed=st.integers(0, 2**32 - 1),
        reverse=st.booleans(),
    )
    def test_matches_lfilter_bit_for_bit(self, pole, n, zi, seed, reverse):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        x[rng.integers(n)] = -0.0
        x = x[::-1] if reverse else x
        if zi is None:
            expected = lfilter([1.0], [1.0, -pole], x)
        else:
            expected = lfilter([1.0], [1.0, -pole], x, zi=[zi])[0]
        got = ar1_filter(pole, x, zi=zi)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
