import hashlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gammainc, gammainccinv, gammaincinv, pdtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import nbinom, poisson

from zmcounts.diagnostics import fitted_marginal_probs
from zmcounts.errors import InfeasibleOmegaError, InvalidSpecError
from zmcounts.intensity import simulate_intensity
from zmcounts.observation import (
    CountFamily,
    ModelSpec,
    Params,
    _clip_knots,
    _clip_top,
    _gamma_rule,
    _poisson_quantile,
    _term_sums,
    _zmp_clip_terms,
    baseline_zero_prob,
    clipped_coefficients,
    conditional_moments,
    count_acf,
    feasible_omega_interval,
    marginal_count_moments,
    marginal_zero_prob,
    observation_coefficients,
    truncated_moments,
    vbar_from,
    zm_pmf,
    zm_pmf_vector,
    zm_sample,
    zmnb_fourth_central_moment,
    zmp_zero_mass_slopes,
)

ZMP, ZMNB = CountFamily.ZMP, CountFamily.ZMNB


def params(omega=0.0, rho=0.5, beta=1.0, p=1.0, a=0.0, c=1):
    return Params(omega=omega, rho=rho, beta=beta, p=p, a=a, c=c)


def brute_moments(family, lam, pp, kmax=2000):
    pmf = zm_pmf_vector(family, kmax, lam, pp)
    ks = np.arange(kmax + 1)
    mean = np.sum(ks * pmf)
    var = np.sum((ks - mean) ** 2 * pmf)
    mu4 = np.sum((ks - (1 - pp.omega) * lam) ** 4 * pmf)
    return pmf.sum(), mean, var, mu4


class TestBaselineZeroProb:
    def test_poisson(self):
        assert baseline_zero_prob(ZMP, 1.0) == pytest.approx(np.exp(-1))

    def test_nb_c1(self):
        assert baseline_zero_prob(ZMNB, 2.0, a=1.0, c=1) == pytest.approx(1 / 3)

    def test_nb_c0(self):
        assert baseline_zero_prob(ZMNB, 2.0, a=0.5, c=0) == pytest.approx((1 / 1.5) ** 4)

    def test_zmnb_zero_a_rejected(self):
        with pytest.raises(InvalidSpecError):
            baseline_zero_prob(ZMNB, 1.0, a=0.0)


class TestPmf:
    def test_poisson_limit_omega0(self):
        assert zm_pmf(ZMP, 0, 1.0, params()) == pytest.approx(np.exp(-1))

    def test_degenerate_omega1(self):
        assert zm_pmf(ZMP, 0, 3.0, params(omega=1.0)) == pytest.approx(1.0)

    def test_infeasible_omega_raises_with_bound(self):
        with pytest.raises(InfeasibleOmegaError) as exc:
            zm_pmf(ZMP, 0, 8.0, params(omega=-0.2))
        assert exc.value.lower == pytest.approx(-np.exp(-8) / (1 - np.exp(-8)))

    def test_zmnb_to_zmp_limit(self):
        pp_nb = params(omega=0.2, a=1e-8, c=1)
        pp_p = params(omega=0.2)
        ks = np.arange(21)
        nb = zm_pmf(ZMNB, ks, 2.0, pp_nb)
        po = zm_pmf(ZMP, ks, 2.0, pp_p)
        assert np.max(np.abs(nb - po)) < 1e-6

    @pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("omega", [-0.05, 0.0, 0.3])
    @pytest.mark.parametrize("a,c", [(0.0, 1), (0.5, 1), (0.5, 0)])
    def test_normalization(self, lam, omega, a, c):
        family = ZMNB if a > 0 else ZMP
        pp = params(omega=omega, a=a, c=c)
        lower, _ = feasible_omega_interval(family, lam, a, c)
        if omega < lower:
            pytest.skip("infeasible cell")
        _, mean, var, _ = brute_moments(family, lam, pp, kmax=50)
        kmax = int(10 * (mean + 10 * np.sqrt(var)))
        total = zm_pmf_vector(family, kmax, lam, pp).sum()
        assert abs(total - 1.0) < 1e-10


class TestConditionalMoments:
    def test_poisson_equidispersion(self):
        assert conditional_moments(ZMP, 3.0, params()) == pytest.approx((3.0, 3.0))

    def test_zmp_formula_vs_brute_force(self):
        pp = params(omega=0.5)
        mean, var = conditional_moments(ZMP, 2.0, pp)
        assert (mean, var) == pytest.approx((1.0, 2.0))
        _, m_bf, v_bf, _ = brute_moments(ZMP, 2.0, pp, kmax=200)
        assert mean == pytest.approx(m_bf, rel=1e-10)
        assert var == pytest.approx(v_bf, rel=1e-10)

    def test_zmnb_formula(self):
        pp = params(omega=0.2, a=0.5, c=1)
        mean, var = conditional_moments(ZMNB, 2.0, pp)
        assert (mean, var) == pytest.approx((1.6, 3.84))
        _, m_bf, v_bf, _ = brute_moments(ZMNB, 2.0, pp, kmax=400)
        assert mean == pytest.approx(m_bf, rel=1e-10)
        assert var == pytest.approx(v_bf, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("omega", [0.0, 0.2, 0.45])
    @pytest.mark.parametrize("a", [0.25, 0.8])
    @pytest.mark.parametrize("c", [0, 1])
    def test_moment_oracle_grid(self, lam, omega, a, c):
        pp = params(omega=omega, a=a, c=c)
        _, m_bf, v_bf, mu4_bf = brute_moments(ZMNB, lam, pp, kmax=2000)
        mean, var = conditional_moments(ZMNB, lam, pp)
        assert mean == pytest.approx(m_bf, rel=1e-8)
        assert var == pytest.approx(v_bf, rel=1e-8)
        assert zmnb_fourth_central_moment(lam, pp) == pytest.approx(mu4_bf, rel=1e-8)


class TestFourthMoment:
    def test_poisson_reduction(self):
        # Poisson central fourth moment is 3*lam^2 + lam
        assert zmnb_fourth_central_moment(1.0, params()) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "lam,omega,a,c",
        [(2.0, 0.2, 0.5, 1), (1.0, 0.0, 0.5, 0), (0.5, 0.3, 1.5, 1), (3.0, -0.02, 0.25, 0)],
    )
    def test_brute_force_oracle(self, lam, omega, a, c):
        pp = params(omega=omega, a=a, c=c)
        _, _, _, mu4_bf = brute_moments(ZMNB, lam, pp, kmax=3000)
        assert zmnb_fourth_central_moment(lam, pp) == pytest.approx(mu4_bf, rel=1e-8)


class TestMarginalMoments:
    def test_zmp_closed_form(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.5, beta=2.0, p=4.0)
        mean, var = marginal_count_moments(spec)
        assert mean == pytest.approx(1.6)
        assert var == pytest.approx(0.8 * (2 + 1 + 0.8))

    def test_zmp_overdispersion_at_omega0(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.0, rho=0.5, beta=2.0, p=4.0)
        _, var = marginal_count_moments(spec)
        assert var == pytest.approx(2.0 + 1.0)

    def test_zmnb_c0_omega0(self):
        spec = ModelSpec.create("zmnb", "gar1", omega=0.0, rho=0.5, beta=2.0, p=4.0, a=1.0, c=0)
        _, var = marginal_count_moments(spec)
        assert var == pytest.approx(2 * 2.0 + 1.0)

    def test_monte_carlo_check(self):
        # the second spec is the criterion-2 row, drawn from the truncated law
        for omega in (0.2, -0.2):
            spec = ModelSpec.create("zmp", "gar1", omega=omega, rho=0.8, beta=2.0, p=4.0)
            rng = np.random.default_rng(11)
            lam = simulate_intensity(spec.intensity, 100_000, rng)
            y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
            mean, var = marginal_count_moments(spec)
            assert abs(y.mean() - mean) < 0.03
            assert abs(y.var() - var) < 0.1

    @settings(deadline=None, max_examples=50)
    @given(
        zmnb=st.booleans(),
        c=st.sampled_from([0, 1]),
        omega=st.floats(0.0, 0.9),
        rho=st.floats(0.0, 0.95),
        beta=st.floats(0.1, 5.0),
        p=st.floats(0.1, 10.0),
        a=st.floats(0.01, 3.0),
    )
    def test_closed_forms_without_deflation(self, zmnb, c, omega, rho, beta, p, a):
        # the per-family closed forms of the unclipped law, exact for omega >= 0
        a = a if zmnb else 0.0
        spec = ModelSpec.create(
            "zmnb" if zmnb else "zmp", "gar1", omega=omega, rho=rho, beta=beta, p=p, a=a, c=c
        )
        w, mu, s2 = omega, p / beta, p / beta**2
        if not zmnb:
            var = (1.0 - w) * (mu + s2 + w * mu**2)
        elif c == 0:
            var = (1.0 - w) * ((1.0 + a) * mu + s2 + w * mu**2)
        else:
            var = (1.0 - w) * (mu + (a + 1.0) * s2 + (w + a) * mu**2)
        mean, v = marginal_count_moments(spec)
        assert mean == pytest.approx((1.0 - w) * mu, rel=1e-12)
        assert v == pytest.approx(var, rel=1e-12)
        acf1 = (1.0 - w) * s2 * rho / (var / (1.0 - w))
        assert count_acf(spec, 1) == pytest.approx(acf1, rel=1e-12, abs=1e-300)


class TestCountAcf:
    def test_value(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0)
        assert count_acf(spec, 1) == pytest.approx(0.64 / 3.8)

    def test_bounded_by_intensity_acf(self):
        for spec in [
            ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0),
            ModelSpec.create("zmnb", "gar1", omega=-0.1, rho=0.6, beta=1.0, p=2.0, a=0.5),
            ModelSpec.create("zmnb", "ear1", omega=0.4, rho=0.9, beta=1.0, p=1.0, a=1.0, c=0),
        ]:
            for k in range(1, 6):
                assert count_acf(spec, k) <= spec.params.rho**k + 1e-12

    def test_geometric_decay_to_zero(self):
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0)
        assert count_acf(spec, 200) == pytest.approx(0.0, abs=1e-15)

    def test_sample_acf_match(self):
        # the second spec is the criterion-2 row, drawn from the truncated law
        for omega in (0.2, -0.2):
            spec = ModelSpec.create("zmp", "gar1", omega=omega, rho=0.8, beta=2.0, p=4.0)
            rng = np.random.default_rng(12)
            lam = simulate_intensity(spec.intensity, 1_000_000, rng)
            y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible="truncate")
            yc = y - y.mean()
            denom = np.sum(yc**2)
            for k in range(1, 6):
                rk = np.sum(yc[:-k] * yc[k:]) / denom
                assert abs(rk - count_acf(spec, k)) < 0.02


class TestFeasibleInterval:
    def test_poisson(self):
        lower, upper = feasible_omega_interval(ZMP, 1.0)
        assert lower == pytest.approx(-np.exp(-1) / (1 - np.exp(-1)))
        assert upper == 1.0

    def test_large_lambda_lower_approaches_zero(self):
        lower, _ = feasible_omega_interval(ZMP, 50.0)
        assert -1e-10 < lower < 0

    def test_zmnb(self):
        lower, _ = feasible_omega_interval(ZMNB, 2.0, a=1.0, c=1)
        assert lower == pytest.approx(-0.5)


class TestSampling:
    def test_omega_one_all_zeros(self):
        rng = np.random.default_rng(13)
        y = zm_sample(ZMP, np.full(1000, 2.0), params(omega=1.0 - 1e-12), rng)
        assert np.all(y == 0)

    def test_poisson_mean(self):
        rng = np.random.default_rng(14)
        y = zm_sample(ZMP, np.full(100_000, 2.0), params(), rng)
        assert abs(y.mean() - 2.0) < 3 * y.std() / np.sqrt(len(y))

    def test_deflated_zero_frequency(self):
        rng = np.random.default_rng(15)
        pp = params(omega=-0.1)
        y = zm_sample(ZMP, np.full(100_000, 1.0), pp, rng)
        target = -0.1 + 1.1 * np.exp(-1)
        assert abs(np.mean(y == 0) - target) < 0.005

    def test_infeasible_raises_with_index(self):
        lam = np.array([1.0, 1.0, 8.0, 1.0])
        with pytest.raises(InfeasibleOmegaError) as exc:
            zm_sample(ZMP, lam, params(omega=-0.2), np.random.default_rng(0))
        assert exc.value.index == 2

    def test_truncate_mode_matches_marginal_zero_prob(self):
        rng = np.random.default_rng(16)
        lam = rng.gamma(4.0, 0.5, 400_000)
        y = zm_sample(ZMP, lam, params(omega=-0.2), rng, on_infeasible="truncate")
        target = marginal_zero_prob(ZMP, -0.2, 2.0, 4.0)
        assert abs(np.mean(y == 0) - target) < 0.003

    def test_conditional_uncorrelatedness(self):
        # residuals y_t - (1-w)lam_t are uncorrelated across t given the path
        spec = ModelSpec.create("zmp", "gar1", omega=0.2, rho=0.8, beta=2.0, p=4.0)
        rng = np.random.default_rng(17)
        lam = simulate_intensity(spec.intensity, 200_000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng)
        e = y - 0.8 * lam
        r1 = np.mean(e[:-1] * e[1:]) / e.var()
        assert abs(r1) < 4 / np.sqrt(len(e))


    @pytest.mark.parametrize("family,pp", [(ZMP, params(omega=0.2)),
                                           (ZMNB, params(omega=0.2, a=0.5))])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_intensity_raises_with_index(self, family, pp, value):
        lam = np.array([1.0, 2.0, 3.0, value, np.nan])
        with pytest.raises(InvalidSpecError, match=r"lambda\[3\]"):
            zm_sample(family, lam, pp, np.random.default_rng(0))

    @pytest.mark.parametrize("family,a", [(ZMP, 0.0), (ZMNB, 0.5)])
    def test_top_uniform_gives_a_finite_count(self, family, a):
        # at omega = -0.2 the largest uniform, 1 - 2**-53, rounds to u = 1.0
        class TopUniform:
            def random(self, shape):
                return np.full(shape, 1.0 - 2.0**-53)

        lam = np.array([0.5, 2.0, 40.0])
        y = zm_sample(family, lam, params(omega=-0.2, a=a), TopUniform(),
                      on_infeasible="truncate")
        assert np.all((y > lam) & (y < 1000))

    # sha256 of the little-endian int64 counts, recorded while the ZMP
    # quantile was still scipy.stats.poisson.ppf: a sampler change that moves
    # any seeded draw fails here.  The two rows are the mc_zmp benchmark's
    # criterion-1 and -2 rows at n = 1000, drawn as run_replicate draws them
    # for ops 0-15 of seed 1; the long series use the cli_long ZMP models
    MC_ROWS = (
        (dict(omega=0.2, rho=0.8, beta=0.5, p=4.0), "raise"),
        (dict(omega=-0.2, rho=0.8, beta=2.0, p=4.0), "truncate"),
    )
    MC_DIGEST = "543d9ce712d65c445b4cd807b3e540efbd1bd8ac4139749b864ff929849814ae"
    LONG_SERIES = [
        ("gar1", 4.0, "42d257fbbc3a0ec3947fd3b1e3afa295ab3c5fb3a3fd49317e79d1375a3c9530"),
        ("ear1", 1.0, "a502614b60a49b2dc37ca26aa11856bfe85f30c4dda2afb51ed7ed2a5560b31d"),
    ]

    def test_seeded_replicate_draws_pinned(self):
        h = hashlib.sha256()
        for i in range(16):
            row, mode = self.MC_ROWS[i % 2]
            spec = ModelSpec.create("zmp", "gar1", **row)
            rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(i,)))
            lam = simulate_intensity(spec.intensity, 1000, rng)
            y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible=mode)
            h.update(y.astype("<i8").tobytes())
        assert h.hexdigest() == self.MC_DIGEST

    @pytest.mark.parametrize("intensity,p,digest", LONG_SERIES)
    def test_seeded_long_series_pinned(self, intensity, p, digest):
        spec = ModelSpec.create("zmp", intensity, omega=0.2, rho=0.8, beta=0.5, p=p)
        rng = np.random.default_rng(20240811)
        lam = simulate_intensity(spec.intensity, 100_000, rng)
        y = zm_sample(spec.family, lam, spec.params, rng)
        assert hashlib.sha256(y.astype("<i8").tobytes()).hexdigest() == digest


def is_poisson_quantile(k, u, lam):
    """k is the smallest count with pdtr(k, lam) >= u."""
    return (pdtr(k, lam) >= u) & ((k == 0) | (pdtr(k - 1.0, lam) < u))


class TestPoissonQuantile:
    @settings(deadline=None, max_examples=300)
    @given(
        log_lam=st.floats(np.log(1e-6), np.log(1e4)),
        u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_poisson_ppf(self, log_lam, u):
        lam, uu = np.array([np.exp(log_lam)]), np.array([u])
        k = _poisson_quantile(uu, lam)
        assert is_poisson_quantile(k, uu, lam).all()
        # poisson.ppf corrects pdtrik's root by at most one step, which is
        # not always enough within a few ulps of a CDF step or at u a few
        # ulps from 0 or 1; wherever it is exact the two agree
        ref = poisson.ppf(uu, lam)
        if is_poisson_quantile(ref, uu, lam).all():
            assert k[0] == ref[0]

    def test_random_draws_equal_poisson_ppf(self):
        rng = np.random.default_rng(23)
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(300.0), 200_000))
        u = 1.0 - rng.random(lam.size)  # in (0, 1]; 1.0 does not occur at this seed
        np.testing.assert_array_equal(_poisson_quantile(u, lam), poisson.ppf(u, lam))

    @pytest.mark.parametrize("lam", [1e-6, 0.1, 1.0, 3.7, 42.0, 255.0, 1e4])
    def test_exact_at_cdf_steps(self, lam):
        ks = np.arange(0.0, np.floor(lam + 10.0 * np.sqrt(lam)) + 1.0)
        cdf = pdtr(ks, lam)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        u = u[(u > 0.0) & (u < 1.0)]
        k = _poisson_quantile(u, np.full(u.size, lam))
        assert is_poisson_quantile(k, u, lam).all()
        at_step = np.isin(u, cdf)
        assert np.all(pdtr(k[at_step], lam) == u[at_step])

    @pytest.mark.parametrize("lam", [1e-12, 1e-3, 255.0, 1e4])
    @pytest.mark.parametrize("u", [2.0**-53, 1.0 - 2.0**-53])
    def test_exact_in_the_tails(self, lam, u):
        k = _poisson_quantile(np.array([u]), np.array([lam]))
        assert is_poisson_quantile(k, u, lam).all()


class TestMarginalZeroProb:
    def test_matches_plain_formula_when_feasible(self):
        assert marginal_zero_prob(ZMP, 0.2, 2.0, 4.0) == pytest.approx(
            0.2 + 0.8 * (2 / 3) ** 4
        )

    def test_positive_part_against_monte_carlo(self):
        rng = np.random.default_rng(18)
        lam = rng.gamma(4.0, 0.5, 1_000_000)
        mc = np.mean(np.maximum(-0.2 + 1.2 * np.exp(-lam), 0.0))
        assert marginal_zero_prob(ZMP, -0.2, 2.0, 4.0) == pytest.approx(mc, abs=3e-4)

    def test_zmnb_quadrature_against_monte_carlo(self):
        rng = np.random.default_rng(19)
        lam = rng.gamma(4.0, 0.5, 1_000_000)
        zb = (1.0 / (1.0 + 0.5 * lam)) ** (1 / 0.5)
        mc = np.mean(0.3 + 0.7 * zb)
        assert marginal_zero_prob(ZMNB, 0.3, 2.0, 4.0, a=0.5, c=1) == pytest.approx(mc, abs=3e-4)

    # (omega, beta, p) at a 0.5, c 1, with the tolerance of the Gauss rules:
    # the Legendre rule over the clipped tail limits omega < 0.  The last is
    # the zero mass of the pinned ZMNB objective value (test_estimation.py)
    @pytest.mark.parametrize("omega,beta,p,tol", [
        (0.3, 0.5, 0.5, 1e-10),
        (0.3, 0.5, 0.7, 1e-10),
        (-0.1, 0.5, 0.6, 1e-7),
        (0.3, 600.0, 600.0, 1e-10),
        (0.3, 0.55, 1.21, 1e-10),
    ])
    def test_zmnb_against_adaptive_quadrature(self, omega, beta, p, tol):
        def cell(u):  # the zero mass at the intensity of gamma CDF u
            lam = gammaincinv(p, u) / beta
            return max(omega + (1.0 - omega) * (1.0 + 0.5 * lam) ** -2.0, 0.0)

        kink = None
        if omega < 0.0:  # the clip's, where (1 + a*lam)^(-1/a) = -omega/(1-omega)
            kink = [gammainc(p, beta * ((-omega / (1.0 - omega)) ** -0.5 - 1.0) / 0.5)]
        ref, _ = integrate.quad(cell, 0.0, 1.0, points=kink, epsabs=1e-14, epsrel=1e-13,
                                limit=200)
        assert marginal_zero_prob(ZMNB, omega, beta, p, a=0.5, c=1) == pytest.approx(ref, abs=tol)

    def test_gamma_rule_is_shared_read_only(self):
        # the tie's root search, the coefficients and the ProbTable share one
        # cached rule per shape, which no caller may change
        nodes, weights = _gamma_rule(1.21)
        assert _gamma_rule(1.21)[0] is nodes
        assert not (nodes.flags.writeable or weights.flags.writeable)
        fresh = _gamma_rule.__wrapped__(1.21)
        assert np.array_equal(fresh[0], nodes) and np.array_equal(fresh[1], weights)

    @settings(deadline=None, max_examples=40)
    @given(
        zmnb=st.booleans(),
        c=st.sampled_from([0, 1]),
        omega=st.floats(-0.4, 0.6),
        beta=st.floats(0.5, 3.0),
        p=st.floats(0.5, 6.0),
        a=st.floats(0.1, 1.0),
    )
    def test_agrees_with_the_probtable(self, zmnb, c, omega, beta, p, a):
        a = a if zmnb else 0.0
        spec = ModelSpec.create(
            "zmnb" if zmnb else "zmp", "gar1", omega=omega, rho=0.5, beta=beta, p=p, a=a, c=c
        )
        mean, var = marginal_count_moments(spec)
        kmax = int(mean + 300.0 * np.sqrt(var))  # past the heavy ZMNB tails
        probs = fitted_marginal_probs(spec, kmax)
        assert marginal_zero_prob(spec.family, omega, beta, p, a, c) == pytest.approx(
            probs[0], rel=1e-12, abs=1e-14
        )
        # the moments' accuracy: ZMP closed forms on both sides; ZMNB tables by
        # Gauss rules (1e-9 here); the deflated ZMNB coefficients by
        # quadrature over their kinks, good to about 1e-3 (measured up to
        # 2.5e-3 in the variance on this box)
        rel = 1e-10 if not zmnb else 1e-7 if omega >= 0.0 else 5e-3
        k = np.arange(kmax + 1.0)
        assert probs @ k == pytest.approx(mean, rel=rel)
        assert probs @ k**2 - (probs @ k) ** 2 == pytest.approx(var, rel=rel)


class TestModelSpec:
    def test_disagreeing_params_rejected(self):
        from zmcounts.intensity import IntensityFamily, IntensitySpec

        with pytest.raises(InvalidSpecError):
            ModelSpec(
                family=ZMP,
                intensity=IntensitySpec(IntensityFamily.GAR1, rho=0.5, beta=1.0, p=2.0),
                params=Params(omega=0.0, rho=0.6, beta=1.0, p=2.0),
            )

    def test_zmnb_requires_positive_a(self):
        with pytest.raises(InvalidSpecError):
            ModelSpec.create("zmnb", "gar1", omega=0.1, rho=0.5, beta=1.0, p=2.0, a=0.0)


def clipped_pmf(family, lam, pp, kmax):
    """Pmf of the law zm_sample draws with on_infeasible="truncate": the
    differences of the clipped CDF max(0, omega + (1-omega)*F(k|lam))."""
    ks = np.arange(kmax + 1)
    if family == ZMP:
        cdf = poisson.cdf(ks, lam)
    else:
        r = lam ** (1 - pp.c) / pp.a
        cdf = nbinom.cdf(ks, r, 1.0 / (1.0 + pp.a * lam**pp.c))
    clipped = np.clip(pp.omega + (1.0 - pp.omega) * cdf, 0.0, 1.0)
    return ks, np.diff(np.concatenate([[0.0], clipped]))


def clipped_moment_integrals(family, omega, beta, p, a=0.0, c=1):
    """E[Y], E[lam*Y], E[Y^2] and E[Var(Y|lam)] under the gamma(p, rate beta)
    intensity by adaptive quadrature of the brute-force clipped moments, with
    breakpoints at the kinks lam_k of the clip."""
    pp = Params(omega=omega, rho=0.5, beta=beta, p=p, a=a, c=c)
    top = gamma_dist.ppf(1 - 1e-15, p, scale=1 / beta)

    def moments(lam):
        ks, pmf = clipped_pmf(family, lam, pp, int(lam + 12 * np.sqrt(lam * (1 + a * lam)) + 30))
        mean = ks @ pmf
        return mean, ks**2 @ pmf

    def integrand(lam, j):
        mean, second = moments(lam)
        val = (mean, lam * mean, second)[j]
        return val * gamma_dist.pdf(lam, p, scale=1 / beta)

    tau = -omega / (1 - omega)
    if family == ZMP:
        kinks = gammainccinv(np.arange(1, int(top) + 2), tau)
    else:
        # lam_k solves F(k|lam) = tau; F(k|lam) decreases in lam
        def cdf_gap(lam, k):
            return nbinom.cdf(k, lam ** (1 - c) / a, 1.0 / (1.0 + a * lam**c)) - tau

        kinks = np.array([
            brentq(cdf_gap, 1e-9, top, args=(k,))
            for k in range(int(top) + 1) if cdf_gap(top, k) < 0 < cdf_gap(1e-9, k)
        ])
    kinks = list(kinks[kinks < top])
    return [
        integrate.quad(integrand, 0, top, args=(j,), points=kinks or None, limit=800,
                       epsabs=1e-12, epsrel=1e-11)[0]
        for j in range(3)
    ]


class TestTruncatedMoments:
    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.7, 1.9, 3.0, 6.0, 12.0])
    def test_zmp_against_clipped_pmf(self, lam):
        pp = params(omega=-0.2)
        ks, pmf = clipped_pmf(ZMP, lam, pp, 200)
        m_bf = ks @ pmf
        v_bf = (ks - m_bf) ** 2 @ pmf
        mean, var = truncated_moments(ZMP, lam, pp)
        assert mean == pytest.approx(m_bf, rel=1e-10)
        assert var == pytest.approx(v_bf, rel=1e-9)

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("lam", [0.2, 0.8, 2.0, 5.0, 10.0])
    def test_zmnb_against_clipped_pmf(self, lam, c):
        pp = params(omega=-0.3, a=0.5, c=c)
        ks, pmf = clipped_pmf(ZMNB, lam, pp, 600)
        m_bf = ks @ pmf
        v_bf = (ks - m_bf) ** 2 @ pmf
        mean, var = truncated_moments(ZMNB, lam, pp)
        assert mean == pytest.approx(m_bf, rel=1e-10)
        assert var == pytest.approx(v_bf, rel=1e-9)

    @pytest.mark.parametrize("family,lam,a,c", [
        (ZMP, 400.0, 0.0, 1), (ZMP, 5000.0, 0.0, 1), (ZMNB, 300.0, 0.5, 0), (ZMNB, 300.0, 0.001, 1),
    ])
    def test_large_intensity_against_clipped_pmf(self, family, lam, a, c):
        # far from zero the sums subtract nearly equal partial expectations,
        # K*F(K-1) and E[Y; Y < K] with K the tau-quantile in the hundreds
        pp = params(omega=-0.01, a=a, c=c)
        ks, pmf = clipped_pmf(family, lam, pp, int(2 * lam))
        m_bf = ks @ pmf
        v_bf = (ks - m_bf) ** 2 @ pmf
        mean, var = truncated_moments(family, lam, pp)
        assert mean == pytest.approx(m_bf, rel=1e-12)
        assert var == pytest.approx(v_bf, rel=1e-8)

    @pytest.mark.parametrize("family,a,c", [(ZMP, 0.0, 1), (ZMNB, 0.5, 0), (ZMNB, 0.5, 1)])
    def test_grid_spans_both_sides_of_the_bound(self, family, a, c):
        # the parametrized grids above hold intensities where omega is feasible
        # (clip idle, unclipped moments) and where it is not
        omega = -0.2 if family == ZMP else -0.3
        grid = [0.3, 1.0, 1.7, 1.9, 3.0, 6.0, 12.0] if family == ZMP else [0.2, 0.8, 2.0, 5.0, 10.0]
        feasible = [omega >= feasible_omega_interval(family, lam, a, c)[0] for lam in grid]
        assert any(feasible) and not all(feasible)
        pp = params(omega=omega, a=a, c=c)
        lam_ok = grid[feasible.index(True)]
        assert truncated_moments(family, lam_ok, pp) == pytest.approx(
            conditional_moments(family, lam_ok, pp), rel=1e-12
        )

    def test_vectorized_and_nonnegative_omega(self):
        lam = np.array([0.5, 2.0, 4.0])
        pp = params(omega=-0.2)
        mean, var = truncated_moments(ZMP, lam, pp)
        for i, x in enumerate(lam):
            assert (mean[i], var[i]) == pytest.approx(truncated_moments(ZMP, x, pp), rel=1e-14)
        pp = params(omega=0.3)
        for got, want in zip(truncated_moments(ZMP, lam, pp), conditional_moments(ZMP, lam, pp)):
            np.testing.assert_array_equal(got, want)

    def test_sampler_draws_this_law(self):
        rng = np.random.default_rng(25)
        pp = params(omega=-0.2)
        y = zm_sample(ZMP, np.full(400_000, 4.0), pp, rng, on_infeasible="truncate")
        mean, var = truncated_moments(ZMP, 4.0, pp)
        assert abs(y.mean() - mean) < 4 * np.sqrt(var / len(y))
        assert y.var() == pytest.approx(var, rel=0.02)


class TestObservationCoefficients:
    @pytest.mark.parametrize("omega", [0.0, 0.2, 0.9])
    @pytest.mark.parametrize("family,a,c", [(ZMP, 0.0, 1), (ZMNB, 0.5, 0), (ZMNB, 0.5, 1)])
    def test_unclipped_exact(self, omega, family, a, c):
        mu, s2 = 2.0, 1.5
        obs = observation_coefficients(family, omega, mu, s2, a, c)
        assert obs == (0.0, 1.0 - omega, (1.0 - omega) * vbar_from(family, omega, mu, s2, a, c))

    @pytest.mark.parametrize(
        "omega,beta,p", [(-0.2, 2.0, 4.0), (-0.05, 1.0, 2.0), (-0.5, 0.5, 1.5)]
    )
    def test_zmp_closed_form_against_quadrature(self, omega, beta, p):
        mu, s2 = p / beta, p / beta**2
        ey, ely, ey2 = clipped_moment_integrals(ZMP, omega, beta, p)
        a1 = (ely - mu * ey) / s2
        a0 = ey - a1 * mu
        noise = ey2 - ey**2 - a1**2 * s2
        obs = observation_coefficients(ZMP, omega, mu, s2)
        assert obs.a0 == pytest.approx(a0, abs=1e-9)
        assert obs.a1 == pytest.approx(a1, rel=1e-9)
        assert obs.noise == pytest.approx(noise, rel=1e-9)

    @pytest.mark.parametrize("c", [0, 1])
    def test_zmnb_quadrature_against_adaptive_quadrature(self, c):
        omega, beta, p, a = -0.3, 2.0, 4.0, 0.5
        mu, s2 = p / beta, p / beta**2
        ey, ely, ey2 = clipped_moment_integrals(ZMNB, omega, beta, p, a, c)
        a1 = (ely - mu * ey) / s2
        obs = observation_coefficients(ZMNB, omega, mu, s2, a, c)
        assert obs.a1 == pytest.approx(a1, rel=2e-3)
        assert obs.a0 == pytest.approx(ey - a1 * mu, abs=5e-3)
        assert obs.noise == pytest.approx(ey2 - ey**2 - a1**2 * s2, rel=2e-3)

    def test_matches_sampled_regression(self):
        rng = np.random.default_rng(26)
        lam = rng.gamma(4.0, 0.5, 1_000_000)
        y = zm_sample(ZMP, lam, params(omega=-0.2), rng, on_infeasible="truncate")
        cov = np.cov(y, lam)
        a1 = cov[0, 1] / cov[1, 1]
        obs = observation_coefficients(ZMP, -0.2, 2.0, 1.0)
        assert obs.a1 == pytest.approx(a1, abs=0.01)
        assert obs.noise == pytest.approx(cov[0, 0] - a1**2 * cov[1, 1], rel=0.01)

    def test_noise_positive_where_vbar_is_not(self):
        # vbar = mu + omega*(sigma2 + mu^2) < 0 here, yet the clipped law's
        # noise stays positive
        assert vbar_from(ZMP, -0.5, 2.0, 1.0) < 0
        assert observation_coefficients(ZMP, -0.5, 2.0, 1.0).noise > 0

    def test_wide_intensity_law_by_quadrature(self):
        # the intensity law reaches far beyond the closed form's range, where
        # a Gauss rule for the gamma law takes over
        omega, beta, p = -0.001, 2.0, 400.0
        mu, s2 = p / beta, p / beta**2
        ey, ely, ey2 = clipped_moment_integrals(ZMP, omega, beta, p)
        a1 = (ely - mu * ey) / s2
        obs = observation_coefficients(ZMP, omega, mu, s2)
        assert obs.a0 == pytest.approx(ey - a1 * mu, abs=1e-4)
        assert obs.a1 == pytest.approx(a1, rel=1e-6)
        assert obs.noise == pytest.approx(ey2 - ey**2 - a1**2 * s2, rel=1e-5)

    def test_poisson_law_far_from_zero(self):
        # the clip binds only in the left tail of Poisson(lam) at lam near
        # 1e6, so the count tracks lam with slope near 1
        obs = observation_coefficients(ZMP, -0.01, 1e6, 1e6)
        assert obs.noise > 0
        assert obs.a1 == pytest.approx(1.0, abs=1e-3)

    def test_negative_binomial_law_far_from_zero(self):
        # at lam near 1e6 the c = 1 negative binomial with shape 1/a is lam
        # times a Gamma(1/a, scale a) variable X, so D1 = lam*d with
        # d = omega*q + (1-omega)*(q*tau - E[X; X < q]), q the tau-quantile of X
        omega, a = -0.01, 0.2
        tau, shape = -omega / (1 - omega), 1 / a
        q = gamma_dist.ppf(tau, shape, scale=a)
        d = omega * q + (1 - omega) * (q * tau - gamma_dist.cdf(q, shape + 1, scale=a))
        obs = observation_coefficients(ZMNB, omega, 1e6, 1e6, a, 1)
        assert obs.a1 == pytest.approx(1 - omega + d, rel=1e-9)
        assert obs.noise > 0


def central_differences(f, x, rel=1e-5):
    """Rows of derivatives of the vector function f in each component of x."""
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = rel * abs(x[i])
        rows.append((np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * step[i]))
    return np.array(rows)


class TestClippedCoefficientJacobian:
    # the closed form's whole range (the intensity law's upper 1e-13 quantile
    # stays below lambda = 256 on this box)
    BOX = dict(
        omega=st.floats(-0.9, -0.01), beta=st.floats(0.3, 5.0), p=st.floats(0.5, 8.0)
    )

    @settings(deadline=None, max_examples=60)
    @given(**BOX)
    def test_matches_central_differences(self, omega, beta, p):
        mu, s2 = p / beta, p / beta**2
        assert _clip_top(beta, p) <= 256.0
        jac = clipped_coefficients(ZMP, omega, mu, s2)[1]
        fd = central_differences(lambda x: observation_coefficients(ZMP, *x), [omega, mu, s2])
        # relative 1e-6, each column (a0, a1, noise) against its own scale,
        # because a near-zero entry has no meaningful relative error
        assert np.all(np.abs(jac - fd) <= 1e-6 * (np.abs(fd) + np.abs(fd).max(axis=0)))

    @settings(deadline=None, max_examples=60)
    @given(**BOX)
    def test_zero_mass_slopes_match_central_differences(self, omega, beta, p):
        d_w, d_beta = zmp_zero_mass_slopes(omega, beta, p)
        fd = central_differences(
            lambda x: [marginal_zero_prob(ZMP, x[0], x[1], p)], [omega, beta]
        )[:, 0]
        np.testing.assert_allclose([d_w, d_beta], fd, rtol=1e-6, atol=1e-9)

    def test_no_kink_below_the_top(self):
        # every kink lies beyond the intensity law's top: the derivatives are
        # the unclipped coefficients' (0, 1-omega, (1-omega)*vbar)
        w, mu, s2 = -1e-12, 2.0, 1.0
        m2 = s2 + mu**2
        expected = [[0.0, -1.0, (1.0 - w) * m2 - (mu + w * m2)],
                    [0.0, 0.0, (1.0 - w) * (1.0 + 2.0 * w * mu)],
                    [0.0, 0.0, (1.0 - w) * w]]
        np.testing.assert_allclose(
            clipped_coefficients(ZMP, w, mu, s2)[1], expected, rtol=1e-12, atol=1e-15
        )

    @settings(deadline=None, max_examples=60)
    @given(**BOX)
    def test_coefficients_are_those_of_the_filter(self, omega, beta, p):
        # the fit's last evaluation and gkf_filter at its estimates must use
        # the same coefficients: the values of the five-shape batch equal the
        # one-shape ones bit for bit
        mu, s2 = p / beta, p / beta**2
        assert clipped_coefficients(ZMP, omega, mu, s2)[0] == observation_coefficients(
            ZMP, omega, mu, s2
        )

    @pytest.mark.parametrize("family,point", [
        (ZMP, (-0.001, 200.0, 100.0)),  # beyond lambda = 256: quadrature
        (ZMNB, (-0.1, 2.0, 2.0, 0.5)),
        (ZMNB, (-0.3, 4.0, 3.0, 0.2)),
    ])
    def test_wide_laws_match_central_differences(self, family, point):
        a = point[3] if family == ZMNB else 0.0
        obs, jac = clipped_coefficients(family, *point[:3], a)
        assert obs == observation_coefficients(family, *point[:3], a)
        fd = central_differences(
            lambda x: observation_coefficients(family, *x[:3], *x[3:]), point
        )
        assert jac.shape == fd.shape
        assert np.all(np.abs(jac - fd) <= 1e-6 * (np.abs(fd) + np.abs(fd).max(axis=0)))

    # sha256 of the bytes of the rows j = 0, 1 of the terms at (omega, beta,
    # p), recorded when the direct sums became the only closed form (the
    # mpmath test below guards their accuracy): the ProbTable and the
    # coefficients read these rows, so a refactor must keep every bit
    PINNED_TERMS = [
        ((-0.2, 2.0, 4.0), 15, "79305bbc223d92338d06bae934a9482125f83ad61217195686d97eed0f846819"),
        ((-0.05, 0.5, 4.0), 64, "86fddb9a6bfd079df0addf9057cdfdfc9eb7ff777dcdcd1515ac9126b0d514d1"),
        ((-0.7, 1.3, 0.8), 21, "e919d839ffd3108dab47612767fcd99e223a464f532e0813cd01b95691d3085b"),
        ((-0.5, 0.35, 7.5), 131, "cc48fc14f8db7bf9261f2a3020321f877304672583d9e0c3f41d7ef526534529"),
    ]

    @staticmethod
    def terms(omega, beta, p):
        lam_k = _clip_knots(omega, _clip_top(beta, p))
        return lam_k, _zmp_clip_terms(omega, beta, np.array([[p]]), lam_k)[0][0, :2]

    @pytest.mark.parametrize("point,n,digest", PINNED_TERMS)
    def test_clip_terms_pinned(self, point, n, digest):
        _, e = self.terms(*point)
        assert e.shape == (2, n)
        assert hashlib.sha256(e.tobytes()).hexdigest() == digest

    @staticmethod
    def reference_term(omega, beta, p, lam_k, j, k):
        """E[lam^j min(0, g_k)] by mpmath.quad over (lam_k, inf)."""
        w, b, shape = (mpmath.mpf(x) for x in (omega, beta, p))
        scale = b**shape / mpmath.gamma(shape)

        def integrand(lam):
            g = w + (1 - w) * mpmath.gammainc(k + 1, lam, mpmath.inf, regularized=True)
            return g * lam ** (j + shape - 1) * mpmath.exp(-b * lam) * scale

        return float(mpmath.quad(integrand, [mpmath.mpf(float(lam_k[k])), mpmath.inf]))

    @pytest.mark.parametrize("point,ks", [
        ((-0.5, 0.35, 7.5), (0, 65, 130)),  # summation by parts lost 1.9e-3 at k 130
        ((-0.05, 0.5, 4.0), (0, 63)),
        ((-0.2, 2.0, 4.0), (14,)),
        ((-0.7, 1.3, 0.8), (20,)),
    ])
    def test_terms_against_mpmath(self, point, ks):
        lam_k, e = self.terms(*point)
        with mpmath.workdps(20):
            for k in ks:
                for j in (0, 1):
                    ref = self.reference_term(*point, lam_k, j, k)
                    assert e[j, k] == pytest.approx(ref, rel=1e-10), (j, k)

    @pytest.mark.parametrize("point", [(-0.2, 2.0, 4.0), (-0.7, 1.3, 0.8)])
    def test_sums_against_mpmath(self, point):
        lam_k, e = self.terms(*point)
        with mpmath.workdps(20):
            ref = np.array([[self.reference_term(*point, lam_k, j, k) for k in range(len(lam_k))]
                            for j in (0, 1)])
        # E[D1], E[lam*D1] and E[D2]
        np.testing.assert_allclose(_term_sums(e), _term_sums(ref), rtol=1e-12)
