"""Model-adequacy tooling: Pearson residuals, portmanteau tests, marginal fit.

The marginal probabilities are exact sums or quadratures, never sampled, so
every table is deterministic.

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .errors import EstimationError, InvalidSpecError
from .observation import (
    CountFamily,
    ModelSpec,
    Params,
    _marginal_probs,
    as_count_series,
    conditional_moments,
    truncated_moments,
)


def pearson_residuals(
    series, filtered, params: Params, family: CountFamily = CountFamily.ZMP
) -> np.ndarray:
    """Standardized one-step residuals (y - (1-w)*lhat) / sqrt(Var(y|lhat)).

    The conditional variance uses the filtered intensity in place of the
    latent one; a non-positive variance anywhere is an error (it marks an
    infeasible omega at that intensity, not something to smooth over).
    """
    y = as_count_series(series).astype(float)
    lam = np.asarray(filtered, dtype=float)
    if lam.shape != y.shape:
        raise InvalidSpecError("filtered path must align with the series")
    if np.any(lam <= 0):
        raise InvalidSpecError("filtered intensities must be positive")
    mean, var = conditional_moments(family, lam, params)
    bad = np.nonzero(var <= 0)[0]
    if bad.size:
        raise EstimationError(
            f"non-positive residual variance at t={int(bad[0])} "
            f"(lambda={lam[bad[0]]:.6g}, omega={params.omega:.6g})"
        )
    return (y - mean) / np.sqrt(var)


def truncated_residuals(
    series, filtered, params: Params, family: CountFamily = CountFamily.ZMP
) -> np.ndarray:
    """Standardized one-step residuals under the law that the sampler draws
    with ``on_infeasible="truncate"`` (:func:`truncated_moments`), for
    deflated models: finite where a negative omega is infeasible and
    :func:`pearson_residuals` raises."""
    y = as_count_series(series).astype(float)
    mean, var = truncated_moments(family, filtered, params)
    return (y - mean) / np.sqrt(var)


def sample_acf_pacf(series, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Biased-denominator sample ACF and Durbin-Levinson PACF up to max_lag.

    Both returned arrays have length max_lag+1 with the lag-0 entry equal to 1.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n <= max_lag:
        raise InvalidSpecError(f"series length {n} must exceed max_lag {max_lag}")
    xc = x - x.mean()
    c0 = float(np.sum(xc**2)) / n
    if c0 == 0:
        raise EstimationError("ACF undefined for a constant series")
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for k in range(1, max_lag + 1):
        acf[k] = float(np.sum(xc[:-k] * xc[k:])) / n / c0
    # Durbin-Levinson recursion
    pacf = np.empty(max_lag + 1)
    pacf[0] = 1.0
    phi = np.zeros((max_lag + 1, max_lag + 1))
    for k in range(1, max_lag + 1):
        if k == 1:
            phi[1, 1] = acf[1]
        else:
            num = acf[k] - np.dot(phi[k - 1, 1:k], acf[k - 1 : 0 : -1])
            den = 1.0 - np.dot(phi[k - 1, 1:k], acf[1:k])
            phi[k, k] = num / den
            phi[k, 1:k] = phi[k - 1, 1:k] - phi[k, k] * phi[k - 1, k - 1 : 0 : -1]
        pacf[k] = phi[k, k]
    return acf, pacf


def ljung_box(series, max_lag: int) -> tuple[float, float]:
    """Ljung-Box portmanteau statistic and its chi-square(max_lag) p-value.

    Q = n(n+2) * sum_{k<=h} r_k^2/(n-k); degrees of freedom equal the lag
    count with no parameter-count correction.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    acf, _ = sample_acf_pacf(x, max_lag)
    ks = np.arange(1, max_lag + 1)
    q = n * (n + 2.0) * np.sum(acf[1:] ** 2 / (n - ks))
    return float(q), float(chi2.sf(q, df=max_lag))


def fitted_marginal_probs(spec: ModelSpec, kmax: int) -> np.ndarray:
    """Marginal P(Y=k) for k=0..kmax of the law the sampler draws, averaged
    over the stationary gamma intensity law; deterministic.

    The sampler inverts the clipped CDF max(0, g_k), g_k = omega +
    (1-omega)*F(k|lambda), which is g_k itself unless omega < 0.  For ZMP the
    average of g_k is a negative-binomial mixture with a zero-modification
    atom (exact for both intensity families, whose marginals are gamma), and
    the clip adds -E[min(0, g_k)], in closed form for intensity laws within
    lambda = 256 from the terms that the filter's coefficients read.  ZMNB
    and wider ZMP laws are averaged by Gauss rules
    (:func:`observation._quadrature_marginal_cdf`, whose P(Y=0) is also the
    fit's ZMNB zero mass): against adaptive quadrature about 1e-9 for
    omega >= 0 and 1e-5 for omega < 0 while the intensity scale 1/beta is a
    few units.  The error grows on laws much wider than the count scale: for
    ZMNB c = 1, 2.5e-4 at beta 0.05, p 1, a 0.5 and 1.9e-2 at beta 0.01,
    p 0.3, a 3 (1.7e-3 at c = 0).  :func:`observation._marginal_probs`
    chooses between the two.
    """
    pp = spec.params
    return _marginal_probs(spec.family, pp.omega, pp.beta, pp.p, pp.a, pp.c, kmax)


def empirical_probs(series, kmax: int) -> np.ndarray:
    """Relative frequencies of counts 0..kmax."""
    y = as_count_series(series)
    counts = np.bincount(y, minlength=kmax + 1)[: kmax + 1]
    return counts / len(y)


@dataclass
class ProbTable:
    """Fitted versus empirical marginal probabilities on 0..kmax."""

    support: np.ndarray
    fitted: np.ndarray
    empirical: np.ndarray
    fitted_tail: float

    @classmethod
    def build(cls, spec: ModelSpec, series, kmax: int | None = None) -> "ProbTable":
        y = as_count_series(series)
        kmax = int(y.max()) if kmax is None else kmax
        fitted = fitted_marginal_probs(spec, kmax)
        return cls(
            support=np.arange(kmax + 1),
            fitted=fitted,
            empirical=empirical_probs(y, kmax),
            fitted_tail=float(max(0.0, 1.0 - fitted.sum())),
        )
