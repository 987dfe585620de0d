"""Zero-modified conditional count distributions (Poisson and negative binomial).

Given an intensity ``lam``, the baseline law is Poisson(lam) or a negative
binomial parameterized so that its mean is ``lam`` and its variance is
``lam*(1 + a*lam**c)`` (``c`` in {0, 1} selects the form).  The zero-modified
law perturbs the zero mass:

    P(Y=0) = omega + (1-omega)*P0(lam),    P(Y=k) = (1-omega)*P_base(k|lam)

``omega > 0`` inflates zeros, ``omega < 0`` deflates them; feasibility requires
``-P0/(1-P0) <= omega <= 1`` for every realized intensity, a lambda-dependent
constraint that is checked rather than silently clamped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import (
    betainc,
    betaincinv,
    gammainc,
    gammaincc,
    gammainccinv,
    gammaln,
    nbdtrik,
    nbdtrin,
    ndtri,
    pdtr,
    roots_legendre,
)
from scipy.stats import nbinom

from .errors import InfeasibleOmegaError, InvalidSpecError
from .intensity import IntensityFamily, IntensitySpec

# switch point above which the NB shape is so large that gammaln differences
# lose precision; fall back to exact sums of log(r+j)
_BIG_SHAPE = 1e6


class CountFamily(str, Enum):
    ZMP = "zmp"
    ZMNB = "zmnb"


@dataclass(frozen=True)
class Params:
    """Full parameter vector: zero modification, AR dynamics and dispersion.

    ``mu_lambda = p/beta`` and ``sigma2_lambda = p/beta**2`` are the implied
    stationary intensity moments.  ``a`` is the negative-binomial dispersion
    (0 for the Poisson family) and ``c`` its form index, configuration rather
    than an estimated quantity.
    """

    omega: float
    rho: float
    beta: float
    p: float
    a: float = 0.0
    c: int = 1

    def __post_init__(self):
        if self.omega > 1.0:
            raise InvalidSpecError(f"omega must be <= 1, got {self.omega}")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidSpecError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.beta > 0.0:
            raise InvalidSpecError(f"beta must be positive, got {self.beta}")
        if not self.p > 0.0:
            raise InvalidSpecError(f"p must be positive, got {self.p}")
        if self.a < 0.0:
            raise InvalidSpecError(f"a must be non-negative, got {self.a}")
        if self.c not in (0, 1):
            raise InvalidSpecError(f"c must be 0 or 1, got {self.c}")

    @property
    def mu_lambda(self) -> float:
        return self.p / self.beta

    @property
    def sigma2_lambda(self) -> float:
        return self.p / self.beta**2


@dataclass(frozen=True)
class ModelSpec:
    """Observation family + intensity family + parameters; the full generative model."""

    family: CountFamily
    intensity: IntensitySpec
    params: Params

    def __post_init__(self):
        ip, pp = self.intensity, self.params
        if (ip.rho, ip.beta, ip.p) != (pp.rho, pp.beta, pp.p):
            raise InvalidSpecError(
                "intensity parameters (rho, beta, p) disagree between "
                f"IntensitySpec {(ip.rho, ip.beta, ip.p)} and Params {(pp.rho, pp.beta, pp.p)}"
            )
        if self.family == CountFamily.ZMP and pp.a != 0.0:
            raise InvalidSpecError("ZMP requires a = 0")
        if self.family == CountFamily.ZMNB and pp.a <= 0.0:
            raise InvalidSpecError("ZMNB requires a > 0 (use ZMP for a = 0)")

    @classmethod
    def create(cls, family, intensity_family, omega, rho, beta, p=1.0, a=0.0, c=1):
        """Build a consistent spec from scalars."""
        family = CountFamily(family)
        intensity_family = IntensityFamily(intensity_family)
        return cls(
            family=family,
            intensity=IntensitySpec(intensity_family, rho=rho, beta=beta, p=p),
            params=Params(omega=omega, rho=rho, beta=beta, p=p, a=a, c=c),
        )

    def with_params(self, params: Params) -> "ModelSpec":
        """Same families, new parameter vector."""
        return ModelSpec(
            family=self.family,
            intensity=replace(self.intensity, rho=params.rho, beta=params.beta, p=params.p),
            params=params,
        )


def as_count_series(values) -> np.ndarray:
    """Validate and convert to an integer count array (all entries >= 0)."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidSpecError("count series must be a non-empty 1-d sequence")
    out = arr.astype(np.int64)
    if np.any(out < 0) or np.any(out != arr):
        raise InvalidSpecError("count series must contain non-negative integers")
    return out


def _nb_shape_prob(lam, a, c):
    """Negative-binomial (shape r, success prob q0) with mean lam, var lam*(1+a*lam^c)."""
    lam = np.asarray(lam, dtype=float)
    r = lam ** (1 - c) / a
    q0 = 1.0 / (1.0 + a * lam**c)  # P(failure-count pmf) zero-probability base
    return r, q0


def baseline_zero_prob(family: CountFamily, lam, a: float = 0.0, c: int = 1):
    """Zero probability of the unmodified baseline law at intensity lam."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise InvalidSpecError("lambda must be strictly positive")
    if family == CountFamily.ZMP:
        out = np.exp(-lam)
    else:
        if a <= 0:
            raise InvalidSpecError("ZMNB requires a > 0 (use ZMP for a = 0)")
        r, _ = _nb_shape_prob(lam, a, c)
        out = np.exp(-r * np.log1p(a * lam**c))
    return float(out) if out.ndim == 0 else out


def feasible_omega_interval(family: CountFamily, lam, a: float = 0.0, c: int = 1):
    """Feasible (lower, upper) range of omega at intensity lam: (-P0/(1-P0), 1)."""
    p0 = baseline_zero_prob(family, lam, a, c)
    return -p0 / (1.0 - p0), 1.0


def _check_omega(family, lam, params, index=None):
    lower, _ = feasible_omega_interval(family, lam, params.a, params.c)
    if params.omega < lower:
        raise InfeasibleOmegaError(params.omega, lower, lam, index)


def _lgamma_ratio(k: np.ndarray, r: float) -> np.ndarray:
    """log Gamma(k+r) - log Gamma(r) for integer k >= 0, stable for huge r."""
    if r < _BIG_SHAPE:
        return gammaln(k + r) - gammaln(r)
    kmax = int(np.max(k))
    table = np.concatenate([[0.0], np.cumsum(np.log(r + np.arange(kmax)))])
    return table[k]


def _baseline_logpmf(family, k, lam, a, c):
    k = np.asarray(k)
    if family == CountFamily.ZMP:
        return -lam + k * np.log(lam) - gammaln(k + 1.0)
    r, _ = _nb_shape_prob(lam, a, c)
    u = a * lam**c
    return (
        _lgamma_ratio(k, float(r))
        - gammaln(k + 1.0)
        - r * np.log1p(u)
        + k * (np.log(u) - np.log1p(u))
    )


def zm_pmf(family: CountFamily, k, lam: float, params: Params):
    """Zero-modified pmf at count(s) k given intensity lam.

    Raises :class:`InfeasibleOmegaError` when omega violates its bound at lam.
    """
    _check_omega(family, lam, params)
    k = np.asarray(k)
    if np.any(k < 0):
        raise InvalidSpecError("counts must be non-negative")
    base = np.exp(_baseline_logpmf(family, k, lam, params.a, params.c))
    out = np.where(
        k == 0,
        params.omega + (1.0 - params.omega) * baseline_zero_prob(family, lam, params.a, params.c),
        (1.0 - params.omega) * base,
    )
    return float(out) if out.ndim == 0 else out


def zm_pmf_vector(family: CountFamily, kmax: int, lam: float, params: Params) -> np.ndarray:
    """Pmf table over 0..kmax; convenience for summation oracles and tables."""
    return zm_pmf(family, np.arange(kmax + 1), lam, params)


def conditional_moments(family: CountFamily, lam, params: Params):
    """Conditional mean and variance of the count given the intensity.

    mean = (1-omega)*lam; variance = (1-omega)*(1 + omega*lam [+ a*lam**c])*lam.

    These are the moments of the unclipped zero-modified law, valid only where
    omega is feasible at ``lam``; where a negative omega is infeasible the
    sampler draws the clipped law of :func:`truncated_moments` instead.
    """
    lam = np.asarray(lam, dtype=float)
    w = params.omega
    mean = (1.0 - w) * lam
    extra = params.a * lam**params.c if family == CountFamily.ZMNB else 0.0
    var = (1.0 - w) * (1.0 + w * lam + extra) * lam
    if lam.ndim == 0:
        return float(mean), float(var)
    return mean, var


def zmnb_fourth_central_moment(lam, params: Params):
    """Conditional fourth central moment E[(Y - (1-omega)*lam)^4 | lam].

    Valid for a >= 0 (a = 0 recovers the zero-modified Poisson case).
    """
    lam = np.asarray(lam, dtype=float)
    w, a, c = params.omega, params.a, params.c
    bracket = (
        lam**3 * (3 * w**3 - 3 * w**2 + w)
        + 6 * lam**2 * w**2
        + 4 * lam * w
        + 3 * lam
        + 1
        + 6 * a**3 * lam ** (3 * c)
        + (12 * a**2 + (3 + 8 * w) * a**2 * lam) * lam ** (2 * c)
        + (6 * a * lam**2 * w**2 + 6 * (1 + 2 * w) * a * lam + 7 * a) * lam**c
    )
    out = (1.0 - w) * lam * bracket
    return float(out) if out.ndim == 0 else out


def marginal_zero_prob(
    family: CountFamily, omega: float, beta: float, p: float, a: float = 0.0, c: int = 1
) -> float:
    """Unconditional P(Y=0) under the stationary gamma intensity marginal.

    Evaluates ``E[max(omega + (1-omega)*P0(lambda), 0)]``: the positive part
    makes the value exact for the boundary-truncated law that the sampler
    produces when a negative omega is infeasible at large intensities, and it
    coincides with the plain average whenever omega is feasible everywhere.
    The Poisson case is closed-form via incomplete gamma functions; the
    negative-binomial one is the ProbTable's P(Y=0) by the Gauss rules of
    :func:`_quadrature_marginal_cdf`, within about 1e-11 (omega >= 0) and
    1e-7 (omega < 0) of adaptive quadrature while 1/beta is a few units; on
    wider laws 1e-5 at beta 0.2, p 0.25, 1e-4 at beta 0.05, p 1 and 2e-2 at
    beta 0.01, p 0.3, a 3.
    """
    if family == CountFamily.ZMP or a == 0.0:
        z_all = math.exp(p * (math.log(beta) - math.log(beta + 1.0)))
        if omega >= 0.0:
            return omega + (1.0 - omega) * z_all
        _, mass, z_trunc = _zmp_zero_mass_parts(omega, beta, p, z_all)
        return omega * mass + (1.0 - omega) * z_trunc
    return float(_quadrature_marginal_cdf(family, omega, beta, p, a, c, np.zeros(1))[0])


def _zmp_zero_mass_parts(omega: float, beta: float, p: float, z_all: float):
    """The pieces of the ZMP zero mass at omega < 0, which vanishes beyond
    lambda* = log((1-omega)/(-omega)): (lambda*, P(lambda < lambda*),
    E[e^-lambda; lambda < lambda*]), with ``z_all`` = E[e^-lambda]."""
    lam_star = math.log((1.0 - omega) / (-omega))
    mass = float(gammainc(p, beta * lam_star))
    z_trunc = z_all * float(gammainc(p, (beta + 1.0) * lam_star))
    return lam_star, mass, z_trunc


def zmp_zero_mass_slopes(omega: float, beta: float, p: float) -> tuple[float, float]:
    """Partial derivatives in omega and beta of the ZMP marginal zero mass
    P0 = omega*mass + (1-omega)*z_trunc at omega < 0 (see
    :func:`_zmp_zero_mass_parts`).  The integrand vanishes at the clip
    boundary, so dP0/domega = mass - z_trunc; in beta, the gamma CDFs move
    by their densities at beta*lambda* and (beta+1)*lambda*, and
    Z = (beta/(beta+1))^p by Z*p/(beta*(beta+1))."""
    z_all = math.exp(p * (math.log(beta) - math.log(beta + 1.0)))
    lam_star, mass, z_trunc = _zmp_zero_mass_parts(omega, beta, p, z_all)

    def density(x):  # of Gamma(p, rate 1)
        return math.exp((p - 1.0) * math.log(x) - x - math.lgamma(p))

    d_mass = lam_star * density(beta * lam_star)
    d_trunc = (z_trunc * p / (beta * (beta + 1.0))
               + z_all * lam_star * density((beta + 1.0) * lam_star))
    return mass - z_trunc, omega * d_mass + (1.0 - omega) * d_trunc


def zmp_zero_mass_omega(p0: float, beta: float, p: float, lower: float) -> float:
    """The omega in [``lower``, 0) at which the ZMP marginal zero mass of
    :func:`marginal_zero_prob` equals ``p0``, for ``p0`` below its value at
    omega = 0; ``lower`` if the root is below.

    The zero mass is convex in omega < 0, with derivative
    P(lam < lam*) - E[e^-lam; lam < lam*] (the integrand vanishes at the clip
    boundary lam*) that tends to 1 - E[e^-lam] at omega = 0, so Newton's
    method from omega = 0 decreases monotonically to the root.
    """
    z_all = math.exp(p * (math.log(beta) - math.log(beta + 1.0)))
    omega = -(z_all - p0) / (1.0 - z_all)  # the Newton step from omega = 0
    for _ in range(100):
        if omega <= lower:
            return lower
        _, mass, z_trunc = _zmp_zero_mass_parts(omega, beta, p, z_all)
        step = (omega * mass + (1.0 - omega) * z_trunc - p0) / (mass - z_trunc)
        omega -= step
        if step <= 1e-13:
            break
    return max(omega, lower)


def vbar_from(family: CountFamily, omega, mu, sigma2, a=0.0, c=1):
    """Expected unclipped conditional count variance divided by (1-omega), at
    explicit stationary intensity moments (used at trial parameter points);
    broadcasts over arrays of omega, mu, sigma2 and a.

    ZMP:        mu + omega*(sigma2 + mu^2)
    ZMNB c=0:   (1+a)*mu + omega*(sigma2 + mu^2)
    ZMNB c=1:   mu + (omega+a)*(sigma2 + mu^2)
    """
    m2 = sigma2 + mu**2
    if family == CountFamily.ZMP:
        return mu + omega * m2
    if c == 0:
        return (1.0 + a) * mu + omega * m2
    return mu + (omega + a) * m2


# Deflated (omega < 0) models.  With on_infeasible="truncate" the sampler
# inverts the clipped CDF max(0, g_k), g_k = omega + (1-omega)*F(k|lam), which
# differs from the zero-modified law wherever g_0 < 0.  Writing
# D1 = sum_k min(0, g_k) and D2 = sum_k (2k+1)*min(0, g_k), the clipped law has
#     E[Y|lam]   = (1-omega)*lam + D1
#     E[Y^2|lam] = (1-omega)*E_base[Y^2|lam] + D2.

# stationary-intensity tail mass beyond which deflation terms are dropped
_CLIP_TAIL = 1e-13
# the closed-form ZMP sums have about one term per unit of intensity below the
# upper _CLIP_TAIL quantile, and cost the square of their length; wider
# intensity laws are averaged by quadrature
_MAX_CLIP_LAMBDA = 256.0
# relative step of the five-point central difference in the gamma shape p
_SHAPE_STEP = 1e-3
_SHAPE_STEPS = (1.0 + _SHAPE_STEP * np.array([0.0, 1.0, -1.0, 2.0, -2.0]))[:, None]


class ObsCoefficients(NamedTuple):
    """Linear observation equation ``Y = a0 + a1*lambda + eps`` with
    ``Var(eps) = noise`` on average over the stationary intensity law."""

    a0: float
    a1: float
    noise: float


def _clip_sums(family, lam: np.ndarray, omega: float, a: float, c: int):
    """D1 and D2 of the clipped law at each entry of a 1-d ``lam``.

    g_k < 0 exactly for k < K, the smallest k with F(k|lam) >= tau =
    -omega/(1-omega).  Since sum_{k<K} F(k) = sum_{j<K} (K-j)*P(j) and
    sum_{k<K} (2k+1)*F(k) = sum_{j<K} (K^2-j^2)*P(j),

        D1 = omega*K   + (1-omega)*(K*F(K-1)   - E[Y;   Y < K])
        D2 = omega*K^2 + (1-omega)*(K^2*F(K-1) - E[Y^2; Y < K]).

    The partial expectations are CDFs of shifted laws: k*P(k) = lam*P1(k-1)
    and k*(k-1)*P(k) = lam*(lam+u)*P2(k-2), u = a*lam^c, where P1 and P2 are
    the negative binomial with shape r+1 and r+2 (for Poisson, the same
    law).  The cost per intensity does not grow with lam.
    """
    tau = -omega / (1.0 - omega)
    if family == CountFamily.ZMP or a == 0.0:
        u = 0.0

        def cdf(k, shift):  # F(k|lam), 0 for k < 0
            return np.where(k >= 0, gammaincc(np.maximum(k, 0.0) + 1.0, lam), 0.0)

        # Cornish-Fisher quantile, then exact steps
        z = float(ndtri(tau))
        k = np.floor(lam + z * np.sqrt(lam) + (z * z - 1.0) / 6.0)
    else:
        r, q0 = _nb_shape_prob(lam, a, c)
        u = a * lam**c

        def cdf(k, shift):
            return np.where(k >= 0, betainc(r + shift, np.maximum(k, 0.0) + 1.0, q0), 0.0)

        k = np.ceil(np.nan_to_num(nbdtrik(tau, r, q0)))
    k = np.maximum(k, 0.0)
    while True:  # F is increasing in k: step down, then up, to the smallest K
        down = (k > 0) & (cdf(k - 1.0, 0) >= tau)
        if not down.any():
            break
        k -= down
    while True:
        up = cdf(k, 0) < tau
        if not up.any():
            break
        k += up
    f0 = cdf(k - 1.0, 0)
    m1 = lam * cdf(k - 2.0, 1)
    m2 = lam * (lam + u) * cdf(k - 3.0, 2) + m1
    d1 = omega * k + (1.0 - omega) * (k * f0 - m1)
    d2 = omega * k * k + (1.0 - omega) * (k * k * f0 - m2)
    return d1, d2


def truncated_moments(family: CountFamily, lam, params: Params):
    """Conditional mean and variance of the law that :func:`zm_sample` draws
    with ``on_infeasible="truncate"``.

    Where omega is feasible this is the zero-modified law and the result
    equals :func:`conditional_moments`; where a negative omega is infeasible
    the sampler inverts the clipped CDF, whose moments add D1 and D2 (see
    above) to the unclipped ones.
    """
    mean_u, var_u = conditional_moments(family, lam, params)
    if params.omega >= 0.0:
        return mean_u, var_u
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise InvalidSpecError("lambda must be strictly positive")
    d1, d2 = _clip_sums(family, lam.reshape(-1), params.omega, params.a, params.c)
    d1, d2 = d1.reshape(lam.shape), d2.reshape(lam.shape)
    mean = mean_u + d1
    var = var_u + d2 - d1 * (2.0 * mean_u + d1)
    if lam.ndim == 0:
        return float(mean), float(var)
    return mean, var


@functools.lru_cache(maxsize=64)
def _term_index(n: int):
    """Constants of the n-term sums of :func:`_zmp_clip_terms`, with shifts
    j in {0, 1, 2}: m <= n+1, log m!, the falling factorials m!/(m-j)!, the
    mask m <= k+j for k < n, and the weights 2k+1 of D2."""
    m = np.arange(n + 2.0)
    falling = np.array([np.ones_like(m), m, m * (m - 1.0)])
    below = m <= np.arange(n)[:, None] + np.arange(3)[:, None, None]
    out = (m, gammaln(m + 1.0), falling, below, 2.0 * m[:n] + 1.0)
    for arr in out:
        arr.flags.writeable = False  # shared by every caller
    return out


@functools.lru_cache(maxsize=8)
def _clip_knots(omega: float, top: float) -> np.ndarray:
    """The ZMP clip boundaries lam_k = gammainccinv(k+1, tau), tau =
    -omega/(1-omega), that lie below ``top``; they depend on omega alone.
    Cached, so that the filter and the ProbTable at a fit's estimates share
    them with its last evaluation."""
    tau = -omega / (1.0 - omega)
    lam_k = _clip_points(CountFamily.ZMP, np.arange(int(top) + 2.0), tau, 0.0, 1)
    if lam_k[-1] < top:  # lam_k > k whenever tau <= 1/2
        lam_k = _clip_points(CountFamily.ZMP, np.arange(2 * int(top) + 3.0), tau, 0.0, 1)
    lam_k = lam_k[: int(np.searchsorted(lam_k, top))]  # lam_k increases with k
    lam_k.flags.writeable = False
    return lam_k


def _zmp_clip_terms(omega: float, beta: float, ps: np.ndarray, lam_k: np.ndarray):
    """The terms ``e[s, j, k] = E[lam^j min(0, g_k)]``, j in {0, 1, 2}, of
    the ZMP clipped law under the Gamma(ps[s], rate beta) law, for each
    shape of the column ``ps`` and each clip boundary lam_k of
    :func:`_clip_knots` (the terms of larger k vanish), and their partials
    in omega.

    g_k < 0 exactly for lam > lam_k, so e = omega*E[lam^j; lam > lam_k] +
    (1-omega)*S_jk with E[lam^j; lam > lam_k] = E[lam^j]*Q(p+j, beta*lam_k)
    and, since lam^j times the Poisson pmf at i is (i+j)!/i! times the pmf
    at i+j,

        S_jk = E[lam^j F(k|lam); lam > lam_k] = sum_{m<=k+j} m!/(m-j)! NB(m) Q(p+m, x_k),

    where NB is the NB(p, beta/(beta+1)) pmf, Q the regularized upper
    incomplete gamma function and x_k = (beta+1)*lam_k.  Q(p+m, z) is the
    running sum Q(p, z) + sum_{i<m} t_i(z) of positive terms
    t_i(z) = z^(p+i) e^-z / Gamma(p+i+1), at z = x_k and z = beta*lam_k.
    The integrand min(0, g_k) vanishes at its kink lam_k, so
    de/domega = E[lam^j; lam > lam_k] - S_jk.

    Every step is elementwise, or a running sum or sum along a contiguous
    last axis, so a shape's terms do not depend on the rest of the batch.
    """
    n = len(lam_k)
    if n == 0:
        empty = np.zeros((len(ps), 3, 0))
        return empty, empty
    m, log_fact, falling, below, _ = _term_index(n)
    z = np.concatenate([(beta + 1.0) * lam_k, beta * lam_k])
    log_z = np.log(z)
    lgam = gammaln(ps + m)  # log Gamma(p+m)
    # t[s, z, i] = t_i(z) at the shape ps[s], for i <= n
    t = np.exp((ps * log_z - z)[:, :, None] + (log_z[:, None] * m[:-1] - lgam[:, None, 1:]))
    # q[s, z, m] = Q(p+m, z) for m <= n+1
    q = np.cumsum(np.concatenate([gammaincc(ps, z)[:, :, None], t], axis=2), axis=2)
    nb = np.exp(lgam - (lgam[:, :1] + log_fact)
                + (ps * math.log(beta / (beta + 1.0)) - m * math.log(beta + 1.0)))
    s_jk = (q[:, None, :n] * below * (falling * nb[:, None])[:, :, None]).sum(axis=3)
    moments = np.exp(lgam[:, :3] - lgam[:, :1]) / beta ** m[:3]  # E[lam^j]
    beyond = moments[:, :, None] * q[:, n:, :3].transpose(0, 2, 1)
    return omega * beyond + (1.0 - omega) * s_jk, beyond - s_jk


def _term_sums(e: np.ndarray) -> np.ndarray:
    """The averages (E[D1], E[lam*D1], E[D2]) from terms ``e[..., j, k]``:
    the sums over k of the rows j = 0 and j = 1, and of (2k+1) times row 0."""
    odd = _term_index(e.shape[-1])[4]
    rows = e[..., 0, :], e[..., 1, :], e[..., 0, :] * odd
    return np.stack([row.sum(axis=-1) for row in rows], axis=-1)


def _closed_form_knots(family, omega, beta, p, a):
    """The clip boundaries of :func:`_clip_knots` where the deflated law has
    the closed form of :func:`_zmp_clip_terms`: ZMP, with an intensity law
    that puts less than _CLIP_TAIL beyond _MAX_CLIP_LAMBDA.  None where it
    is averaged by quadrature."""
    if family == CountFamily.ZMP or a == 0.0:
        top = _clip_top(beta, p)
        if top <= _MAX_CLIP_LAMBDA:
            return _clip_knots(omega, top)
    return None


def _clip_averages(family, omega, beta, p, a, c) -> np.ndarray:
    """The clipped law's averages (E[D1], E[lam*D1], E[D2]) under the
    Gamma(p, rate beta) intensity law: closed form where
    :func:`_closed_form_knots` allows, quadrature otherwise."""
    lam_k = _closed_form_knots(family, omega, beta, p, a)
    if lam_k is None:
        return _quadrature_clip_averages(family, omega, beta, p, a, c)
    return _term_sums(_zmp_clip_terms(omega, beta, np.array([[p]]), lam_k)[0][0])


# relative step of the central differences of gamma-law averages in
# (omega, beta, p, a); the zero-mass tie's slopes and the coefficients'
# share it, so that their shapes p +- h share Gauss rules
_DIFF_STEP = 1e-5


def _central_differences(f, theta: np.ndarray) -> np.ndarray:
    """Row i: the central difference of ``f`` in the i-th component of
    ``theta`` = (omega, beta, p[, a]).  The steps are relative, on a scale
    of at least 1e-3 for omega, which can be 0; beta, p and a are positive
    and stay so."""
    scale = np.abs(theta)
    scale[0] = max(scale[0], 1e-3)
    return np.array([(f(theta + h) - f(theta - h)) / (2.0 * h.max())
                     for h in np.diag(_DIFF_STEP * scale)])


def _clip_average_tangents(family, omega, beta, p, a, c):
    """The averages of :func:`_clip_averages` and their partial derivatives,
    rows in (omega, beta, p) and, for ZMNB, a.

    In closed form, from one batch of :func:`_zmp_clip_terms` at the shapes
    p, p+-h and p+-2h, whose centre row gives the averages:

    * omega: the terms' own partials.
    * beta: the gamma density f has df/dbeta = f*(p/beta - lam), so
      de_j/dbeta = p/beta*e_j - e_{j+1}, with the row j = 2.
    * p: Q(p+m, x) has no closed derivative in its shape, so this is a
      five-point central difference in p at the same lam_k (error about
      1e-8 relative, where a three-point one loses 1e-6 to rounding).

    By quadrature, central differences of :func:`_quadrature_clip_averages`;
    all but the one in p keep the gamma shape, and so its Gauss rule.
    """
    lam_k = _closed_form_knots(family, omega, beta, p, a)
    if lam_k is None:
        theta = np.array([omega, beta, p, a][: 4 if family == CountFamily.ZMNB else 3])

        def averages(x):
            return _quadrature_clip_averages(family, *x[:3], x[3] if len(x) > 3 else a, c)

        return averages(theta), _central_differences(averages, theta)
    e, e_w = _zmp_clip_terms(omega, beta, p * _SHAPE_STEPS, lam_k)
    sums = _term_sums(np.array([
        e[0, :2],
        e_w[0, :2],
        p / beta * e[0, :2] - e[0, 1:],
        (8.0 * (e[1, :2] - e[2, :2]) - (e[3, :2] - e[4, :2])) / (12.0 * _SHAPE_STEP * p),
    ]))
    return sums[0], sums[1:]


def _moment_partials(mu, sigma2, d_beta, d_p):
    """Partial derivatives in the gamma intensity law's (beta, p) carried to
    its (mu, sigma2), through beta = mu/sigma2 and p = mu^2/sigma2."""
    beta = mu / sigma2
    p = mu * beta
    return d_beta / sigma2 + 2.0 * beta * d_p, -(beta * d_beta + p * d_p) / sigma2


def _clipped_coefficients(omega, mu, sigma2, vb, d10, d11, d2):
    """(a0, a1, noise) of the clipped law from (1-omega)*vbar's factor vb and
    the averages E[D1], E[lam*D1] and E[D2]; analytic, so a complex step
    through it gives its derivatives."""
    one_w = 1.0 - omega
    delta = (d11 - mu * d10) / sigma2  # a1 - (1-omega)
    noise = one_w * vb + d2 - 2.0 * one_w * d11 - d10**2 - delta * delta * sigma2
    return d10 - delta * mu, one_w + delta, noise


def clipped_coefficients(
    family: CountFamily, omega: float, mu: float, sigma2: float, a: float = 0.0, c: int = 1
) -> tuple[ObsCoefficients, np.ndarray]:
    """The observation coefficients at omega < 0, bit for bit those of
    :func:`observation_coefficients`, and their Jacobian: row i holds the
    derivatives of (a0, a1, noise) in the i-th of (omega, mu, sigma2) and,
    for ZMNB, a.  The averages' partials of :func:`_clip_average_tangents`
    are carried to (mu, sigma2) and through the coefficients by a complex
    step."""
    beta = mu / sigma2
    d, dd = _clip_average_tangents(family, omega, beta, mu * beta, a, c)
    dd[1], dd[2] = _moment_partials(mu, sigma2, dd[1], dd[2])
    vb = vbar_from(family, omega, mu, sigma2, a, c)
    coeffs = ObsCoefficients(*map(float, _clipped_coefficients(omega, mu, sigma2, vb, *d)))
    step = 1e-20
    rows = []
    for i, d_row in enumerate((d + 1j * step * dd).tolist()):
        w_c, mu_c, s_c, a_c = (
            x + 1j * step * (i == j) for j, x in enumerate((omega, mu, sigma2, a))
        )
        vb_c = vbar_from(family, w_c, mu_c, s_c, a_c, c)
        rows.append(_clipped_coefficients(w_c, mu_c, s_c, vb_c, *d_row))
    return coeffs, np.array(rows).imag / step


@functools.lru_cache(maxsize=32)
def _gamma_rule(p: float, n: int = 64):
    """n-point Gauss rule for the Gamma(p, rate 1) law: nodes and weights
    summing to one, from the generalized Laguerre recurrence (Golub-Welsch).
    Cached and read-only, so that the zero-mass tie's root search and the
    coefficients at one shape share it."""
    k = np.arange(n)
    nodes, vecs = eigh_tridiagonal(2.0 * k + p, np.sqrt(k[1:] * (k[1:] + p - 1.0)))
    weights = vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# the 64-node Gauss-Legendre rule on (-1, 1), nodes and weights halved
_LEGENDRE = tuple(0.5 * x for x in roots_legendre(64))


def _quadrature_clip_averages(family, omega, beta, p, a, c) -> np.ndarray:
    """The averages (E[D1], E[lam*D1], E[D2]) of :func:`_clip_averages` for
    any family and any intensity law, by a Gauss rule for the gamma law on
    its nodes up to the upper _CLIP_TAIL quantile; D has a kink at every
    lam_k, which limits the accuracy to about 1e-3 (absolute in a0,
    relative in a1 and the noise)."""
    nodes, weights = _gamma_rule(p)
    keep = nodes <= gammainccinv(p, _CLIP_TAIL)
    lam = nodes[keep] / beta
    w = weights[keep]
    d1, d2 = _clip_sums(family, lam, omega, a, c)
    return np.array([w @ d1, (w * lam) @ d1, w @ d2])


def _base_cdf(family, k, lam, a, c):
    """Baseline CDF F(k|lam), broadcast over k and lam."""
    if family == CountFamily.ZMP or a == 0.0:
        return gammaincc(k + 1.0, lam)
    r, q0 = _nb_shape_prob(lam, a, c)
    return betainc(r, k + 1.0, q0)


def _clip_points(family, k, tau, a, c):
    """The intensity lam_k at which F(k|lam_k) = tau; F decreases in lam."""
    if family == CountFamily.ZMP or a == 0.0:
        return gammainccinv(k + 1.0, tau)
    if c == 1:  # r = 1/a, q0 = 1/(1+a*lam)
        return (1.0 / betaincinv(1.0 / a, k + 1.0, tau) - 1.0) / a
    return a * nbdtrin(k, tau, 1.0 / (1.0 + a))  # r = lam/a, q0 = 1/(1+a)


def _quadrature_marginal_cdf(family, omega, beta, p, a, c, k):
    """E[max(0, g_k)], g_k = omega + (1-omega)*F(k|lam), under the Gamma(p,
    rate beta) law: the marginal CDF at the counts ``k`` of the law the
    sampler draws.

    E[g_k] is averaged by the 64-node rule of :func:`_gamma_rule`.  For
    omega < 0 the clip subtracts E[min(0, g_k)], the average of g_k beyond its
    kink lam_k, which a 64-node Gauss-Legendre rule in the gamma CDF over
    (lam_k, inf) integrates without crossing the kink; kinks beyond the
    _CLIP_TAIL quantile are dropped.
    """
    nodes, weights = _gamma_rule(p)
    cdf = weights @ (omega + (1.0 - omega) * _base_cdf(family, k, nodes[:, None] / beta, a, c))
    if omega < 0.0:
        tail = gammaincc(p, beta * _clip_points(family, k, -omega / (1.0 - omega), a, c))
        live = tail > _CLIP_TAIL
        s, ws = _LEGENDRE
        lam = gammainccinv(p, np.outer(tail[live], 0.5 - s)) / beta
        g = omega + (1.0 - omega) * _base_cdf(family, k[live, None], lam, a, c)
        cdf[live] -= tail[live] * (g @ ws)
    return cdf


def _clip_top(beta: float, p: float) -> float:
    """Upper _CLIP_TAIL quantile of the Gamma(p, rate beta) intensity law."""
    return float(gammainccinv(p, _CLIP_TAIL)) / beta


def _marginal_probs(family, omega, beta, p, a, c, kmax: int) -> np.ndarray:
    """Marginal P(Y=k), k = 0..kmax, of the law the sampler draws under the
    Gamma(p, rate beta) intensity law; see
    :func:`zmcounts.diagnostics.fitted_marginal_probs`."""
    lam_k = _closed_form_knots(family, omega, beta, p, a) if omega < 0.0 else None
    if family != CountFamily.ZMP or (omega < 0.0 and lam_k is None):
        cdf = _quadrature_marginal_cdf(family, omega, beta, p, a, c, np.arange(kmax + 1.0))
        # rounding and the rules' error can leave far-tail increments below zero
        return np.maximum(np.diff(cdf, prepend=0.0), 0.0)
    k = np.arange(kmax + 1.0)
    log_base = (
        p * np.log(beta)
        + gammaln(p + k)
        - gammaln(k + 1.0)
        - gammaln(p)
        - (p + k) * np.log(beta + 1.0)
    )
    probs = (1.0 - omega) * np.exp(log_base)
    probs[0] += omega
    if omega < 0.0:
        e0 = _zmp_clip_terms(omega, beta, np.array([[p]]), lam_k)[0][0, 0, : kmax + 1]
        clip = np.pad(e0, (0, kmax + 1 - len(e0)))
        probs = np.maximum(probs - np.diff(clip, prepend=0.0), 0.0)
    return probs


def observation_coefficients(
    family: CountFamily, omega: float, mu: float, sigma2: float, a: float = 0.0, c: int = 1
) -> ObsCoefficients:
    """Coefficients of the filter's linear observation equation under the
    stationary gamma intensity marginal (mean mu, variance sigma2).

    ``a1 = Cov(Y, lambda)/sigma2``, ``a0 = E[Y] - a1*mu`` and
    ``noise = Var(Y) - a1**2*sigma2``; by the projection identity the noise is
    E[Var(Y|lambda)] plus the part of E[Y|lambda] that is not linear in
    lambda.  For omega >= 0 the clip never binds and the coefficients are
    exactly ``(0, 1-omega, (1-omega)*vbar)``.  For omega < 0 they are moments
    of the clipped law the sampler draws: closed form for ZMP (intensity laws
    within lambda = 256), Gauss quadrature otherwise.
    """
    one_w = 1.0 - omega
    vb = vbar_from(family, omega, mu, sigma2, a, c)
    if omega >= 0.0:
        return ObsCoefficients(0.0, one_w, one_w * vb)
    beta = mu / sigma2
    d = _clip_averages(family, omega, beta, mu * beta, a, c)
    return ObsCoefficients(*map(float, _clipped_coefficients(omega, mu, sigma2, vb, *d)))


def spec_coefficients(spec: ModelSpec) -> ObsCoefficients:
    """Observation coefficients of a model at its own parameters."""
    pp = spec.params
    return observation_coefficients(
        spec.family, pp.omega, pp.mu_lambda, pp.sigma2_lambda, pp.a, pp.c
    )


def marginal_count_moments(spec: ModelSpec) -> tuple[float, float]:
    """Unconditional mean and variance of the count process: ``a0 + a1*mu``
    and ``a1^2*sigma2 + noise`` from :func:`spec_coefficients`, so they are
    those of the law the sampler draws at every omega."""
    a0, a1, noise = spec_coefficients(spec)
    pp = spec.params
    return a0 + a1 * pp.mu_lambda, a1**2 * pp.sigma2_lambda + noise


def count_acf(spec: ModelSpec, k: int) -> float:
    """Lag-k autocorrelation of the counts, ``a1^2*sigma2*rho^k / Var(Y)`` with
    ``Var(Y) = a1^2*sigma2 + noise``; bounded above by the intensity ACF.

    Exact for omega >= 0, where E[Y|lambda] is linear in lambda.  For
    omega < 0 it is the autocorrelation of the linear projection a0 + a1*lambda
    that the filter uses; the clipped mean's non-linear part adds a little
    (at lag 1, 0.3484 against 0.349 on 1e6 simulated counts for omega -0.2,
    rho 0.8, beta 2, p 4).
    """
    if k < 1:
        raise InvalidSpecError(f"lag must be >= 1, got {k}")
    _, a1, noise = spec_coefficients(spec)
    signal = a1**2 * spec.params.sigma2_lambda
    return signal * spec.params.rho**k / (signal + noise)


# the largest double below 1: the cap on the baseline CDF level u
_U_MAX = np.nextafter(1.0, 0.0)


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest k >= 0 with ``pdtr(k, lam) >= u``, elementwise, for 0 < u < 1.

    The search starts at the Cornish-Fisher guess
    ``floor(lam + sqrt(lam)*z + (z**2 - 1)/6)`` with ``z = ndtri(u)``, which
    is at most a step from the answer except far in the tails, and moves each
    draw one count at a time until the CDF brackets u; only the draws still
    moving are evaluated.
    ``scipy.stats.poisson.ppf`` makes the same ``pdtr`` comparison after its
    ``pdtrik`` inversion but moves at most one step, so it returns the same
    count except where u lies within a few ulps of a CDF step or of 0 or 1,
    where ``pdtrik`` can miss by more and this search stays exact.
    """
    z = ndtri(u)
    k = np.maximum(np.floor(lam + np.sqrt(lam) * z + (z * z - 1.0) / 6.0), 0.0)
    low = pdtr(k, lam) < u
    i = np.flatnonzero(low)  # step up: ends because pdtr(k, lam) -> 1 > u
    while i.size:
        k[i] += 1.0
        i = i[pdtr(k[i], lam[i]) < u[i]]
    i = np.flatnonzero(~low & (k > 0))  # step down: ends at k = 0 at the latest
    while i.size:
        i = i[pdtr(k[i] - 1.0, lam[i]) >= u[i]]
        k[i] -= 1.0
        i = i[k[i] > 0]
    return k


def zm_sample(
    family: CountFamily,
    lambda_path: np.ndarray,
    params: Params,
    rng: np.random.Generator,
    on_infeasible: str = "raise",
) -> np.ndarray:
    """Draw counts independently across t from the zero-modified law at each lambda_t.

    Sampling is exact inverse-CDF over the modified pmf: with U uniform, the
    modified CDF ``omega + (1-omega)*F_base(k)`` exceeds U at the baseline
    quantile of ``(U-omega)/(1-omega)``, which handles inflation and deflation
    alike.  Feasibility of omega is checked for every lambda_t; with
    ``on_infeasible="truncate"`` violating steps fall back to the boundary
    (zero-truncated) law implied by the same inverse-CDF construction instead
    of raising.

    The ZMP quantile is the smallest k with ``pdtr(k, lambda_t) >= u``, found
    by a search from a normal-approximation start (``_poisson_quantile``); u
    is capped below 1, so the CDF reaches it and the search ends.  The ZMNB
    quantile is ``nbinom.ppf``.
    A non-positive or non-finite lambda_t raises ``InvalidSpecError`` naming
    the first such index.
    """
    lam = np.asarray(lambda_path, dtype=float)
    bad = ~((lam > 0) & (lam < np.inf))
    if np.any(bad):
        t = int(np.argmax(bad))
        raise InvalidSpecError(
            f"intensity path must be finite and strictly positive; lambda[{t}] = {lam[t]}"
        )
    if on_infeasible not in ("raise", "truncate"):
        raise InvalidSpecError(f"unknown on_infeasible mode: {on_infeasible!r}")
    if on_infeasible == "raise" and params.omega < 0:
        p0 = baseline_zero_prob(family, lam, params.a, params.c)
        bad = params.omega < -p0 / (1.0 - p0)
        if np.any(bad):
            t = int(np.argmax(bad))
            raise InfeasibleOmegaError(params.omega, -p0[t] / (1 - p0[t]), lam[t], t)
    w = params.omega
    # u <= 1 in floating point; under deflation the largest U, 1 - 2**-53,
    # can round to u = 1.0 (at omega = -0.2, for one), and the cap keeps
    # every quantile finite
    u = np.minimum((rng.random(lam.shape) - w) / (1.0 - w), _U_MAX)
    y = np.zeros(lam.shape, dtype=np.int64)
    pos = u > 0.0  # u <= 0 only under inflation: emit the modified zero directly
    if np.any(pos):
        if family == CountFamily.ZMP:
            q = _poisson_quantile(u[pos], lam[pos])
        else:
            r, q0 = _nb_shape_prob(lam[pos], params.a, params.c)
            q = nbinom.ppf(u[pos], r, q0)
        y[pos] = q.astype(np.int64)
    return y
