"""Parameter estimation built on martingale estimating functions.

Everything revolves around the one-step prediction errors of the generalized
Kalman filter, ``h_t = y_t - a0 - a1*(rho*lhat_{t-1} + (1-rho)*mu)`` with the
filter's observation coefficients (``a0 = 0``, ``a1 = 1-omega`` for
omega >= 0; moments of the truncated law for omega < 0), which have mean zero
at the true parameters.  The fit minimizes the innovation quasi-deviance
``sum(h^2/J + log J)`` over the intensity parameters and, for ZMNB, the
dispersion a, augmented by standardized whiteness and level orthogonality
conditions, with the zero-modification parameter tied to the model's exact
marginal zero-mass identity.  The objective's exact gradient, the chain
rule through the zero-mass tie (implicit derivative), the observation
coefficients and the filter (:func:`~zmcounts.filtering.forward_adjoint`), is
the estimating-equation system the bounded quasi-Newton solve drives to
zero, in variables scaled by the start's magnitudes.  For ZMP at
omega < 0 the derivatives of the clipped law's coefficients and zero mass are
closed form but for one central difference in the gamma shape p, and one
call gives the coefficients with their Jacobian.
``(beta, p)`` are recovered as ``beta = mu/sigma2``, ``p = mu*beta``.
Moment-based initializers (closed form where available, grid search
otherwise) provide starting points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import InfeasibleInitError
from .filtering import forward_adjoint, forward_pass, gkf_filter
from .filtering import variance_path  # noqa: F401  (looked up here by perfbench/tracing.py)
from .intensity import IntensityFamily
from .observation import (
    _DIFF_STEP,
    CountFamily,
    ModelSpec,
    Params,
    _central_differences,
    _moment_partials,
    as_count_series,
    clipped_coefficients,
    marginal_zero_prob,
    observation_coefficients,
    vbar_from,
    zmp_zero_mass_omega,
    zmp_zero_mass_slopes,
)

# bounds of the quasi-Newton solve and of the zero-mass tie
_MU_MIN = 1e-4
_SIGMA2_MIN = 1e-6
_RHO_MAX = 0.999
_OMEGA_MIN = -0.95
_OMEGA_MAX = 0.999
_A_MIN = 1e-4
_A_MAX = 10.0
_BIG = 1e18


@dataclass
class SampleMoments:
    """Sample mean, variance, lag-1 ACF and first three factorial moments."""

    ybar: float
    s2: float
    r1: float
    factorial: tuple[float, float, float]

    @classmethod
    def from_series(cls, series) -> "SampleMoments":
        y = as_count_series(series).astype(float)
        ybar = float(y.mean())
        s2 = float(y.var(ddof=1)) if len(y) > 1 else 0.0
        yc = y - ybar
        denom = float(np.sum(yc**2))
        r1 = float(np.sum(yc[:-1] * yc[1:]) / denom) if denom > 0 else 0.0
        fac = (
            ybar,
            float(np.mean(y * (y - 1.0))),
            float(np.mean(y * (y - 1.0) * (y - 2.0))),
        )
        return cls(ybar=ybar, s2=s2, r1=r1, factorial=fac)


@dataclass
class FitResult:
    """Outcome of the iterative filter/estimate loop."""

    params_hat: Params
    family: CountFamily
    intensity_family: IntensityFamily
    iterations: int
    n_eval: int
    converged: bool
    trace: list[Params]
    filtered: np.ndarray
    residuals: np.ndarray
    grad_norm: float
    stop: str
    se: dict | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec.create(
            self.family,
            self.intensity_family,
            omega=self.params_hat.omega,
            rho=self.params_hat.rho,
            beta=self.params_hat.beta,
            p=self.params_hat.p,
            a=self.params_hat.a,
            c=self.params_hat.c,
        )

    def to_dict(self) -> dict:
        ph = self.params_hat
        return {
            "estimates": {
                "omega": ph.omega,
                "rho": ph.rho,
                "beta": ph.beta,
                "p": ph.p,
                "a": ph.a,
                "c": ph.c,
                "mu_lambda": ph.mu_lambda,
                "sigma2_lambda": ph.sigma2_lambda,
            },
            "se": self.se,
            "family": self.family.value,
            "intensity_family": self.intensity_family.value,
            "iterations": self.iterations,
            "n_eval": self.n_eval,
            "converged": self.converged,
            "grad_norm": self.grad_norm,
            "stop": self.stop,
            "notes": self.notes,
            "trace": [
                {"omega": t.omega, "rho": t.rho, "beta": t.beta, "p": t.p, "a": t.a}
                for t in self.trace
            ],
        }


@dataclass(frozen=True)
class _Solve:
    """One bounded solve: the estimates (``a`` is the dispersion the solve
    ended at, the start's for ZMP), whether the fit converged, its iteration
    and objective-and-gradient evaluation counts, and why it stopped:
    ``gradient`` (the projected gradient test), ``objective`` (the
    relative-reduction test), ``max_iter`` or ``abnormal`` (the line search
    failed)."""

    w: float
    mu: float
    rho: float
    sigma2: float
    a: float
    converged: bool
    n_iter: int
    n_eval: int
    grad_norm: float
    stop: str


def _stop_reason(res) -> str:
    """Why an L-BFGS-B solve stopped, from its status and message."""
    if res.status == 1:
        return "max_iter"
    if res.status == 0:
        return "objective" if "REDUCTION" in res.message else "gradient"
    return "abnormal"


def _theta_params(omega, mu, rho, sigma2, a, c) -> Params:
    beta = mu / sigma2
    return Params(omega=omega, rho=rho, beta=beta, p=mu * beta, a=a, c=c)


def moment_init_ear1(moments: SampleMoments, c: int = 1) -> Params:
    """Closed-form moment initializer for the exponential-intensity model."""
    ybar, s2, r1 = moments.ybar, moments.s2, moments.r1
    if ybar <= 0:
        raise InfeasibleInitError("sample mean must be positive")
    z = (s2 / ybar - 1.0) / ybar
    if z <= -1.0:
        raise InfeasibleInitError(f"moment ratio z={z:.4g} <= -1")
    omega = (z - 1.0) / (z + 1.0)
    if omega >= 1.0:
        raise InfeasibleInitError(f"initial omega={omega:.4g} out of bounds")
    mu = ybar / (1.0 - omega)
    rho = r1 * (1.0 + (1.0 + omega) * mu) / ((1.0 - omega) * mu)
    if not 0.0 <= rho < 1.0:
        raise InfeasibleInitError(f"initial rho={rho:.4g} outside [0, 1)")
    if mu <= 0:
        raise InfeasibleInitError(f"initial mu={mu:.4g} not positive")
    return Params(omega=omega, rho=rho, beta=1.0 / mu, p=1.0, a=0.0, c=c)


def moment_init_gar1_factorial(moments: SampleMoments, c: int = 1) -> Params:
    """Factorial-moment initializer for the gamma-intensity Poisson model."""
    y1, y2, y3 = moments.factorial
    if min(y1, y2, y3) <= 0:
        raise InfeasibleInitError("factorial moments must all be positive")
    r2 = y2 / y1
    r3 = y3 / y2
    if r3 <= r2:
        raise InfeasibleInitError(f"factorial ratios not increasing (r2={r2:.4g}, r3={r3:.4g})")
    beta = 1.0 / (r3 - r2)
    p = r2 * beta - 1.0
    if p <= 0:
        raise InfeasibleInitError(f"initial p={p:.4g} not positive")
    omega = 1.0 - y1 * beta / p
    if omega >= 1.0:
        raise InfeasibleInitError(f"initial omega={omega:.4g} out of bounds")
    mu = p / beta
    s2 = p / beta**2
    rho = moments.r1 * (mu + s2 + omega * mu**2) / ((1.0 - omega) * s2)
    if not 0.0 <= rho < 1.0:
        raise InfeasibleInitError(f"initial rho={rho:.4g} outside [0, 1)")
    return Params(omega=omega, rho=rho, beta=beta, p=p, a=0.0, c=c)


@dataclass(frozen=True)
class GridConfig:
    """Per-parameter (low, high, points) ranges for the initializing grid search."""

    rho: tuple[float, float, int] = (0.05, 0.95, 10)
    omega: tuple[float, float, int] = (-0.4, 0.9, 14)
    beta: tuple[float, float, int] = (0.25, 5.0, 10)
    p: tuple[float, float, int] = (0.25, 5.0, 10)
    a: tuple[float, float, int] = (0.05, 2.0, 8)


def grid_search_init(
    series,
    family: CountFamily,
    intensity_family: IntensityFamily,
    c: int = 1,
    grid: GridConfig | None = None,
) -> Params:
    """Pick the grid point whose model moments (mean, variance, lag-1 ACF)
    best match the sample moments in squared error.

    The grid's points and model moments do not depend on the data, so they
    are built once per (family, intensity family, c, grid) and kept; each
    call computes only the three moment distances and their minimum."""
    axes, index, mean, var, acf1 = _grid_moments(
        CountFamily(family), IntensityFamily(intensity_family), c, grid or GridConfig()
    )
    mom = SampleMoments.from_series(series)
    obj = (mean - mom.ybar) ** 2 + (var - mom.s2) ** 2 + (acf1 - mom.r1) ** 2
    if not np.isfinite(obj).any():
        raise InfeasibleInitError("no feasible grid point")
    point = np.unravel_index(index[np.argmin(obj)], [len(ax) for ax in axes])
    omega, rho, beta, p, a = (float(ax[i]) for ax, i in zip(axes, point))
    return Params(omega=omega, rho=rho, beta=beta, p=p, a=a, c=c)


@functools.lru_cache(maxsize=16)
def _grid_moments(
    family: CountFamily, intensity_family: IntensityFamily, c: int, grid: GridConfig
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The initializer grid's axes (omega, rho, beta, p, a), the flat
    indices of its feasible points in row-major order, and the model mean,
    variance and lag-1 ACF at each of those points.  Read-only: every caller
    shares them."""
    rho = np.linspace(*grid.rho)
    omega = np.linspace(*grid.omega)
    beta = np.linspace(*grid.beta)
    if intensity_family == IntensityFamily.EAR1:
        p = np.array([1.0])
    else:
        p = np.linspace(*grid.p)
    a = np.linspace(*grid.a) if family == CountFamily.ZMNB else np.array([0.0])

    W, R, B, P, A = np.meshgrid(omega, rho, beta, p, a, indexing="ij")
    mu = P / B
    s2 = P / B**2
    mean = (1.0 - W) * mu
    # moments of the unclipped law at every point, negative omega included:
    # the clipped law's coefficients cost too much per point for this grid
    vb = vbar_from(family, W, mu, s2, A, c)
    var = (1.0 - W) * (vb + (1.0 - W) * s2)
    acf1 = (1.0 - W) * s2 * R / np.where(var > 0, var / (1.0 - W), np.nan)
    feasible = (var > 0) & (vb > 0)
    axes = (omega, rho, beta, p, a)
    out = (np.flatnonzero(feasible), mean[feasible], var[feasible], acf1[feasible])
    for arr in axes + out:
        arr.flags.writeable = False
    return (axes,) + out


def default_init(
    series,
    family: CountFamily,
    intensity_family: IntensityFamily,
    c: int = 1,
) -> Params:
    """Closed-form moment initializer with grid-search fallback."""
    if family == CountFamily.ZMP:
        mom = SampleMoments.from_series(series)
        try:
            if intensity_family == IntensityFamily.EAR1:
                return moment_init_ear1(mom, c=c)
            return moment_init_gar1_factorial(mom, c=c)
        except InfeasibleInitError:
            pass
    return grid_search_init(series, family, intensity_family, c=c)


class _FitCore:
    """Engine of the fit.

    Works on the innovation quasi-deviance Q = mean(h^2/J + log J) of the
    self-consistently filtered series.  (mu, rho, sigma2) and, for ZMNB, the
    dispersion a minimize Q jointly (sigma2 is tied to mu^2 under an
    exponential marginal), with omega solved from the exact marginal
    zero-mass identity at every trial point.  One bounded L-BFGS-B solve
    (:meth:`run`) finds the minimum for every family; its stationarity
    conditions, like the zero-mass tie, are martingale estimating functions,
    so the root keeps the unbiasedness structure of the published system
    while being fully identified.

    ``a`` is the dispersion at which :meth:`deviance` and the tie are
    evaluated: fixed for ZMP, the start of the solve for ZMNB, whose
    :meth:`objective` sets it from each trial point.  ``per_step`` selects
    the ZMP variance weights for the whole fit (see :meth:`deviance`), so
    that the objective keeps one form at every trial point.
    """

    def __init__(self, yf, family, ear1, a, c, p0hat):
        self.yf = yf
        self.n = len(yf)
        self.family = family
        self.ear1 = ear1
        self.a = a
        self.c = c
        self.p0hat = p0hat
        self.per_step = False

    def deviance(self, w, mu, rho, sigma2, tangents=None):
        """Innovation quasi-deviance plus the innovation-whiteness quadratic.

        The prediction-error deviance alone is blind to serial correlation of
        the standardized innovations, which opens a spurious valley where the
        average conditional variance collapses and the filter over-tracks the
        data; the whiteness term (an orthogonality condition with its
        efficient weight, contributing O(1/n) at the truth) closes it.

        J is either the filter's own prediction-error variance a1^2*C + s or,
        with ``per_step``, the predictive variance at each step's prediction.
        A fit keeps one choice throughout: switching at omega = 0 would put a
        jump in the deviance there that draws the fit to omega = 0.

        With ``tangents``, a (k, 4) array whose rows are derivatives of
        (omega, mu, rho, sigma2) along k directions, (k, 5) with a last for
        ZMNB, returns the value and its k directional derivatives (zeros where
        the value is ``_BIG``).
        """
        flat = _BIG if tangents is None else (_BIG, np.zeros(len(tangents)))
        if not (w < 1.0 and mu > 0 and sigma2 > 0 and 0.0 <= rho <= _RHO_MAX):
            return flat
        if w < 0.0 and tangents is not None:  # with their Jacobian, in one call
            obs, jac = clipped_coefficients(self.family, w, mu, sigma2, self.a, self.c)
        else:
            obs = observation_coefficients(self.family, w, mu, sigma2, self.a, self.c)
        if not obs.noise > 0:
            return flat
        fp = forward_pass(self.yf, obs, rho, mu, sigma2, mu)
        pred, cp, h = fp.pred, fp.cp, fp.innovation
        if self.per_step:
            # per-step predictive variance: conditional count variance at the
            # prediction (F_{t-1}-measurable) with a curvature correction;
            # much more efficient than the stationary average when the
            # intensity range is wide
            v_t = np.maximum((1.0 + w * pred) * pred + w * cp, 1e-8)
            jvar = (1.0 - w) ** 2 * cp + (1.0 - w) * v_t
        else:
            jvar = fp.jvar
        n = self.n
        root = np.sqrt(jvar)
        hs = h / root
        r, inv = h / jvar, 1.0 / jvar
        white_sum = (hs[1:] * hs[:-1]).sum()
        r_sum, inv_sum = r.sum(), inv.sum()
        q = float((h**2 / jvar + np.log(jvar)).sum() / n)
        # whiteness and level orthogonality conditions, each standardized so
        # the contribution at the truth is O(chi2_1/n)
        q += float(white_sum**2) / n**2
        q += float(r_sum**2 / inv_sum) / n
        if not math.isfinite(q):
            return flat
        if tangents is None:
            return q
        # (g_h, g_j): the gradient of q in (h, J), with r = h/J
        nbr = np.zeros(n)  # hs_{t-1} + hs_{t+1}
        nbr[1:] += hs[:-1]
        nbr[:-1] += hs[1:]
        white = float(white_sum) / n
        level = float(r_sum / inv_sum)
        m = r + white * nbr / root + level * inv
        g_h = (2.0 / n) * m
        g_j = (inv - r * m + level * inv * (level * inv - r)) / n
        # chain rule through h = y - a0 - a1*pred and J to the filter's
        # outputs (pred, cp, jvar), whose weights forward_adjoint carries
        # back to (a0, a1, noise, rho, mu, sigma2, lam0 = mu)
        # jac's rows are in (omega, mu, sigma2[, a])
        d_obs = (tangents[:, [0, 1, 3, 4][: len(jac)]] @ jac if w < 0.0
                 else self.coefficient_tangents(w, mu, sigma2, obs, tangents))
        direct = -d_obs[:, 0] * float(g_h.sum()) - d_obs[:, 1] * float(g_h @ pred)
        w_pred = -obs.a1 * g_h
        if self.per_step:
            # J = (1-w)^2*cp + (1-w)*v_t; the floor of v_t holds its value
            g_v = np.where(v_t > 1e-8, (1.0 - w) * g_j, 0.0)
            weights = (
                w_pred + g_v * (1.0 + 2.0 * w * pred), (1.0 - w) ** 2 * g_j + w * g_v,
                np.zeros(n),
            )
            direct += tangents[:, 0] * float(
                g_v @ (pred**2 + cp) - g_j @ (v_t + 2.0 * (1.0 - w) * cp)
            )
        else:
            weights = (w_pred, np.zeros(n), g_j)
        grad = forward_adjoint(obs, rho, mu, sigma2, mu, fp, weights)
        return q, direct + d_obs @ grad[:3] + tangents[:, [2, 1, 3, 1]] @ grad[3:]

    def coefficient_tangents(self, w, mu, sigma2, obs, tangents):
        """Derivatives of the observation coefficients (a0, a1, noise) at
        omega >= 0 along each row of ``tangents`` (see :meth:`deviance`):
        (0, -dw, d((1-w)*vbar)), where vbar is a polynomial, so a complex
        step gives its derivative to rounding without a second copy of the
        formula."""
        dw, dmu, dsig = tangents[:, [0, 1, 3]].T
        # the dispersion moves only in ZMNB fits
        da = tangents[:, 4] if tangents.shape[1] > 4 else np.zeros(len(tangents))
        step = 1e-20
        dvb = vbar_from(
            self.family, w + 1j * step * dw, mu + 1j * step * dmu,
            sigma2 + 1j * step * dsig, self.a + 1j * step * da, self.c,
        ).imag / step
        vb = obs.noise / (1.0 - w)  # noise = (1-w)*vbar
        return np.column_stack([np.zeros(len(tangents)), -dw, (1.0 - w) * dvb - dw * vb])

    def zeros_resid(self, w, mu, sigma2, a):
        beta = mu / sigma2
        return self.p0hat - marginal_zero_prob(self.family, w, beta, mu * beta, a, self.c)

    def tie_slope(self, w, mu, sigma2):
        """(d omega/d mu, d omega/d sigma2[, d omega/d a]) along the
        zero-mass tie at its root ``w``, with the slope in a for ZMNB only:
        the implicit derivative -(dP0/dtheta)/(dP0/domega) of the marginal
        zero mass P0, and zero where the tie is pinned at a bound.

        For ZMP at omega >= 0, P0 = omega + (1-omega)*Z with
        Z = (beta/(beta+1))^p in closed form.  Otherwise P0's partials are
        taken in (omega, beta, p[, a]) and carried to (mu, sigma2) by
        :func:`~zmcounts.observation._moment_partials`.  For ZMP at
        omega < 0 those in omega and beta are closed form
        (:func:`~zmcounts.observation.zmp_zero_mass_slopes`) and the one in
        p is a central difference of :func:`marginal_zero_prob`.  For ZMNB
        all four are central differences; all but the one in p keep the
        gamma shape, so they share one cached Gauss rule, and the shapes
        p +- h are those of the coefficients' differences."""
        zmnb = self.family == CountFamily.ZMNB
        if not _OMEGA_MIN < w < _OMEGA_MAX:
            return (0.0,) * (3 if zmnb else 2)
        beta = mu / sigma2
        p = mu * beta
        if zmnb:
            d_w, d_beta, d_p, d_a = _central_differences(
                lambda x: marginal_zero_prob(self.family, *x, self.c),
                np.array([w, beta, p, self.a]),
            )
            slope_a = (-d_a / d_w,)
        elif w < 0.0:
            d_w, d_beta = zmp_zero_mass_slopes(w, beta, p)
            hi, lo = p * (1.0 + _DIFF_STEP), p * (1.0 - _DIFF_STEP)
            d_p = (marginal_zero_prob(self.family, w, beta, hi)
                   - marginal_zero_prob(self.family, w, beta, lo)) / (hi - lo)
            slope_a = ()
        else:
            log_z = p * (math.log(beta) - math.log(beta + 1.0))
            z = math.exp(log_z)
            scale = -(1.0 - w) * z / (1.0 - z)  # times d log Z
            return (
                scale * (beta / (beta + 1.0) + 2.0 * log_z / mu),
                -scale * (p / (beta + 1.0) + log_z) / sigma2,
            )
        d_mu, d_sigma2 = _moment_partials(mu, sigma2, d_beta, d_p)
        return (-d_mu / d_w, -d_sigma2 / d_w) + slope_a

    def tied_omega(self, mu, sigma2):
        """Zero-mass root in omega at fixed (mu, sigma2).

        The truncation-aware marginal zero probability is monotone increasing
        in omega (envelope argument at the clip boundary), so the root is
        unique; a same-sign range returns the nearer boundary.  ZMP roots
        below zero, where the zero mass is convex, are found by Newton's
        method; all others are bracketed.  No floor beyond ``_OMEGA_MIN`` is
        needed: the clipped law's observation noise, E[Var(Y|lambda)] plus
        the non-linear part of its mean, is positive at every omega.
        """
        if self.family == CountFamily.ZMP:
            beta = mu / sigma2
            if self.p0hat < marginal_zero_prob(self.family, 0.0, beta, mu * beta):
                return zmp_zero_mass_omega(self.p0hat, beta, mu * beta, _OMEGA_MIN)
        r_lo = self.zeros_resid(_OMEGA_MIN, mu, sigma2, self.a)
        r_hi = self.zeros_resid(_OMEGA_MAX, mu, sigma2, self.a)
        if not (np.isfinite(r_lo) and np.isfinite(r_hi)):
            return None
        if r_lo <= 0.0:  # residual decreasing in omega: root below the floor
            return _OMEGA_MIN
        if r_hi >= 0.0:
            return _OMEGA_MAX
        return float(brentq(
            lambda x: self.zeros_resid(x, mu, sigma2, self.a), _OMEGA_MIN, _OMEGA_MAX, xtol=1e-12
        ))

    def objective(self, x):
        """Penalized deviance over (mu, rho[, sigma2][, a]) with omega tied
        to the zero-mass identity, and its gradient in x; fully joint, so no
        alternation path-dependence.  The gradient is the chain rule through
        the tie (:meth:`tie_slope`) and the deviance (:meth:`deviance`)."""
        zmnb = self.family == CountFamily.ZMNB
        if zmnb:
            x, self.a = x[:-1], float(x[-1])
        if self.ear1:
            mu, rho = x
            sigma2 = mu**2
        else:
            mu, rho, sigma2 = x
        if not (mu > 0 and sigma2 > 0 and 0.0 <= rho <= _RHO_MAX):
            return _BIG, np.zeros(len(x) + zmnb)
        w = self.tied_omega(mu, sigma2)
        if w is None:
            return _BIG, np.zeros(len(x) + zmnb)
        slopes = self.tie_slope(w, mu, sigma2)
        w_mu, w_s2 = slopes[:2]
        # rows: d(omega, mu, rho, sigma2) along each component of x
        if self.ear1:
            rows = [[w_mu + 2.0 * mu * w_s2, 1.0, 0.0, 2.0 * mu], [0.0, 0.0, 1.0, 0.0]]
        else:
            rows = [[w_mu, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [w_s2, 0.0, 0.0, 1.0]]
        if zmnb:  # a fifth column, and a last row for a itself
            rows = [row + [0.0] for row in rows] + [[slopes[2], 0.0, 0.0, 0.0, 1.0]]
        return self.deviance(w, mu, rho, sigma2, np.array(rows))

    def run(self, w0, mu0, rho0, sigma20, tol, max_iter) -> _Solve:
        """Bounded quasi-Newton minimization of :meth:`objective`.

        L-BFGS-B on the objective's analytic gradient, started from the point
        clipped into the bounds (for ZMNB, a starts at ``self.a`` and is
        bounded to [``_A_MIN``, ``_A_MAX``]), stops once the projected
        gradient's max-norm is at most ``tol`` (or the objective's relative
        decrease falls below 1e-15, after which it restarts once from where
        it stopped) and gives up after ``max_iter`` iterations in all.  It
        solves in the scaled variables u = x/s, s = max(|x0|, 1) per
        component of the clipped start, so that mu and
        sigma2 of a few units and rho below one move on comparable scales;
        each trial u*s is clipped into the raw bounds, where rounding could
        otherwise step past them.  Since s >= 1, the gradient test in u
        implies ``grad_norm <= tol`` in raw units.  ``grad_norm`` is the
        max-norm of the final raw gradient with the components zeroed where
        an active bound blocks descent; ``w0`` stands in for omega if the tie
        fails at the solution.

        The fit converged if the solve stopped on the gradient test, the tie
        is evaluable at the solution and, for ZMNB, a and the tied omega lie
        strictly inside their bounds.
        """
        zmnb = self.family == CountFamily.ZMNB
        k = 2 if self.ear1 else 3
        lower = np.array([_MU_MIN, 0.0, _SIGMA2_MIN][:k] + [_A_MIN] * zmnb)
        upper = np.array([np.inf, _RHO_MAX, np.inf][:k] + [_A_MAX] * zmnb)
        x0 = np.array([mu0, rho0, sigma20][:k] + [self.a] * zmnb)
        scale = np.maximum(np.abs(np.clip(x0, lower, upper)), 1.0)

        def scaled(u):
            value, grad = self.objective(np.clip(u * scale, lower, upper))
            return value, grad * scale

        def solve(start, iters):
            return minimize(
                scaled, x0=start, jac=True, method="L-BFGS-B",
                bounds=list(zip(lower / scale, upper / scale)),
                options={"gtol": tol, "maxiter": iters, "ftol": 1e-15},
            )

        res = solve(x0 / scale, max_iter)
        n_iter, n_eval = res.nit, res.nfev
        if _stop_reason(res) == "objective" and n_iter < max_iter:
            # a step that gained nothing stops the solve without showing
            # stationarity; one restart drops the curvature memory that chose it
            res = solve(res.x, max_iter - n_iter)
            n_iter, n_eval = n_iter + res.nit, n_eval + res.nfev
        g = res.jac / scale
        blocked = ((res.x <= lower / scale) & (g > 0)) | ((res.x >= upper / scale) & (g < 0))
        grad_norm = float(np.max(np.abs(np.where(blocked, 0.0, g))))
        x = np.clip(res.x * scale, lower, upper)
        if zmnb:
            x, self.a = x[:-1], float(x[-1])
        if self.ear1:
            mu, rho = x
            sigma2 = float(mu**2)
        else:
            mu, rho, sigma2 = x
        w = self.tied_omega(mu, sigma2)
        stop = _stop_reason(res)
        converged = (
            stop == "gradient" and w is not None and res.fun < _BIG
            and (not zmnb or (_A_MIN < self.a < _A_MAX and _OMEGA_MIN < w < _OMEGA_MAX))
        )
        if w is None:
            w = w0
        return _Solve(
            float(w), float(mu), float(rho), float(sigma2), self.a, converged, int(n_iter),
            int(n_eval), grad_norm, stop,
        )


def solve_ef_block(
    series,
    spec: ModelSpec,
    init: Params | None = None,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> FitResult:
    """Run the estimating-function fit to a joint fixed point and return
    estimates, trace and the final filtered path.

    Filtering and condition-solving are interleaved inside :class:`_FitCore`
    (the filter is rebuilt for every visited parameter point), and one
    bounded quasi-Newton solve fits every parameter, the ZMNB dispersion
    included.  ``spec`` fixes the families and the dispersion form index; its
    parameter values serve as the starting point unless ``init`` is given.
    ``tol`` bounds the max-norm of the projected gradient at which the solve
    stops, and ``max_iter`` caps its iterations.  ``notes`` name a bound at
    which omega's zero-mass tie, rho or the dispersion a ended.
    """
    from .diagnostics import pearson_residuals, truncated_residuals

    y = as_count_series(series)
    yf = y.astype(float)
    p0hat = float(np.mean(y == 0))
    family = spec.family
    ifam = spec.intensity.family
    ear1 = ifam == IntensityFamily.EAR1
    cur = init if init is not None else spec.params
    if family == CountFamily.ZMNB and cur.a <= 0:
        cur = replace(cur, a=_A_MIN)
    notes: list[str] = []
    trace = [cur]
    w, mu, rho = cur.omega, cur.mu_lambda, cur.rho
    sigma2 = cur.sigma2_lambda
    core = _FitCore(yf, family, ear1, cur.a, c=cur.c, p0hat=p0hat)
    if family == CountFamily.ZMP:
        # ZMP fits whose zero mass calls for inflation at the start weight
        # each step by its predictive variance.  Under deflation that weight
        # biases the clipped law's estimates, so those fits keep the filter's
        # stationary weights, as ZMNB fits do: there the plug-in predictive
        # variance can be gamed by inflating the predicted level.
        w_start = core.tied_omega(mu, sigma2)
        core.per_step = (cur.omega if w_start is None else w_start) >= 0.0
    sol = core.run(w, mu, rho, sigma2, tol, max_iter)
    w, mu, rho, sigma2, a = sol.w, sol.mu, sol.rho, sol.sigma2, sol.a
    if w in (_OMEGA_MIN, _OMEGA_MAX):
        notes.append(f"omega ended at the bound {w:g} of its zero-mass tie")
    if rho in (0.0, _RHO_MAX):
        notes.append(f"rho ended at the bound {rho:g} of its solve")
    if family == CountFamily.ZMNB and a in (_A_MIN, _A_MAX):
        notes.append(f"a ended at the bound {a:g} of its solve")
    trace.append(_theta_params(w, mu, rho, sigma2, a, cur.c))
    cur = trace[-1]
    if ear1:  # sigma2 = mu^2 gives p = 1 only up to rounding
        cur = replace(cur, p=1.0)
    trace.append(cur)
    spec_hat = spec.with_params(cur)
    filt = gkf_filter(y, spec_hat)
    if cur.omega < 0.0:
        residuals = truncated_residuals(y, filt.lambda_filtered, cur, family)
    else:
        residuals = pearson_residuals(y, filt.lambda_filtered, cur, family)
    return FitResult(
        params_hat=cur,
        family=family,
        intensity_family=ifam,
        iterations=sol.n_iter,
        n_eval=sol.n_eval,
        converged=sol.converged,
        trace=trace,
        filtered=filt.lambda_filtered,
        residuals=residuals,
        grad_norm=sol.grad_norm,
        stop=sol.stop,
        notes=notes,
    )


def fit(
    series,
    family: CountFamily | str,
    intensity_family: IntensityFamily | str,
    c: int = 1,
    init: Params | None = None,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> FitResult:
    """Initializer chain plus :func:`solve_ef_block` in one call."""
    family = CountFamily(family)
    ifam = IntensityFamily(intensity_family)
    y = as_count_series(series)
    if init is None:
        init = default_init(y, family, ifam, c=c)
    template = ModelSpec.create(
        family, ifam, omega=init.omega, rho=init.rho, beta=init.beta,
        p=init.p, a=init.a, c=init.c,
    )
    return solve_ef_block(y, template, init=None, tol=tol, max_iter=max_iter)
