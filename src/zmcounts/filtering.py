"""Scalar generalized Kalman filter for latent intensity extraction.

The model in state-space form has the linear observation equation
``Y_t = a0 + a1*lambda_t + eps_t`` and AR(1) state
``lambda_t = rho*lambda_{t-1} + (1-rho)*mu + centered innovation``.  The
coefficients come from :func:`~zmcounts.observation.observation_coefficients`:
``a1 = Cov(Y, lambda)/sigma2``, ``a0 = E[Y] - a1*mu`` and a state-independent
noise variance ``s = Var(Y) - a1^2*sigma2`` under the stationary intensity
marginal.  For omega >= 0 they reduce to ``(0, 1-omega, (1-omega)*vbar)``: the
zero-modified mean ``(1-omega)*lambda_t`` with the state-dependent count
variance replaced by its stationary expectation.  For omega < 0 they are
moments of the clipped law the sampler draws where omega is infeasible.  The
filter runs the usual predict/update recursion on the scalar state:

    prediction   lhat_{t|t-1} = rho*lhat_{t-1|t-1} + (1-rho)*mu
    pred var     C_{t|t-1}    = rho^2*C_{t-1|t-1} + (1-rho^2)*sigma2
    gain         K_t = a1*C_{t|t-1} / (a1^2*C_{t|t-1} + s)
    update       lhat_{t|t}   = lhat_{t|t-1} + K_t*(y_t - a0 - a1*lhat_{t|t-1})
    error var    C_{t|t}      = (1 - K_t*a1)*C_{t|t-1}

The innovation ``h_t = y_t - a0 - a1*lhat_{t|t-1}`` has conditional mean zero;
its variance recorded per step is ``J_t = a1^2*C_{t|t-1} + s``, the
prediction-error variance implied by the same second-moment recursion (this
is what the sample variance of the innovations matches on simulated data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EstimationError, InvalidSpecError
from .intensity import ar1_filter
from .observation import (
    ModelSpec,
    ObsCoefficients,
    as_count_series,
    spec_coefficients,
)

# floor applied if a linear update ever produced a non-positive intensity
CLAMP_EPS = 1e-6

# relative gain change below which the variance recursion is treated as converged
_GAIN_TOL = 1e-14


@dataclass(frozen=True)
class FilterState:
    """Filtered intensity and its unconditional error variance at one step."""

    lambda_filtered: float
    error_var: float


@dataclass(frozen=True)
class FilterStep:
    """Per-step internals of the recursion (prediction, gain, innovation)."""

    prediction: float
    pred_var: float
    gain: float
    innovation: float
    innovation_var: float
    clamped: bool = False


@dataclass
class FilterResult:
    """Array view of a full forward pass; index t aligns with the input series."""

    lambda_filtered: np.ndarray
    error_var: np.ndarray
    prediction: np.ndarray
    pred_var: np.ndarray
    gain: np.ndarray
    innovation: np.ndarray
    innovation_var: np.ndarray
    clamped: np.ndarray

    def __len__(self) -> int:
        return len(self.lambda_filtered)


def _check_noise(noise: float) -> None:
    if noise <= 0:
        raise EstimationError(
            f"observation noise variance must be positive for filtering, got {noise:.6g}"
        )


def gkf_init(spec: ModelSpec, lambda0: float | None = None) -> tuple[float, float]:
    """Step-1 prior: prediction rho*lambda0 + (1-rho)*mu and variance (1-rho^2)*sigma2.

    ``lambda0`` defaults to the stationary mean.
    """
    rho = spec.params.rho
    mu, s2 = spec.params.mu_lambda, spec.params.sigma2_lambda
    lam0 = mu if lambda0 is None else float(lambda0)
    if lam0 <= 0:
        raise InvalidSpecError(f"lambda0 must be positive, got {lam0}")
    return rho * lam0 + (1.0 - rho) * mu, (1.0 - rho**2) * s2


def gkf_step(prev: FilterState, y: float, spec: ModelSpec) -> tuple[FilterState, FilterStep]:
    """One predict/update cycle from the previous filtered state: a one-step
    :func:`forward_pass` started at ``prev``'s intensity and error variance."""
    obs = spec_coefficients(spec)
    fp = forward_pass(
        np.array([float(y)]), obs, spec.params.rho, spec.params.mu_lambda,
        spec.params.sigma2_lambda, prev.lambda_filtered, c0=prev.error_var,
    )
    step = FilterStep(
        prediction=float(fp.pred[0]),
        pred_var=float(fp.cp[0]),
        gain=float(fp.gain[0]),
        innovation=float(fp.innovation[0]),
        innovation_var=float(fp.jvar[0]),
        clamped=bool(fp.clamped[0]),
    )
    return FilterState(float(fp.lam_f[0]), float(fp.cf[0])), step


def variance_path(
    n: int, a1: float, rho: float, sigma2: float, noise: float, c0: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Data-independent variance recursion: (C_{t|t-1}, K_t, J_t, C_{t|t})
    arrays for observation slope ``a1``, noise variance ``noise`` and prior
    error variance ``c0`` (0 gives C_{1|0} = (1-rho^2)*sigma2 exactly), and
    the settle index m: the first index from which the gain is constant,
    ``n - 1`` if it never settles.

    The recursion contracts geometrically, so it is iterated on Python floats
    only until the gain changes by at most ``_GAIN_TOL`` relative (about 50
    steps on the paper's rows), and the rest of each array is filled with the
    last values.  The gain at the stopping step t may equal the one before it,
    so m is t or t - 1: exactly the index after the last change of the gain.
    """
    _check_noise(noise)
    a1, rho, sigma2, noise = float(a1), float(rho), float(sigma2), float(noise)
    rho2 = rho**2
    drive = (1.0 - rho2) * sigma2
    a1_sq = a1**2
    cps, gains, jvars, cfs = [], [], [], []
    c_prev = float(c0)
    k_last = math.inf
    settle = n - 1
    for t in range(n):
        c_pred = rho2 * c_prev + drive
        denom = a1_sq * c_pred + noise
        k = a1 * c_pred / denom
        c_prev = (1.0 - k * a1) * c_pred
        cps.append(c_pred)
        gains.append(k)
        jvars.append(denom)
        cfs.append(c_prev)
        if abs(k - k_last) <= _GAIN_TOL * max(k, 1e-300):
            settle = t - (k == k_last)
            break
        k_last = k
    m = len(gains)
    out = []
    for steps in (cps, gains, jvars, cfs):
        arr = np.empty(n)
        arr[:m] = steps
        if m < n:
            arr[m:] = steps[-1]
        out.append(arr)
    cp, gain, jvar, cf = out
    return cp, gain, jvar, cf, settle


class FilterPass(NamedTuple):
    """Arrays of one :func:`forward_pass`, index t aligned with the series:
    the filtered intensity lhat_{t|t}, C_{t|t}, C_{t|t-1}, K_t, J_t, the
    clamp flags, the prediction lhat_{t|t-1}, the innovation h_t, the shrink
    factor 1 - K_t*a1, and the settle index of :func:`variance_path`."""

    lam_f: np.ndarray
    cf: np.ndarray
    cp: np.ndarray
    gain: np.ndarray
    jvar: np.ndarray
    clamped: np.ndarray
    pred: np.ndarray
    innovation: np.ndarray
    shrink: np.ndarray
    settle: int


def forward_pass(
    yf: np.ndarray, obs: ObsCoefficients, rho: float, mu: float, sigma2: float,
    lam0: float, c0: float = 0.0,
) -> FilterPass:
    """Array-level filter core over a non-empty series, started from the
    filtered intensity ``lam0`` with error variance ``c0``.

    Exact recursion: the transient up to the settle index runs step by step on
    Python floats; the constant-gain tail runs through a linear filter.  The
    predictions and innovations are those of the same pass, so callers reuse
    them rather than rebuild them from ``lam_f``.
    """
    n = len(yf)
    a0, a1, noise = obs
    cp, gain, jvar, cf, settle = variance_path(n, a1, rho, sigma2, noise, c0)
    # lhat_{t|t} = (1 - K_t*a1) * (rho*lhat_{t-1} + (1-rho)*mu) + K_t*(y_t - a0)
    shrink = 1.0 - gain * a1
    y0 = yf - a0
    const = shrink * (1.0 - rho) * mu + gain * y0
    lam_f = np.empty(n)
    head = min(settle + 1, n)  # the gain is constant after the head
    prev = float(lam0)
    rho_f = float(rho)
    path = []
    for s_t, c_t in zip(shrink[:head].tolist(), const[:head].tolist()):
        prev = s_t * rho_f * prev + c_t
        path.append(prev)
    lam_f[:head] = path
    if head < n:
        alpha = shrink[-1] * rho
        lam_f[head:] = ar1_filter(alpha, const[head:], zi=alpha * prev)
    del const  # freed before pred is made, to bound a long series' peak memory
    clamped = lam_f <= 0
    if clamped.any():
        # rare: redo sequentially applying the positivity floor
        prev = lam0
        for t in range(n):
            val = shrink[t] * (rho * prev + (1.0 - rho) * mu) + gain[t] * y0[t]
            if val <= 0:
                val = CLAMP_EPS
                clamped[t] = True
            else:
                clamped[t] = False
            lam_f[t] = val
            prev = val
    pred = _shifted(lam0, lam_f)
    pred *= rho
    pred += (1.0 - rho) * mu
    innovation = y0  # y_t - a0 - a1*pred_t, in place
    innovation -= a1 * pred
    return FilterPass(lam_f, cf, cp, gain, jvar, clamped, pred, innovation, shrink, settle)


def _shifted(first: float, v: np.ndarray) -> np.ndarray:
    """``first`` followed by ``v[:-1]``, in a new array as long as ``v``."""
    out = np.empty(len(v))
    out[0] = first
    out[1:] = v[:-1]
    return out


def _fold(v: np.ndarray, s: int) -> np.ndarray:
    """``v[:s]`` with the tail ``v[s:]`` summed into its last entry: the
    weights of an array that is held at its value at s-1 from there on."""
    out = v[:s].copy()
    out[-1] += v[s:].sum()
    return out


def _backward(coef: np.ndarray, v: np.ndarray, last: float = 0.0) -> np.ndarray:
    """x_t = v_t + coef_t*x_{t+1}, from x_{len-1} = v_{len-1} + coef_{len-1}*last
    down to x_0, step by step."""
    x = v.tolist()
    acc = last
    for t, c in zip(range(len(x) - 1, -1, -1), coef.tolist()[::-1]):
        acc = x[t] + c * acc
        x[t] = acc
    return np.array(x)


def forward_adjoint(
    obs: ObsCoefficients, rho: float, mu: float, sigma2: float, lam0: float,
    fp: FilterPass, weights, c0: float = 0.0,
) -> np.ndarray:
    """Gradient of a weighted sum of :func:`forward_pass`'s outputs in its
    inputs, by the adjoint (reverse) pass.

    ``fp`` is what :func:`forward_pass` returned at the same inputs; its
    predictions, innovations, shrink factors and settle index are reused, so
    of the pass's arrays only lam_{t-1} - mu is built here.  ``weights`` =
    (w_pred, w_cp, w_jvar) are per-step weights of the predictions
    pred_t = rho*lam_{t-1} + (1-rho)*mu (lam_{-1} = lam0), of C_{t|t-1} and
    of J_t.  Returns the derivatives of sum_t w_pred*pred + w_cp*cp +
    w_jvar*jvar in (a0, a1, noise, rho, mu, sigma2, lam0); ``c0`` is held
    fixed.

    The filtered path lam_t = s_t*pred_t + K_t*(y_t - a0), s_t = 1 - K_t*a1,
    is linear in lam_{t-1} with pole rho*s_t, so its adjoint r_t =
    w_pred_{t+1} + rho*s_{t+1}*r_{t+1} runs backward: through one linear
    filter over the constant-gain tail and step by step over the transient.
    The variance recursion C_{t|t} = noise*C_{t|t-1}/J_t,
    C_{t+1|t} = rho^2*C_{t|t} + (1-rho^2)*sigma2 is held once the gain
    settles, so its adjoint, with pole rho^2*s_t^2, runs backward over the
    transient only, with the weights of the held tail summed into its last
    step.
    """
    w_pred, w_cp, w_jvar = weights
    gain, shrink, pred = fp.gain, fp.shrink, fp.pred
    n = len(gain)
    a1 = obs[1]
    s = fp.settle + 1  # variances held from s-1
    # filtered path
    w = np.empty(n)
    w[:-1] = w_pred[1:]
    w[-1] = 0.0
    if fp.clamped.any():  # rare: floored steps are constant
        pole = rho * shrink
        pole[fp.clamped] = 0.0
        r = _backward(np.append(pole[1:], 0.0), w)
        r[fp.clamped] = 0.0
    else:  # the pole is constant from s-1 on
        pole = rho * shrink[:s]
        r = np.empty(n)
        r[s - 1 :] = ar1_filter(pole[-1], w[s - 1 :][::-1])[::-1]
        r[: s - 1] = _backward(pole[1:], w[: s - 1], r[s - 1])
    rs = r * shrink
    # variance recursion: weights of cp, J and K (K carries the path's dK
    # terms, the innovation h_t = y_t - a0 - a1*pred_t times r_t)
    b_cp, b_j = _fold(w_cp, s), _fold(w_jvar, s)
    b_k = rho * _fold(r * fp.innovation, s)
    k_t, c_t, j_t, f_t, s_t = gain[:s], fp.cp[:s], fp.jvar[:s], fp.cf[:s], shrink[:s]
    cp_bar = _backward(rho**2 * s_t**2, b_cp + a1**2 * b_j + a1 * s_t / j_t * b_k)
    cf_bar = np.empty(s)
    cf_bar[:-1] = rho**2 * cp_bar[1:]
    cf_bar[-1] = 0.0
    cf_prev = _shifted(c0, f_t)
    lam_dev = _shifted(lam0, fp.lam_f)  # lam_{t-1} - mu
    lam_dev -= mu
    # each input's explicit part in the filtered path and, through the
    # adjoint cp_bar, in the variance recursion
    d_a0 = -rho * float(r @ gain)
    d_a1 = -rho * float(r @ (pred * gain)) + float(
        2.0 * a1 * (b_j @ c_t) + b_k @ (c_t / j_t * (1.0 - 2.0 * k_t * a1))
        - 2.0 * cf_bar @ (k_t * f_t)
    )
    d_noise = float(b_j.sum() - b_k @ (k_t / j_t) + cf_bar @ k_t**2)
    d_rho = float(
        (rho * rs + w_pred) @ lam_dev + 2.0 * rho * cp_bar @ (cf_prev - sigma2)
    )
    d_mu = (1.0 - rho) * float(rho * rs.sum() + w_pred.sum())
    d_sigma2 = (1.0 - rho**2) * float(cp_bar.sum())
    d_lam0 = rho * (w_pred[0] + pole[0] * r[0])
    return np.array([d_a0, d_a1, d_noise, d_rho, d_mu, d_sigma2, d_lam0])


def gkf_filter(
    series, spec: ModelSpec, lambda0: float | None = None
) -> FilterResult:
    """Full forward pass over a count series; deterministic given inputs."""
    y = as_count_series(series).astype(float)
    rho = spec.params.rho
    mu = spec.params.mu_lambda
    lam0 = mu if lambda0 is None else float(lambda0)
    if lam0 <= 0:
        raise InvalidSpecError(f"lambda0 must be positive, got {lam0}")
    obs = spec_coefficients(spec)
    fp = forward_pass(y, obs, rho, mu, spec.params.sigma2_lambda, lam0)
    return FilterResult(
        lambda_filtered=fp.lam_f,
        error_var=fp.cf,
        prediction=fp.pred,
        pred_var=fp.cp,
        gain=fp.gain,
        innovation=fp.innovation,
        innovation_var=fp.jvar,
        clamped=fp.clamped,
    )
