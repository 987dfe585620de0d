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

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import EstimationError, InvalidSpecError
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

    def state(self, t: int) -> FilterState:
        return FilterState(float(self.lambda_filtered[t]), float(self.error_var[t]))

    def step(self, t: int) -> FilterStep:
        return FilterStep(
            prediction=float(self.prediction[t]),
            pred_var=float(self.pred_var[t]),
            gain=float(self.gain[t]),
            innovation=float(self.innovation[t]),
            innovation_var=float(self.innovation_var[t]),
            clamped=bool(self.clamped[t]),
        )

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
    rho, mu = spec.params.rho, spec.params.mu_lambda
    obs = spec_coefficients(spec)
    lam_f, cf, cp, gain, jvar, clamped = forward_pass(
        np.array([float(y)]), obs, rho, mu, spec.params.sigma2_lambda,
        prev.lambda_filtered, c0=prev.error_var,
    )
    pred = rho * prev.lambda_filtered + (1.0 - rho) * mu
    step = FilterStep(
        prediction=pred,
        pred_var=float(cp[0]),
        gain=float(gain[0]),
        innovation=y - obs.a0 - obs.a1 * pred,
        innovation_var=float(jvar[0]),
        clamped=bool(clamped[0]),
    )
    return FilterState(float(lam_f[0]), float(cf[0])), step


def variance_path(
    n: int, a1: float, rho: float, sigma2: float, noise: float, c0: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Data-independent variance recursion: (C_{t|t-1}, K_t, J_t, C_{t|t}) arrays
    for observation slope ``a1``, noise variance ``noise`` and prior error
    variance ``c0`` (0 gives C_{1|0} = (1-rho^2)*sigma2 exactly).

    The recursion contracts geometrically, so it is iterated only until the
    gain stabilizes and then held at its fixed point.
    """
    _check_noise(noise)
    cp = np.empty(n)
    gain = np.empty(n)
    jvar = np.empty(n)
    cf = np.empty(n)
    c_prev = c0
    k_last = np.inf
    for t in range(n):
        c_pred = rho**2 * c_prev + (1.0 - rho**2) * sigma2
        denom = a1**2 * c_pred + noise
        k = a1 * c_pred / denom
        cp[t] = c_pred
        gain[t] = k
        jvar[t] = denom
        c_prev = (1.0 - k * a1) * c_pred
        cf[t] = c_prev
        if abs(k - k_last) <= _GAIN_TOL * max(k, 1e-300):
            cp[t + 1 :] = c_pred
            gain[t + 1 :] = k
            jvar[t + 1 :] = denom
            cf[t + 1 :] = c_prev
            break
        k_last = k
    return cp, gain, jvar, cf


def forward_pass(
    yf: np.ndarray, obs: ObsCoefficients, rho: float, mu: float, sigma2: float,
    lam0: float, c0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array-level filter core: (lam_f, cf, cp, gain, jvar, clamped), started
    from the filtered intensity ``lam0`` with error variance ``c0``.

    Exact recursion; the constant-gain tail (after the variance recursion has
    stabilized) runs through a linear filter for speed.
    """
    n = len(yf)
    a0, a1, noise = obs
    cp, gain, jvar, cf = variance_path(n, a1, rho, sigma2, noise, c0)
    # lhat_{t|t} = (1 - K_t*a1) * (rho*lhat_{t-1} + (1-rho)*mu) + K_t*(y_t - a0)
    shrink = 1.0 - gain * a1
    y0 = yf - a0
    const = shrink * (1.0 - rho) * mu + gain * y0
    lam_f = np.empty(n)
    prev = lam0
    moving = np.nonzero(np.diff(gain))[0]
    m = int(moving[-1] + 1) if moving.size else 0  # gain constant from index m on
    for t in range(min(m + 1, n)):
        prev = shrink[t] * rho * prev + const[t]
        lam_f[t] = prev
    if m + 1 < n:
        alpha = shrink[-1] * rho
        tail, _ = lfilter([1.0], [1.0, -alpha], const[m + 1 :], zi=[alpha * prev])
        lam_f[m + 1 :] = tail
    clamped = lam_f <= 0
    if np.any(clamped):
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
    return lam_f, cf, cp, gain, jvar, clamped


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
    yf: np.ndarray, obs: ObsCoefficients, rho: float, mu: float, sigma2: float,
    lam0: float, out, weights, c0: float = 0.0,
) -> np.ndarray:
    """Gradient of a weighted sum of :func:`forward_pass`'s outputs in its
    inputs, by the adjoint (reverse) pass.

    ``out`` is what :func:`forward_pass` returned at the same inputs and
    ``weights`` = (w_pred, w_cp, w_jvar) are per-step weights of the
    predictions pred_t = rho*lam_{t-1} + (1-rho)*mu (lam_{-1} = lam0), of
    C_{t|t-1} and of J_t.  Returns the derivatives of
    sum_t w_pred*pred + w_cp*cp + w_jvar*jvar in (a0, a1, noise, rho, mu,
    sigma2, lam0); ``c0`` is held fixed.

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
    lam_f, cf, cp, gain, jvar, clamped = out
    w_pred, w_cp, w_jvar = weights
    n = len(yf)
    a0, a1, _ = obs
    moving = np.nonzero(np.diff(gain))[0]
    s = min(int(moving[-1] + 2) if moving.size else 1, n)  # variances held from s-1
    prev = np.concatenate([[lam0], lam_f[:-1]])
    pred = rho * prev + (1.0 - rho) * mu
    shrink = 1.0 - gain * a1
    # filtered path
    pole = rho * shrink
    w = np.append(w_pred[1:], 0.0)
    if clamped.any():  # rare: floored steps are constant
        pole[clamped] = 0.0
        r = _backward(np.append(pole[1:], 0.0), w)
        r[clamped] = 0.0
    else:  # the pole is constant from s-1 on
        r = np.empty(n)
        r[s - 1 :] = lfilter([1.0], [1.0, -pole[-1]], w[s - 1 :][::-1])[::-1]
        r[: s - 1] = _backward(pole[1:s], w[: s - 1], r[s - 1])
    rs = r * shrink
    # variance recursion: weights of cp, J and K (K carries the path's dK
    # terms, the innovation h_t = y_t - a0 - a1*pred_t times r_t)
    b_cp, b_j = _fold(w_cp, s), _fold(w_jvar, s)
    b_k = rho * _fold(r * (yf - a0 - a1 * pred), s)
    k_t, c_t, j_t, f_t, s_t = gain[:s], cp[:s], jvar[:s], cf[:s], shrink[:s]
    cp_bar = _backward(rho**2 * s_t**2, b_cp + a1**2 * b_j + a1 * s_t / j_t * b_k)
    cf_bar = np.append(rho**2 * cp_bar[1:], 0.0)
    cf_prev = np.concatenate([[c0], f_t[:-1]])
    # each input's explicit part in the filtered path and, through the
    # adjoint cp_bar, in the variance recursion
    d_a0 = -rho * float(r @ gain)
    d_a1 = -rho * float(r @ (pred * gain)) + float(
        2.0 * a1 * (b_j @ c_t) + b_k @ (c_t / j_t * (1.0 - 2.0 * k_t * a1))
        - 2.0 * cf_bar @ (k_t * f_t)
    )
    d_noise = float(b_j.sum() - b_k @ (k_t / j_t) + cf_bar @ k_t**2)
    d_rho = float((rho * rs + w_pred) @ (prev - mu) + 2.0 * rho * cp_bar @ (cf_prev - sigma2))
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
    lam_f, cf, cp, gain, jvar, clamped = forward_pass(
        y, obs, rho, mu, spec.params.sigma2_lambda, lam0
    )
    prediction = rho * np.concatenate([[lam0], lam_f[:-1]]) + (1.0 - rho) * mu
    innovation = y - obs.a0 - obs.a1 * prediction
    return FilterResult(
        lambda_filtered=lam_f,
        error_var=cf,
        prediction=prediction,
        pred_var=cp,
        gain=gain,
        innovation=innovation,
        innovation_var=jvar,
        clamped=clamped,
    )
