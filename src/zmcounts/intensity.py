"""Stationary non-negative Markov intensity processes.

Two first-order autoregressive constructions are provided, both of the form
``lambda_t = rho * lambda_{t-1} + eta_t`` with non-negative iid innovations:

* ``EAR1``: exponential marginal ``Exp(beta)``; the innovation equals 0 with
  probability ``rho`` and an ``Exp(beta)`` draw otherwise.
* ``GAR1``: gamma marginal ``Gamma(shape=p, rate=beta)``; the innovation is a
  compound Poisson sum ``sum_i rho**U_i * E_i`` with ``N ~ Poisson(p*log(1/rho))``,
  ``U_i ~ Unif(0,1)`` and ``E_i ~ Exp(beta)``.

Both chains have lag-k autocorrelation ``rho**k`` and are simulated from their
stationary marginal, so every generated path is strictly stationary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidSpecError


class IntensityFamily(str, Enum):
    GAR1 = "gar1"
    EAR1 = "ear1"


@dataclass(frozen=True)
class IntensitySpec:
    """Parameters of a stationary intensity chain.

    ``beta`` is the gamma/exponential *rate*, ``p`` the gamma shape (fixed to 1
    for EAR1), ``rho`` the AR coefficient in [0, 1).
    """

    family: IntensityFamily
    rho: float
    beta: float
    p: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise InvalidSpecError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.beta > 0.0:
            raise InvalidSpecError(f"beta must be positive, got {self.beta}")
        if not self.p > 0.0:
            raise InvalidSpecError(f"p must be positive, got {self.p}")
        if self.family == IntensityFamily.EAR1 and self.p != 1.0:
            raise InvalidSpecError("EAR1 requires p = 1 (exponential marginal)")

    @property
    def mu(self) -> float:
        return self.p / self.beta

    @property
    def sigma2(self) -> float:
        return self.p / self.beta**2


def intensity_moments(spec: IntensitySpec) -> tuple[float, float]:
    """Stationary mean and variance ``(p/beta, p/beta**2)`` of the chain."""
    return spec.mu, spec.sigma2


def intensity_acf(spec: IntensitySpec, k: int) -> float:
    """Lag-k autocorrelation ``rho**k`` (1 at k=0)."""
    if k < 0:
        raise InvalidSpecError(f"lag must be non-negative, got {k}")
    return spec.rho**k


def ear1_innovation_sample(spec: IntensitySpec, rng: np.random.Generator, size=None):
    """Draw EAR(1) innovations: 0 with probability rho, else Exp(beta).

    The innovation CDF is ``rho + (1-rho)*(1-exp(-beta*x))``.
    """
    if spec.family != IntensityFamily.EAR1:
        raise InvalidSpecError("ear1_innovation_sample requires an EAR1 spec")
    zero = rng.random(size) < spec.rho
    draw = rng.exponential(1.0 / spec.beta, size)
    return np.where(zero, 0.0, draw) if size is not None else (0.0 if zero else draw)


def gar1_innovation_sample(spec: IntensitySpec, rng: np.random.Generator, size=None):
    """Draw GAR(1) compound-Poisson innovations ``sum_i rho**U_i * E_i``.

    ``N ~ Poisson(p*log(1/rho))``; an empty sum yields 0.  ``rho = 0`` is
    rejected here because the Poisson mean diverges; the iid-gamma limit law is
    handled directly by :func:`simulate_intensity`.
    """
    if spec.family != IntensityFamily.GAR1:
        raise InvalidSpecError("gar1_innovation_sample requires a GAR1 spec")
    if spec.rho == 0.0:
        raise InvalidSpecError(
            "rho = 0 has no compound-Poisson innovation (Poisson mean diverges); "
            "the chain degenerates to iid Gamma(beta, p) draws"
        )
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    counts = rng.poisson(spec.p * -np.log(spec.rho), n)  # 1/rho overflows for subnormal rho
    total = int(counts.sum())
    # one flat draw for all summands, then segment sums
    terms = spec.rho ** rng.random(total) * rng.exponential(1.0 / spec.beta, total)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    out = np.add.reduceat(np.concatenate([terms, [0.0]]), bounds[:-1])
    out[counts == 0] = 0.0
    if scalar:
        return float(out[0])
    return out.reshape(size)


def simulate_intensity(spec: IntensitySpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate a stationary path of length n (lambda_0 from the marginal law).

    Returns an array of strictly positive values.
    """
    if n < 1:
        raise InvalidSpecError(f"path length must be >= 1, got {n}")
    lam0 = rng.gamma(spec.p, 1.0 / spec.beta)
    if spec.rho == 0.0:
        # iid draws from the stationary marginal; exact limit of the recursion
        return rng.gamma(spec.p, 1.0 / spec.beta, n)
    if spec.family == IntensityFamily.EAR1:
        eta = ear1_innovation_sample(spec, rng, size=n)
    else:
        eta = gar1_innovation_sample(spec, rng, size=n)
    # lambda_t = rho*lambda_{t-1} + eta_t, seeded with the stationary lambda_0
    path, _ = lfilter([1.0], [1.0, -spec.rho], eta, zi=[spec.rho * lam0])
    return path
