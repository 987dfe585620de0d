"""Monte-Carlo replication harness for the simulation experiments and the
parametric bootstrap.

Each experiment row fixes a data-generating model, a series length and a
replicate count.  Replicates draw independent random sources derived from the
master seed by index, so results are invariant to execution order and to the
number of worker processes.  Replicates whose simulated model is infeasible,
whose initializer fails, or whose fit does not converge are discarded and
counted rather than patched.
"""

from __future__ import annotations

import ctypes
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EstimationError,
    InfeasibleInitError,
    InfeasibleOmegaError,
    InvalidSpecError,
)
from .estimation import fit
from .intensity import simulate_intensity
from .observation import ModelSpec, zm_sample

_PARAM_KEYS = ("rho", "omega", "beta", "p", "a")


@dataclass(frozen=True)
class ExperimentRow:
    """One table row: the true generative model plus the experiment sizes."""

    family: str
    intensity_family: str
    omega: float
    rho: float
    beta: float
    p: float
    n: int
    replicates: int
    a: float = 0.0
    c: int = 1
    on_infeasible: str = "raise"
    # options of each replicate's fit
    tol: float = 1e-6
    max_iter: int = 500

    def spec(self) -> ModelSpec:
        return ModelSpec.create(
            self.family, self.intensity_family,
            omega=self.omega, rho=self.rho, beta=self.beta, p=self.p,
            a=self.a, c=self.c,
        )

    def true_values(self) -> dict[str, float]:
        return {
            "rho": self.rho, "omega": self.omega, "beta": self.beta,
            "p": self.p, "a": self.a,
        }


@dataclass
class ExperimentResult:
    row: ExperimentRow
    mean: dict[str, float]
    mse: dict[str, float]
    completed: int
    discarded: int
    discard_reasons: Counter = field(default_factory=Counter)
    estimates: list[dict] = field(default_factory=list)


def run_replicate(row: ExperimentRow, seed) -> dict | str:
    """Simulate one series and fit it; returns estimates or a discard reason."""
    rng = np.random.default_rng(seed)
    spec = row.spec()
    lam = simulate_intensity(spec.intensity, row.n, rng)
    try:
        y = zm_sample(spec.family, lam, spec.params, rng, on_infeasible=row.on_infeasible)
    except InfeasibleOmegaError:
        return "infeasible_simulation"
    try:
        res = fit(
            y, spec.family, spec.intensity.family, c=row.c,
            tol=row.tol, max_iter=row.max_iter,
        )
    except InfeasibleInitError:
        return "infeasible_init"
    except EstimationError:
        return "estimation_error"
    if not res.converged:
        return "non_converged"
    ph = res.params_hat
    return {"rho": ph.rho, "omega": ph.omega, "beta": ph.beta, "p": ph.p, "a": ph.a}


def _replicate_task(args):
    row, state = args
    return run_replicate(row, np.random.default_rng(state))


# thread-count setters of the OpenBLAS builds bundled with numpy (64-bit
# integer interface) and with scipy
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Pool-worker initializer: one thread for each bundled OpenBLAS loaded
    in this process.

    OpenBLAS starts a thread per core in every process, so ``jobs`` workers
    each running L-BFGS-B's small matrix products contend for the cores and
    a pooled row runs slower than a serial one.  The libraries are found
    among those mapped into the process, and each is capped through its own
    setter; without ``/proc/self/maps`` or the setters this does nothing.
    It runs only in the workers, so the caller's threads are untouched.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def _map_replicates(row: ExperimentRow, seeds, jobs: int) -> list[dict | str]:
    """:func:`run_replicate` at each seed, in seed order, on ``jobs`` processes."""
    tasks = [(row, seed) for seed in seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # up to 4 replicates per chunk, but a chunk for every worker
        chunk = max(1, min(4, len(tasks) // jobs))
        with ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread) as ex:
            return list(ex.map(_replicate_task, tasks, chunksize=chunk))
    return [_replicate_task(t) for t in tasks]


def run_experiment(row: ExperimentRow, master_seed: int, jobs: int = 1) -> ExperimentResult:
    """Run all replicates of a row; merge by replicate index (order-free)."""
    children = np.random.SeedSequence(master_seed).spawn(row.replicates)
    outcomes = _map_replicates(row, children, jobs)
    estimates = [o for o in outcomes if isinstance(o, dict)]
    reasons = Counter(o for o in outcomes if isinstance(o, str))
    truth = row.true_values()
    mean: dict[str, float] = {}
    mse: dict[str, float] = {}
    for key in _PARAM_KEYS:
        vals = np.array([e[key] for e in estimates]) if estimates else np.array([np.nan])
        mean[key] = float(np.mean(vals))
        mse[key] = float(np.mean((vals - truth[key]) ** 2))
    return ExperimentResult(
        row=row,
        mean=mean,
        mse=mse,
        completed=len(estimates),
        discarded=row.replicates - len(estimates),
        discard_reasons=reasons,
        estimates=estimates,
    )


@dataclass
class BootstrapResult:
    se: dict[str, float]
    reps: int
    failed: int


def bootstrap_se(
    spec_hat: ModelSpec,
    n: int,
    reps: int,
    rng: np.random.Generator,
    jobs: int = 1,
    seeds=None,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> BootstrapResult:
    """Simulation-based standard errors: refit ``reps`` synthetic series of
    length n drawn from the fitted model and report the empirical standard
    deviations of the estimates.

    Each refit is a :func:`run_replicate` of the fitted model's row, so series
    are drawn with ``on_infeasible="truncate"`` (the law a deflated fit
    describes) and failed refits are excluded and counted, as discarded
    replicates are.  ``tol`` and ``max_iter`` reach every refit as they
    reach :func:`~zmcounts.estimation.fit`.  Explicit per-replicate
    ``seeds`` may be injected for testing.
    """
    if reps < 2:
        raise InvalidSpecError(f"reps must be >= 2, got {reps}")
    if seeds is None:
        seeds = [int(s) for s in rng.integers(0, 2**62, size=reps)]
    elif len(seeds) != reps:
        raise InvalidSpecError("seeds must have length reps")
    pp = spec_hat.params
    row = ExperimentRow(
        spec_hat.family.value, spec_hat.intensity.family.value,
        omega=pp.omega, rho=pp.rho, beta=pp.beta, p=pp.p, n=n, replicates=reps,
        a=pp.a, c=pp.c, on_infeasible="truncate", tol=tol, max_iter=max_iter,
    )
    ok = [o for o in _map_replicates(row, seeds, jobs) if isinstance(o, dict)]
    failed = reps - len(ok)
    if failed > reps / 2:
        raise EstimationError(f"{failed}/{reps} bootstrap refits failed")
    se = {
        key: float(np.std([r[key] for r in ok], ddof=1))
        for key in ("omega", "rho", "beta", "p", "a")
    }
    return BootstrapResult(se=se, reps=reps, failed=failed)
