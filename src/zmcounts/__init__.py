"""Zero-modified count time series with Markovian latent intensities.

Simulation of ZMP/ZMNB counts over GAR(1)/EAR(1) intensity chains, scalar
generalized Kalman filtering, estimating-function parameter estimation, and
model-adequacy diagnostics.
"""

__version__ = "0.1.0"

from .diagnostics import (
    ProbTable,
    empirical_probs,
    fitted_marginal_probs,
    ljung_box,
    pearson_residuals,
    sample_acf_pacf,
    truncated_residuals,
)
from .errors import (
    EstimationError,
    InfeasibleInitError,
    InfeasibleOmegaError,
    InvalidSpecError,
    ZmcountsError,
)
from .estimation import (
    FitResult,
    GridConfig,
    SampleMoments,
    default_init,
    fit,
    grid_search_init,
    moment_init_ear1,
    moment_init_gar1_factorial,
)
from .experiments import (
    BootstrapResult,
    ExperimentResult,
    ExperimentRow,
    bootstrap_se,
    run_experiment,
    run_replicate,
)
from .filtering import (
    FilterResult,
    FilterState,
    FilterStep,
    gkf_filter,
    gkf_init,
    gkf_step,
)
from .intensity import (
    IntensityFamily,
    IntensitySpec,
    ear1_innovation_sample,
    gar1_innovation_sample,
    intensity_acf,
    intensity_moments,
    simulate_intensity,
)
from .observation import (
    CountFamily,
    ModelSpec,
    Params,
    as_count_series,
    baseline_zero_prob,
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
)
