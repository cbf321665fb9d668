"""Negative binomial INAR(1) count time series.

The stationary process X_{t+1} = thin(X_t) + eps_{t+1} with an expectation
thinning operator whose counts have a linear-fractional pgf, NB(r, mu)
marginal, and NB(r, (1-alpha) mu) innovations.  The package provides the
probability primitives, exact one- and h-step transition laws, stationary
simulation, conditional least squares / Yule-Walker / variance-regression /
conditional maximum likelihood estimators, predicted asymptotic covariances
for the three moment estimators (none for maximum likelihood), and a Monte
Carlo harness, all behind a small CLI.
"""

from .distributions import (
    NBParams,
    ParameterError,
    log_gamma,
    nb_central_moments,
    nb_pgf,
    nb_pmf,
    nb_pmf_vector,
    nb_sample,
    nb_support_bound,
)
from .estimation import (
    CmlFit,
    CovMatrices,
    DegenerateSeriesError,
    MeanEstimates,
    VarianceEstimates,
    cls_means,
    cls_variances,
    cml_fit,
    loglik,
    predicted_cov,
    yw_means,
)
from .montecarlo import MCConfig, MCReport, run_experiment, summarize
from .process import (
    Series,
    TransitionTable,
    autocorrelation,
    conditional_moments,
    conditional_pgf,
    joint_pgf,
    ma_sample,
    read_series,
    simulate,
    transition_prob,
    transition_table,
    write_series,
)
from .thinning import (
    AltParams,
    HFoldParams,
    ModelParams,
    g_central_moments,
    g_pgf,
    g_pmf,
    h_fold,
    odot_to_star,
    star_to_odot,
    thin_conditional_pmf,
    thin_sample,
)

__version__ = "0.1.0"
