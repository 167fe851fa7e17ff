"""Semi-supervised logistic discrimination under covariate shift.

Density-ratio-weighted ridge logistic fitting, information-criterion tuning
of the weight exponent and ridge strength, and replication harnesses for
the accompanying simulation and benchmark studies. The paper's EM
alternation over the unlabeled block is kept only as e_step and m_step:
its fixed point is the labeled-only fit (see sslogit.em).
"""

from .data import Seed, SplitDataset, build_design, make_rng, split_labeled_unlabeled
from .em import (
    FittedModel,
    e_step,
    fit_semisupervised,
    fit_step1,
    fit_supervised,
    m_step,
    predict,
)
from .errors import DataError, NumericalError, ParameterError, SslogitError
from .gic import GicMatrices, GicReport, gic_lsslr, gic_matrices, gic_score, gic_slr
from .objective import (
    NewtonConfig,
    NewtonDiagnostics,
    TuningParams,
    gradient,
    hessian,
    loglik_labeled,
    newton_maximize,
    posterior,
    power_weights,
    weighted_objective,
)
from .ratios import (
    RATIO_CAP,
    RATIO_FLOOR,
    DiagGaussian,
    RatioWeights,
    UlsifConfig,
    UlsifModel,
    exact_ratio,
    log_density,
    median_pairwise_distance,
    ulsif_fit,
    ulsif_predict,
    unit_weights,
    weights_from_exact,
    weights_from_ulsif,
)
from .select import CandidateRecord, Grid, SelectionResult, default_grid, grid_search
from .experiments import (
    BENCHMARK_FRACTIONS,
    BENCHMARK_SPECS,
    SIM1_N_LABELED,
    SIM2_CASES,
    BenchmarkExperiment,
    RunResult,
    ShiftedSyntheticExperiment,
    Sim1Config,
    Sim1Experiment,
    Sim2Config,
    Sim2Experiment,
    TrialRecord,
    TrialSummary,
    gen_shifted_benchmark,
    gen_sim1,
    gen_sim2,
    load_benchmark,
    prediction_error,
    run_trials,
    sim1_conditional_prob,
    sim1_experiment,
    sim1_labeled_density,
    sim1_unlabeled_density,
    sim2_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
