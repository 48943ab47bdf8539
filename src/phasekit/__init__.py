"""Distinguishing opposite-phase weak coherent pulses with a finite reference.

The package computes, optimises, and stochastically validates the error
probability of telling two opposite-phase weak pulses apart when the phase
reference pulse itself carries finite energy: simple beamsplitter-and-
counter receivers, the quantum-optimal bound, Monte Carlo validation, and
the parameter sweeps behind the numbered figure tables.
"""

__version__ = "0.1.0"

from .helstrom import (
    TruncationCeilingError,
    d_err_small_alpha,
    p_err_optimal,
    small_alpha_series_cutoff,
)
from .model import (
    Beamsplitter,
    DiscriminationResult,
    OutputMeans,
    PulsePair,
    SplitterRangeError,
    homodyne_splitter,
    kennedy_angle,
    output_means,
)
from .montecarlo import (
    ConfigurationError,
    DecisionRule,
    EstimateResult,
    TrialConfig,
    run_trials,
    sample_poisson,
)
from .numerics import (
    LogFactorialTable,
    NumericalResourceError,
    gaussian_upper_tail,
    log_poisson_pmf,
    poisson_tail_cutoff,
)
from .receivers import (
    best_angle,
    p_beamsplitter_ml,
    p_homodyne_asymptotic,
    p_homodyne_generalized,
    p_kennedy_asymptotic,
    p_kennedy_generalized,
    p_min_pure,
)
from .scan import (
    Table,
    figure_angle_sweep,
    figure_homodyne_ratios,
    figure_kennedy_ratios,
    figure_optimal_ratio,
    figure_table,
    write_csv,
    write_json,
)

__all__ = [
    "__version__",
    "Beamsplitter",
    "ConfigurationError",
    "DecisionRule",
    "DiscriminationResult",
    "EstimateResult",
    "LogFactorialTable",
    "NumericalResourceError",
    "OutputMeans",
    "PulsePair",
    "SplitterRangeError",
    "Table",
    "TrialConfig",
    "TruncationCeilingError",
    "best_angle",
    "d_err_small_alpha",
    "figure_angle_sweep",
    "figure_homodyne_ratios",
    "figure_kennedy_ratios",
    "figure_optimal_ratio",
    "figure_table",
    "gaussian_upper_tail",
    "homodyne_splitter",
    "kennedy_angle",
    "log_poisson_pmf",
    "output_means",
    "p_beamsplitter_ml",
    "p_err_optimal",
    "p_homodyne_asymptotic",
    "p_homodyne_generalized",
    "p_kennedy_asymptotic",
    "p_kennedy_generalized",
    "p_min_pure",
    "poisson_tail_cutoff",
    "run_trials",
    "sample_poisson",
    "small_alpha_series_cutoff",
    "write_csv",
    "write_json",
]
