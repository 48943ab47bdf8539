"""Distinguishing opposite-phase weak coherent pulses with a finite reference.

The package computes, optimises, and stochastically validates the error
probability of telling two opposite-phase weak pulses apart when the phase
reference pulse itself carries finite energy: simple beamsplitter-and-
counter receivers, the quantum-optimal bound, Monte Carlo validation, and
the parameter sweeps behind the numbered figure tables.
"""

__version__ = "0.1.0"

from .helstrom import d_err_small_alpha, p_err_optimal
from .model import (
    Beamsplitter,
    DiscriminationResult,
    PulsePair,
    homodyne_splitter,
    kennedy_angle,
)
from .montecarlo import (
    DecisionRule,
    EstimateResult,
    TrialConfig,
    run_trials,
)
from .numerics import NumericalResourceError
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
    figure_table,
    write_csv,
    write_json,
)

__all__ = [
    "__version__",
    "Beamsplitter",
    "DecisionRule",
    "DiscriminationResult",
    "EstimateResult",
    "NumericalResourceError",
    "PulsePair",
    "Table",
    "TrialConfig",
    "best_angle",
    "d_err_small_alpha",
    "figure_table",
    "homodyne_splitter",
    "kennedy_angle",
    "p_beamsplitter_ml",
    "p_err_optimal",
    "p_homodyne_asymptotic",
    "p_homodyne_generalized",
    "p_kennedy_asymptotic",
    "p_kennedy_generalized",
    "p_min_pure",
    "run_trials",
    "write_csv",
    "write_json",
]
