"""Distinguishing opposite-phase weak coherent pulses with a finite reference.

The analytic library: the error probability of telling two opposite-phase
weak pulses apart, when the phase reference itself carries finite energy, for
beamsplitter-and-counter receivers and at the quantum-optimal bound. Monte
Carlo validation lives in ``phasekit.montecarlo`` and the figure tables in
``phasekit.scan``; their names are imported from those modules.
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

__all__ = [
    "__version__",
    "Beamsplitter",
    "DiscriminationResult",
    "NumericalResourceError",
    "PulsePair",
    "best_angle",
    "d_err_small_alpha",
    "homodyne_splitter",
    "kennedy_angle",
    "p_beamsplitter_ml",
    "p_err_optimal",
    "p_homodyne_asymptotic",
    "p_homodyne_generalized",
    "p_kennedy_asymptotic",
    "p_kennedy_generalized",
    "p_min_pure",
]
