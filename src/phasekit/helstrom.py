"""Optimal discrimination of the phase-averaged two-mode states.

Averaging the common optical phase away leaves two mixed states that are
block diagonal in the total photon number N. Both states give sector N the
same Poisson weight w_N = Poi(N; alpha^2 + beta^2), and inside it each is a
pure state; the two pure states overlap in x_N = r^(2N), with
r = (beta^2 - alpha^2) / (alpha^2 + beta^2). The minimum error probability
is therefore a weighted sum of pure-state Helstrom terms,

    P_err = 1/2 * sum over N of w_N * x_N / (1 + sqrt(1 - x_N)),

a sum of positive terms, so a tiny P keeps full relative precision.

For weak signals the leading order in the signal amplitude has a
closed-form spectrum, +/- lambda_n with
lambda_n = 2 beta^(2n+1) alpha e^(-beta^2) / sqrt(n! (n+1)!), whose sum is a
fast series for the distinguishability.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DiscriminationResult, PulsePair
from .numerics import (
    NEG_INF,
    NumericalResourceError,
    log_factorial,
    log_poisson_pmf_array,
    poisson_tail_cutoff,
    poisson_upper_tail,
)

__all__ = [
    "DEFAULT_TAIL_TOL",
    "DEFAULT_MAX_TOTAL_PHOTONS",
    "TRUNCATION_SAFETY_MARGIN",
    "TruncationCeilingError",
    "p_err_optimal",
    "small_alpha_series_cutoff",
    "d_err_small_alpha",
]

DEFAULT_TAIL_TOL = 1e-10

# sectors kept beyond the Poisson cutoff in total photons; the sector
# weights are exactly Poisson, so the margin only pushes the neglected mass
# far below tail_tol, at the cost of ten short terms
TRUNCATION_SAFETY_MARGIN = 10

DEFAULT_MAX_TOTAL_PHOTONS = 2048

_EPS = np.finfo(float).eps

SERIES_REL_TOL = 1e-12


class TruncationCeilingError(NumericalResourceError):
    """The required basis size exceeds the configured ceiling."""

    def __init__(self, needed: int, ceiling: int) -> None:
        super().__init__(
            f"truncation needs total photon number {needed} but the ceiling is "
            f"{ceiling}; raise max_total_photons (memory and time grow with it)"
        )
        self.needed = needed
        self.ceiling = ceiling


def _log_abs_r(pair: PulsePair) -> float:
    """ln|r| with r = (beta^2 - alpha^2) / (alpha^2 + beta^2); both must be positive."""
    ratio = 2.0 * min(pair.alpha2, pair.beta2) / pair.total  # 1 - |r|
    # each form of ln|r| is accurate where the other one cancels
    if ratio <= 0.5:
        return math.log1p(-ratio)
    if pair.alpha2 != pair.beta2:
        return math.log(abs(pair.beta2 - pair.alpha2) / pair.total)
    return NEG_INF


def _sectors(pair: PulsePair, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sector terms for N = 0 .. n_max; alpha^2 and beta^2 must be positive.

    Returns the Helstrom errors w_N x_N / (2 (1 + sqrt(1 - x_N))), the
    values w_N sqrt(1 - x_N) (half the trace norm of block N), and a bound
    on the float rounding of each error.
    """
    log_r = _log_abs_r(pair)
    ns = np.arange(n_max + 1)
    log_x = np.zeros(n_max + 1)  # x_0 = r^0 = 1, also when r = 0
    log_x[1:] = 2.0 * ns[1:] * log_r
    log_w = log_poisson_pmf_array(n_max, pair.total)
    root = np.sqrt(-np.expm1(log_x))
    errors = 0.5 * np.exp(log_w + log_x) / (1.0 + root)
    # every log-space term carries an absolute error of a few ulp of its
    # largest part (ln|r| adds one ulp per unit of 2N), which exp turns into
    # a relative error of the sector term
    log_scale = (
        ns * abs(math.log(pair.total))
        + pair.total
        + log_factorial(ns)
        + np.where(np.isfinite(log_x), -log_x, 0.0)
        + 2.0 * ns
        + 2.0
    )
    return errors, np.exp(log_w) * root, 2.0 * _EPS * errors * log_scale


def p_err_optimal(
    pair: PulsePair,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_total_photons: int = DEFAULT_MAX_TOTAL_PHOTONS,
) -> DiscriminationResult:
    """Minimum error probability as a sum of per-sector pure-state terms.

    Sectors N = 0 .. n_max are kept, n_max being the Poisson cutoff of
    alpha^2 + beta^2 at ``tail_tol`` plus a safety margin; each dropped
    sector N would add at most w_N x_N / 2, and x_N never grows with N.
    ``metadata['truncation_bound']`` therefore bounds the error in P by half
    the dropped Poisson mass times x_(n_max+1), plus the float rounding of
    the log-space terms. ``metadata['trace_norm']`` is the trace norm of the
    truncated state difference.
    """
    if not (0.0 < tail_tol < 1.0):
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    n_max = poisson_tail_cutoff(pair.total, tail_tol) + TRUNCATION_SAFETY_MARGIN
    if n_max > max_total_photons:
        raise TruncationCeilingError(n_max, max_total_photons)
    tail_bound = poisson_upper_tail(pair.total, n_max)
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        # identical states: every sector is an exact tie
        return DiscriminationResult.from_error_probability(
            0.5,
            "helstrom_truncated",
            n_max=n_max,
            tail_tol=tail_tol,
            truncation_bound=0.5 * tail_bound,
            trace_norm=0.0,
        )
    errors, half_norms, rounding = _sectors(pair, n_max)
    x_next = math.exp(2.0 * (n_max + 1) * _log_abs_r(pair))
    return DiscriminationResult.from_error_probability(
        math.fsum(errors),
        "helstrom_truncated",
        n_max=n_max,
        tail_tol=tail_tol,
        truncation_bound=0.5 * tail_bound * x_next + float(rounding.sum()),
        trace_norm=2.0 * math.fsum(half_norms),
    )


def _mode_magnitudes(pair: PulsePair, n_cut: int) -> np.ndarray:
    """The weak-signal eigenvalue magnitudes lambda_n for n = 0 .. n_cut."""
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        return np.zeros(n_cut + 1)
    n = np.arange(n_cut + 1)
    logs = (
        math.log(2.0)
        + 0.5 * math.log(pair.alpha2)
        + (n + 0.5) * math.log(pair.beta2)
        - pair.beta2
        - 0.5 * (log_factorial(n) + log_factorial(n + 1))
    )
    return np.exp(logs)


def small_alpha_series_cutoff(beta2: float, rel_tol: float = SERIES_REL_TOL) -> int:
    """Index past which the weak-signal series tail is below rel_tol of the sum."""
    if beta2 < 0:
        raise ValueError(f"beta2 must be non-negative, got {beta2}")
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if beta2 == 0.0:
        return 0
    margin = 12.0 * math.sqrt(beta2 + 1.0) + 30.0
    probe = PulsePair(1.0, beta2)
    while True:
        n_cut = int(beta2 + margin)
        terms = _mode_magnitudes(probe, n_cut)
        total = float(terms.sum())
        # term ratio beta^2 / sqrt((n+1)(n+2)) < 1 gives a geometric tail bound
        ratio = beta2 / math.sqrt((n_cut + 1.0) * (n_cut + 2.0))
        if ratio < 1.0 and float(terms[-1]) * ratio / (1.0 - ratio) < rel_tol * total:
            return n_cut
        margin *= 2.0


def d_err_small_alpha(pair: PulsePair) -> float:
    """Weak-signal distinguishability series, summed to relative 1e-12.

    Linear in the signal amplitude; dividing by 2*alpha gives the ratio to
    the infinite-reference value, which is what the optimal-measurement
    sweep tabulates.
    """
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        return 0.0
    n_cut = small_alpha_series_cutoff(pair.beta2)
    return float(_mode_magnitudes(pair, n_cut).sum())
