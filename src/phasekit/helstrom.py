"""Optimal discrimination of the phase-averaged two-mode states.

Averaging the common optical phase away leaves two mixed states that are
block diagonal in the total photon number N. Both states give sector N the
same Poisson weight w_N = Poi(N; alpha^2 + beta^2), and inside it each is a
pure state; the two pure states overlap in x_N = r^(2N), with
r = (beta^2 - alpha^2) / (alpha^2 + beta^2). The minimum error probability
is therefore a weighted sum of pure-state Helstrom terms,

    P_err = 1/2 * sum over N of w_N * x_N / (1 + sqrt(1 - x_N)),

a sum of positive terms, so a tiny P keeps full relative precision. One
Poisson search row (``numerics._poisson_search``) sizes the sum, gives its
weights and bounds the mass it drops. A list of pairs (figure 5's columns)
takes one search per ``numerics._row_blocks`` block, in ``_optimal_rows``
and ``_series_rows``; the two public functions are their one-row calls.

As alpha -> 0 each sector's half trace norm w_N sqrt(1 - x_N) becomes
linear in alpha, and the sum D = sum over N of w_N sqrt(1 - x_N) tends to
the weak-signal series

    D ~ 2 alpha beta * E[1 / sqrt(n + 1)],  n ~ Poisson(beta^2),

whose n-th term is the eigenvalue magnitude
lambda_n = 2 alpha beta Poi(n; beta^2) / sqrt(n + 1) of the leading-order
state difference. It is summed to a Poisson tail mass of 1e-16, over the
weights of one search on beta^2; the log-space weights then limit its
accuracy, to about 5e-11 relative near beta^2 = 1e5 and 1e-9 near 1e6.

Both sums stop at photon counts within ``numerics.MAX_PHOTON_COUNT``; beyond
it they raise ``NumericalResourceError`` before allocating anything.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DiscriminationResult, PulsePair
from .numerics import NEG_INF, _checked_tail, _poisson_search, _row_blocks

__all__ = [
    "DEFAULT_TAIL_TOL",
    "TRUNCATION_SAFETY_MARGIN",
    "p_err_optimal",
    "d_err_small_alpha",
]

DEFAULT_TAIL_TOL = 1e-10

# sectors kept beyond the Poisson cutoff in total photons; the sector
# weights are exactly Poisson, so the margin only pushes the neglected mass
# far below tail_tol, at the cost of ten short terms; it stops early at the
# end of the cutoff search's vector, past which less than e^-30 * tail_tol lies
TRUNCATION_SAFETY_MARGIN = 10

_EPS = np.finfo(float).eps


def _log_abs_r(pair: PulsePair) -> float:
    """ln|r| with r = (beta^2 - alpha^2) / (alpha^2 + beta^2); both must be positive."""
    ratio = 2.0 * min(pair.alpha2, pair.beta2) / pair.total  # 1 - |r|
    # each form of ln|r| is accurate where the other one cancels
    if ratio <= 0.5:
        return math.log1p(-ratio)
    if pair.alpha2 != pair.beta2:
        return math.log(abs(pair.beta2 - pair.alpha2) / pair.total)
    return NEG_INF


def _searched_rows(pairs, mean: str, tail_mass: float):
    """Each pair's search row on its attribute ``mean``, or None where either pulse is empty.

    One ``_poisson_search`` per ``_row_blocks`` block, run as its first row is reached
    (one block held at a time); every row is a one-row search, bit for bit."""
    live = [getattr(pair, mean) for pair in pairs if pair.alpha2 != 0.0 and pair.beta2 != 0.0]
    rows = (row for block in _row_blocks(live)
            for row in zip(*_poisson_search(live[block], tail_mass)))
    return (next(rows) if pair.alpha2 != 0.0 and pair.beta2 != 0.0 else None for pair in pairs)


def _sectors(pair: PulsePair, log_w: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-sector terms for the weights w_N = exp(log_w); alpha^2 and beta^2 must be positive.

    Returns the Helstrom errors w_N x_N / (2 (1 + sqrt(1 - x_N))), the
    values w_N sqrt(1 - x_N) (half the trace norm of block N), and a bound
    on the float rounding of each error.
    """
    log_r = _log_abs_r(pair)
    ns = np.arange(len(log_w))
    log_x = np.zeros(len(log_w))  # x_0 = r^0 = 1, also when r = 0
    log_x[1:] = 2.0 * ns[1:] * log_r
    root = np.sqrt(-np.expm1(log_x))
    errors = 0.5 * np.exp(log_w + log_x) / (1.0 + root)
    # every log-space term carries an absolute error of a few ulp of its
    # largest part (ln|r| adds one ulp per unit of 2N), which exp turns into
    # a relative error of the sector term; ln N! is read back from log_w
    log_scale = (
        ns * abs(math.log(pair.total))
        + pair.total
        + (ns * math.log(pair.total) - pair.total - log_w)
        + np.where(np.isfinite(log_x), -log_x, 0.0)
        + 2.0 * ns
        + 2.0
    )
    return errors, w * root, 2.0 * _EPS * errors * log_scale


def _optimal_rows(pairs, tail_tol: float) -> list[DiscriminationResult]:
    """``p_err_optimal`` at each pair, from one Poisson search per row block."""
    _checked_tail(tail_tol)
    results = []
    for pair, row in zip(pairs, _searched_rows(pairs, "total", tail_tol)):
        if row is None:
            # identical states: an exact tie, with nothing to truncate
            results.append(DiscriminationResult(0.5, "helstrom_truncated", {"degenerate": True,
                "n_max": 0, "tail_tol": tail_tol, "truncation_bound": 0.0, "trace_norm": 0.0}))
            continue
        cut, log_w, w, tails, log_rest, upper = row
        n_max = min(cut + TRUNCATION_SAFETY_MARGIN, upper)
        errors, half_norms, rounding = _sectors(pair, log_w[: n_max + 1], w[: n_max + 1])
        tail_bound = float(tails[n_max + 1]) + math.exp(log_rest)
        x_next = math.exp(2.0 * (n_max + 1) * _log_abs_r(pair))
        results.append(DiscriminationResult(math.fsum(errors), "helstrom_truncated", {
            "n_max": n_max, "tail_tol": tail_tol,
            "truncation_bound": 0.5 * tail_bound * x_next + float(rounding.sum()),
            "trace_norm": 2.0 * math.fsum(half_norms)}))
    return results


def p_err_optimal(pair: PulsePair, tail_tol: float = DEFAULT_TAIL_TOL) -> DiscriminationResult:
    """Minimum error probability as a sum of per-sector pure-state terms.

    Sectors N = 0 .. n_max are kept, n_max being the Poisson cutoff of
    alpha^2 + beta^2 at ``tail_tol`` plus a safety margin, or the end of the
    cutoff search's vector where that comes first; each dropped
    sector N would add at most w_N x_N / 2, and x_N never grows with N.
    ``metadata['truncation_bound']`` therefore bounds the error in P by half
    the dropped Poisson mass times x_(n_max+1), plus the float rounding of
    the log-space terms. ``metadata['trace_norm']`` is the trace norm of the
    truncated state difference. One Poisson search gives the cutoff, the
    weights and the dropped mass, at a cost linear in n_max; the photon-count
    ceiling admits alpha^2 + beta^2 up to about 1.03e6. At alpha^2 = 0 or
    beta^2 = 0 the states are identical, and the exact tie 1/2 comes back
    with n_max = 0 and no cutoff sized.
    """
    return _optimal_rows([pair], tail_tol)[0]


def d_err_small_alpha(pair: PulsePair) -> float:
    """Weak-signal distinguishability 2 alpha beta E[1 / sqrt(n + 1)], n ~ Poisson(beta^2).

    Linear in the signal amplitude; dividing by 2*alpha gives the ratio to
    the infinite-reference value, which is what the optimal-measurement
    sweep tabulates.
    """
    return _series_rows([pair])[0]


def _series_rows(pairs) -> list[float]:
    """``d_err_small_alpha`` at each pair, from one Poisson search per row block."""
    values = []
    for pair, row in zip(pairs, _searched_rows(pairs, "beta2", 1e-16)):
        value = 0.0  # no signal
        if row is not None:
            n_cut, _, weights = row[:3]
            terms = weights[: n_cut + 1] / np.sqrt(np.arange(1.0, n_cut + 2.0))
            value = 2.0 * pair.alpha * pair.beta * float(terms.sum())
        values.append(value)
    return values
