"""Error probabilities for the linear-optics receivers.

Four receivers are covered, together with the optimal angle search inside
the one-parameter splitter family:

* photon counting on a dark port after amplitude cancellation (Kennedy
  style), in its infinite-reference and finite-reference forms;
* comparing counts behind a balanced splitter (homodyne style), again in
  both forms;
* the maximum-likelihood decision over joint counts behind an arbitrary
  splitter angle, which contains the two above as the special angles
  phi = arctan(alpha/beta) and phi = pi/4.

Every finite sum is truncated with an explicit Poisson tail budget, and
each result carries its truncation bookkeeping in ``metadata``.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    Beamsplitter,
    DiscriminationResult,
    OutputMeans,
    PulsePair,
    homodyne_splitter,
    output_means,
)
from .numerics import (
    gaussian_upper_tail,
    log_poisson_pmf_array,
    poisson_tail_cutoff,
)

__all__ = [
    "DEFAULT_TAIL_TOL",
    "TIE_LOG_BAND",
    "p_min_pure",
    "p_kennedy_asymptotic",
    "p_homodyne_asymptotic",
    "p_kennedy_generalized",
    "p_homodyne_generalized",
    "p_beamsplitter_ml",
    "best_angle",
]

DEFAULT_TAIL_TOL = 1e-12

# outcomes whose log-likelihoods agree this closely count as ties; exact
# float equality would miss ties that are exact in real arithmetic
TIE_LOG_BAND = 1e-12

ANGLE_TOL = 1e-6


def _mass_accounting(*pmfs: np.ndarray) -> tuple[float, float]:
    """Tail mass the truncated pmfs drop, and their rounding excess above 1.

    A truncated pmf sums to at most 1 in exact arithmetic. At large means the
    log-pmf rounding can push the float sum above 1 (by 7.9e-12 at mean 1e4);
    the error bound must cover that excess on top of the truncation budget.
    """
    totals = [float(pmf.sum()) for pmf in pmfs]
    neglected = sum(max(0.0, 1.0 - total) for total in totals)
    excess = sum(max(0.0, total - 1.0) for total in totals)
    return neglected, excess


def _ml_slopes(means: OutputMeans) -> tuple[float, float]:
    """Slopes (a, b) of the log-likelihood ratio ln L+ - ln L- = a*n + b*m.

    Energy conservation cancels the Poisson constants, leaving
    a = ln(n1+/n1-) >= 0 >= b = ln(n2+/n2-); a port that is dark under one
    hypothesis gives an infinite slope, so a count there settles the
    decision outright.
    """
    a = math.inf if means.n1_minus == 0.0 else math.log(means.n1_plus / means.n1_minus)
    b = -math.inf if means.n2_plus == 0.0 else math.log(means.n2_plus / means.n2_minus)
    return a, b


def _ml_score(slope: float, counts: np.ndarray) -> np.ndarray:
    """slope * counts, where a zero count scores 0 (never 0 * inf = nan)."""
    return np.where(counts > 0, slope, 0.0) * counts


def p_min_pure(alpha2: float) -> DiscriminationResult:
    """Minimum error probability for the two pure signal states alone.

    Equals (1 - sqrt(1 - e^(-4 alpha^2))) / 2, evaluated in the equivalent
    form x / (2 (1 + sqrt(1 - x))) with x = e^(-4 alpha^2), which keeps full
    relative precision in the strong-signal regime where P is tiny.
    """
    if alpha2 < 0:
        raise ValueError(f"alpha2 must be non-negative, got {alpha2}")
    x = math.exp(-4.0 * alpha2)
    p = x / (2.0 * (1.0 + math.sqrt(-math.expm1(-4.0 * alpha2))))
    return DiscriminationResult.from_error_probability(p, "helstrom_pure")


def p_kennedy_asymptotic(alpha2: float) -> DiscriminationResult:
    """Dark-port counting with an arbitrarily strong reference."""
    if alpha2 < 0:
        raise ValueError(f"alpha2 must be non-negative, got {alpha2}")
    p = 0.5 * math.exp(-4.0 * alpha2)
    return DiscriminationResult.from_error_probability(p, "kennedy_asymptotic")


def p_homodyne_asymptotic(alpha2: float) -> DiscriminationResult:
    """Balanced-splitter comparison in the strong-reference (Gaussian) limit."""
    if alpha2 < 0:
        raise ValueError(f"alpha2 must be non-negative, got {alpha2}")
    p = gaussian_upper_tail(2.0 * math.sqrt(alpha2))
    return DiscriminationResult.from_error_probability(p, "homodyne_asymptotic")


def p_kennedy_generalized(pair: PulsePair) -> DiscriminationResult:
    """Dark-port counting with a finite reference.

    Closed form exp(-4 alpha^2 beta^2 / (alpha^2 + beta^2)) / 2, exactly
    symmetric under swapping the signal and reference strengths. With no
    light at all the guess is forced random.
    """
    if pair.total == 0.0:
        return DiscriminationResult.from_error_probability(
            0.5, "kennedy_generalized", degenerate=True
        )
    p = 0.5 * math.exp(-4.0 * pair.alpha2 * pair.beta2 / (pair.alpha2 + pair.beta2))
    return DiscriminationResult.from_error_probability(p, "kennedy_generalized")


def p_homodyne_generalized(
    pair: PulsePair, tail_tol: float = DEFAULT_TAIL_TOL
) -> DiscriminationResult:
    """Count comparison behind a balanced splitter with a finite reference.

    The two ports hold Poisson counts with means (beta +/- alpha)^2 / 2;
    the guess follows the larger count, a fair coin on equality. The double
    sum is truncated so each port neglects less than ``tail_tol`` of mass.
    """
    if not (0.0 < tail_tol < 1.0):
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if pair.alpha2 == 0.0:
        # identical port statistics under both hypotheses: forced random guess
        return DiscriminationResult.from_error_probability(
            0.5, "homodyne_generalized", degenerate=True
        )
    alpha, beta = pair.alpha, pair.beta
    mean_hi = 0.5 * (beta + alpha) ** 2
    mean_lo = 0.5 * (beta - alpha) ** 2
    cut = max(poisson_tail_cutoff(mean_hi, tail_tol), poisson_tail_cutoff(mean_lo, tail_tol))
    pmf_hi = np.exp(log_poisson_pmf_array(cut, mean_hi))
    pmf_lo = np.exp(log_poisson_pmf_array(cut, mean_lo))
    cdf_hi = np.cumsum(pmf_hi)
    p = float(pmf_lo[1:] @ cdf_hi[:-1]) + 0.5 * float(pmf_hi @ pmf_lo)
    neglected, excess = _mass_accounting(pmf_hi, pmf_lo)
    return DiscriminationResult.from_error_probability(
        p,
        "homodyne_generalized",
        tail_tol=tail_tol,
        cutoff=cut,
        neglected_mass=neglected,
        error_bound=2.0 * tail_tol + excess,
    )


def p_beamsplitter_ml(
    pair: PulsePair, splitter: Beamsplitter, tail_tol: float = DEFAULT_TAIL_TOL
) -> DiscriminationResult:
    """Maximum-likelihood decision over joint counts (n, m) behind a splitter.

    The log-likelihood ratio of an outcome is linear, ln L+ - ln L- =
    a*n + b*m (``_ml_slopes``), so the decision boundary is a line through
    the origin of count space. Each row n therefore splits the m-axis into
    three runs, PLUS on [0, k1), tie on [k1, k2) and MINUS from k2 on, and
    its errors are two lookups into cumulative sums of the port-2 pmfs; the
    whole sum costs O(n_cut log m_cut). Outcomes whose scores lie within
    ``TIE_LOG_BAND`` of zero count as ties and contribute half their mass
    to the error.
    """
    if not (0.0 < tail_tol < 1.0):
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    means = output_means(pair, splitter)
    if means.n1_plus == means.n1_minus and means.n2_plus == means.n2_minus:
        # identical port statistics under both hypotheses (no signal, no
        # reference, or phi = 0): every outcome is an exact tie
        return DiscriminationResult.from_error_probability(
            0.5, "beamsplitter_ml", degenerate=True, phi=splitter.phi
        )
    a, b = _ml_slopes(means)
    n_cut = max(
        poisson_tail_cutoff(means.n1_plus, tail_tol),
        poisson_tail_cutoff(means.n1_minus, tail_tol),
    )
    m_cut = max(
        poisson_tail_cutoff(means.n2_plus, tail_tol),
        poisson_tail_cutoff(means.n2_minus, tail_tol),
    )
    pmf1p = np.exp(log_poisson_pmf_array(n_cut, means.n1_plus))
    pmf1m = np.exp(log_poisson_pmf_array(n_cut, means.n1_minus))
    pmf2p = np.exp(log_poisson_pmf_array(m_cut, means.n2_plus))
    pmf2m = np.exp(log_poisson_pmf_array(m_cut, means.n2_minus))
    score1 = _ml_score(a, np.arange(n_cut + 1))
    score2 = _ml_score(-b, np.arange(m_cut + 1))
    k1 = np.searchsorted(score2, score1 - TIE_LOG_BAND, side="left")
    k2 = np.searchsorted(score2, score1 + TIE_LOG_BAND, side="right")
    # err+ takes mass from the upper end of port 2 and err- from the lower
    # end, so tails are summed from the far end and heads from zero: each
    # term keeps its relative precision when P is tiny. Half of the tie run
    # [k1, k2) added to the decided run is the mean of the two lookups.
    tail2p = np.concatenate((np.cumsum(pmf2p[::-1])[::-1], [0.0]))
    head2m = np.concatenate(([0.0], np.cumsum(pmf2m)))
    err_plus = 0.5 * float(pmf1p @ (tail2p[k1] + tail2p[k2]))
    err_minus = 0.5 * float(pmf1m @ (head2m[k1] + head2m[k2]))
    p = 0.5 * (err_plus + err_minus)
    neglected, excess = _mass_accounting(pmf1p, pmf1m, pmf2p, pmf2m)
    return DiscriminationResult.from_error_probability(
        p,
        "beamsplitter_ml",
        phi=splitter.phi,
        tail_tol=tail_tol,
        n_cut=n_cut,
        m_cut=m_cut,
        neglected_mass=neglected,
        error_bound=4.0 * tail_tol + excess,
        tie_log_band=TIE_LOG_BAND,
    )


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def best_angle(
    pair: PulsePair, grid_points: int = 64, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[Beamsplitter, DiscriminationResult]:
    """Minimise the maximum-likelihood error over the splitter family.

    A uniform grid over [0, pi/4] locates the rough minimum; golden-section
    refinement narrows the bracket to 1e-6 rad. The error curve has kinks
    where decision regions change, so the search is derivative-free and the
    reported optimum is the best of every angle actually evaluated.
    """
    if grid_points < 16:
        raise ValueError(f"grid_points must be at least 16, got {grid_points}")
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        return homodyne_splitter(), p_beamsplitter_ml(pair, homodyne_splitter(), tail_tol)

    evaluated: dict[float, DiscriminationResult] = {}

    def evaluate(phi: float) -> float:
        result = p_beamsplitter_ml(pair, Beamsplitter(phi), tail_tol)
        evaluated[phi] = result
        return result.error_probability

    phis = np.linspace(0.0, math.pi / 4.0, grid_points)
    idx = int(np.argmin([evaluate(float(phi)) for phi in phis]))
    lo = float(phis[max(idx - 1, 0)])
    hi = float(phis[min(idx + 1, grid_points - 1)])

    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = evaluate(c), evaluate(d)
    while (b - a) > ANGLE_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = evaluate(d)

    best_phi = min(evaluated, key=lambda phi: (evaluated[phi].error_probability, phi))
    result = evaluated[best_phi]
    metadata = dict(result.metadata)
    metadata.update(grid_points=grid_points, angle_tol=ANGLE_TOL)
    return (
        Beamsplitter(best_phi),
        DiscriminationResult.from_error_probability(
            result.error_probability, result.method, **metadata
        ),
    )

