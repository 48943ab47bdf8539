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
``_limit_pair`` is the one map from a simple receiver's name to its
strong-reference limit and finite-reference form; the CLI's ``kennedy`` and
``homodyne`` subcommands and the figure 1-2 tables all read it.

Two row kernels compute every truncated-sum P, one row per grid point and
one ``numerics._pmf_rows`` call per port: ``_ml_error`` on ``_ml_means``
rows, ``_count_error`` on ``_count_means`` rows. Both row formers decide
ties in ``_checked_row``, and ``_one_row_result`` makes one row a result.
Every grid is built here: ``_angle_errors`` over splitter angles
(``best_angle``, the figure 3-4 sweeps) and ``_count_errors`` over pulse
pairs (figure 2), one kernel call per ``_row_errors`` block, so only the
angle a search reports pays for a validated splitter and metadata.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (Beamsplitter, DiscriminationResult, PulsePair, _checked_integer,
                    _checked_probability, _checked_strength, _square, homodyne_splitter, port_means)
from .numerics import (MAX_PHOTON_COUNT, NumericalResourceError, _checked_tail, _pmf_rows,
                       _row_blocks)

__all__ = ["DEFAULT_TAIL_TOL", "TIE_LOG_BAND", "p_min_pure", "p_kennedy_asymptotic",
           "p_homodyne_asymptotic", "p_kennedy_generalized", "p_homodyne_generalized",
           "p_beamsplitter_ml", "best_angle"]

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


def _tied(row) -> bool:
    """Whether a row of port means is the same under both hypotheses (its 0::2 and 1::2 halves)."""
    return row[0::2] == row[1::2]


def _checked_row(means: tuple, signal: bool) -> tuple:
    """A kernel's row of port means; a tie in floats alone past the ceiling is refused.

    Both kernels give a tied row P = 1/2, exact where ``signal`` is false (a
    zero strength, or phi = 0). A tie that only hides a signal below float
    resolution moves D by less than about 1e-12 within ``MAX_PHOTON_COUNT``.
    """
    if signal and max(means) > MAX_PHOTON_COUNT and _tied(means):
        raise NumericalResourceError(
            f"means of {max(means):.4g} tie in floats only past the ceiling of {MAX_PHOTON_COUNT}")
    return means


def _one_row_result(kernel, row, tail_tol, method, cut_names, tolerances=(), **metadata):
    """A row kernel's P at one row of means as a result, with its truncation bookkeeping.

    A tied row is ``degenerate``, with ``metadata`` alone. Otherwise
    ``metadata`` is followed by ``tail_tol``, the cutoffs under ``cut_names``,
    the mass the pmfs drop, ``error_bound`` (``tail_tol`` per pmf plus the
    pmfs' rounding excess above 1) and the receiver's ``tolerances``.
    """
    (p,), truncation = kernel([row], tail_tol)
    if truncation is None:
        return DiscriminationResult(p, method, {"degenerate": True, **metadata})
    *cuts, pmfs = truncation
    # a one-row block is exactly as wide as its row's pmfs
    neglected, excess = _mass_accounting(*(block[0] for block in pmfs))
    cut_metadata = {name: row_cuts[0] for name, row_cuts in zip(cut_names, cuts)}
    return DiscriminationResult(p, method, {
        **metadata, "tail_tol": tail_tol, **cut_metadata, "neglected_mass": neglected,
        "error_bound": len(pmfs) * tail_tol + excess, **dict(tolerances)})


def _ml_slopes(
    n1_plus: float, n1_minus: float, n2_plus: float, n2_minus: float
) -> tuple[float, float]:
    """Slopes (a, b) of the log-likelihood ratio ln L+ - ln L- = a*n + b*m.

    Energy conservation cancels the Poisson constants, leaving
    a = ln(n1+/n1-) >= 0 >= b = ln(n2+/n2-); a port that is dark under one
    hypothesis gives an infinite slope, so a count there settles the
    decision outright.
    """
    a = math.inf if n1_minus == 0.0 else math.log(n1_plus / n1_minus)
    b = -math.inf if n2_plus == 0.0 else math.log(n2_plus / n2_minus)
    return a, b


def _ml_score(slope: float, counts: np.ndarray) -> np.ndarray:
    """slope * counts, where a zero count scores 0 (never 0 * inf = nan)."""
    if math.isfinite(slope):
        return counts * slope
    return np.where(counts > 0, slope, 0.0) * counts


def _no_signal_tie(alpha2: float) -> dict:
    """Metadata of a signal-only form (``p_min_pure``, both asymptotic forms): with no
    signal both hypotheses are the same state, an exact, ``degenerate`` tie 1/2."""
    return {"degenerate": True} if alpha2 == 0.0 else {}


def p_min_pure(alpha2: float) -> DiscriminationResult:
    """Minimum error probability for the two pure signal states alone.

    Equals (1 - sqrt(1 - e^(-4 alpha^2))) / 2, evaluated in the equivalent
    form x / (2 (1 + sqrt(1 - x))) with x = e^(-4 alpha^2), which keeps full
    relative precision in the strong-signal regime where P is tiny.
    """
    _checked_strength("alpha2", alpha2)
    x = math.exp(-4.0 * alpha2)
    p = x / (2.0 * (1.0 + math.sqrt(-math.expm1(-4.0 * alpha2))))
    return DiscriminationResult(p, "helstrom_pure", _no_signal_tie(alpha2))


def p_kennedy_asymptotic(alpha2: float) -> DiscriminationResult:
    """Dark-port counting with an arbitrarily strong reference; alpha^2 must be finite."""
    _checked_strength("alpha2", alpha2)
    p = 0.5 * math.exp(-4.0 * alpha2)
    return DiscriminationResult(p, "kennedy_asymptotic", _no_signal_tie(alpha2))


def p_homodyne_asymptotic(alpha2: float) -> DiscriminationResult:
    """Balanced-splitter comparison in the strong-reference (Gaussian) limit; alpha^2 finite."""
    _checked_strength("alpha2", alpha2)
    # P[Z > 2 alpha] for a standard normal Z
    p = 0.5 * math.erfc(2.0 * math.sqrt(alpha2) / math.sqrt(2.0))
    return DiscriminationResult(p, "homodyne_asymptotic", _no_signal_tie(alpha2))


def p_kennedy_generalized(pair: PulsePair) -> DiscriminationResult:
    """Dark-port counting with a finite reference.

    Closed form exp(-4 alpha^2 beta^2 / (alpha^2 + beta^2)) / 2, exactly
    symmetric under swapping the signal and reference strengths. With either
    pulse empty both hypotheses give the same clicks: an exact, degenerate
    tie 1/2. Where 4 alpha^2 beta^2
    overflows, the exponent is taken in the equivalent form 4 lo / (1 + lo / hi)
    of the smaller and larger strength, which cannot overflow.
    """
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        return DiscriminationResult(0.5, "kennedy_generalized", {"degenerate": True})
    exponent = 4.0 * pair.alpha2 * pair.beta2 / pair.total
    if not exponent < math.inf:
        lo, hi = sorted((pair.alpha2, pair.beta2))
        exponent = 4.0 * lo / (1.0 + lo / hi)
    p = 0.5 * math.exp(-exponent)
    return DiscriminationResult(p, "kennedy_generalized")


def _count_means(pair: PulsePair) -> tuple[float, float]:
    """Port means (beta + alpha)^2 / 2 and (beta - alpha)^2 / 2 behind the balanced splitter."""
    alpha, beta = pair.alpha, pair.beta
    means = 0.5 * _square(beta + alpha), 0.5 * _square(beta - alpha)
    return _checked_row(means, min(alpha, beta) > 0.0)


def _ml_means(alpha: float, beta: float, r: float, t: float) -> tuple[float, ...]:
    """``model.port_means`` of the amplitudes behind the splitter (r, t), as a checked row."""
    return _checked_row(port_means(alpha, beta, r, t), min(alpha, beta, t) > 0.0)


def _count_error(means, tail_tol: float):
    """Error probability of the count comparison at each row (mean_hi, mean_lo) of ``_count_means``.

    Returns (P, truncation): P a list of floats absorbed into [0, 1/2] as a
    result stores them, truncation the ``numerics._pmf_rows`` cutoffs and
    (pmf_hi, pmf_lo) blocks of the rows whose two means differ, or None when
    none do. Equal means tie on every outcome, P = 1/2; a signal below float
    resolution ties so only within the ceiling (``_checked_row``). The guess
    follows the larger count, a fair coin on equality; each row's sums are
    1-D dot products over its own 0 .. cut.
    """
    _checked_tail(tail_tol)
    live = [i for i, row in enumerate(means) if not _tied(row)]
    ps = [0.5] * len(means)
    if not live:
        return ps, None
    his, los = zip(*(means[i] for i in live))
    cuts, (pmf_hi, pmf_lo) = _pmf_rows(his, los, tail_tol)
    cdf_hi = pmf_hi.cumsum(axis=1)
    for j, (i, cut) in enumerate(zip(live, cuts)):
        hi, lo = pmf_hi[j, : cut + 1], pmf_lo[j, : cut + 1]
        ps[i] = _checked_probability(float(lo[1:] @ cdf_hi[j, :cut]) + 0.5 * float(hi @ lo))
    return ps, (cuts, (pmf_hi, pmf_lo))


def p_homodyne_generalized(
    pair: PulsePair, tail_tol: float = DEFAULT_TAIL_TOL
) -> DiscriminationResult:
    """Count comparison behind a balanced splitter with a finite reference.

    The two ports hold Poisson counts with means (beta +/- alpha)^2 / 2;
    the guess follows the larger count, a fair coin on equality. The double
    sum is truncated so each port neglects less than ``tail_tol`` of mass.
    P comes from the row kernel ``_count_error`` on this one pair, the
    bookkeeping from ``_one_row_result``.
    """
    row = _count_means(pair)
    return _one_row_result(_count_error, row, tail_tol, "homodyne_generalized", ("cutoff",))


def _limit_pair(receiver: str):
    """(asymptotic(alpha2), generalized(pair)) of the named simple receiver, looked
    up in this module's globals per call so that rebound names (tracer wrappers) count."""
    return {
        "kennedy": (p_kennedy_asymptotic, p_kennedy_generalized),
        "homodyne": (p_homodyne_asymptotic, p_homodyne_generalized),
    }[receiver]


def _ml_error(means, tail_tol: float):
    """Error probability of the maximum-likelihood decision at each row of ``port_means``.

    Returns (P, truncation): P a list of floats absorbed into [0, 1/2] as a
    result stores them, also a P above 1/2 by no more than the row's pmfs'
    rounding excess that ``error_bound`` carries; truncation the cutoffs
    (n_cuts, m_cuts) and ``numerics._pmf_rows`` blocks (port 1 plus and
    minus, port 2 plus and minus; plus is bright at port 1, minus at port 2)
    of the untied rows, or None when every row is ``_tied``, P = 1/2.

    The log-likelihood ratio of an outcome is linear, ln L+ - ln L- =
    a*n + b*m (``_ml_slopes``), so the decision boundary is a line through
    the origin of count space. Each count n on port 1 therefore splits the
    m-axis into three runs, PLUS on [0, k1), tie on [k1, k2) and MINUS from
    k2 on, and its errors are two lookups into cumulative sums of the port-2
    pmfs, built once per block; a row costs O(n_cut log m_cut), and its sums
    are 1-D dot products over its own 0 .. n_cut, never over the padding.
    Outcomes whose scores lie within ``TIE_LOG_BAND`` of zero count as ties
    and contribute half their mass to the error.
    """
    _checked_tail(tail_tol)
    live = [i for i, row in enumerate(means) if not _tied(row)]
    ps = [0.5] * len(means)
    if not live:
        return ps, None
    rows = [means[i] for i in live]
    # port 1 is bright under PLUS, port 2 under MINUS
    n1p, n1m, n2p, n2m = zip(*rows)
    n_cuts, (pmf1p, pmf1m) = _pmf_rows(n1p, n1m, tail_tol)
    m_cuts, (pmf2m, pmf2p) = _pmf_rows(n2m, n2p, tail_tol)
    # err+ takes mass from the upper end of port 2 and err- from the lower
    # end, so tails are summed from the far end and heads from zero: each
    # term keeps its relative precision when P is tiny. Half of the tie run
    # [k1, k2) added to the decided run is the mean of the two lookups.
    tail2p = np.zeros((len(rows), pmf2p.shape[1] + 1))
    pmf2p[:, ::-1].cumsum(axis=1, out=tail2p[:, -2::-1])
    head2m = np.zeros(tail2p.shape)
    pmf2m.cumsum(axis=1, out=head2m[:, 1:])
    counts = np.arange(max(pmf1p.shape[1], pmf2p.shape[1]))
    for j, (i, row, n_cut, m_cut) in enumerate(zip(live, rows, n_cuts, m_cuts)):
        a, b = _ml_slopes(*row)
        score1 = _ml_score(a, counts[: n_cut + 1])
        score2 = _ml_score(-b, counts[: m_cut + 1])
        k1 = score2.searchsorted(score1 - TIE_LOG_BAND, side="left")
        k2 = score2.searchsorted(score1 + TIE_LOG_BAND, side="right")
        p1p, p1m, tail, head = pmf1p[j, : n_cut + 1], pmf1m[j, : n_cut + 1], tail2p[j], head2m[j]
        err_plus = 0.5 * float(p1p @ (tail[k1] + tail[k2]))
        err_minus = 0.5 * float(p1m @ (head[k1] + head[k2]))
        p = 0.5 * (err_plus + err_minus)
        if p > 0.5 and p - 0.5 <= _mass_accounting(
            p1p, p1m, pmf2p[j, : m_cut + 1], pmf2m[j, : m_cut + 1]
        )[1]:
            p = 0.5
        ps[i] = _checked_probability(p)
    return ps, (n_cuts, m_cuts, (pmf1p, pmf1m, pmf2p, pmf2m))


def _row_errors(kernel, means, tail_tol: float) -> list[float]:
    """P of a row kernel (``_ml_error``, ``_count_error``) at every row of port means.

    One kernel call per ``numerics._row_blocks`` block: one for a grid of
    weak means, several at strong reference, which keeps peak memory flat.
    """
    ps = []
    for rows in _row_blocks([max(row) for row in means]):
        ps += kernel(means[rows], tail_tol)[0]
    return ps


def _angle_errors(pair: PulsePair, phis, tail_tol: float) -> list[float]:
    """Maximum-likelihood P of the pair behind the splitter at each angle in ``phis``."""
    alpha, beta = pair.alpha, pair.beta
    means = [_ml_means(alpha, beta, math.cos(phi), math.sin(phi)) for phi in phis]
    return _row_errors(_ml_error, means, tail_tol)


def _angle_grid(points: int) -> list[float]:
    """``points`` angles spaced evenly over [0, pi/4]; past the ceiling, refused unbuilt."""
    if points > MAX_PHOTON_COUNT:
        raise NumericalResourceError(f"{points} angles exceed the ceiling of {MAX_PHOTON_COUNT}")
    return np.linspace(0.0, math.pi / 4.0, points).tolist()


def _count_errors(pairs, tail_tol: float) -> list[float]:
    """Count-comparison P of each pair, each bit for bit ``p_homodyne_generalized``'s."""
    return _row_errors(_count_error, [_count_means(pair) for pair in pairs], tail_tol)


def p_beamsplitter_ml(
    pair: PulsePair, splitter: Beamsplitter, tail_tol: float = DEFAULT_TAIL_TOL
) -> DiscriminationResult:
    """Maximum-likelihood decision over joint counts (n, m) behind a splitter.

    P comes from ``_ml_error`` on the one ``_ml_means`` row of the validated
    pair and splitter, the bookkeeping from ``_one_row_result``.
    """
    row = _ml_means(pair.alpha, pair.beta, splitter.r, splitter.t)
    return _one_row_result(_ml_error, row, tail_tol, "beamsplitter_ml", ("n_cut", "m_cut"),
                           {"tie_log_band": TIE_LOG_BAND}, phi=splitter.phi)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _searched_angle(pair: PulsePair, phis: list[float], tail_tol: float) -> float:
    """The best of every angle evaluated: the grid ``phis`` in one ``_angle_errors``
    call, then golden-section steps around its minimum, one angle each, to ``ANGLE_TOL``."""

    def evaluate(phi: float) -> float:
        (p,) = _angle_errors(pair, [phi], tail_tol)
        evaluated[phi] = p
        return p

    grid = _angle_errors(pair, phis, tail_tol)
    evaluated = dict(zip(phis, grid))
    idx = int(np.argmin(grid))
    a, b = phis[max(idx - 1, 0)], phis[min(idx + 1, len(phis) - 1)]
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
    return min(evaluated, key=lambda phi: (evaluated[phi], phi))


def best_angle(
    pair: PulsePair, grid_points: int = 64, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[Beamsplitter, DiscriminationResult]:
    """Minimise the maximum-likelihood error over the splitter family.

    A uniform grid over [0, pi/4] locates the rough minimum; golden-section
    refinement narrows the bracket to 1e-6 rad (``_searched_angle``). The
    error curve has kinks where decision regions change, so the search is
    derivative-free and the reported optimum is the best of every angle
    actually evaluated. With either pulse empty every angle ties at 1/2 and
    the balanced splitter is reported unsearched. Only the reported angle
    goes through ``p_beamsplitter_ml``, and its result (the same P) is
    returned with ``grid_points`` and ``angle_tol`` added to the metadata.
    """
    _checked_integer("grid_points", grid_points)
    if grid_points < 16:
        raise ValueError(f"grid_points must be at least 16, got {grid_points}")
    phis = _angle_grid(grid_points)
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        splitter = homodyne_splitter()
    else:
        splitter = Beamsplitter(_searched_angle(pair, phis, tail_tol))
    result = p_beamsplitter_ml(pair, splitter, tail_tol)
    # the result was built here and owns its metadata dict
    result.metadata.update(grid_points=grid_points, angle_tol=ANGLE_TOL)
    return splitter, result
