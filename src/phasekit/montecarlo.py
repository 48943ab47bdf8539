"""Stochastic oracle: simulate click statistics and estimate error rates.

Trials draw a hypothesis fairly, Poisson counts per output port, and apply
one of three decision rules; the maximum-likelihood rule scores a trial with
the analytic receiver's straight boundary a*n + b*m, so both routes share
one rule and one tie band. Counts with mean below 30 are sampled by
inverting a single uniform draw against the Poisson CDF, looked up in a
guide table built once per run (indexed search, Chen & Asau 1974); larger
means fall back to the generator's own Poisson sampler. Streams come from
numpy's PCG64 seeded through ``SeedSequence(seed).spawn``, one child per
fixed-size trial block, so runs are reproducible bit for bit and block
results merge by plain addition regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._parallel import parallel_map
from .model import (
    QUARTER_PI,
    Beamsplitter,
    OutputMeans,
    PulsePair,
    output_means,
)
from .receivers import TIE_LOG_BAND, _ml_score, _ml_slopes

__all__ = [
    "ConfigurationError",
    "DecisionRule",
    "TrialConfig",
    "EstimateResult",
    "sample_poisson",
    "run_trials",
]

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

BLOCK_TRIALS = 1 << 16

_INVERSION_MEAN_LIMIT = 30.0


class ConfigurationError(ValueError):
    """A decision rule was paired with a splitter it cannot serve."""


class DecisionRule(Enum):
    ML_JOINT = "ml"
    KENNEDY_SINGLE_PORT = "kennedy"
    HOMODYNE_COMPARE = "homodyne"


@dataclass(frozen=True)
class TrialConfig:
    """Everything one simulation run depends on."""

    pair: PulsePair
    splitter: Beamsplitter
    rule: DecisionRule
    trials: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.rule is DecisionRule.HOMODYNE_COMPARE:
            if abs(self.splitter.phi - QUARTER_PI) > 1e-12:
                raise ConfigurationError(
                    "count comparison is only meaningful at the balanced angle pi/4"
                )
        if self.rule is DecisionRule.KENNEDY_SINGLE_PORT:
            if output_means(self.pair, self.splitter).n2_plus != 0.0:
                raise ConfigurationError(
                    "the single-port rule needs port 2 dark under PLUS, i.e. the "
                    "cancellation angle arctan(alpha/beta)"
                )


@dataclass(frozen=True)
class EstimateResult:
    """Empirical error rate with its 99% normal-approximation interval."""

    errors: int
    trials: int
    seed: int
    error_rate: float
    standard_error: float
    ci99_low: float
    ci99_high: float

    @classmethod
    def from_counts(cls, errors: int, trials: int, seed: int) -> "EstimateResult":
        rate = errors / trials
        se = math.sqrt(rate * (1.0 - rate) / trials)
        return cls(
            errors=errors,
            trials=trials,
            seed=seed,
            error_rate=rate,
            standard_error=se,
            ci99_low=max(0.0, rate - Z99 * se),
            ci99_high=min(1.0, rate + Z99 * se),
        )

    def contains(self, value: float) -> bool:
        return self.ci99_low <= value <= self.ci99_high


def _inversion_cap(top: float) -> int:
    # the largest count inversion returns for a block whose largest mean is
    # ``top``; it only binds on uniforms above a CDF that saturates below 1
    return int(top + 50.0 * math.sqrt(top + 1.0) + 200.0)


# no block's cap exceeds this, so one CDF length serves all of them
_CDF_LENGTH = _inversion_cap(_INVERSION_MEAN_LIMIT)

# uniforms are multiples of 2**-53, so u * _GUIDE_BINS floors exactly
_GUIDE_BINS = 1 << 16


def _poisson_cdf(means) -> np.ndarray:
    """One CDF row ``cum[r, 0 .. _CDF_LENGTH - 1]`` per mean.

    Rows follow the float recurrence pmf_0 = exp(-mean), pmf_k =
    pmf_(k-1) * (mean / k), cum_k = cum_(k-1) + pmf_k: cumprod and cumsum
    accumulate left to right, one IEEE operation per step, exactly as the
    recurrence does. The far tail underflows to 0.
    """
    col = np.asarray(means, dtype=float)[:, None]
    with np.errstate(under="ignore"):
        pmf = np.cumprod(
            np.concatenate((np.exp(-col), col / np.arange(1, _CDF_LENGTH)), axis=1),
            axis=1,
        )
    return np.cumsum(pmf, axis=1)


class _InversionTable:
    """Poisson CDFs of two means, each with a guide for indexed search.

    Row r holds the CDF ``cum[r]`` of ``_poisson_cdf`` and ``guide[r, b]``,
    the number of ``cum[r, k]`` below b / _GUIDE_BINS. A uniform in bin b
    inverts to ``guide[r, b]`` unless a CDF step falls inside the bin
    (``guide[r, b + 1]`` differs), in which case a binary search over the
    row settles it.
    """

    def __init__(self, means) -> None:
        self.cum = _poisson_cdf(means)
        # cum never decreases, and with G = _GUIDE_BINS, cum < b / G exactly
        # when floor(cum * G) < b (* G is exact), so guide[b] = k on the bins
        # from floor(cum[k - 1] * G) + 1 up to floor(cum[k] * G)
        starts = (self.cum * _GUIDE_BINS).astype(np.intp) + 1
        counts = np.arange(_CDF_LENGTH + 1, dtype=np.int16)
        self.guide = np.stack(
            [np.repeat(counts, np.diff(row, prepend=0, append=_GUIDE_BINS + 1)) for row in starts]
        )

    def invert(self, u: np.ndarray, upper: np.ndarray, cap: int) -> np.ndarray:
        """min(first k with u <= cum[row, k], cap) for each uniform of ``u``.

        ``u`` is one-dimensional. Uniforms where the boolean array ``upper``
        is true read row 1, the others row 0.
        """
        stride = _GUIDE_BINS + 1
        b = (u * _GUIDE_BINS).astype(np.intp)
        b += upper * stride
        flat = self.guide.ravel()
        counts = flat[b]
        # flat[1:][b] is each bin's upper edge, without a b + 1 temporary
        step = np.flatnonzero(flat[1:][b] != counts)
        if step.size:
            step_rows = b[step] // stride
            for r, cum in enumerate(self.cum):
                at = step[step_rows == r]
                counts[at] = np.searchsorted(cum, u[at])
        return np.minimum(counts, cap).astype(np.int64)


def sample_poisson(mean: float, rng: np.random.Generator, size=None):
    """Poisson counts; a single int when ``size`` is None, else an array.

    A zero mean returns 0 without consuming randomness. Means below 30 invert
    one uniform per draw by binary search over the Poisson CDF, the same
    inversion ``run_trials`` reads from its guide tables, so the draws match
    it; larger means delegate to ``rng.poisson``. Nothing in the package
    calls this: ``run_trials`` draws whole blocks through ``_draw_counts``.
    """
    if mean < 0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    if mean == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    if mean < _INVERSION_MEAN_LIMIT:
        u = rng.random(size)
        counts = np.minimum(np.searchsorted(_poisson_cdf([mean])[0], u), _inversion_cap(mean))
        return int(counts) if size is None else counts.astype(np.int64)
    out = rng.poisson(mean, size=size)
    return int(out) if size is None else out


def _draw_counts(
    rng: np.random.Generator,
    mean_vec: np.ndarray,
    table: _InversionTable,
    minus: np.ndarray,
) -> np.ndarray:
    top = float(np.max(mean_vec))
    if top < _INVERSION_MEAN_LIMIT:
        return table.invert(rng.random(mean_vec.shape), minus, _inversion_cap(top))
    return rng.poisson(mean_vec).astype(np.int64)


def _simulate_block(
    cfg: TrialConfig,
    means: OutputMeans,
    slopes: tuple[float, float],
    tables: tuple[_InversionTable, _InversionTable],
    rng: np.random.Generator,
    size: int,
) -> int:
    hyp_plus = rng.random(size) < 0.5
    minus = ~hyp_plus
    mean1 = np.where(hyp_plus, means.n1_plus, means.n1_minus)
    mean2 = np.where(hyp_plus, means.n2_plus, means.n2_minus)
    counts1 = _draw_counts(rng, mean1, tables[0], minus)
    counts2 = _draw_counts(rng, mean2, tables[1], minus)

    if cfg.rule is DecisionRule.KENNEDY_SINGLE_PORT:
        guess_plus = counts2 == 0
        tie = np.zeros(size, dtype=bool)
    elif cfg.rule is DecisionRule.HOMODYNE_COMPARE:
        guess_plus = counts1 > counts2
        tie = counts1 == counts2
    else:
        # a dark port's count is 0 on every trial it could contradict, so
        # inf + -inf never occurs
        diff = _ml_score(slopes[0], counts1) + _ml_score(slopes[1], counts2)
        guess_plus = diff > TIE_LOG_BAND
        tie = np.abs(diff) <= TIE_LOG_BAND
    tied = np.flatnonzero(tie)
    if tied.size:
        # tie-breaks consume draws only when ties occur; the tie pattern is
        # itself deterministic given the counts, so replay stays exact
        guess_plus[tied] = rng.random(tied.size) < 0.5
    return int(np.count_nonzero(guess_plus != hyp_plus))


def run_trials(cfg: TrialConfig) -> EstimateResult:
    """Simulate the configured receiver and tally wrong guesses.

    Trials are split into blocks of ``BLOCK_TRIALS`` with one spawned RNG
    stream each; the error count is the plain sum over blocks, so the
    estimate is identical however the blocks are scheduled.
    """
    means = output_means(cfg.pair, cfg.splitter)
    slopes = _ml_slopes(means)
    # one table per port, row 0 for PLUS trials and row 1 for MINUS trials;
    # blocks only read them, so every block sees the same CDFs
    tables = (
        _InversionTable([means.n1_plus, means.n1_minus]),
        _InversionTable([means.n2_plus, means.n2_minus]),
    )
    n_blocks = (cfg.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    children = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    sizes = [
        min(BLOCK_TRIALS, cfg.trials - i * BLOCK_TRIALS) for i in range(n_blocks)
    ]

    def run_block(i: int) -> int:
        rng = np.random.Generator(np.random.PCG64(children[i]))
        return _simulate_block(cfg, means, slopes, tables, rng, sizes[i])

    errors = sum(parallel_map(run_block, range(n_blocks)))
    return EstimateResult.from_counts(errors, cfg.trials, cfg.seed)

