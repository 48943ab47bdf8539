"""Stochastic oracle: simulate click statistics and estimate error rates.

Trials draw a hypothesis fairly, Poisson counts per output port, and apply
one of three decision rules; the maximum-likelihood rule scores each trial
with the analytic receiver's straight boundary a*n + b*m, so both routes
share one rule and one tie band; the count comparison is the same score at
unit slopes, n - m. ``_draw_counts`` is the one Poisson sampler and draws a
whole block of counts at once: when every mean in the block is below 30,
each count inverts one raw 64-bit word of the stream, as the uniform
``Generator.random`` makes of it, against the Poisson CDF through a guide
table built once per run (indexed search, Chen & Asau 1974). The word's top
16 bits are its guide bin; one lookup gives the count, or -1 for the few
bins that hold a CDF step, which a binary search settles. Otherwise the
block falls back to the generator's own Poisson sampler, which refuses
means above about 9.2e18; ``run_trials`` refuses such a mean before any
block draws. A port the rule never reads gets no table, and a block that
would invert it advances the stream past its words instead.
Streams come from numpy's PCG64 seeded through ``SeedSequence(seed).spawn``,
one child per fixed-size trial block, so runs are reproducible bit for bit
and block results merge by plain addition regardless of scheduling. They are
spawned and mapped ``SPAWN_BATCH`` blocks at a time, at most one batch held
at once; each spawn continues the root's child count, so the streams match
one spawn of every block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._parallel import parallel_map
from .model import QUARTER_PI, Beamsplitter, PulsePair, _checked_integer, port_means
from .numerics import NumericalResourceError
from .receivers import TIE_LOG_BAND, _ml_score, _ml_slopes

__all__ = [
    "DecisionRule",
    "TrialConfig",
    "EstimateResult",
    "run_trials",
]

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

BLOCK_TRIALS = 1 << 16

# blocks whose streams are spawned and mapped together
SPAWN_BATCH = 1024

_INVERSION_MEAN_LIMIT = 30.0

# numpy's own bound on a Poisson mean, from the largest int64
_SAMPLER_MEAN_LIMIT = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


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
        _checked_integer("trials", self.trials)
        _checked_integer("seed", self.seed)
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.rule is DecisionRule.HOMODYNE_COMPARE:
            if abs(self.splitter.phi - QUARTER_PI) > 1e-12:
                raise ValueError("count comparison is only meaningful at the balanced angle pi/4")
        if self.rule is DecisionRule.KENNEDY_SINGLE_PORT:
            pair, splitter = self.pair, self.splitter
            if port_means(pair.alpha, pair.beta, splitter.r, splitter.t)[2] != 0.0:
                raise ValueError(
                    "the single-port rule needs port 2 dark under PLUS, i.e. the "
                    "cancellation angle arctan(alpha/beta)"
                )


@dataclass(frozen=True)
class EstimateResult:
    """Empirical error rate with its 99% normal-approximation interval."""

    errors: int
    trials: int
    seed: int

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def standard_error(self) -> float:
        return math.sqrt(self.error_rate * (1.0 - self.error_rate) / self.trials)

    @property
    def ci99_low(self) -> float:
        return max(0.0, self.error_rate - Z99 * self.standard_error)

    @property
    def ci99_high(self) -> float:
        return min(1.0, self.error_rate + Z99 * self.standard_error)

    def contains(self, value: float) -> bool:
        return self.ci99_low <= value <= self.ci99_high


def _inversion_cap(top: float) -> int:
    # the largest count inversion returns for a block whose largest mean is
    # ``top``; it only binds on uniforms above a CDF that saturates below 1
    return int(top + 50.0 * math.sqrt(top + 1.0) + 200.0)


# no block's cap exceeds this, so one CDF length serves all of them
_CDF_LENGTH = _inversion_cap(_INVERSION_MEAN_LIMIT)

# a raw word's top 16 bits are floor(u * _GUIDE_BINS) for its uniform u
_GUIDE_BINS = 1 << 16


class _InversionTable:
    """Poisson CDFs of two means, each with a guide for indexed search.

    Row r (0 for PLUS, 1 for MINUS) holds the CDF of ``means[r]``,
    ``cum[r, 0 .. _CDF_LENGTH - 1]``. With guide(b) the number of
    ``cum[r, k]`` below b / _GUIDE_BINS, a uniform in bin b inverts to
    guide(b) unless a CDF step falls inside the bin (guide(b + 1) differs),
    in which case a binary search over the row settles it. ``lookup[r *
    _GUIDE_BINS + b]`` is guide(b) for the bins without a step and -1 for
    the bins with one, so one gather reads both the count and the flag.

    CDF rows follow the float recurrence pmf_0 = exp(-mean), pmf_k =
    pmf_(k-1) * (mean / k), cum_k = cum_(k-1) + pmf_k: cumprod and cumsum
    accumulate left to right, one IEEE operation per step, exactly as the
    recurrence does. The far tail underflows to 0.
    """

    def __init__(self, means) -> None:
        col = np.asarray(means, dtype=float)[:, None]
        with np.errstate(under="ignore"):
            pmf = np.cumprod(
                np.concatenate((np.exp(-col), col / np.arange(1, _CDF_LENGTH)), axis=1),
                axis=1,
            )
        self.cum = np.cumsum(pmf, axis=1)
        # cum never decreases, and with G = _GUIDE_BINS, cum < b / G exactly
        # when floor(cum * G) < b (* G is exact), so guide(b) = k on the bins
        # from floor(cum[k - 1] * G) + 1 up to floor(cum[k] * G)
        starts = (self.cum * _GUIDE_BINS).astype(np.intp) + 1
        counts = np.arange(_CDF_LENGTH + 1, dtype=np.int16)
        guide = np.stack(
            [np.repeat(counts, np.diff(row, prepend=0, append=_GUIDE_BINS + 1)) for row in starts]
        )
        self.lookup = np.where(guide[:, 1:] == guide[:, :-1], guide[:, :-1], -1).ravel()

    def invert(self, words: np.ndarray, minus: np.ndarray, cap: int) -> np.ndarray:
        """min(first k with u <= cum[row, k], cap) for each raw word of ``words``.

        ``words`` is one-dimensional; a raw word w stands for the uniform
        u = (w >> 11) * 2**-53 that ``Generator.random`` makes of it, which is
        rebuilt only in the searched bins. Words where the boolean array
        ``minus`` is true read row 1, the others row 0. A bin without a step
        lies below the CDF value 1 - 1 / _GUIDE_BINS, which every mean below
        30 passes within 55 counts, so only the searched bins can reach
        ``cap``, which is never below ``_inversion_cap(0)`` = 250.
        """
        b = (words >> 48).view(np.int64)
        b += minus * _GUIDE_BINS
        counts = self.lookup.take(b)
        step = np.flatnonzero(counts < 0)
        if step.size:
            u = (words[step] >> 11) * 2.0**-53
            step_minus = minus[step]
            for cum, at in zip(self.cum, (~step_minus, step_minus)):
                counts[step[at]] = np.minimum(np.searchsorted(cum, u[at]), cap)
        return counts


def _draw_counts(
    rng: np.random.Generator,
    means: np.ndarray,
    table: _InversionTable | None,
    minus: np.ndarray,
    held: tuple[bool, bool],
) -> np.ndarray | None:
    """One port's counts for a block; ``held`` says whether the block holds
    PLUS and MINUS trials, and the largest of the two ``means`` among those
    picks the sampler and the cap. A port to invert without a table is never
    read: inversion takes one word per trial, so the stream skips as many."""
    top = float(max(mean for mean, h in zip(means, held) if h))
    if top >= _INVERSION_MEAN_LIMIT:
        return rng.poisson(means[minus.view(np.uint8)])
    if table is None:
        rng.bit_generator.advance(minus.size)
        return None
    return table.invert(rng.bit_generator.random_raw(minus.size), minus, _inversion_cap(top))


def _simulate_block(
    cfg: TrialConfig,
    slopes: tuple[float, float],
    ports: list[tuple[np.ndarray, _InversionTable | None]],
    rng: np.random.Generator,
    size: int,
) -> int:
    # a raw word is at least 2**63 exactly when its uniform is at least 0.5
    minus = rng.bit_generator.random_raw(size) >= 1 << 63
    n_minus = int(np.count_nonzero(minus))
    held = (n_minus < size, n_minus > 0)
    counts1, counts2 = [_draw_counts(rng, *port, minus, held) for port in ports]

    if cfg.rule is DecisionRule.KENNEDY_SINGLE_PORT:
        # the single-port rule never ties; a PLUS guess is wrong exactly on
        # the MINUS trials, and a MINUS guess on the others
        return int(np.count_nonzero((counts2 == 0) == minus))
    # a dark port's count is 0 on every trial it could contradict, so
    # inf + -inf never occurs
    diff = _ml_score(slopes[0], counts1)
    diff += _ml_score(slopes[1], counts2)
    guess_plus = diff > TIE_LOG_BAND
    tied = np.flatnonzero(np.abs(diff, out=diff) <= TIE_LOG_BAND)
    if tied.size:
        # tie-breaks consume draws only when ties occur; the tie pattern is
        # itself deterministic given the counts, so replay stays exact
        guess_plus[tied] = rng.random(tied.size) < 0.5
    return int(np.count_nonzero(guess_plus == minus))


def run_trials(cfg: TrialConfig) -> EstimateResult:
    """Simulate the configured receiver and tally wrong guesses.

    Trials are split into blocks of ``BLOCK_TRIALS`` with one spawned RNG
    stream each, mapped ``SPAWN_BATCH`` blocks at a time; the error count is
    the plain sum over blocks, so the estimate is identical however the
    blocks are scheduled.
    """
    means = port_means(cfg.pair.alpha, cfg.pair.beta, cfg.splitter.r, cfg.splitter.t)
    if (top := max(means)) > _SAMPLER_MEAN_LIMIT:
        raise NumericalResourceError(
            f"a port mean of {top:.4g} is above the Poisson sampler's limit of "
            f"{_SAMPLER_MEAN_LIMIT:.4g}"
        )
    # the count comparison scores n - m, the same boundary at unit slopes
    slopes = (1.0, -1.0) if cfg.rule is DecisionRule.HOMODYNE_COMPARE else _ml_slopes(*means)
    # each port's PLUS and MINUS means, with a table only if the rule reads the
    # port and some block can invert it; every block reads the same CDFs
    reads = (cfg.rule is not DecisionRule.KENNEDY_SINGLE_PORT, True)
    ports = [
        (pm, _InversionTable(pm) if read and min(pm) < _INVERSION_MEAN_LIMIT else None)
        for pm, read in zip((np.array(means[:2]), np.array(means[2:])), reads)
    ]

    def run_block(block) -> int:
        child, first = block
        rng = np.random.Generator(np.random.PCG64(child))
        return _simulate_block(cfg, slopes, ports, rng, min(BLOCK_TRIALS, cfg.trials - first))

    root = np.random.SeedSequence(cfg.seed)
    errors = 0
    for start in range(0, cfg.trials, SPAWN_BATCH * BLOCK_TRIALS):
        # the first trial of each block in this batch
        firsts = range(start, cfg.trials, BLOCK_TRIALS)[:SPAWN_BATCH]
        errors += sum(parallel_map(run_block, zip(root.spawn(len(firsts)), firsts)))
    return EstimateResult(errors, cfg.trials, cfg.seed)
