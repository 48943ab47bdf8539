"""Stochastic oracle: simulate click statistics and estimate error rates.

Trials draw a hypothesis fairly, Poisson counts per output port, and apply
one of three decision rules. Counts with mean below 30 are sampled by
inversion (sequential CDF search) against a single uniform draw; larger
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
    ClickOutcome,
    Hypothesis,
    OutputMeans,
    PulsePair,
    output_means,
)
from .numerics import NEG_INF, log_factorial, log_poisson_pmf
from .receivers import TIE_LOG_BAND

__all__ = [
    "ConfigurationError",
    "DecisionRule",
    "TrialConfig",
    "EstimateResult",
    "sample_poisson",
    "run_trials",
    "decide",
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


def _poisson_inverse(u: np.ndarray, mean) -> np.ndarray:
    """Invert uniforms against the Poisson CDF (means < 30, scalar or vector)."""
    counts = np.zeros(np.shape(u), dtype=np.int64)
    pmf = np.exp(-np.asarray(mean, dtype=float))
    cum = pmf.copy()
    active = u > cum
    top = float(np.max(mean))
    # active trials die off geometrically; the cap only guards degenerate
    # uniforms at the very edge of the CDF
    cap = int(top + 50.0 * math.sqrt(top + 1.0) + 200.0)
    k = 0
    while bool(active.any()) and k < cap:
        counts[active] += 1
        k += 1
        pmf = pmf * (mean / k)
        cum = cum + pmf
        active = u > cum
    return counts


def sample_poisson(mean: float, rng: np.random.Generator, size=None):
    """Poisson counts; a single int when ``size`` is None, else an array.

    A zero mean returns 0 without consuming randomness. Means below 30 use
    CDF inversion (one uniform per draw); larger means delegate to
    ``rng.poisson``.
    """
    if mean < 0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    if mean == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    if mean < _INVERSION_MEAN_LIMIT:
        u = rng.random(1 if size is None else size)
        counts = _poisson_inverse(u, mean)
        return int(counts[0]) if size is None else counts
    out = rng.poisson(mean, size=size)
    return int(out) if size is None else out


def _draw_counts(rng: np.random.Generator, mean_vec: np.ndarray) -> np.ndarray:
    if float(np.max(mean_vec)) < _INVERSION_MEAN_LIMIT:
        return _poisson_inverse(rng.random(mean_vec.shape), mean_vec)
    return rng.poisson(mean_vec).astype(np.int64)


def _log_pmf_of_counts(counts: np.ndarray, mean: float) -> np.ndarray:
    if mean == 0.0:
        return np.where(counts == 0, 0.0, NEG_INF)
    return counts * math.log(mean) - mean - log_factorial(counts)


def _simulate_block(
    cfg: TrialConfig, means: OutputMeans, rng: np.random.Generator, size: int
) -> int:
    hyp_plus = rng.random(size) < 0.5
    mean1 = np.where(hyp_plus, means.n1_plus, means.n1_minus)
    mean2 = np.where(hyp_plus, means.n2_plus, means.n2_minus)
    counts1 = _draw_counts(rng, mean1)
    counts2 = _draw_counts(rng, mean2)

    if cfg.rule is DecisionRule.KENNEDY_SINGLE_PORT:
        guess_plus = counts2 == 0
        tie = np.zeros(size, dtype=bool)
    elif cfg.rule is DecisionRule.HOMODYNE_COMPARE:
        guess_plus = counts1 > counts2
        tie = counts1 == counts2
    else:
        lp = _log_pmf_of_counts(counts1, means.n1_plus) + _log_pmf_of_counts(
            counts2, means.n2_plus
        )
        lm = _log_pmf_of_counts(counts1, means.n1_minus) + _log_pmf_of_counts(
            counts2, means.n2_minus
        )
        with np.errstate(invalid="ignore"):
            diff = lp - lm
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
    n_blocks = (cfg.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    children = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    sizes = [
        min(BLOCK_TRIALS, cfg.trials - i * BLOCK_TRIALS) for i in range(n_blocks)
    ]

    def run_block(i: int) -> int:
        rng = np.random.Generator(np.random.PCG64(children[i]))
        return _simulate_block(cfg, means, rng, sizes[i])

    errors = sum(parallel_map(run_block, range(n_blocks)))
    return EstimateResult.from_counts(errors, cfg.trials, cfg.seed)


def decide(
    rule: DecisionRule,
    outcome: ClickOutcome,
    means: OutputMeans,
    tie_break: float | None = None,
) -> Hypothesis | None:
    """Verdict for one click outcome; ``None`` signals an unresolved tie.

    ``tie_break`` is a uniform draw in [0, 1) used only when the rule ties;
    leave it None to observe the tie instead of resolving it.
    """
    if rule is DecisionRule.KENNEDY_SINGLE_PORT:
        return Hypothesis.PLUS if outcome.m == 0 else Hypothesis.MINUS
    if rule is DecisionRule.HOMODYNE_COMPARE:
        if outcome.n > outcome.m:
            return Hypothesis.PLUS
        if outcome.n < outcome.m:
            return Hypothesis.MINUS
    else:
        lp = log_poisson_pmf(outcome.n, means.n1_plus) + log_poisson_pmf(
            outcome.m, means.n2_plus
        )
        lm = log_poisson_pmf(outcome.n, means.n1_minus) + log_poisson_pmf(
            outcome.m, means.n2_minus
        )
        if lp == NEG_INF and lm == NEG_INF:
            raise ValueError("outcome is impossible under both hypotheses")
        if lp - lm > TIE_LOG_BAND:
            return Hypothesis.PLUS
        if lm - lp > TIE_LOG_BAND:
            return Hypothesis.MINUS
    if tie_break is None:
        return None
    return Hypothesis.PLUS if tie_break < 0.5 else Hypothesis.MINUS
