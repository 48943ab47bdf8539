import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit.model import (
    Beamsplitter,
    ClickOutcome,
    Hypothesis,
    PulsePair,
    homodyne_splitter,
    kennedy_angle,
    output_means,
)
from phasekit.montecarlo import (
    ConfigurationError,
    DecisionRule,
    EstimateResult,
    TrialConfig,
    decide,
    run_trials,
    sample_poisson,
)
from phasekit.receivers import (
    p_beamsplitter_ml,
    p_homodyne_generalized,
    p_kennedy_generalized,
)


# ------------------------------------------------------------------ sampling


def test_sample_poisson_zero_mean():
    rng = np.random.default_rng(1)
    assert sample_poisson(0.0, rng) == 0
    assert np.all(sample_poisson(0.0, rng, size=100) == 0)


def test_sample_poisson_validation():
    with pytest.raises(ValueError):
        sample_poisson(-1.0, np.random.default_rng(0))


def test_sample_poisson_mean_one_band():
    rng = np.random.default_rng(123)
    draws = sample_poisson(1.0, rng, size=1_000_000)
    assert 0.997 <= draws.mean() <= 1.003


def test_sample_poisson_mean_ten_fano_band():
    rng = np.random.default_rng(456)
    draws = sample_poisson(10.0, rng, size=1_000_000)
    assert 0.99 <= draws.var() / draws.mean() <= 1.01


def test_sample_poisson_large_mean_path():
    rng = np.random.default_rng(7)
    draws = sample_poisson(80.0, rng, size=20_000)
    assert abs(draws.mean() - 80.0) < 0.5


def test_sample_poisson_scalar_reproducible():
    a = sample_poisson(2.5, np.random.default_rng(99))
    b = sample_poisson(2.5, np.random.default_rng(99))
    assert a == b


# ------------------------------------------------------------- configuration


def test_trial_config_validation():
    pair = PulsePair(0.1, 1.0)
    with pytest.raises(ValueError):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.ML_JOINT, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.ML_JOINT, seed=-1)
    with pytest.raises(ConfigurationError):
        TrialConfig(pair, Beamsplitter(0.3), DecisionRule.HOMODYNE_COMPARE)
    with pytest.raises(ConfigurationError):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.KENNEDY_SINGLE_PORT)
    TrialConfig(pair, kennedy_angle(pair), DecisionRule.KENNEDY_SINGLE_PORT)
    TrialConfig(pair, homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE)


def test_estimate_result_invariants():
    est = EstimateResult.from_counts(300, 1000, seed=5)
    assert est.error_rate == 0.3
    assert est.standard_error == pytest.approx(math.sqrt(0.3 * 0.7 / 1000), rel=1e-15)
    assert est.ci99_low <= est.error_rate <= est.ci99_high
    edge = EstimateResult.from_counts(0, 50, seed=0)
    assert edge.ci99_low == 0.0 and edge.ci99_high == 0.0


# ------------------------------------------------------------ reproducibility


def test_run_trials_reproducible_bit_for_bit():
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(), DecisionRule.ML_JOINT,
                      trials=200_000, seed=42)
    assert run_trials(cfg) == run_trials(cfg)


def test_run_trials_independent_of_thread_cap(monkeypatch):
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(), DecisionRule.ML_JOINT,
                      trials=150_000, seed=9)
    monkeypatch.setenv("PHASEKIT_THREADS", "1")
    serial = run_trials(cfg)
    monkeypatch.setenv("PHASEKIT_THREADS", "4")
    threaded = run_trials(cfg)
    assert serial == threaded


def test_run_trials_different_seeds_differ():
    base = dict(pair=PulsePair(0.1, 1.0), splitter=homodyne_splitter(),
                rule=DecisionRule.HOMODYNE_COMPARE, trials=100_000)
    a = run_trials(TrialConfig(seed=1, **base))
    b = run_trials(TrialConfig(seed=2, **base))
    assert a.errors != b.errors


# ------------------------------------------------------------ oracle checks


def test_no_signal_is_a_coin_flip():
    cfg = TrialConfig(PulsePair(0.0, 1.0), homodyne_splitter(), DecisionRule.ML_JOINT,
                      trials=1_000_000, seed=3)
    est = run_trials(cfg)
    assert abs(est.error_rate - 0.5) <= 3.0 * est.standard_error


GRID = [(a2, b2) for a2 in (0.05, 0.1, 0.2) for b2 in (1.0, 4.0, 10.0)]


@pytest.mark.parametrize("alpha2,beta2", GRID)
def test_homodyne_rule_agrees_with_analytic(alpha2, beta2):
    pair = PulsePair(alpha2, beta2)
    cfg = TrialConfig(pair, homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE,
                      trials=1_000_000, seed=2028)
    est = run_trials(cfg)
    assert est.contains(p_homodyne_generalized(pair).error_probability)


@pytest.mark.parametrize("alpha2,beta2", GRID)
def test_kennedy_rule_agrees_with_analytic(alpha2, beta2):
    pair = PulsePair(alpha2, beta2)
    cfg = TrialConfig(pair, kennedy_angle(pair), DecisionRule.KENNEDY_SINGLE_PORT,
                      trials=1_000_000, seed=2026)
    est = run_trials(cfg)
    assert est.contains(p_kennedy_generalized(pair).error_probability)


@pytest.mark.parametrize("alpha2,beta2", GRID)
def test_ml_rule_agrees_with_analytic(alpha2, beta2):
    pair = PulsePair(alpha2, beta2)
    splitter = Beamsplitter(0.15 * math.pi)
    cfg = TrialConfig(pair, splitter, DecisionRule.ML_JOINT, trials=1_000_000, seed=2027)
    est = run_trials(cfg)
    assert est.contains(p_beamsplitter_ml(pair, splitter).error_probability)


# ------------------------------------------------------------- decision rule


def test_decide_kennedy_single_port():
    pair = PulsePair(0.1, 1.0)
    means = output_means(pair, kennedy_angle(pair))
    assert decide(DecisionRule.KENNEDY_SINGLE_PORT, ClickOutcome(5, 0), means) is Hypothesis.PLUS
    assert decide(DecisionRule.KENNEDY_SINGLE_PORT, ClickOutcome(0, 1), means) is Hypothesis.MINUS


def test_decide_homodyne_compare_and_ties():
    pair = PulsePair(0.1, 1.0)
    means = output_means(pair, homodyne_splitter())
    assert decide(DecisionRule.HOMODYNE_COMPARE, ClickOutcome(3, 1), means) is Hypothesis.PLUS
    assert decide(DecisionRule.HOMODYNE_COMPARE, ClickOutcome(1, 3), means) is Hypothesis.MINUS
    assert decide(DecisionRule.HOMODYNE_COMPARE, ClickOutcome(2, 2), means) is None
    assert decide(DecisionRule.HOMODYNE_COMPARE, ClickOutcome(2, 2), means, tie_break=0.2) is Hypothesis.PLUS
    assert decide(DecisionRule.HOMODYNE_COMPARE, ClickOutcome(2, 2), means, tie_break=0.9) is Hypothesis.MINUS


def test_decide_ml_certain_on_dark_port_click():
    pair = PulsePair(0.1, 1.0)
    means = output_means(pair, kennedy_angle(pair))
    # any click at the dark-under-PLUS port settles it
    assert decide(DecisionRule.ML_JOINT, ClickOutcome(0, 2), means) is Hypothesis.MINUS
    # silence everywhere is an exact tie at the cancellation angle
    assert decide(DecisionRule.ML_JOINT, ClickOutcome(0, 0), means) is None


def test_decide_ml_matches_joint_likelihoods():
    pair = PulsePair(0.3, 2.0)
    means = output_means(pair, Beamsplitter(0.12 * math.pi))
    from phasekit.numerics import log_poisson_pmf

    for n in range(6):
        for m in range(6):
            lp = log_poisson_pmf(n, means.n1_plus) + log_poisson_pmf(m, means.n2_plus)
            lm = log_poisson_pmf(n, means.n1_minus) + log_poisson_pmf(m, means.n2_minus)
            got = decide(DecisionRule.ML_JOINT, ClickOutcome(n, m), means)
            if lp > lm + 1e-12:
                assert got is Hypothesis.PLUS
            elif lm > lp + 1e-12:
                assert got is Hypothesis.MINUS
            else:
                assert got is None


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=10)
def test_run_trials_seed_round_trip(seed):
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(),
                      DecisionRule.HOMODYNE_COMPARE, trials=2_000, seed=seed)
    est = run_trials(cfg)
    assert est.seed == seed
    assert 0.0 <= est.error_rate <= 1.0
    assert est.ci99_low <= est.error_rate <= est.ci99_high
