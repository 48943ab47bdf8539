import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import montecarlo
from phasekit.model import (
    Beamsplitter,
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
    _InversionTable,
    _draw_counts,
    run_trials,
    sample_poisson,
)
from phasekit.numerics import log_factorial, log_poisson_pmf
from phasekit.receivers import (
    TIE_LOG_BAND,
    _ml_score,
    _ml_slopes,
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


# ------------------------------------------------- inversion exactness


def _sequential_cdf_search(u, mean):
    """Reference inversion: step k up while u exceeds the running CDF.

    The per-count loop the guide-table sampler replaced; its counts are the
    ones every seeded run is pinned to.
    """
    counts = np.zeros(np.shape(u), dtype=np.int64)
    pmf = np.exp(-np.asarray(mean, dtype=float))
    cum = pmf.copy()
    active = u > cum
    top = float(np.max(mean))
    cap = int(top + 50.0 * math.sqrt(top + 1.0) + 200.0)
    k = 0
    while bool(active.any()) and k < cap:
        counts[active] += 1
        k += 1
        pmf = pmf * (mean / k)
        cum = cum + pmf
        active = u > cum
    return counts


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are known."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert np.prod(size) == self.u.size
        return self.u


_LARGEST_UNIFORM = 1.0 - 2.0**-53


def _edge_uniforms(*means):
    """0, the largest uniform, steps of 1/4096, and every CDF value of each
    mean with its two float neighbours, all inside [0, 1)."""
    points = [0.0, _LARGEST_UNIFORM, *(np.arange(4096) / 4096)]
    for mean in means:
        pmf = cum = float(np.exp(-mean))
        for k in range(1, 520):
            points += [cum, math.nextafter(cum, 0.0), math.nextafter(cum, 2.0)]
            pmf *= mean / k
            cum += pmf
    u = np.array(points)
    return u[(u >= 0.0) & (u < 1.0)]


INVERSION_MEANS = (0.0, 1e-9, 0.1, 0.5, 3.3, 10.0, 29.99)


def test_edge_uniforms_reach_a_saturated_cdf():
    # the CDFs of 0.1 and 29.99 stop below the largest uniform, so the top
    # uniforms run to the count cap; 3.3 is a mean where math.exp(-mean)
    # and numpy's exp differ in the last bit
    assert _sequential_cdf_search(np.array([_LARGEST_UNIFORM]), 0.1)[0] == 252
    assert _sequential_cdf_search(np.array([_LARGEST_UNIFORM]), 29.99)[0] == 508
    assert math.exp(-3.3) != np.exp(-3.3)


@pytest.mark.parametrize("mean", INVERSION_MEANS)
def test_sample_poisson_matches_sequential_search(mean):
    u = np.concatenate([_edge_uniforms(mean), np.random.default_rng(17).random(20_000)])
    got = sample_poisson(mean, _FixedUniforms(u), size=u.size)
    np.testing.assert_array_equal(got, _sequential_cdf_search(u, mean))


def test_sample_poisson_keeps_the_requested_shape():
    draws = sample_poisson(3.3, np.random.default_rng(5), size=(40, 50))
    u = np.random.default_rng(5).random((40, 50))
    assert draws.shape == (40, 50)
    np.testing.assert_array_equal(draws, _sequential_cdf_search(u, 3.3))


@pytest.mark.parametrize(
    "mean_plus,mean_minus",
    [(0.0, 0.5), (1e-9, 10.0), (3.3, 0.1), (29.99, 0.1), (10.0, 29.99), (0.5, 3.3)],
)
@pytest.mark.parametrize("hypotheses", ["mixed", "plus only", "minus only"])
def test_block_draws_match_sequential_search(mean_plus, mean_minus, hypotheses):
    edges = _edge_uniforms(mean_plus, mean_minus)
    rng = np.random.default_rng(18)
    u = np.concatenate([edges, edges, rng.random(20_000)])
    if hypotheses == "mixed":
        hyp_plus = np.concatenate(
            [np.ones(edges.size, bool), np.zeros(edges.size, bool), rng.random(20_000) < 0.5]
        )
    else:
        # a block holding one hypothesis caps its counts at that mean's cap
        hyp_plus = np.full(u.size, hypotheses == "plus only")
    mean_vec = np.where(hyp_plus, mean_plus, mean_minus)
    table = _InversionTable([mean_plus, mean_minus])
    got = _draw_counts(_FixedUniforms(u), mean_vec, table, ~hyp_plus)
    np.testing.assert_array_equal(got, _sequential_cdf_search(u, mean_vec))


# counts the sequential-search sampler produced; every seeded run stays on them
GOLDEN_ERRORS = {
    (DecisionRule.HOMODYNE_COMPARE, 1.0): 29888,
    (DecisionRule.KENNEDY_SINGLE_PORT, 1.0): 34791,
    (DecisionRule.ML_JOINT, 1.0): 30626,
    (DecisionRule.HOMODYNE_COMPARE, 10.0): 26611,
    (DecisionRule.KENNEDY_SINGLE_PORT, 10.0): 33730,
    (DecisionRule.ML_JOINT, 10.0): 26303,
    (DecisionRule.HOMODYNE_COMPARE, 100.0): 26241,
    (DecisionRule.KENNEDY_SINGLE_PORT, 100.0): 33655,
    (DecisionRule.ML_JOINT, 100.0): 26218,
}


@pytest.mark.parametrize("rule,beta2", list(GOLDEN_ERRORS))
def test_run_trials_golden_errors(rule, beta2):
    pair = PulsePair(0.1, beta2)
    splitter = {
        DecisionRule.HOMODYNE_COMPARE: homodyne_splitter(),
        DecisionRule.KENNEDY_SINGLE_PORT: kennedy_angle(pair),
        DecisionRule.ML_JOINT: Beamsplitter(0.15 * math.pi),
    }[rule]
    est = run_trials(TrialConfig(pair, splitter, rule, trials=100_000, seed=2024))
    assert est.errors == GOLDEN_ERRORS[rule, beta2]


def test_run_trials_golden_errors_partial_and_tiny_blocks():
    ml = dict(pair=PulsePair(0.2, 4.0), splitter=Beamsplitter(0.15 * math.pi),
              rule=DecisionRule.ML_JOINT)
    # port 1 means 32.5 (PLUS) and 27.6 (MINUS) straddle the inversion limit
    straddle = dict(pair=PulsePair(0.1, 60.0), splitter=homodyne_splitter(),
                    rule=DecisionRule.HOMODYNE_COMPARE)
    assert run_trials(TrialConfig(trials=70_001, seed=5, **ml)).errors == 13102
    assert run_trials(TrialConfig(trials=70_001, seed=5, **straddle)).errors == 18507
    assert [run_trials(TrialConfig(trials=3, seed=s, **ml)).errors for s in range(20)] == [
        2, 2, 2, 0, 0, 0, 0, 2, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1
    ]
    assert [run_trials(TrialConfig(trials=3, seed=s, **straddle)).errors for s in range(20)] == [
        1, 1, 1, 1, 2, 2, 0, 2, 0, 0, 2, 0, 2, 0, 1, 0, 0, 2, 0, 2
    ]


@pytest.mark.parametrize(
    "mean,digest,head,scalar",
    [
        (0.5, "05bc1268b2e10f31", [1, 0, 1, 0, 1, 0, 0, 0], 0),
        (10.0, "4aeb29a9995f4dc5", [14, 6, 11, 10, 11, 5, 5, 7], 7),
        (29.9, "86ef668fd9110f8c", [37, 22, 32, 29, 32, 21, 21, 25], 24),
        (80.0, "1438a67e8b21fc5b", [94, 85, 85, 60, 85, 78, 74, 93], 70),
    ],
)
def test_sample_poisson_golden_draws(mean, digest, head, scalar):
    draws = sample_poisson(mean, np.random.default_rng(31), size=100_000)
    assert draws[:8].tolist() == head
    raw = np.ascontiguousarray(draws, dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest
    assert sample_poisson(mean, np.random.default_rng(32)) == scalar


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("angle", ["interior", "balanced", "dark_port"])
def test_ml_score_orders_outcomes_like_joint_likelihoods(angle):
    pair = PulsePair(0.3, 2.0)
    splitter = {
        "interior": Beamsplitter(0.12 * math.pi),
        "balanced": homodyne_splitter(),
        "dark_port": kennedy_angle(pair),
    }[angle]
    means = output_means(pair, splitter)
    a, b = _ml_slopes(means)
    assert (b == -math.inf) == (angle == "dark_port")
    n, m = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    score = _ml_score(a, n) + _ml_score(b, m)
    for (i, j), got in np.ndenumerate(score):
        lp = log_poisson_pmf(i, means.n1_plus) + log_poisson_pmf(j, means.n2_plus)
        lm = log_poisson_pmf(i, means.n1_minus) + log_poisson_pmf(j, means.n2_minus)
        if lp > lm + 1e-12:
            assert got > TIE_LOG_BAND
        elif lm > lp + 1e-12:
            assert got < -TIE_LOG_BAND
        else:
            assert abs(got) <= TIE_LOG_BAND


def _log_pmf_rule(counts1, counts2, means):
    """The per-trial rule the shared scoring replaced: PLUS guesses and ties
    from the difference of the joint log-pmfs under the two hypotheses."""

    def log_pmf(counts, mean):
        if mean == 0.0:
            return np.where(counts == 0, 0.0, -np.inf)
        return counts * math.log(mean) - mean - log_factorial(counts)

    lp = log_pmf(counts1, means.n1_plus) + log_pmf(counts2, means.n2_plus)
    lm = log_pmf(counts1, means.n1_minus) + log_pmf(counts2, means.n2_minus)
    with np.errstate(invalid="ignore"):
        diff = lp - lm
    return diff > TIE_LOG_BAND, np.abs(diff) <= TIE_LOG_BAND


def _golden_ml_configs():
    for (rule, beta2), errors in GOLDEN_ERRORS.items():
        if rule is DecisionRule.ML_JOINT:
            yield TrialConfig(PulsePair(0.1, beta2), Beamsplitter(0.15 * math.pi), rule,
                              trials=100_000, seed=2024), errors
    ml = dict(pair=PulsePair(0.2, 4.0), splitter=Beamsplitter(0.15 * math.pi),
              rule=DecisionRule.ML_JOINT)
    yield TrialConfig(trials=70_001, seed=5, **ml), 13102
    for seed in range(20):
        yield TrialConfig(trials=3, seed=seed, **ml), None


def test_ml_scoring_decides_every_golden_trial_like_the_log_pmf_rule(monkeypatch):
    # record each block's counts as run_trials draws them (port 1, then
    # port 2, one block at a time in a serial run) and decide every trial
    # both ways
    monkeypatch.setenv("PHASEKIT_THREADS", "1")
    draws = []

    def recording(rng, mean_vec, table, minus):
        counts = _draw_counts(rng, mean_vec, table, minus)
        draws.append(counts)
        return counts

    monkeypatch.setattr(montecarlo, "_draw_counts", recording)
    ties = trials = 0
    for cfg, errors in _golden_ml_configs():
        draws.clear()
        est = run_trials(cfg)
        if errors is not None:
            assert est.errors == errors
        means = output_means(cfg.pair, cfg.splitter)
        a, b = _ml_slopes(means)
        for counts1, counts2 in zip(draws[::2], draws[1::2]):
            score = _ml_score(a, counts1) + _ml_score(b, counts2)
            old_guess, old_tie = _log_pmf_rule(counts1, counts2, means)
            np.testing.assert_array_equal(score > TIE_LOG_BAND, old_guess)
            np.testing.assert_array_equal(np.abs(score) <= TIE_LOG_BAND, old_tie)
            ties += int(old_tie.sum())
            trials += counts1.size
        assert len(draws) == 2 * (-(-cfg.trials // montecarlo.BLOCK_TRIALS))
    assert trials == 3 * 100_000 + 70_001 + 20 * 3
    assert ties > 0


@pytest.mark.parametrize("beta2", [1.0, 100.0, 1e4])
def test_ml_rule_at_balanced_angle_counts_like_count_comparison(beta2):
    # at pi/4 the boundary a*n + b*m = 0 is the diagonal n = m, so the two
    # rules share every decision, every tie and hence every tie-break draw
    base = dict(pair=PulsePair(0.1, beta2), splitter=homodyne_splitter(),
                trials=100_000, seed=2029)
    ml = run_trials(TrialConfig(rule=DecisionRule.ML_JOINT, **base))
    compare = run_trials(TrialConfig(rule=DecisionRule.HOMODYNE_COMPARE, **base))
    assert ml.errors == compare.errors


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=10)
def test_run_trials_seed_round_trip(seed):
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(),
                      DecisionRule.HOMODYNE_COMPARE, trials=2_000, seed=seed)
    est = run_trials(cfg)
    assert est.seed == seed
    assert 0.0 <= est.error_rate <= 1.0
    assert est.ci99_low <= est.error_rate <= est.ci99_high
