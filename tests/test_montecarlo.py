import hashlib
import json
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import montecarlo
from phasekit._parallel import POOL_MIN_ITEMS
from phasekit.model import (
    Beamsplitter,
    PulsePair,
    homodyne_splitter,
    kennedy_angle,
    port_means,
)
from phasekit.montecarlo import (
    DecisionRule,
    EstimateResult,
    TrialConfig,
    _InversionTable,
    _draw_counts,
    run_trials,
)
from phasekit.numerics import NumericalResourceError, _log_factorial_table, _log_pmf_rows
from phasekit.receivers import (
    TIE_LOG_BAND,
    _ml_score,
    _ml_slopes,
    p_beamsplitter_ml,
    p_homodyne_generalized,
    p_kennedy_generalized,
)

# the benchmark's recorded `run_trials` outputs at its default seed
MONTECARLO_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text(
        encoding="utf-8"
    )
)["montecarlo"]

# TrialConfig's two refusals of a rule at a splitter it cannot serve
_BALANCED_ONLY = "count comparison is only meaningful at the balanced angle pi/4"
_DARK_PORT_ONLY = ("the single-port rule needs port 2 dark under PLUS, i.e. the cancellation "
                   "angle arctan(alpha/beta)")


def _means(pair, splitter):
    return port_means(pair.alpha, pair.beta, splitter.r, splitter.t)


# ------------------------------------------------------------------ sampling


def _draw_constant(mean, rng, size):
    """A block of ``size`` counts that all have one mean, as run_trials draws a
    port whose mean is the same under both hypotheses."""
    means = np.array([mean, mean])
    return _draw_counts(rng, means, _InversionTable(means), np.zeros(size, dtype=bool),
                        (True, False))


def test_sample_poisson_zero_mean():
    assert np.all(_draw_constant(0.0, np.random.default_rng(1), 100) == 0)


def test_sample_poisson_mean_one_band():
    rng = np.random.default_rng(123)
    draws = _draw_constant(1.0, rng, 1_000_000)
    assert 0.997 <= draws.mean() <= 1.003


def test_sample_poisson_mean_ten_fano_band():
    rng = np.random.default_rng(456)
    draws = _draw_constant(10.0, rng, 1_000_000)
    assert 0.99 <= draws.var() / draws.mean() <= 1.01


def test_sample_poisson_large_mean_path():
    rng = np.random.default_rng(7)
    draws = _draw_constant(80.0, rng, 20_000)
    assert abs(draws.mean() - 80.0) < 0.5


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


class _FixedWords:
    """Stands in for a Generator whose next raw words stand for known uniforms.

    Each uniform u, a multiple of 2**-53, becomes the word w with
    (w >> 11) * 2**-53 = u; the low 11 bits, which ``Generator.random``
    drops, hold arbitrary bits.
    """

    def __init__(self, u):
        scaled = u * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))
        low = np.arange(u.size, dtype=np.uint64) * 0x9E5 % 2048
        self.words = scaled.astype(np.uint64) << 11 | low
        self.bit_generator = self

    def random_raw(self, size):
        assert size == self.words.size
        return self.words


_LARGEST_UNIFORM = 1.0 - 2.0**-53


def _edge_uniforms(*means):
    """0, the largest uniform, steps of 1/4096, and every CDF value of each
    mean with its two float neighbours, all inside [0, 1).

    A uniform is a multiple of 2**-53, and below 0.5 floats are finer than
    that, so each point stands as its floor and ceiling on that grid: the
    two straddle the same CDF step, and the generator can produce both.
    """
    points = [0.0, _LARGEST_UNIFORM, *(np.arange(4096) / 4096)]
    for mean in means:
        pmf = cum = float(np.exp(-mean))
        for k in range(1, 520):
            points += [cum, math.nextafter(cum, 0.0), math.nextafter(cum, 2.0)]
            pmf *= mean / k
            cum += pmf
    scaled = np.array(points) * 2.0**53
    u = np.concatenate([np.floor(scaled), np.ceil(scaled)]) * 2.0**-53
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
    got = _draw_constant(mean, _FixedWords(u), u.size)
    np.testing.assert_array_equal(got, _sequential_cdf_search(u, mean))


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
    means = np.array([mean_plus, mean_minus])
    held = (bool(hyp_plus.any()), not hyp_plus.all())
    got = _draw_counts(_FixedWords(u), means, _InversionTable(means), ~hyp_plus, held)
    np.testing.assert_array_equal(got, _sequential_cdf_search(u, mean_vec))


def test_guide_bins_without_a_step_stay_below_every_cap():
    # invert applies the cap only to the searched bins; that is exact as long
    # as every other bin reads a count below the smallest cap
    for mean in (*INVERSION_MEANS, *np.linspace(0.0, 29.999999, 301)):
        lookup = _InversionTable([mean, mean]).lookup
        assert lookup.size == 2 * montecarlo._GUIDE_BINS
        assert -1 <= lookup.min() and lookup.max() < montecarlo._inversion_cap(0.0)


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
    draws = _draw_constant(mean, np.random.default_rng(31), 100_000)
    assert draws[:8].tolist() == head
    raw = np.ascontiguousarray(draws, dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest
    assert _draw_constant(mean, np.random.default_rng(32), 1).tolist() == [scalar]


# ------------------------------------------------------------- configuration


def test_trial_config_validation():
    pair = PulsePair(0.1, 1.0)
    with pytest.raises(ValueError):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.ML_JOINT, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.ML_JOINT, seed=-1)
    with pytest.raises(ValueError, match=f"^{re.escape(_BALANCED_ONLY)}$"):
        TrialConfig(pair, Beamsplitter(0.3), DecisionRule.HOMODYNE_COMPARE)
    with pytest.raises(ValueError, match=f"^{re.escape(_DARK_PORT_ONLY)}$"):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.KENNEDY_SINGLE_PORT)
    TrialConfig(pair, kennedy_angle(pair), DecisionRule.KENNEDY_SINGLE_PORT)
    TrialConfig(pair, homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE)


@pytest.mark.parametrize("field, value", [("trials", 1000.5), ("trials", 1000.0), ("trials", "10"),
                                          ("seed", 1.5), ("seed", np.float64(2.0))])
def test_trial_config_refuses_a_non_integer_limit(field, value):
    # refused where the config is made, not by a TypeError once run_trials starts
    pair = PulsePair(0.1, 1.0)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        TrialConfig(pair, homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE, **{field: value})


def test_trial_config_takes_any_integer_type():
    # a bool and a numpy integer are integers; the result is the int run's
    pair = PulsePair(0.1, 1.0)
    cfg = TrialConfig(pair, homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE,
                      trials=np.int64(100), seed=True)
    plain = TrialConfig(pair, homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE,
                        trials=100, seed=1)
    assert run_trials(cfg).errors == run_trials(plain).errors


def test_run_trials_refuses_a_mean_past_the_generator_sampler():
    # numpy's Poisson sampler takes 9.2e18 and refuses 9.3e18
    below = TrialConfig(PulsePair(0.0, 2 * 9.2e18), homodyne_splitter(),
                        DecisionRule.ML_JOINT, trials=10)
    assert run_trials(below).errors >= 0
    above = TrialConfig(PulsePair(0.0, 2 * 9.3e18), homodyne_splitter(),
                        DecisionRule.ML_JOINT, trials=10)
    with pytest.raises(NumericalResourceError, match="port mean of 9.3e"):
        run_trials(above)


def test_estimate_result_invariants():
    est = EstimateResult(300, 1000, seed=5)
    assert est.error_rate == 0.3
    assert est.standard_error == pytest.approx(math.sqrt(0.3 * 0.7 / 1000), rel=1e-15)
    assert est.ci99_low <= est.error_rate <= est.ci99_high
    edge = EstimateResult(0, 50, seed=0)
    assert edge.ci99_low == 0.0 and edge.ci99_high == 0.0


# ------------------------------------------------------------ reproducibility


def test_run_trials_reproducible_bit_for_bit():
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(), DecisionRule.ML_JOINT,
                      trials=200_000, seed=42)
    assert run_trials(cfg) == run_trials(cfg)


# block counts just below, at and above the smallest one a pool starts for
AROUND_POOL_MIN = [POOL_MIN_ITEMS - 1, POOL_MIN_ITEMS, POOL_MIN_ITEMS + 1]


@pytest.mark.parametrize("blocks", AROUND_POOL_MIN)
def test_run_trials_independent_of_thread_cap(monkeypatch, blocks):
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(), DecisionRule.ML_JOINT,
                      trials=blocks * montecarlo.BLOCK_TRIALS - 1000, seed=9)
    workers = set()
    simulate = montecarlo._simulate_block

    def recording(*args):
        workers.add(threading.get_ident())
        return simulate(*args)

    monkeypatch.setattr(montecarlo, "_simulate_block", recording)
    monkeypatch.setenv("PHASEKIT_THREADS", "1")
    serial = run_trials(cfg)
    assert workers == {threading.get_ident()}
    workers.clear()
    monkeypatch.setenv("PHASEKIT_THREADS", "4")
    threaded = run_trials(cfg)
    assert serial == threaded
    # below the pool's minimum every block runs on the calling thread, from it on none does
    assert (threading.get_ident() in workers) == (blocks < POOL_MIN_ITEMS)


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("raw, shown", [("x", "'x'"), ("-1", "-1")])
def test_run_trials_refuses_a_bad_thread_cap(monkeypatch, raw, shown, blocks):
    # a run this short starts no pool, and still reads the cap
    assert blocks < POOL_MIN_ITEMS
    cfg = TrialConfig(PulsePair(0.1, 1.0), homodyne_splitter(), DecisionRule.ML_JOINT,
                      trials=(blocks - 1) * montecarlo.BLOCK_TRIALS + 10)
    monkeypatch.setenv("PHASEKIT_THREADS", raw)
    with pytest.raises(ValueError) as info:
        run_trials(cfg)
    assert str(info.value) == f"PHASEKIT_THREADS must be a non-negative integer, got {shown}"


@pytest.mark.parametrize("blocks", AROUND_POOL_MIN)
@pytest.mark.parametrize(
    "pair,splitter,rule,last",
    [
        (PulsePair(0.1, 100.0), Beamsplitter(0.15 * math.pi), DecisionRule.ML_JOINT, 18_928),
        # port 1 means 32.5 (PLUS) and 27.6 (MINUS) straddle the inversion limit
        (PulsePair(0.1, 60.0), homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE, 18_928),
        # the last block holds a single trial
        (PulsePair(0.1, 100.0), Beamsplitter(0.15 * math.pi), DecisionRule.ML_JOINT, 1),
    ],
    ids=["ml beta2=100", "straddle", "partial block"],
)
def test_run_trials_on_the_generator_sampler_independent_of_thread_cap(
    monkeypatch, pair, splitter, rule, last, blocks
):
    trials = (blocks - 1) * montecarlo.BLOCK_TRIALS + last
    cfg = TrialConfig(pair, splitter, rule, trials=trials, seed=9)
    assert _means(pair, splitter)[0] >= montecarlo._INVERSION_MEAN_LIMIT
    monkeypatch.setenv("PHASEKIT_THREADS", "1")
    serial = run_trials(cfg)
    monkeypatch.setenv("PHASEKIT_THREADS", "2")
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
    means = _means(pair, splitter)
    a, b = _ml_slopes(*means)
    assert (b == -math.inf) == (angle == "dark_port")
    n, m = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    score = _ml_score(a, n) + _ml_score(b, m)

    def joint(mean1, mean2):
        log1, log2 = _log_pmf_rows(5, [mean1, mean2])
        return log1[:, None] + log2

    n1_plus, n1_minus, n2_plus, n2_minus = means
    lp_grid = joint(n1_plus, n2_plus)
    lm_grid = joint(n1_minus, n2_minus)
    for (i, j), got in np.ndenumerate(score):
        lp, lm = lp_grid[i, j], lm_grid[i, j]
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
        log_factorial = _log_factorial_table(int(np.max(counts, initial=0)))
        return counts * math.log(mean) - mean - log_factorial[counts]

    n1_plus, n1_minus, n2_plus, n2_minus = means
    lp = log_pmf(counts1, n1_plus) + log_pmf(counts2, n2_plus)
    lm = log_pmf(counts1, n1_minus) + log_pmf(counts2, n2_minus)
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

    def recording(*args):
        counts = _draw_counts(*args)
        draws.append(counts)
        return counts

    monkeypatch.setattr(montecarlo, "_draw_counts", recording)
    ties = trials = 0
    for cfg, errors in _golden_ml_configs():
        draws.clear()
        est = run_trials(cfg)
        if errors is not None:
            assert est.errors == errors
        means = _means(cfg.pair, cfg.splitter)
        a, b = _ml_slopes(*means)
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


# ----------------------------------------------------- reference block kernel


def _reference_block(cfg, means, rng, size):
    """The block kernel every seeded run is pinned to, in its plainest form:
    per-trial mean vectors, sequential CDF search below a mean of 30, the
    generator's sampler above, and per-trial ML scores."""
    hyp_plus = rng.random(size) < 0.5
    counts = []
    for mean_plus, mean_minus in (means[:2], means[2:]):
        mean_vec = np.where(hyp_plus, mean_plus, mean_minus)
        if np.max(mean_vec) < montecarlo._INVERSION_MEAN_LIMIT:
            counts.append(_sequential_cdf_search(rng.random(size), mean_vec))
        else:
            counts.append(rng.poisson(mean_vec))
    counts1, counts2 = counts
    if cfg.rule is DecisionRule.KENNEDY_SINGLE_PORT:
        guess_plus, tie = counts2 == 0, np.zeros(size, dtype=bool)
    elif cfg.rule is DecisionRule.HOMODYNE_COMPARE:
        guess_plus, tie = counts1 > counts2, counts1 == counts2
    else:
        a, b = _ml_slopes(*means)
        diff = _ml_score(a, counts1) + _ml_score(b, counts2)
        guess_plus, tie = diff > TIE_LOG_BAND, np.abs(diff) <= TIE_LOG_BAND
    tied = np.flatnonzero(tie)
    if tied.size:
        guess_plus[tied] = rng.random(tied.size) < 0.5
    return int(np.count_nonzero(guess_plus != hyp_plus))


def _reference_errors(cfg):
    means = _means(cfg.pair, cfg.splitter)
    n_blocks = -(-cfg.trials // montecarlo.BLOCK_TRIALS)
    children = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    return sum(
        _reference_block(
            cfg, means, np.random.Generator(np.random.PCG64(child)),
            min(montecarlo.BLOCK_TRIALS, cfg.trials - i * montecarlo.BLOCK_TRIALS),
        )
        for i, child in enumerate(children)
    )


_STRENGTHS = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=300.0))


def _configs_for(pair, phi, trials, seed):
    splitters = [Beamsplitter(phi), homodyne_splitter()]
    if 0.0 < pair.total and pair.alpha2 <= pair.beta2:
        splitters.append(kennedy_angle(pair))
    for splitter in splitters:
        for rule in DecisionRule:
            try:
                yield TrialConfig(pair, splitter, rule, trials=trials, seed=seed)
            except ValueError as exc:
                if str(exc) not in (_BALANCED_ONLY, _DARK_PORT_ONLY):
                    raise


@given(
    alpha2=_STRENGTHS,
    beta2=_STRENGTHS,
    phi=st.floats(min_value=0.0, max_value=math.pi / 4),
    trials=st.sampled_from([1, 3, montecarlo.BLOCK_TRIALS + 1]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=25)
def test_run_trials_counts_errors_like_the_reference_block(alpha2, beta2, phi, trials, seed):
    for cfg in _configs_for(PulsePair(alpha2, beta2), phi, trials, seed):
        assert run_trials(cfg).errors == _reference_errors(cfg), cfg


# the single-port rule at the cancellation angle, where port 1's means are
# 35 (PLUS) and 17.9 (MINUS): a block holding only MINUS trials would invert
# port 1, which the rule never reads, and any other block samples it
_KENNEDY_STRADDLE = PulsePair(5.0, 30.0)


@pytest.mark.parametrize("trials", [1, 3, montecarlo.BLOCK_TRIALS + 1])
def test_skipped_port_leaves_the_stream_where_drawing_would(trials):
    pair = _KENNEDY_STRADDLE
    splitter = kennedy_angle(pair)
    n1_plus, n1_minus = _means(pair, splitter)[:2]
    assert n1_minus < montecarlo._INVERSION_MEAN_LIMIT <= n1_plus
    for seed in range(20):
        cfg = TrialConfig(pair, splitter, DecisionRule.KENNEDY_SINGLE_PORT, trials=trials,
                          seed=seed)
        assert run_trials(cfg).errors == _reference_errors(cfg), cfg


def test_tables_are_built_only_for_ports_a_block_can_invert_and_the_rule_reads(monkeypatch):
    built = []

    class Recording(_InversionTable):
        def __init__(self, means):
            built.append(tuple(means))
            super().__init__(means)

    monkeypatch.setattr(montecarlo, "_InversionTable", Recording)
    ml, compare = DecisionRule.ML_JOINT, DecisionRule.HOMODYNE_COMPARE
    kennedy, interior = DecisionRule.KENNEDY_SINGLE_PORT, Beamsplitter(0.15 * math.pi)
    cases = [
        # both ports' means reach 30 under both hypotheses: no table
        (PulsePair(0.1, 100.0), homodyne_splitter(), compare, ()),
        # port 1's means 82.0 and 76.9 reach 30, port 2's do not
        (PulsePair(0.1, 100.0), interior, ml, (1,)),
        # port 1's means 32.5 and 27.6 straddle 30, so both ports can invert
        (PulsePair(0.1, 60.0), homodyne_splitter(), compare, (0, 1)),
        (PulsePair(0.1, 1.0), interior, ml, (0, 1)),
        # the single-port rule reads port 2 alone, whatever port 1's means
        (PulsePair(0.1, 1.0), None, kennedy, (1,)),
        (_KENNEDY_STRADDLE, None, kennedy, (1,)),
    ]
    for pair, splitter, rule, ports in cases:
        splitter = splitter or kennedy_angle(pair)
        built.clear()
        run_trials(TrialConfig(pair, splitter, rule, trials=3, seed=1))
        means = _means(pair, splitter)
        assert built == [tuple(means[2 * port:2 * port + 2]) for port in ports], (pair, rule)


@pytest.mark.parametrize("beta2", [1e12, 1e16])
def test_huge_means_score_in_memory_set_by_the_block(monkeypatch, beta2):
    # port means up to about 1e16: any table spanning the counts a port can
    # reach would hold millions to hundreds of millions of entries, while a
    # 3 000-trial run needs a few 24 KB per-trial arrays and no guide table,
    # since no port can be inverted
    monkeypatch.setenv("PHASEKIT_THREADS", "1")
    cfg = TrialConfig(PulsePair(1.0, beta2), Beamsplitter(0.15 * math.pi),
                      DecisionRule.ML_JOINT, trials=3_000, seed=4)
    tracemalloc.start()
    try:
        errors = run_trials(cfg).errors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert errors == _reference_errors(cfg)


def test_inversion_table_builds_its_lookup_in_place():
    # beyond what the table keeps, building it holds at most one guide row
    tracemalloc.start()
    try:
        table = _InversionTable([0.1, 29.99])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.lookup.size == 2 * montecarlo._GUIDE_BINS
    assert peak <= retained + (montecarlo._GUIDE_BINS + 1) * np.dtype(np.int16).itemsize


def test_a_two_block_run_holds_one_block_of_temporaries(monkeypatch):
    # two blocks run in turn on the calling thread even with two threads
    # allowed; the traced peak was 1.90 MB on numpy 2.4 (two 0.26 MB guide
    # tables and the largest block step, two 0.5 MB float scores), and the
    # bound leaves 5% for other numpy versions
    monkeypatch.setenv("PHASEKIT_THREADS", "2")
    cfg = TrialConfig(PulsePair(0.1209, 1.0), homodyne_splitter(),
                      DecisionRule.HOMODYNE_COMPARE, trials=2 * montecarlo.BLOCK_TRIALS, seed=1)
    tracemalloc.start()
    try:
        errors = run_trials(cfg).errors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20
    assert errors == _reference_errors(cfg)


def test_a_block_frees_each_ports_counts_once_scored():
    # at beta2 = 100 both ports draw int64 counts from the generator's sampler;
    # with port 1's counts freed before port 2's score is formed, the block
    # holds its flags and three 512 KiB arrays (traced peak 1.63 MiB on numpy
    # 2.4), where holding both ports' counts took four (2.13 MiB)
    cfg = TrialConfig(PulsePair(0.1, 100.0), homodyne_splitter(),
                      DecisionRule.HOMODYNE_COMPARE, trials=montecarlo.BLOCK_TRIALS, seed=3)
    means = _means(cfg.pair, cfg.splitter)
    assert min(means) >= montecarlo._INVERSION_MEAN_LIMIT
    ports = [(np.array(means[:2]), None), (np.array(means[2:]), None)]
    size = montecarlo.BLOCK_TRIALS
    streams = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(3))) for _ in range(2)]
    tracemalloc.start()
    try:
        errors = montecarlo._simulate_block(cfg, (1.0, -1.0), ports, streams[0], size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * size * np.dtype(np.int64).itemsize
    assert errors == _reference_block(cfg, means, streams[1], size)


@pytest.mark.parametrize("key", sorted(MONTECARLO_REFERENCES))
def test_run_matches_benchmark_reference(key):
    options = dict(option.split("=") for option in key.split()[1:])
    pair = PulsePair(float(options["alpha2"]), float(options["beta2"]))
    rule = DecisionRule(options["rule"])
    if rule is DecisionRule.HOMODYNE_COMPARE:
        splitter = homodyne_splitter()
    elif rule is DecisionRule.KENNEDY_SINGLE_PORT:
        splitter = kennedy_angle(pair)
    else:
        splitter = Beamsplitter(float(options["phi_over_pi"]) * math.pi)
    # the key records the angle the run used, at 12 significant digits
    assert f"{splitter.phi / math.pi:.12g}" == options["phi_over_pi"]
    est = run_trials(
        TrialConfig(pair, splitter, rule, trials=int(options["trials"]), seed=int(options["seed"]))
    )
    text = f"error_rate = {est.error_rate:.12g}\nerrors = {est.errors}\ntrials = {est.trials}\n"
    assert text == MONTECARLO_REFERENCES[key]


# --------------------------------------------------------- batched streams


def _next_draws(rng):
    return rng.random(5), rng.poisson([0.5, 40.0]), rng.bit_generator.random_raw(2)


@pytest.mark.parametrize("size", [1, 3, 1000, montecarlo.BLOCK_TRIALS])
def test_spawned_streams_keep_the_identities_the_sampler_reads_them_by(size):
    # blocks read the raw words that Generator.random turns into doubles,
    # and advance past a port they never read; both rest on these identities
    # of numpy's PCG64, which a numpy release could change
    for child in np.random.SeedSequence(2024).spawn(3):
        drawn, raw, skipped = (np.random.Generator(np.random.PCG64(child)) for _ in range(3))
        doubles = drawn.random(size)
        words = raw.bit_generator.random_raw(size)
        assert words.dtype == np.uint64
        assert np.array_equal(doubles.view(np.uint64), ((words >> 11) * 2.0**-53).view(np.uint64))
        # so the hypothesis flag and the guide bin read straight off the word
        assert np.array_equal(words >= 1 << 63, doubles >= 0.5)
        assert np.array_equal(words >> 48, np.floor(doubles * montecarlo._GUIDE_BINS))
        skipped.bit_generator.advance(size)
        # all three streams now stand at the same place
        then = _next_draws(drawn)
        for rng in (raw, skipped):
            for expected, got in zip(then, _next_draws(rng)):
                assert np.array_equal(expected, got)


def test_batched_spawns_draw_like_one_spawn():
    # each spawn continues the root's child count
    root = np.random.SeedSequence(2024)
    batched = root.spawn(3) + root.spawn(5)
    whole = np.random.SeedSequence(2024).spawn(8)
    assert [np.random.Generator(np.random.PCG64(c)).random(4).tolist() for c in batched] == [
        np.random.Generator(np.random.PCG64(c)).random(4).tolist() for c in whole
    ]


@pytest.mark.parametrize(
    "pair, splitter, rule, errors",
    [
        (PulsePair(0.2, 4.0), Beamsplitter(0.15 * math.pi), DecisionRule.ML_JOINT, 48966),
        (PulsePair(0.1, 60.0), homodyne_splitter(), DecisionRule.HOMODYNE_COMPARE, 69860),
    ],
)
def test_run_trials_maps_one_batch_of_streams_at_a_time(monkeypatch, pair, splitter, rule, errors):
    # five blocks, the last one partial; the error counts were recorded when
    # every stream was spawned in one call and mapped at once
    mapped = []

    def recording(fn, items):
        items = list(items)
        mapped.append(len(items))
        return [fn(item) for item in items]

    monkeypatch.setattr(montecarlo, "SPAWN_BATCH", 2)
    monkeypatch.setattr(montecarlo, "parallel_map", recording)
    cfg = TrialConfig(pair, splitter, rule, trials=4 * montecarlo.BLOCK_TRIALS + 1000, seed=7)
    assert run_trials(cfg).errors == errors
    assert mapped == [2, 2, 1]


@pytest.mark.parametrize("dtype, top", [(np.int16, 600), (np.int64, 2**53)])
def test_unit_slopes_score_the_count_comparison_exactly(dtype, top):
    # the count comparison is the ML score at slopes (1, -1); counts are exact
    # in float, so the score decides and ties exactly as comparing the counts
    rng = np.random.default_rng(25)
    c1, c2 = rng.integers(0, top, (2, 4096)).astype(dtype)
    c2[:512] = c1[:512]
    c1[512:1024] = 0
    c2[768:1280] = 0
    diff = _ml_score(1.0, c1) + _ml_score(-1.0, c2)
    assert np.array_equal(diff > TIE_LOG_BAND, c1 > c2)
    assert np.array_equal(np.abs(diff) <= TIE_LOG_BAND, c1 == c2)
    assert (c1 == c2).sum() >= 512 + 256
