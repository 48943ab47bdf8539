import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit.helstrom as helstrom
import phasekit.numerics as numerics
import phasekit.receivers as receivers
from phasekit.helstrom import d_err_small_alpha, p_err_optimal
from phasekit.model import Beamsplitter, PulsePair
from phasekit.numerics import (
    MAX_PHOTON_COUNT,
    NumericalResourceError,
    _checked_count,
    _log_factorial_table,
    _log_pmf_rows,
    _log_remainder_bound,
    _pmf_rows,
    _poisson_search,
)
from phasekit.receivers import (_count_error, _ml_error, best_angle, p_beamsplitter_ml,
                                p_homodyne_asymptotic, p_homodyne_generalized)
from phasekit.scan import figure_table

mp.mp.dps = 40


# ---------------------------------------------------------------- factorials


def test_log_factorial_table_anchors():
    t = _log_factorial_table(16)
    assert t[0] == 0.0
    assert t[1] == 0.0
    assert t[3] == pytest.approx(math.log(6), rel=1e-15)
    assert len(t) == 17
    assert not t.flags.writeable


def test_log_factorial_table_monotone_and_difference():
    # the difference invariant is representation-limited: ln(n!) grows while
    # ln(n) stays O(1), so 1e-13 relative is honest only for moderate tables
    v = _log_factorial_table(512)
    assert np.all(np.diff(v) >= 0.0)
    n = np.arange(1, 513)
    rel = np.abs((v[1:] - v[:-1]) - np.log(n)) / np.log(np.maximum(n, 2))
    assert rel.max() < 1e-13


def test_log_factorial_table_matches_loggamma():
    t = _log_factorial_table(5000)
    for k in (2, 17, 400, 5000):
        exact = mp.loggamma(k + 1)
        assert abs(t[k] - float(exact)) <= 4e-16 * float(exact) + 1e-15


def test_log_factorial_never_shrinks_the_shared_table(monkeypatch):
    # another thread installs a larger table while this call rebuilds; the
    # rebuild must neither replace it nor be read in its place
    monkeypatch.setattr(numerics, "_log_factorials", _log_factorial_table(16))
    larger = _log_factorial_table(4096)

    def build_during_concurrent_install(max_n):
        numerics._log_factorials = larger
        return _log_factorial_table(max_n)

    monkeypatch.setattr(numerics, "_log_factorial_table", build_during_concurrent_install)
    assert numerics._log_factorial_prefix(40)[40] == pytest.approx(math.lgamma(41), rel=1e-15)
    assert numerics._log_factorials is larger


def test_log_factorial_table_stops_at_the_ceiling(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_PHOTON_COUNT", 4096)
    monkeypatch.setattr(numerics, "_log_factorials", _log_factorial_table(16))
    numerics._log_factorial_prefix(3000)
    # doubling from 3001 entries would build 6001; the ceiling caps it
    assert numerics._log_factorial_prefix(3500)[3500] == pytest.approx(math.lgamma(3501), rel=1e-15)
    assert len(numerics._log_factorials) == 4097
    with pytest.raises(NumericalResourceError, match="ceiling"):
        _checked_count(4097)
    with pytest.raises(NumericalResourceError, match="ceiling"):
        _poisson_search([4000.0], 1e-10)
    assert len(numerics._log_factorials) == 4097


def test_refused_truncation_leaves_the_table_within_the_ceiling():
    with pytest.raises(NumericalResourceError, match="ceiling"):
        p_err_optimal(PulsePair(0.1, 4e6))
    assert len(numerics._log_factorials) <= MAX_PHOTON_COUNT + 1


def test_truncations_past_the_ceiling_are_refused_before_allocating():
    # each of these would otherwise ask for terabytes, or overflow int()
    for call in (
        lambda: _checked_count(10**12),
        lambda: _poisson_search([1e12], 1e-10),
        lambda: _poisson_search([math.inf], 1e-10),
    ):
        with pytest.raises(NumericalResourceError, match="ceiling"):
            call()
    assert _checked_count(MAX_PHOTON_COUNT) == MAX_PHOTON_COUNT
    assert _log_pmf_rows(MAX_PHOTON_COUNT, [0.0])[0][0] == 0.0


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        _log_factorial_table(-1)


# ------------------------------------------------------------------- poisson


def _log_pmf(n_max, mean):
    return _log_pmf_rows(n_max, [mean])[0]


def test_log_poisson_pmf_examples():
    assert _log_pmf(0, 0.0).tolist() == [0.0]
    assert _log_pmf(3, 0.0).tolist() == [0.0, -math.inf, -math.inf, -math.inf]
    assert _log_pmf(0, 0.5)[0] == pytest.approx(-0.5, rel=1e-15)
    # Poisson(1) at n=2 has mass e^-1 / 2
    assert _log_pmf(2, 1.0)[2] == pytest.approx(-1.0 - math.log(2.0), rel=1e-13)


def _gathered_log_pmf(n_max, mean):
    ns = np.arange(n_max + 1)
    return ns * math.log(mean) - mean - _log_factorial_table(n_max)[ns]


@pytest.mark.parametrize("n_max", [0, 1, 255, 256, 257, 600, 5000])
def test_log_pmf_is_the_gathered_formula_bit_for_bit(n_max):
    # the vector subtracts a prefix of the shared ln n! table; a gather of
    # the same entries gives the same floats
    for mean in 10.0 ** np.random.default_rng(n_max).uniform(-6.0, 5.0, 8):
        assert np.array_equal(_log_pmf(n_max, mean), _gathered_log_pmf(n_max, mean))


def test_log_pmf_grows_a_short_table_before_reading_its_prefix(monkeypatch):
    monkeypatch.setattr(numerics, "_log_factorials", _log_factorial_table(256))
    got = _log_pmf(5000, 4321.5)
    assert len(numerics._log_factorials) > 5000
    assert np.array_equal(got, _gathered_log_pmf(5000, 4321.5))


@given(st.floats(min_value=1e-3, max_value=50.0), st.integers(min_value=0, max_value=60))
@settings(max_examples=60)
def test_log_poisson_pmf_matches_direct_formula(mean, n):
    expected = mp.mpf(n) * mp.log(mean) - mean - mp.loggamma(n + 1)
    got = _log_pmf(n, mean)[n]
    assert got == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


def _brute_force_cutoff(mean, tail_mass):
    # independent route: high-precision partial sums until the tail drops
    with mp.workdps(60):
        m = mp.mpf(mean)
        total = mp.mpf(0)
        n = 0
        while True:
            total += mp.e ** (-m) * m**n / mp.factorial(n)
            if 1 - total < tail_mass:
                return n
            n += 1


def _cutoff(mean, tail_mass):
    return _poisson_search([mean], tail_mass)[0][0]


def test_cutoff_examples():
    assert _cutoff(0.0, 1e-12) == 0
    assert _cutoff(1.0, 1e-12) == _brute_force_cutoff(1.0, 1e-12)
    assert _cutoff(10.0, 1e-12) >= 10
    assert _cutoff(10.0, 1e-12) == _brute_force_cutoff(10.0, 1e-12)
    # the remainder bound holds for a subnormal mean, where mean / n underflows
    assert _cutoff(5e-324, 1e-10) == 0
    # a port's bright and dark means share the bright one's cutoff
    cuts, pmfs = _pmf_rows([10.0, 10.0], [1.0, 0.0], 1e-12)
    assert cuts == [max(_brute_force_cutoff(1.0, 1e-12), _brute_force_cutoff(10.0, 1e-12))] * 2
    assert [pmf.shape for pmf in pmfs] == [(2, cuts[0] + 1)] * 2


@pytest.mark.parametrize(
    "bright,dark", [(0.0, 0.0), (1e-3, 0.0), (2.5, 0.0), (1000.0, 1e-3), (9.1e4, 9e4)]
)
def test_pmf_rows_equal_fresh_builds(bright, dark):
    # a prefix of the cutoff search's vector is bit for bit the vector a
    # fresh build at the common cutoff gives, and so is the dark build
    (cut,), pmfs = _pmf_rows([bright], [dark], 1e-12)
    for mean, pmf in zip((bright, dark), pmfs):
        assert np.array_equal(pmf[0], np.exp(_log_pmf(cut, mean)))


@pytest.mark.parametrize("mean,upper", [(5.0, 8), (0.5, 0), (3.0, 3), (40.0, 45), (1e-3, 2)])
def test_remainder_bound_covers_the_exact_tail(mean, upper):
    # the first neglected ratio is mean / (upper + 1); a geometric series in
    # mean / (upper + 2) falls below the exact remainder at all but (40, 45),
    # by 4% at (5, 8)
    pmf = np.exp(_log_pmf(upper + 400, mean))
    exact = math.fsum(pmf[upper + 1 :])
    bound = math.exp(_log_remainder_bound(mean, upper, math.log(pmf[upper])))
    assert exact <= bound <= exact * (1.0 + mean / (upper + 1.0 - mean))
    assert bound == pytest.approx(pmf[upper] * mean / (upper + 1.0 - mean), rel=1e-14)
    assert _log_remainder_bound(mean, math.floor(mean) - 1, 0.0) == math.inf


def test_each_sum_builds_each_weight_vector_once(monkeypatch):
    # builds and searches are counted per row, and searches also per block
    builds, searches, blocks = [], [], []
    build = numerics._log_pmf_rows

    def counted(n_max, means):
        builds.extend(means)
        return build(n_max, means)

    search = numerics._poisson_search

    def counted_search(means, tail_mass):
        searches.extend(means)
        blocks.append(len(means))
        return search(means, tail_mass)

    # every module's binding, so a sum that builds its own vectors is counted too
    for module in (numerics, receivers, helstrom):
        monkeypatch.setattr(module, "_log_pmf_rows", counted, raising=False)
        monkeypatch.setattr(module, "_poisson_search", counted_search, raising=False)
    pair = PulsePair(0.1, 10.0)
    for call, most, n_searches in [
        # one search per port, on its larger mean
        (lambda: p_beamsplitter_ml(pair, Beamsplitter(0.3)), 4, 2),
        (lambda: p_homodyne_generalized(pair), 2, 1),
        (lambda: d_err_small_alpha(pair), 1, 1),
        # one search gives the cutoff, the sector weights and the tail bound
        (lambda: p_err_optimal(pair), 1, 1),
    ]:
        builds.clear()
        searches.clear()
        blocks.clear()
        call()
        assert 0 < len(builds) <= most
        assert len(searches) == n_searches
        assert blocks == [1] * n_searches

    # a grid is one block search per port, not one per angle; phi = 0 is an
    # exact tie and searches nothing
    builds.clear()
    blocks.clear()
    figure_table(3, alpha2=0.1, beta2=1.0, n_angles=128)
    # the sweep's two ports, then the count-comparison reference row
    assert blocks == [127, 127, 1]
    assert len(builds) <= 4 * 127 + 2
    blocks.clear()
    # the default 64-point signal grid at each reference strength
    figure_table(2, beta2_grid=[1.0, 10.0])
    assert blocks == [64, 64]
    blocks.clear()
    # figure 5's two columns, each one block over the 40 positive beta2;
    # beta2 = 0 is an exact tie and searches nothing
    figure_table(5, cross_check_alpha2=0.01)
    assert blocks == [40, 40]
    blocks.clear()
    best_angle(pair, grid_points=64)
    # the grid's two blocks, then one row per port for each golden-section
    # step and for the winner's result
    assert blocks[:2] == [63, 63] and set(blocks[2:]) == {1}
    assert len(blocks) % 2 == 0 and len(blocks) < 2 + 2 * 40


@pytest.mark.parametrize("tail_mass", [0.1, 1e-12, 1e-100])
def test_search_rows_are_the_one_row_searches_bit_for_bit(tail_mass):
    # rows of very different length, a dark row and a subnormal mean; at
    # 1e-100 some rows double their first margin and others do not
    means = [1e-3, 0.0, 1.0, 5e-324, 250.0, 7.5, 1e-300]
    cuts, logs, pmf, tails, log_rests, uppers = numerics._poisson_search(means, tail_mass)
    doubled = set()
    for i, mean in enumerate(means):
        (cut,), (log1,), (pmf1,), (tails1,), (rest,), (upper,) = numerics._poisson_search(
            [mean], tail_mass)
        n = len(log1)
        # each row's end is the last entry of its one-row vector
        assert cuts[i] == cut and log_rests[i] == rest and uppers[i] == upper == n - 1
        assert logs[i, :n].tobytes() == log1.tobytes() and (logs[i, n:] == -math.inf).all()
        assert pmf[i, :n].tobytes() == pmf1.tobytes() and not pmf[i, n:].any()
        assert tails[i, : n + 1].tobytes() == tails1.tobytes() and not tails[i, n + 1 :].any()
        if mean > 0.0:
            doubled.add(n - 1 > int(mean + numerics._first_margin(mean)))
    assert doubled == ({False, True} if tail_mass == 1e-100 else {False})


@pytest.mark.parametrize("tail_mass", [1e-12, 1e-100])
def test_pmf_rows_are_the_one_row_builds_row_by_row(tail_mass):
    # rows of very different cutoffs, a dark row and a tie; each row is zero
    # past its own cutoff
    rows = [(1.0, 0.5), (0.0, 0.0), (250.0, 3.0), (2.0, 1e-3), (0.2, 0.2)]
    bright, dark = zip(*rows)
    cuts, blocks = _pmf_rows(bright, dark, tail_mass)
    for i, row in enumerate(rows):
        (cut,), pmfs = _pmf_rows([row[0]], [row[1]], tail_mass)
        assert cuts[i] == cut == _cutoff(row[0], tail_mass)
        for block, pmf, mean in zip(blocks, pmfs, row):
            assert block[i, : cut + 1].tobytes() == pmf[0].tobytes()
            assert pmf[0].tobytes() == np.exp(_log_pmf(cut, mean)).tobytes()
            assert not block[i, cut + 1 :].any()


@pytest.mark.parametrize("mean,cutoff", [(9e3, 9610), (9e4, 91915)])
def test_large_mean_cutoff_builds_one_vector(monkeypatch, mean, cutoff):
    # the first margin already reaches below the floor; its geometric
    # remainder bound accepts it, and the one vector is built at that width
    sizes = []
    build = numerics._log_pmf_rows

    def counted(n_max, means):
        sizes.append(n_max)
        return build(n_max, means)

    monkeypatch.setattr(numerics, "_log_pmf_rows", counted)
    assert _cutoff(mean, 1e-10) == cutoff
    assert sizes == [int(mean + numerics._first_margin(mean))]


@given(
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=1e-14, max_value=0.5),
    st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=40)
def test_cutoff_monotone_in_tail_mass(mean, tail, factor):
    smaller = tail / factor
    assert _cutoff(mean, smaller) >= _cutoff(mean, tail)


_means = st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e5))


@st.composite
def _bright_dark(draw):
    means = draw(st.lists(_means, min_size=2, max_size=2))
    # often a near-equal pair: equal, one ulp, 1e-12 or 1e-9 apart
    scale = draw(st.sampled_from([None, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-12, 1.0 - 1e-9]))
    if scale is not None:
        means[1] = means[0] * scale
    return max(means), min(means)


@given(_bright_dark(), st.floats(min_value=1e-200, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_pmf_rows_is_one_search_on_the_bright_mean(means, tail_mass):
    # the tail beyond any N grows with the mean, so the bright mean's search
    # gives both means' cutoff; each pmf is then a fresh build at that cutoff
    (cut,), pmfs = _pmf_rows([means[0]], [means[1]], tail_mass)
    assert cut == max(_cutoff(m, tail_mass) for m in means)
    for mean, pmf in zip(means, pmfs):
        assert np.array_equal(pmf[0], np.exp(_log_pmf(cut, mean)))


@pytest.mark.parametrize("mean", [0.1, 1.0, 10.0])
def test_poisson_pmf_sums_to_one(mean):
    (cut,), _, (pmf,), _, _, _ = _poisson_search([mean], 1e-14)
    total = float(pmf[: cut + 1].sum())
    assert 1.0 - 1e-12 <= total <= 1.0


def test_optimum_tail_bound_matches_brute_force():
    # the optimum's bound on P[X > n_max], X ~ Poisson(alpha^2 + beta^2), against
    # the regularised incomplete gamma; where the search's vector ends before
    # cut + margin (the `short` cases), n_max is that end and the bound is geometric
    for total, tail_tol, short in [
        (2.5, 1e-10, False),
        (1e-6, 1e-10, False),
        (0.1, 1e-10, False),
        (0.1, 1e-100, True),
        (1.0, 1e-60, True),
        (1e-3, 1e-200, True),
        (30.0, 1e-14, False),
        (1e3, 1e-10, False),
        (1e4, 1e-14, False),
    ]:
        # n_max and the tail bound as the optimum reads them off its search row
        (cut,), (search_log_w,), _, (tails,), (log_rest,), (upper,) = numerics._poisson_search(
            [total], tail_tol)
        n_max = min(cut + helstrom.TRUNCATION_SAFETY_MARGIN, upper)
        log_w, bound = search_log_w[: n_max + 1], float(tails[n_max + 1]) + math.exp(log_rest)
        if short:
            assert n_max == len(search_log_w) - 1 < cut + helstrom.TRUNCATION_SAFETY_MARGIN
        else:
            assert n_max == cut + helstrom.TRUNCATION_SAFETY_MARGIN < len(search_log_w) - 1
        exact = float(mp.gammainc(n_max + 1, 0, mp.mpf(total), regularized=True))
        # the pmf entries are rounded in log space, at worst as much as the last one
        lm = math.log(total)
        rounding = 2.0 * np.finfo(float).eps * (n_max * (abs(lm) + lm + 1.0) + 2.0 - log_w[-1])
        assert exact * (1.0 - rounding) <= bound <= 1.01 * exact, (total, tail_tol)
        if not short:
            assert bound == pytest.approx(exact, rel=1e-10)
        # the reported bound covers the dropped sectors without that allowance
        pair = PulsePair(total / 4.0, 3.0 * total / 4.0)
        res = p_err_optimal(pair, tail_tol)
        x_next = (0.5 ** 2) ** (n_max + 1)
        assert res.metadata["n_max"] == n_max
        assert 0.5 * exact * x_next <= res.metadata["truncation_bound"]
    assert p_err_optimal(PulsePair(0.0, 0.0)).metadata["truncation_bound"] == 0.0


# ------------------------------------------------------------- gaussian tail


def test_gaussian_upper_tail_anchors():
    # the strong-reference count comparison errs with P[Z > 2 alpha]
    assert p_homodyne_asymptotic(0.0).error_probability == 0.5
    # the limit P = 0 at a huge finite signal; inf is no strength
    assert p_homodyne_asymptotic(1e300).error_probability == 0.0
    with pytest.raises(ValueError, match="^alpha2 must be finite and non-negative, got inf$"):
        p_homodyne_asymptotic(math.inf)
    expected = mp.erfc(2 * mp.sqrt(mp.mpf(0.1)) / mp.sqrt(2)) / 2
    assert p_homodyne_asymptotic(0.1).error_probability == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("x", np.linspace(-8.0, 8.0, 20))
def test_gaussian_upper_tail_reference_points(x):
    # P[Z > x] at x = 2 alpha is the error probability; at x = -2 alpha it
    # is the probability of a correct guess
    expected = mp.erfc(mp.mpf(float(x)) / mp.sqrt(2)) / 2
    p = p_homodyne_asymptotic(float(x) ** 2 / 4.0).error_probability
    assert (p if x >= 0 else 1.0 - p) == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("mean", [0.0, 1e-300, 0.3, 7.5, 250.0, 9e3])
@pytest.mark.parametrize("tail_mass", [0.1, 1e-12, 1e-100])
def test_search_tails_are_the_reversed_cumsum_bit_for_bit(mean, tail_mass):
    _, _, (pmf,), (tails,), _, _ = numerics._poisson_search([mean], tail_mass)
    expected = np.append(pmf[::-1].cumsum()[::-1], 0.0)
    assert tails.dtype == expected.dtype and tails.tobytes() == expected.tobytes()


# ------------------------------------------------------------- tail budgets

# every entry point that takes a tail budget
TAIL_ENTRY_POINTS = {
    "_count_error": lambda tol: _count_error([(1.0, 0.5)], tol),
    "_ml_error": lambda tol: _ml_error([(2.0, 0.5, 0.25, 1.0)], tol),
    "p_err_optimal": lambda tol: p_err_optimal(PulsePair(0.1, 1.0), tol),
    "figure_table": lambda tol: figure_table(5, tail_tol=tol),
}


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, math.nan, -1.0, 2.0])
@pytest.mark.parametrize("entry", sorted(TAIL_ENTRY_POINTS))
def test_every_tail_entry_point_refuses_with_one_message(entry, tail_tol):
    with pytest.raises(ValueError) as info:
        TAIL_ENTRY_POINTS[entry](tail_tol)
    assert str(info.value) == f"tail_tol must lie in (0, 1), got {tail_tol}"
