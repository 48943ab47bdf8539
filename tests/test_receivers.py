import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_homodyne, oracle_kennedy, oracle_ml
from phasekit import receivers
from phasekit.helstrom import p_err_optimal
from phasekit.model import (
    QUARTER_PI,
    Beamsplitter,
    DiscriminationResult,
    PulsePair,
    homodyne_splitter,
    kennedy_angle,
    port_means,
)
from phasekit.numerics import MAX_PHOTON_COUNT, NumericalResourceError, _log_pmf_rows
from phasekit.receivers import (
    ANGLE_TOL,
    DEFAULT_TAIL_TOL,
    _angle_errors,
    _count_error,
    _count_errors,
    _count_means,
    _ml_error,
    _row_errors,
    best_angle,
    p_beamsplitter_ml,
    p_homodyne_asymptotic,
    p_homodyne_generalized,
    p_kennedy_asymptotic,
    p_kennedy_generalized,
    p_min_pure,
)

mp.mp.dps = 40

# the benchmark's recorded angle_search outputs at its default seed
ANGLE_SEARCH_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text(
        encoding="utf-8"
    )
)["angle_search"]


# ---------------------------------------------------------- pure-state bound


def test_p_min_pure_anchors():
    assert p_min_pure(0.0).error_probability == 0.5
    expected = (1 - mp.sqrt(1 - mp.e ** mp.mpf("-0.4"))) / 2
    assert p_min_pure(0.1).error_probability == pytest.approx(float(expected), rel=1e-13)
    assert p_min_pure(1e6).error_probability == 0.0
    with pytest.raises(ValueError):
        p_min_pure(-0.5)


def test_kennedy_asymptotic_anchors():
    assert p_kennedy_asymptotic(0.0).error_probability == 0.5
    assert p_kennedy_asymptotic(0.1).error_probability == pytest.approx(
        math.exp(-0.4) / 2, rel=1e-15
    )
    # twice the optimum in the strong-signal limit
    ratio = p_kennedy_asymptotic(5.0).error_probability / p_min_pure(5.0).error_probability
    assert ratio == pytest.approx(2.0, abs=1e-8)


def test_homodyne_asymptotic_anchors():
    assert p_homodyne_asymptotic(0.0).error_probability == 0.5
    expected = mp.erfc(2 * mp.sqrt(mp.mpf("0.1")) / mp.sqrt(2)) / 2
    assert p_homodyne_asymptotic(0.1).error_probability == pytest.approx(
        float(expected), rel=1e-12
    )


@pytest.mark.parametrize("alpha2", [0.01, 0.05, 0.1, 0.15, 0.2])
def test_homodyne_beats_kennedy_for_weak_signals(alpha2):
    assert (
        p_homodyne_asymptotic(alpha2).error_probability
        < p_kennedy_asymptotic(alpha2).error_probability
    )


# ------------------------------------------------------- generalized kennedy


def test_kennedy_generalized_anchor():
    p = p_kennedy_generalized(PulsePair(0.1, 1.0)).error_probability
    assert p == pytest.approx(math.exp(-0.4 / 1.1) / 2, rel=1e-15)
    assert p == pytest.approx(0.34757, abs=5e-6)


def test_kennedy_generalized_limits():
    strong = p_kennedy_generalized(PulsePair(0.1, 1e7)).error_probability
    assert strong == pytest.approx(p_kennedy_asymptotic(0.1).error_probability, abs=1e-7)
    res = p_kennedy_generalized(PulsePair(0.1, 0.0))
    assert res.error_probability == 0.5
    degenerate = p_kennedy_generalized(PulsePair(0.0, 0.0))
    assert degenerate.error_probability == 0.5
    assert degenerate.metadata["degenerate"]


LARGEST = 1.7976931348623157e308


def test_kennedy_generalized_where_the_product_overflows():
    # 4 alpha^2 beta^2 overflows: its limit where both strengths are huge, and
    # the closed form itself (not the 0 the overflow gave) where one is small
    assert p_kennedy_generalized(PulsePair(LARGEST, LARGEST)).error_probability == 0.0
    assert p_kennedy_generalized(PulsePair(LARGEST, 0.0)).error_probability == 0.5
    for pair in (PulsePair(LARGEST, 1.0), PulsePair(1.0, LARGEST)):
        p = p_kennedy_generalized(pair).error_probability
        assert p == pytest.approx(0.5 * math.exp(-4.0), rel=1e-15)


def test_homodyne_generalized_refuses_a_mean_past_the_float_range():
    with pytest.raises(NumericalResourceError, match="overflows"):
        p_homodyne_generalized(PulsePair(LARGEST, LARGEST))


@given(strengths := st.floats(min_value=0.0, max_value=20.0), strengths)
@settings(max_examples=80)
def test_kennedy_generalized_exactly_symmetric(alpha2, beta2):
    direct = p_kennedy_generalized(PulsePair(alpha2, beta2)).error_probability
    swapped = p_kennedy_generalized(PulsePair(beta2, alpha2)).error_probability
    assert direct == swapped


# ------------------------------------------------------ generalized homodyne


def test_homodyne_generalized_against_oracle():
    for alpha2, beta2 in [(0.1, 1.0), (0.25, 2.5), (0.05, 4.0), (0.1, 10.0)]:
        got = p_homodyne_generalized(PulsePair(alpha2, beta2)).error_probability
        assert got == pytest.approx(oracle_homodyne(alpha2, beta2), abs=1e-10)


def test_homodyne_generalized_equal_strengths_collapses():
    # equal strengths empty the low port; only the silent-silent tie remains
    got = p_homodyne_generalized(PulsePair(0.1, 0.1)).error_probability
    assert got == pytest.approx(0.5 * math.exp(-0.2), rel=1e-12)


def test_homodyne_generalized_no_signal():
    # no signal, no reference, or a signal below the reference's float
    # resolution: both ports have one mean under both hypotheses, so every
    # outcome ties, as in the maximum-likelihood kernel at pi/4
    for alpha2, beta2 in [(0.0, 5.0), (3.0, 0.0), (1e-300, 1.0), (0.0, 0.0)]:
        pair = PulsePair(alpha2, beta2)
        res = p_homodyne_generalized(pair)
        assert res.error_probability == 0.5
        assert res.distinguishability == 0.0
        assert res.metadata["degenerate"]
        assert p_beamsplitter_ml(pair, homodyne_splitter()).error_probability == 0.5


def test_homodyne_generalized_metadata():
    res = p_homodyne_generalized(PulsePair(0.1, 1.0))
    assert res.metadata["tail_tol"] == 1e-12
    assert res.metadata["neglected_mass"] < 2e-12
    assert res.metadata["cutoff"] >= 1


@given(st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=40)
def test_homodyne_generalized_symmetric(alpha2, beta2):
    direct = p_homodyne_generalized(PulsePair(alpha2, beta2)).error_probability
    swapped = p_homodyne_generalized(PulsePair(beta2, alpha2)).error_probability
    assert abs(direct - swapped) < 1e-10


@pytest.mark.parametrize("alpha2", [0.1, 0.5])
def test_generalized_receivers_monotone_in_reference(alpha2):
    grid = [0.0, 0.25, 1.0, 4.0, 10.0, 100.0]
    ken = [p_kennedy_generalized(PulsePair(alpha2, b2)).error_probability for b2 in grid]
    hom = [p_homodyne_generalized(PulsePair(alpha2, b2)).error_probability for b2 in grid]
    assert all(x >= y - 1e-12 for x, y in zip(ken, ken[1:]))
    assert all(x >= y - 1e-12 for x, y in zip(hom, hom[1:]))
    # attenuating the reference is a channel, so the optimum cannot improve
    # either; each P is known only to within its truncation bound
    opt = [p_err_optimal(PulsePair(alpha2, b2)) for b2 in grid]
    for x, y in zip(opt, opt[1:]):
        slack = x.metadata["truncation_bound"] + y.metadata["truncation_bound"] + 1e-12
        assert x.error_probability >= y.error_probability - slack


@pytest.mark.parametrize("alpha2", [0.05, 0.1, 0.7, 2.0])
def test_receivers_coincide_at_equal_strengths(alpha2):
    pair = PulsePair(alpha2, alpha2)
    hom = p_homodyne_generalized(pair).error_probability
    ken = p_kennedy_generalized(pair).error_probability
    assert abs(hom - ken) < 1e-10


def test_homodyne_generalized_gaussian_limit():
    strong = p_homodyne_generalized(PulsePair(0.1, 2000.0)).error_probability
    assert abs(strong - p_homodyne_asymptotic(0.1).error_probability) < 0.005


# ------------------------------------------------------- one-parameter class


def test_ml_receiver_equals_homodyne_at_balanced_angle():
    for alpha2, beta2 in [(0.1, 1.0), (0.05, 4.0), (1.0, 1.0), (0.5, 0.05)]:
        pair = PulsePair(alpha2, beta2)
        ml = p_beamsplitter_ml(pair, homodyne_splitter()).error_probability
        hom = p_homodyne_generalized(pair).error_probability
        assert abs(ml - hom) < 1e-12


@given(st.floats(min_value=-6.0, max_value=3.0), st.floats(min_value=-6.0, max_value=4.0))
@settings(max_examples=60)
def test_count_comparison_is_the_ml_rule_at_the_balanced_angle(log_alpha2, log_beta2):
    # at pi/4 the ML boundary a*n + b*m = 0 has b = -a, so it compares the
    # two counts; the double sum and the ML kernel are independent routes
    pair = PulsePair(10.0**log_alpha2, 10.0**log_beta2)
    hom = p_homodyne_generalized(pair)
    ml = p_beamsplitter_ml(pair, homodyne_splitter())
    gap = abs(hom.error_probability - ml.error_probability)
    assert gap <= hom.metadata["error_bound"] + ml.metadata["error_bound"]


def test_ml_receiver_matches_oracle_at_generic_angle():
    got = p_beamsplitter_ml(PulsePair(0.1, 1.0), Beamsplitter(0.11 * math.pi))
    assert got.error_probability == pytest.approx(
        oracle_ml(0.1, 1.0, 0.11 * math.pi), abs=1e-10
    )


def test_ml_receiver_never_beaten_by_single_port_rule():
    for alpha2, beta2 in [(0.1, 1.0), (0.1, 10.0), (0.5, 2.0)]:
        pair = PulsePair(alpha2, beta2)
        ml = p_beamsplitter_ml(pair, kennedy_angle(pair)).error_probability
        single = p_kennedy_generalized(pair).error_probability
        assert ml <= single + 1e-12
        assert single == pytest.approx(float(oracle_kennedy(alpha2, beta2)), rel=1e-14)


def test_ml_receiver_degenerate_inputs():
    # no signal, no reference, or phi = 0: both hypotheses give the same port
    # means; at phi = 0 summing the truncated pmfs instead would overshoot
    # 1/2 at a strong reference
    for pair, phi in [
        (PulsePair(0.0, 3.0), 0.2),
        (PulsePair(3.0, 0.0), 0.2),
        (PulsePair(1e-6, 1e4), 0.0),
    ]:
        res = p_beamsplitter_ml(pair, Beamsplitter(phi))
        assert res.error_probability == 0.5
        assert res.metadata["degenerate"]


@pytest.mark.parametrize(
    "alpha2,beta2,phi",
    [(0.694038380500292, 24.560284305288704, 0.0), (0.0, 19.253120457275102, 0.1 * math.pi)],
)
def test_ml_receiver_ties_exactly_where_a_dark_mean_once_rounded_apart(alpha2, beta2, phi):
    # at phi = 0 or alpha^2 = 0 both hypotheses give the same port means; a
    # dark mean squared differently from the bright one came out one ulp
    # apart and gave 0.49999999999940126 and 0.49999999999964695
    pair = PulsePair(alpha2, beta2)
    res = p_beamsplitter_ml(pair, Beamsplitter(phi))
    assert res.error_probability == 0.5
    assert res.metadata["degenerate"] is True
    assert _angle_errors(pair, [phi], DEFAULT_TAIL_TOL) == [0.5]


@settings(max_examples=200, deadline=None)
@given(
    alpha2=st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0**e),
    beta2=st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0**e),
)
def test_count_means_bright_is_never_below_dark(alpha2, beta2):
    # (beta + alpha)^2 / 2 and (beta - alpha)^2 / 2, squared alike
    hi, lo = _count_means(PulsePair(alpha2, beta2))
    assert hi >= lo >= 0.0
    if alpha2 == 0.0 or beta2 == 0.0:
        assert hi == lo


@pytest.mark.parametrize("alpha2,beta2", [(20.0, 30.0), (12.0, 40.0)])
def test_ml_receiver_keeps_relative_precision_at_tiny_error(alpha2, beta2):
    # P is 3.3e-19 and 2.6e-12 at pi/4, so only a relative tolerance sees
    # precision lost in the tie run or in a cumulative sum
    pair = PulsePair(alpha2, beta2)
    phi = 0.15 * math.pi
    checks = [
        (homodyne_splitter(), oracle_homodyne(alpha2, beta2, terms=120)),
        (Beamsplitter(phi), oracle_ml(alpha2, beta2, phi, terms=120)),
    ]
    for splitter, expected in checks:
        got = p_beamsplitter_ml(pair, splitter).error_probability
        assert abs(got - float(expected)) <= 1e-12 * float(expected)


def test_ml_receiver_absorbs_only_the_rounding_excess_past_one_half(monkeypatch):
    # at the cancellation angle port 1 is hypothesis-blind at mean 1e5, whose
    # truncated pmfs sum 2e-11 above 1 each; P lands 1.0e-11 past 1/2, within
    # that excess, which error_bound carries
    pair = PulsePair(1e-300, 1e5)
    splitters = (kennedy_angle(pair), Beamsplitter(3.1830988618379067e-153 * math.pi))
    for splitter in splitters:
        res = p_beamsplitter_ml(pair, splitter)
        assert res.error_probability == 0.5
        assert 4e-12 + 1e-11 < res.metadata["error_bound"] < 4e-12 + 1e-10
    # without the excess the same overshoot is a violation, and still refused
    monkeypatch.setattr(receivers, "_mass_accounting", lambda *pmfs: (0.0, 0.0))
    for splitter in splitters:
        with pytest.raises(ValueError, match="must lie in"):
            p_beamsplitter_ml(pair, splitter)


def test_ml_receiver_metadata_bounds():
    res = p_beamsplitter_ml(PulsePair(0.1, 1.0), Beamsplitter(0.2))
    assert res.metadata["neglected_mass"] < 4e-12
    assert res.metadata["error_bound"] == 4e-12



def _rounding_excess(cut, *means):
    # how far each truncated pmf sums above 1, summed exactly
    return sum(
        max(0.0, math.fsum(np.exp(_log_pmf_rows(cut, [mean])[0])) - 1.0)
        for mean in means
    )


def test_error_bound_covers_log_pmf_rounding_at_large_means():
    # at beta^2 = 1e4 the rounded pmfs of some ports sum above 1; that excess
    # is error the truncation budget alone does not cover
    pair = PulsePair(0.1, 1e4)
    splitter = Beamsplitter(0.15 * math.pi)
    n1_plus, n1_minus, n2_plus, n2_minus = port_means(pair.alpha, pair.beta, splitter.r, splitter.t)
    ml = p_beamsplitter_ml(pair, splitter).metadata
    excess = _rounding_excess(ml["n_cut"], n1_plus, n1_minus) + _rounding_excess(
        ml["m_cut"], n2_plus, n2_minus
    )
    assert excess > 1e-12
    # the receiver sums each pmf pairwise, the test exactly: allow for that
    assert ml["error_bound"] >= 4e-12 + excess * (1.0 - 1e-6)

    hom = p_homodyne_generalized(pair).metadata
    alpha, beta = pair.alpha, pair.beta
    excess = _rounding_excess(hom["cutoff"], 0.5 * (beta + alpha) ** 2, 0.5 * (beta - alpha) ** 2)
    assert excess > 0.0
    assert hom["error_bound"] >= 2e-12 + excess * (1.0 - 1e-6)

def test_ml_approaches_gaussian_limit_at_any_interior_angle():
    # convergence in the strong-reference limit is not uniform in the angle,
    # but holds pointwise across the sweep range at this reference strength
    target = p_homodyne_asymptotic(0.1).error_probability
    for frac in (0.05, 0.10, 0.15, 0.20, 0.25):
        got = p_beamsplitter_ml(PulsePair(0.1, 1e4), Beamsplitter(frac * math.pi))
        assert abs(got.error_probability - target) < 0.01


def test_best_angle_validation_and_degenerate():
    with pytest.raises(ValueError):
        best_angle(PulsePair(0.1, 1.0), grid_points=8)
    splitter, res = best_angle(PulsePair(0.0, 1.0))
    assert res.error_probability == 0.5


def test_best_angle_beats_both_special_angles():
    # the grid starts at phi = 0, which must not raise at a strong reference
    for beta2 in (1.0, 1e4):
        pair = PulsePair(0.1, beta2)
        _, res = best_angle(pair, grid_points=64)
        hom = p_homodyne_generalized(pair).error_probability
        ken = p_kennedy_generalized(pair).error_probability
        assert res.error_probability <= min(hom, ken) + 1e-9


def test_best_angle_is_deterministic():
    pair = PulsePair(0.1, 10.0)
    first = best_angle(pair, grid_points=64)
    second = best_angle(pair, grid_points=64)
    assert first[0].phi == second[0].phi
    assert first[1].error_probability == second[1].error_probability


def _kernel_p(pair, r, t, tail_tol=DEFAULT_TAIL_TOL):
    (p,), _ = _ml_error([port_means(pair.alpha, pair.beta, r, t)], tail_tol)
    return p


@settings(max_examples=80, deadline=None)
@given(
    alpha2=st.sampled_from([0.0, 1e-300]) | st.floats(1e-6, 10.0),
    beta2=st.sampled_from([0.0, 1e-300, 1e5]) | st.floats(1e-6, 1e5),
    phi=st.sampled_from([0.0, QUARTER_PI]) | st.floats(0.0, QUARTER_PI),
    tail_tol=st.sampled_from([DEFAULT_TAIL_TOL, 1e-3, 1e-30]),
)
def test_kernel_p_is_the_public_p_bit_for_bit(alpha2, beta2, phi, tail_tol):
    pair = PulsePair(alpha2, beta2)
    splitters = [Beamsplitter(phi)]
    if 0.0 < pair.total and alpha2 <= beta2:
        # the cancellation angle both as best_angle evaluates it (cos, sin of
        # the angle) and with the exact magnitudes kennedy_angle carries
        dark = kennedy_angle(pair)
        splitters += [dark, Beamsplitter(dark.phi)]
    for splitter in splitters:
        # P, or the same refusal of a P that rounding pushed past 1/2
        outcomes = []
        for compute in (
            lambda: p_beamsplitter_ml(pair, splitter, tail_tol).error_probability,
            lambda: _kernel_p(pair, splitter.r, splitter.t, tail_tol),
        ):
            try:
                outcomes.append(compute().hex())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# alpha^2 and beta^2 in {0} and [1e-6, 1e3], log-uniform
_grid_strengths = st.just(0.0) | st.floats(-6.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(
    alpha2=_grid_strengths,
    beta2=_grid_strengths,
    phis=st.lists(st.floats(0.0, QUARTER_PI), max_size=10),
    tail_tol=st.sampled_from([DEFAULT_TAIL_TOL, 1e-3, 1e-100]),
)
@example(alpha2=0.1, beta2=1e3, phis=[0.1, 0.3, 0.5, 0.7], tail_tol=1e-100)
def test_row_kernels_are_the_one_row_calls_bit_for_bit(alpha2, beta2, phis, tail_tol):
    # one block of rows, of any length (not only multiples of 8), with phi = 0
    # (an exact tie), pi/4 and the exact cancellation angle (a dark port, so
    # an infinite slope) among drawn angles; at tail_tol 1e-100 rows whose
    # search doubles its margin share the block with rows whose search does not
    pair = PulsePair(alpha2, beta2)
    splitters = [(1.0, 0.0), (math.cos(QUARTER_PI), math.sin(QUARTER_PI))]
    if 0.0 < pair.total and alpha2 <= beta2:
        dark = kennedy_angle(pair)
        splitters.append((dark.r, dark.t))
    splitters += [(math.cos(phi), math.sin(phi)) for phi in phis]
    means = [port_means(pair.alpha, pair.beta, r, t) for r, t in splitters]
    rows, _ = _ml_error(means, tail_tol)
    assert [p.hex() for p in rows] == [_ml_error([m], tail_tol)[0][0].hex() for m in means]
    assert _row_errors(_ml_error, means, tail_tol) == rows
    # the same grid by angle, without the exact cancellation magnitudes
    by_angle = _angle_errors(pair, [0.0, QUARTER_PI, *phis], tail_tol)
    assert by_angle == rows[:2] + rows[len(splitters) - len(phis):]
    # the count comparison over a row of signal strengths at this reference
    pairs = [PulsePair(a2, beta2) for a2 in (alpha2, 0.0, *(1e-3 + phi for phi in phis))]
    count_means = [_count_means(p) for p in pairs]
    rows, _ = _count_error(count_means, tail_tol)
    assert [p.hex() for p in rows] == [
        p_homodyne_generalized(p, tail_tol).error_probability.hex() for p in pairs
    ]
    assert _row_errors(_count_error, count_means, tail_tol) == rows
    assert _count_errors(pairs, tail_tol) == rows


def test_row_errors_split_strong_grids_into_blocks(monkeypatch):
    # at beta^2 = 1000 the element budget splits a 64-angle grid into blocks,
    # and the P of every row is still its one-row P
    calls = []
    kernel = receivers._ml_error

    def counted(means, tail_tol):
        calls.append(len(means))
        return kernel(means, tail_tol)

    monkeypatch.setattr(receivers, "_ml_error", counted)
    pair = PulsePair(0.1, 1000.0)
    phis = np.linspace(0.0, QUARTER_PI, 64).tolist()
    rows = _angle_errors(pair, phis, DEFAULT_TAIL_TOL)
    assert len(calls) > 1 and sum(calls) == 64
    means = [port_means(pair.alpha, pair.beta, math.cos(phi), math.sin(phi)) for phi in phis]
    assert rows == [kernel([m], DEFAULT_TAIL_TOL)[0][0] for m in means]


# alpha^2 and beta^2 in {0} and [1e-12, 1e4], log-uniform
_wide_strengths = st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(_wide_strengths, _wide_strengths)
def test_ml_at_the_special_angles_is_no_worse_than_their_receivers(alpha2, beta2):
    # ML over joint counts at an angle is the best rule there, so it cannot
    # lose to the count comparison at pi/4 nor to the dark port at the
    # cancellation angle, up to the truncation each result reports
    pair = PulsePair(alpha2, beta2)
    hom = p_homodyne_generalized(pair)
    ml = p_beamsplitter_ml(pair, homodyne_splitter())
    slack = ml.metadata.get("error_bound", 0.0) + hom.metadata.get("error_bound", 0.0)
    assert ml.error_probability <= hom.error_probability + slack
    if pair.total == 0.0:
        return
    # the cancellation angle exists once the weaker pulse is the signal, and
    # every receiver is symmetric in the two roles
    oriented = pair if alpha2 <= beta2 else pair.swapped()
    ml = p_beamsplitter_ml(oriented, kennedy_angle(oriented))
    ken = p_kennedy_generalized(oriented)
    assert ml.error_probability <= ken.error_probability + ml.metadata.get("error_bound", 0.0)


def test_kernel_validates_tail_tol_even_when_degenerate():
    for tail_tol in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="tail_tol"):
            _kernel_p(PulsePair(0.0, 1.0), 1.0, 0.0, tail_tol)
        with pytest.raises(ValueError, match="tail_tol"):
            best_angle(PulsePair(0.1, 1.0), tail_tol=tail_tol)


@pytest.mark.parametrize(
    "alpha2,beta2,grid_points",
    [(0.1, 1.0, 64), (0.1, 10.0, 16), (1.0, 1000.0, 64), (0.3, 0.05, 32), (1e-300, 1.0, 16),
     (0.0, 1.0, 64)],
)
def test_best_angle_result_is_the_public_result_at_its_angle(alpha2, beta2, grid_points):
    pair = PulsePair(alpha2, beta2)
    splitter, result = best_angle(pair, grid_points=grid_points)
    at_angle = p_beamsplitter_ml(pair, splitter)
    assert result.method == at_angle.method
    assert result.error_probability.hex() == at_angle.error_probability.hex()
    extra = {"grid_points": grid_points, "angle_tol": ANGLE_TOL} if alpha2 and beta2 else {}
    assert list(result.metadata.items()) == [*at_angle.metadata.items(), *extra.items()]
    assert result == DiscriminationResult(
        at_angle.error_probability, at_angle.method, {**at_angle.metadata, **extra}
    )
    # the best of every angle evaluated, the grid's included
    for phi in np.linspace(0.0, QUARTER_PI, grid_points).tolist():
        assert result.error_probability <= _kernel_p(pair, math.cos(phi), math.sin(phi))


@pytest.mark.parametrize("key", sorted(ANGLE_SEARCH_REFERENCES))
def test_angle_search_matches_benchmark_reference(key):
    name, *options = key.split()
    options = dict(option.split("=") for option in options)
    pair = PulsePair(float(options["alpha2"]), float(options["beta2"]))
    text = ""
    if name == "best_angle":
        splitter, result = best_angle(pair)
        text = f"phi_over_pi = {splitter.phi / math.pi:.12g}\n"
    elif name == "p_beamsplitter_ml":
        result = p_beamsplitter_ml(pair, Beamsplitter(float(options["phi_over_pi"]) * math.pi))
    else:
        assert name == "p_homodyne_generalized"
        result = p_homodyne_generalized(pair)
    text += f"P = {result.error_probability:.12g}\n"
    assert text == ANGLE_SEARCH_REFERENCES[key]


# ------------------------------------------------------ ties past the ceiling

# alpha^2 and beta^2 in {0} and [1e-300, 1e300], log-uniform
_any_strength = st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(
    alpha2=_any_strength,
    beta2=_any_strength,
    phi=st.sampled_from([0.0, 0.1 * math.pi, 0.2 * math.pi, QUARTER_PI]),
)
@example(alpha2=1.0, beta2=1e40, phi=0.2 * math.pi)
@example(alpha2=1e300, beta2=10.0, phi=0.1 * math.pi)
@example(alpha2=1e300, beta2=1.0, phi=0.0)
@example(alpha2=0.0, beta2=1e300, phi=QUARTER_PI)
def test_a_degenerate_result_past_the_ceiling_has_no_signal(alpha2, beta2, phi):
    # a tie past the ceiling is 1/2 only where alpha^2 beta^2 sin(phi) = 0;
    # a signal that ties in floats alone there is refused as a resource limit
    pair, splitter = PulsePair(alpha2, beta2), Beamsplitter(phi)
    cases = [
        (lambda: p_beamsplitter_ml(pair, splitter),
         max(port_means(pair.alpha, pair.beta, splitter.r, splitter.t)), (alpha2, beta2, phi)),
        (lambda: p_homodyne_generalized(pair),
         0.5 * (pair.beta + pair.alpha) ** 2, (alpha2, beta2)),
    ]
    for compute, bright, factors in cases:
        try:
            result = compute()
        except NumericalResourceError:
            continue
        if result.metadata.get("degenerate") and bright > MAX_PHOTON_COUNT:
            assert 0.0 in factors


def _sector_sum_oracle(alpha2, beta2, phi):
    """P = sum_N Poi(N; T) 1/2 sum_n min(Bin(n; N, q+), Bin(n; N, q-)) at 40 digits.

    Behind a lossless splitter the total count N = n + m is Poisson(T), T =
    alpha^2 + beta^2, under both hypotheses, and port 1 takes a binomial share
    of it with q+- = (r beta +- t alpha)^2 / T. ML errs on the smaller
    likelihood of each (N, n), which at pi/4 is the count comparison too.
    Exact integer binomials; sectors run until the Poisson weight is past its
    mode and below 1e-45.
    """
    with mp.workdps(40):
        a, b = mp.sqrt(mp.mpf(alpha2)), mp.sqrt(mp.mpf(beta2))
        r, t = mp.cos(phi), mp.sin(phi)
        total = a**2 + b**2
        qs = [(r * b + t * a) ** 2 / total, (r * b - t * a) ** 2 / total]
        p, n_total, weight = mp.mpf(0), 0, mp.exp(-total)
        while n_total <= total or weight > mp.mpf("1e-45"):
            sector = mp.fsum(
                min(math.comb(n_total, n) * q**n * (1 - q) ** (n_total - n) for q in qs)
                for n in range(n_total + 1)
            )
            p += weight * sector / 2
            n_total += 1
            weight *= total / n_total
        return p


@pytest.mark.parametrize(
    "alpha2,beta2,phi,receiver",
    [
        (0.1, 1.0, 0.3, "ml"),
        (0.5, 3.0, 0.5, "ml"),
        (1.0, 10.0, 0.2, "ml"),
        (0.1, 10.0, QUARTER_PI, "ml"),
        (0.1, 10.0, QUARTER_PI, "count"),
    ],
)
def test_row_kernels_match_the_sector_sum_oracle(alpha2, beta2, phi, receiver):
    # shares nothing with the kernels' pmf rows, cut points or cumulative sums
    pair = PulsePair(alpha2, beta2)
    if receiver == "ml":
        result = p_beamsplitter_ml(pair, Beamsplitter(phi))
        expected = _sector_sum_oracle(alpha2, beta2, mp.mpf(phi))
    else:
        result = p_homodyne_generalized(pair)
        expected = _sector_sum_oracle(alpha2, beta2, mp.pi / 4)
    assert abs(result.error_probability - float(expected)) <= result.metadata["error_bound"]
