import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasekit import NumericalResourceError
from phasekit.model import (
    QUARTER_PI,
    Beamsplitter,
    DiscriminationResult,
    PulsePair,
    homodyne_splitter,
    kennedy_angle,
    port_means,
)
from phasekit.montecarlo import DecisionRule, TrialConfig
from phasekit.receivers import p_homodyne_asymptotic, p_kennedy_asymptotic, p_min_pure
from phasekit.scan import figure_table

strengths = st.floats(min_value=0.0, max_value=25.0)


def test_pulse_pair_validation():
    with pytest.raises(ValueError):
        PulsePair(-0.1, 1.0)
    with pytest.raises(ValueError):
        PulsePair(0.1, float("nan"))
    p = PulsePair(0.25, 4.0)
    assert p.alpha == 0.5
    assert p.beta == 2.0
    assert p.total == 4.25
    assert p.swapped() == PulsePair(4.0, 0.25)


def test_beamsplitter_range_is_closed():
    Beamsplitter(0.0)
    Beamsplitter(QUARTER_PI)
    # named in radians and in units of pi
    with pytest.raises(ValueError, match=r"^splitter angle must lie in \[0, pi/4\], "
                       r"got -1e-09 \(-3\.18309886184e-10 pi\)$"):
        Beamsplitter(-1e-9)
    with pytest.raises(ValueError, match=r"^splitter angle must lie in \[0, pi/4\]"):
        Beamsplitter(QUARTER_PI + 1e-9)


def test_beamsplitter_stores_a_negative_zero_angle_as_zero():
    bs = Beamsplitter(-0.0)
    assert math.copysign(1.0, bs.phi) == 1.0
    assert math.copysign(1.0, bs.t) == 1.0
    assert (bs.r, bs.t) == (1.0, 0.0)


def test_beamsplitter_magnitudes():
    bs = Beamsplitter(0.3)
    assert bs.r == math.cos(0.3)
    assert bs.t == math.sin(0.3)
    assert abs(bs.r**2 + bs.t**2 - 1.0) <= 1e-14
    # the angle is the only argument; r and t are derived from it
    with pytest.raises(TypeError):
        Beamsplitter(0.3, r=math.cos(0.3), t=math.sin(0.3))


def test_homodyne_splitter_is_balanced():
    bs = homodyne_splitter()
    assert bs.phi == QUARTER_PI
    # cos and sin of pi/4 may differ by one ulp depending on the libm
    assert bs.r == pytest.approx(bs.t, abs=2e-16)


def test_kennedy_angle_anchors():
    bs = kennedy_angle(PulsePair(1.0, 1.0))
    assert bs.phi == QUARTER_PI
    bs = kennedy_angle(PulsePair(0.1, 1.0))
    assert bs.r**2 == pytest.approx(1.0 / 1.1, rel=1e-14)
    # overwhelming reference: the splitter barely taps the signal port
    bs = kennedy_angle(PulsePair(0.1, 1e6))
    assert bs.phi < 1e-3
    assert bs.r > 0.999999


def test_kennedy_angle_where_the_total_strength_overflows():
    # alpha^2 + beta^2 is inf; the angle comes from the amplitudes alone
    largest = 1.7976931348623157e308
    bs = kennedy_angle(PulsePair(largest, largest))
    assert bs.phi == QUARTER_PI
    assert bs.r == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # cos and sin of pi/4 may differ by one ulp depending on the libm
    assert bs.t == pytest.approx(bs.r, abs=2e-16)
    # the cancellation splitter is its angle, like every other splitter
    for alpha2, beta2 in ((0.1, 1.0), (1e-300, 1e300), (1e307, 1.6e308), (largest, largest)):
        bs = kennedy_angle(PulsePair(alpha2, beta2))
        assert (bs.r, bs.t) == (math.cos(bs.phi), math.sin(bs.phi))


def test_kennedy_angle_requires_reference_at_least_signal():
    with pytest.raises(ValueError, match="^reference weaker than signal puts the cancellation "
                       "angle beyond pi/4; swap the signal and reference roles instead$"):
        kennedy_angle(PulsePair(1.0, 0.5))
    with pytest.raises(ValueError):
        kennedy_angle(PulsePair(0.0, 0.0))


def _means(pair, splitter):
    return port_means(pair.alpha, pair.beta, splitter.r, splitter.t)


def test_port_means_balanced_example():
    n1_plus, n1_minus, n2_plus, n2_minus = _means(PulsePair(0.1, 1.0), homodyne_splitter())
    hi = (1.0 + math.sqrt(0.1)) ** 2 / 2.0
    lo = (1.0 - math.sqrt(0.1)) ** 2 / 2.0
    assert n1_plus == pytest.approx(hi, rel=1e-12)
    assert n1_minus == pytest.approx(lo, rel=1e-12)
    assert n2_plus == pytest.approx(lo, rel=1e-12)
    assert n2_minus == pytest.approx(hi, rel=1e-12)


def test_port_means_no_signal_is_hypothesis_blind():
    n1_plus, n1_minus, n2_plus, n2_minus = _means(PulsePair(0.0, 3.0), Beamsplitter(0.31))
    assert n1_plus == n1_minus
    assert n2_plus == n2_minus


def test_port_means_cancellation_port_carries_the_minus_light():
    pair = PulsePair(0.1, 1.0)
    _, _, n2_plus, n2_minus = _means(pair, kennedy_angle(pair))
    assert n2_plus == 0.0
    assert n2_minus == pytest.approx(4.0 * 0.1 * 1.0 / 1.1, rel=1e-12)


# alpha^2 and beta^2 in {0} and [1e-300, 1e300], log-uniform
_float_range_strengths = st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_edge_strengths = (0.0, 5e-324, 1e-310, 2.3e-308, 1.0, 1.7976931348623157e308)


def _edge_examples(test):
    for alpha2 in _edge_strengths:
        for beta2 in _edge_strengths:
            if alpha2 <= beta2:
                test = example(alpha2=alpha2, beta2=beta2)(test)
    return test


@settings(max_examples=300)
@given(alpha2=_float_range_strengths, beta2=_float_range_strengths)
@_edge_examples
def test_port_means_cancellation_port_is_exactly_dark(alpha2, beta2):
    # cos and sin of arctan(alpha/beta) leave a port 2 amplitude under PLUS
    # below float resolution, and port_means squares that to exactly 0
    pair = PulsePair(min(alpha2, beta2), max(alpha2, beta2))
    if pair.total == 0.0:
        return
    splitter = kennedy_angle(pair)
    if pair.total == math.inf:
        # the bright mean alpha^2 + beta^2 is past the float range: a resource
        # limit, never a misplaced angle
        with pytest.raises(NumericalResourceError):
            TrialConfig(pair, splitter, DecisionRule.KENNEDY_SINGLE_PORT)
        return
    assert _means(pair, splitter)[2] == 0.0
    TrialConfig(pair, splitter, DecisionRule.KENNEDY_SINGLE_PORT)


@given(strengths, strengths, st.floats(min_value=0.0, max_value=QUARTER_PI))
@settings(max_examples=120)
def test_port_means_conserve_energy(alpha2, beta2, phi):
    pair = PulsePair(alpha2, beta2)
    n1_plus, n1_minus, n2_plus, n2_minus = _means(pair, Beamsplitter(phi))
    assert n1_plus + n2_plus == pytest.approx(pair.total, abs=1e-12 * max(1.0, pair.total))
    assert n1_minus + n2_minus == pytest.approx(pair.total, abs=1e-12 * max(1.0, pair.total))


@given(strengths, strengths, st.floats(min_value=0.0, max_value=QUARTER_PI))
@settings(max_examples=80)
def test_swapping_pulses_swaps_ports_and_hypotheses(alpha2, beta2, phi):
    pair = PulsePair(alpha2, beta2)
    bs = Beamsplitter(phi)
    n1_plus, n1_minus, n2_plus, n2_minus = _means(pair, bs)
    swapped = _means(pair.swapped(), bs)
    tol = 1e-12 * max(1.0, pair.total)
    assert swapped[0] == pytest.approx(n2_minus, abs=tol)
    assert swapped[1] == pytest.approx(n2_plus, abs=tol)
    assert swapped[2] == pytest.approx(n1_minus, abs=tol)
    assert swapped[3] == pytest.approx(n1_plus, abs=tol)


@given(strengths, strengths, st.floats(min_value=0.0, max_value=QUARTER_PI))
@settings(max_examples=80)
def test_double_swap_is_identity(alpha2, beta2, phi):
    # swapping the pulses and the splitter magnitudes together undoes both
    # port and hypothesis relabelings
    a, b = math.sqrt(alpha2), math.sqrt(beta2)
    r, t = math.cos(phi), math.sin(phi)
    direct = port_means(a, b, r, t)
    double = port_means(b, a, t, r)
    for x, y in zip(direct, double):
        assert x == pytest.approx(y, abs=1e-12 * max(1.0, alpha2 + beta2))


# alpha^2 and beta^2 in {0} and [1e-12, 1e4], log-uniform
_wide_strengths = st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    alpha2=_wide_strengths,
    beta2=_wide_strengths,
    phi=st.sampled_from([0.0, QUARTER_PI]) | st.floats(0.0, QUARTER_PI),
)
# strengths whose dark mean once came out one ulp above the bright one
@example(alpha2=0.694038380500292, beta2=24.560284305288704, phi=0.0)
@example(alpha2=0.0, beta2=19.253120457275102, phi=0.1 * math.pi)
def test_port_means_bright_is_never_below_dark(alpha2, beta2, phi):
    # |r beta + t alpha| >= |r beta - t alpha| holds in floats too, and both
    # sides are squared alike, so each port's bright mean is at least its
    # dark one: n1+ >= n1- and n2- >= n2+; at phi = 0, pi/4 and the
    # cancellation angle as well
    pair = PulsePair(alpha2, beta2)
    splitters = [Beamsplitter(phi)]
    if 0.0 < pair.total:
        splitters.append(kennedy_angle(pair if alpha2 <= beta2 else pair.swapped()))
    for splitter in splitters:
        n1_plus, n1_minus, n2_plus, n2_minus = _means(pair, splitter)
        assert n1_plus >= n1_minus and n2_minus >= n2_plus


def test_port_means_refuse_a_square_past_the_float_range():
    huge = math.sqrt(1.7976931348623157e308)
    with pytest.raises(NumericalResourceError, match="overflows"):
        port_means(huge, huge, math.cos(0.3), math.sin(0.3))
    # the largest strength alone still squares to a float
    assert port_means(huge, 0.0, 1.0, 0.0) == (0.0, 0.0, huge**2, huge**2)


# every entry point that takes a strength, with the name it refuses it under
STRENGTH_ENTRY_POINTS = {
    "PulsePair alpha2": ("alpha2", lambda x: PulsePair(x, 1.0)),
    "PulsePair beta2": ("beta2", lambda x: PulsePair(1.0, x)),
    "p_min_pure": ("alpha2", p_min_pure),
    "p_kennedy_asymptotic": ("alpha2", p_kennedy_asymptotic),
    "p_homodyne_asymptotic": ("alpha2", p_homodyne_asymptotic),
    "figure_table": ("cross_check_alpha2", lambda x: figure_table(5, cross_check_alpha2=x)),
}


@pytest.mark.parametrize("value", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(STRENGTH_ENTRY_POINTS))
def test_every_strength_entry_point_refuses_with_one_message(entry, value):
    name, call = STRENGTH_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite and non-negative, got {value}"


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1.7e308])
@pytest.mark.parametrize("entry", sorted(STRENGTH_ENTRY_POINTS.keys() - {"figure_table"}))
def test_pulse_pair_and_closed_forms_accept_the_whole_finite_range(entry, value):
    _, call = STRENGTH_ENTRY_POINTS[entry]
    result = call(value)
    if isinstance(result, DiscriminationResult):
        assert 0.0 <= result.error_probability <= 0.5


def test_discrimination_result_invariants():
    r = DiscriminationResult(0.2, "x", {"tail_tol": 1e-12})
    # D is derived from P, never stored apart from it
    assert r.distinguishability == 0.6
    assert r.metadata["tail_tol"] == 1e-12
    assert DiscriminationResult(0.2, "x").metadata == {}
    # float dust from long sums is absorbed at the boundaries
    assert DiscriminationResult(-1e-13, "x").error_probability == 0.0
    assert DiscriminationResult(0.5 + 1e-13, "x").error_probability == 0.5
    with pytest.raises(ValueError):
        DiscriminationResult(0.62, "x")
    with pytest.raises(ValueError):
        DiscriminationResult(float("nan"), "x")


@given(st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60)
def test_discrimination_result_distinguishability_range(p):
    r = DiscriminationResult(p, "x")
    assert 0.0 <= r.distinguishability <= 1.0
    assert abs(r.distinguishability - (1.0 - 2.0 * p)) <= 1e-14
