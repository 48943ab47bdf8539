import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit.model import (
    QUARTER_PI,
    Beamsplitter,
    DiscriminationResult,
    OutputMeans,
    PulsePair,
    SplitterRangeError,
    homodyne_splitter,
    kennedy_angle,
    output_means,
    port_means,
)

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
    with pytest.raises(SplitterRangeError):
        Beamsplitter(-1e-9)
    with pytest.raises(SplitterRangeError):
        Beamsplitter(QUARTER_PI + 1e-9)


def test_beamsplitter_magnitudes():
    bs = Beamsplitter(0.3)
    assert bs.r == math.cos(0.3)
    assert bs.t == math.sin(0.3)
    assert abs(bs.r**2 + bs.t**2 - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        Beamsplitter(0.3, r=0.9, t=0.1)


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


def test_kennedy_angle_requires_reference_at_least_signal():
    with pytest.raises(SplitterRangeError):
        kennedy_angle(PulsePair(1.0, 0.5))
    with pytest.raises(ValueError):
        kennedy_angle(PulsePair(0.0, 0.0))


def test_output_means_balanced_example():
    means = output_means(PulsePair(0.1, 1.0), homodyne_splitter())
    hi = (1.0 + math.sqrt(0.1)) ** 2 / 2.0
    lo = (1.0 - math.sqrt(0.1)) ** 2 / 2.0
    assert means.n1_plus == pytest.approx(hi, rel=1e-12)
    assert means.n1_minus == pytest.approx(lo, rel=1e-12)
    assert means.n2_plus == pytest.approx(lo, rel=1e-12)
    assert means.n2_minus == pytest.approx(hi, rel=1e-12)


def test_output_means_no_signal_is_hypothesis_blind():
    means = output_means(PulsePair(0.0, 3.0), Beamsplitter(0.31))
    assert means.n1_plus == means.n1_minus
    assert means.n2_plus == means.n2_minus


def test_output_means_cancellation_port_is_exactly_dark():
    pair = PulsePair(0.1, 1.0)
    means = output_means(pair, kennedy_angle(pair))
    assert means.n2_plus == 0.0
    assert means.n2_minus == pytest.approx(4.0 * 0.1 * 1.0 / 1.1, rel=1e-12)


@given(strengths, strengths, st.floats(min_value=0.0, max_value=QUARTER_PI))
@settings(max_examples=120)
def test_output_means_conserve_energy(alpha2, beta2, phi):
    pair = PulsePair(alpha2, beta2)
    means = output_means(pair, Beamsplitter(phi))
    assert means.n1_plus + means.n2_plus == pytest.approx(pair.total, abs=1e-12 * max(1.0, pair.total))
    assert means.n1_minus + means.n2_minus == pytest.approx(pair.total, abs=1e-12 * max(1.0, pair.total))


@given(strengths, strengths, st.floats(min_value=0.0, max_value=QUARTER_PI))
@settings(max_examples=80)
def test_swapping_pulses_swaps_ports_and_hypotheses(alpha2, beta2, phi):
    pair = PulsePair(alpha2, beta2)
    bs = Beamsplitter(phi)
    direct = output_means(pair, bs)
    swapped = output_means(pair.swapped(), bs)
    tol = 1e-12 * max(1.0, pair.total)
    assert swapped.n1_plus == pytest.approx(direct.n2_minus, abs=tol)
    assert swapped.n1_minus == pytest.approx(direct.n2_plus, abs=tol)
    assert swapped.n2_plus == pytest.approx(direct.n1_minus, abs=tol)
    assert swapped.n2_minus == pytest.approx(direct.n1_plus, abs=tol)


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


def test_output_means_type_rejects_energy_mismatch():
    with pytest.raises(ValueError):
        OutputMeans(1.0, 2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        OutputMeans(-1.0, 0.0, 1.0, 0.0)


def test_discrimination_result_invariants():
    r = DiscriminationResult.from_error_probability(0.2, "x", tail_tol=1e-12)
    assert r.distinguishability == 0.6
    assert r.metadata["tail_tol"] == 1e-12
    # float dust from long sums is absorbed at the boundaries
    assert DiscriminationResult.from_error_probability(-1e-13, "x").error_probability == 0.0
    assert DiscriminationResult.from_error_probability(0.5 + 1e-13, "x").error_probability == 0.5
    with pytest.raises(ValueError):
        DiscriminationResult.from_error_probability(0.62, "x")
    with pytest.raises(ValueError):
        DiscriminationResult.from_error_probability(float("nan"), "x")
    with pytest.raises(ValueError):
        DiscriminationResult(0.2, 0.7, "x")


@given(st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60)
def test_discrimination_result_distinguishability_range(p):
    r = DiscriminationResult.from_error_probability(p, "x")
    assert 0.0 <= r.distinguishability <= 1.0
    assert abs(r.distinguishability - (1.0 - 2.0 * p)) <= 1e-14
