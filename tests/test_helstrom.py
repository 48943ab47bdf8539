import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_optimal, oracle_small_alpha_series
from phasekit.helstrom import _sectors, d_err_small_alpha, p_err_optimal
from phasekit.model import Beamsplitter, PulsePair
from phasekit.numerics import (
    MAX_PHOTON_COUNT,
    NumericalResourceError,
    _log_factorial_table,
    _log_pmf_rows,
    _poisson_search,
)
from phasekit.receivers import (
    p_beamsplitter_ml,
    p_homodyne_generalized,
    p_kennedy_generalized,
    p_min_pure,
)

mp.mp.dps = 40


# ------------------------------------------- explicit operator (reference route)


@dataclass(frozen=True)
class TruncatedOperator:
    """Difference of the two phase-averaged states on a truncated basis.

    ``blocks[N]`` is a read-only array acting on the span of
    |n_ref> x |n_sig> with n_ref + n_sig = N, indexed by n_ref = 0 .. N.
    Entries vanish unless the signal parities of bra and ket differ, so
    every diagonal (and the total trace) is exactly zero.
    """

    n_max: int
    blocks: tuple[np.ndarray, ...]

    def trace(self) -> float:
        return sum(float(np.trace(b)) for b in self.blocks)

    @staticmethod
    def block_basis(n_total: int) -> list[tuple[int, int]]:
        return [(n_ref, n_total - n_ref) for n_ref in range(n_total + 1)]


def _read_only(block: np.ndarray) -> np.ndarray:
    block.setflags(write=False)
    return block


def build_rho_diff(pair: PulsePair, n_max: int | None = None) -> TruncatedOperator:
    """Assemble the state difference blockwise in total photon number.

    An independent route for the sector sum of ``p_err_optimal``, whose
    basis size it keeps unless ``n_max`` is given. Entry magnitudes are
    formed in log space and exponentiated once; all entries are
    non-negative.
    """
    if n_max is None:
        n_max = p_err_optimal(pair).metadata["n_max"]
    blocks = []
    if pair.alpha2 == 0.0 or pair.beta2 == 0.0:
        # the parity factor kills every entry carrying no signal photons and
        # the reference weight kills the rest
        for n_total in range(n_max + 1):
            blocks.append(_read_only(np.zeros((n_total + 1, n_total + 1))))
        return TruncatedOperator(n_max, tuple(blocks))
    log_alpha = 0.5 * math.log(pair.alpha2)
    log_beta = 0.5 * math.log(pair.beta2)
    prefactor = 0.5 * math.log(2.0) - 0.5 * pair.total
    log_factorial = _log_factorial_table(n_max)
    for n_total in range(n_max + 1):
        n_ref = np.arange(n_total + 1)
        n_sig = n_total - n_ref
        log_u = (
            prefactor
            + n_ref * log_beta
            + n_sig * log_alpha
            - 0.5 * (log_factorial[n_ref] + log_factorial[n_sig])
        )
        u = np.exp(log_u)
        odd = (n_ref[:, None] + n_ref[None, :]) % 2 == 1
        blocks.append(_read_only(np.where(odd, np.outer(u, u), 0.0)))
    return TruncatedOperator(n_max, tuple(blocks))


# ------------------------------------------------------------- construction


def test_operator_vanishes_without_signal_or_reference():
    for pair in (PulsePair(0.0, 2.0), PulsePair(2.0, 0.0), PulsePair(0.0, 0.0)):
        op = build_rho_diff(pair)
        assert all(not b.any() for b in op.blocks)


def test_single_photon_block_closed_form():
    pair = PulsePair(0.3, 1.7)
    op = build_rho_diff(pair)
    block = op.blocks[1]
    expected = 2.0 * pair.alpha * pair.beta * math.exp(-pair.total)
    assert block[0, 1] == pytest.approx(expected, rel=1e-12)
    assert block[0, 0] == 0.0
    assert block[1, 1] == 0.0


def test_blocks_are_traceless_and_parity_sparse():
    op = build_rho_diff(PulsePair(0.4, 1.2))
    assert op.trace() == 0.0
    for n_total, v in enumerate(op.blocks):
        basis = op.block_basis(n_total)
        assert v.shape == (n_total + 1, n_total + 1)
        assert not v.flags.writeable
        for i, (_, sig_i) in enumerate(basis):
            for j, (_, sig_j) in enumerate(basis):
                if (sig_i + sig_j) % 2 == 0:
                    assert v[i, j] == 0.0


def test_truncation_depth_and_ceiling():
    pair = PulsePair(0.1, 1.0)
    res = p_err_optimal(pair, tail_tol=1e-10)
    assert res.metadata["n_max"] == _poisson_search([1.1], 1e-10)[0][0] + 10
    assert 0.0 <= res.metadata["truncation_bound"] < 1e-10
    with pytest.raises(NumericalResourceError, match="ceiling"):
        p_err_optimal(PulsePair(0.1, float(MAX_PHOTON_COUNT)))
    with pytest.raises(NumericalResourceError, match="ceiling"):
        d_err_small_alpha(PulsePair(0.1, float(MAX_PHOTON_COUNT)))
    with pytest.raises(ValueError):
        p_err_optimal(pair, tail_tol=1.0)


def _entry_oracle(pair, n, m, p, q):
    # direct four-index evaluation of the number-basis matrix element
    if n + p != m + q or (p + q) % 2 == 0:
        return mp.mpf(0)
    a, b = mp.sqrt(mp.mpf(pair.alpha2)), mp.sqrt(mp.mpf(pair.beta2))
    return (
        2
        * mp.e ** (-(a**2 + b**2))
        * b ** (n + m)
        * a ** (p + q)
        / mp.sqrt(mp.factorial(n) * mp.factorial(m) * mp.factorial(p) * mp.factorial(q))
    )


def test_block_entries_match_four_index_oracle():
    pair = PulsePair(0.37, 0.9)
    op = build_rho_diff(pair)
    for n_total in range(5):
        basis = op.block_basis(n_total)
        v = op.blocks[n_total]
        for i, (n, p) in enumerate(basis):
            for j, (m, q) in enumerate(basis):
                expected = float(_entry_oracle(pair, n, m, p, q))
                assert v[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_blockwise_trace_norm_equals_assembled_matrix():
    # assemble the first few total-photon sectors into one dense matrix from
    # the four-index formula and diagonalise it in one go
    pair = PulsePair(0.3, 1.1)
    n_top = 6
    basis = [(n, p) for total in range(n_top + 1) for (n, p) in [(k, total - k) for k in range(total + 1)]]
    dense = np.zeros((len(basis), len(basis)))
    for i, (n, p) in enumerate(basis):
        for j, (m, q) in enumerate(basis):
            dense[i, j] = float(_entry_oracle(pair, n, m, p, q))
    assembled = np.abs(np.linalg.eigvalsh(dense)).sum()
    op = build_rho_diff(pair)
    blockwise = sum(np.abs(np.linalg.eigvalsh(op.blocks[n])).sum() for n in range(n_top + 1))
    assert abs(assembled - blockwise) < 1e-10


def test_block_trace_norm_matches_bipartite_closed_form():
    # entries couple even to odd reference occupations through a product
    # weight, so each block is a rank-one bipartite form with trace norm
    # 2 * |u_even| * |u_odd|
    pair = PulsePair(0.2, 2.3)
    op = build_rho_diff(pair)
    for n_total in range(1, 12):
        i = np.arange(n_total + 1)
        log_u = (
            0.5 * math.log(2.0)
            - 0.5 * pair.total
            + i * math.log(pair.beta)
            + (n_total - i) * math.log(pair.alpha)
            - 0.5 * (np.array([float(mp.loggamma(k + 1)) for k in i]))
            - 0.5 * (np.array([float(mp.loggamma(k + 1)) for k in (n_total - i)]))
        )
        u = np.exp(log_u)
        closed = 2.0 * np.linalg.norm(u[i % 2 == 0]) * np.linalg.norm(u[i % 2 == 1])
        solved = np.abs(np.linalg.eigvalsh(op.blocks[n_total])).sum()
        assert solved == pytest.approx(closed, rel=1e-10, abs=1e-14)


# ------------------------------------------------------------ optimal bound


def test_p_err_optimal_no_signal():
    # identical states tie exactly, so no cutoff is sized, not even where the
    # cutoff of alpha^2 + beta^2 would pass the photon-count ceiling
    for pair in (
        PulsePair(0.0, 1.0),
        PulsePair(1.0, 0.0),
        PulsePair(0.0, 0.0),
        PulsePair(1e12, 0.0),
        PulsePair(0.0, 1e300),
    ):
        res = p_err_optimal(pair)
        assert res.error_probability == 0.5
        assert res.metadata["degenerate"]
        assert res.metadata["n_max"] == 0
        assert res.metadata["truncation_bound"] == 0.0


@pytest.mark.parametrize(
    "alpha2,beta2",
    [
        (0.1, 1.0),
        (0.1, 10.0),
        (0.1, 100.0),
        (0.1, 1000.0),
        (5.0, 5.0),
        (20.0, 30.0),
        (12.0, 40.0),
        (1e-12, 1e-12),
    ],
)
def test_p_err_optimal_against_oracle_within_truncation_bound(alpha2, beta2):
    res = p_err_optimal(PulsePair(alpha2, beta2))
    expected = oracle_optimal(alpha2, beta2)
    assert abs(res.error_probability - float(expected)) <= res.metadata["truncation_bound"]


def test_truncation_bound_stays_relative_to_a_tiny_optimum():
    # dropped sectors carry the factor x_N, which is far below 1 here, so
    # half the dropped Poisson mass alone (1.8e-14) would dwarf P itself
    res = p_err_optimal(PulsePair(12.0, 40.0))
    assert res.error_probability == pytest.approx(2.30384903295e-17, rel=1e-11)
    assert res.metadata["truncation_bound"] < 1e-12 * res.error_probability


@pytest.mark.parametrize("alpha2,beta2", [(0.3, 1.1), (2.0, 0.5), (0.7, 0.7)])
def test_sector_errors_match_block_spectra(alpha2, beta2):
    # block N is w_N times the difference of two pure projectors, so its
    # Helstrom error is w_N / 2 - |B_N|_1 / 4
    pair = PulsePair(alpha2, beta2)
    op = build_rho_diff(pair)
    (log_weights,) = _log_pmf_rows(op.n_max, [pair.total])
    weights = np.exp(log_weights)
    errors, half_norms, _ = _sectors(pair, log_weights, weights)
    for n_total, block in enumerate(op.blocks):
        norm = np.abs(np.linalg.eigvalsh(block)).sum()
        assert half_norms[n_total] == pytest.approx(norm / 2.0, rel=1e-12, abs=1e-300)
        assert errors[n_total] == pytest.approx(
            weights[n_total] / 2.0 - norm / 4.0, abs=1e-14 * weights[n_total]
        )


def test_p_err_optimal_approaches_pure_state_bound():
    res = p_err_optimal(PulsePair(0.1, 25.0))
    assert abs(res.error_probability - p_min_pure(0.1).error_probability) <= 0.02


@pytest.mark.parametrize(
    "alpha2,beta2", [(0.1, 1.0), (0.1, 1e4), (1e-6, 10.0), (5.0, 5.0), (12.0, 40.0)]
)
def test_p_err_optimal_metadata_and_convergence(alpha2, beta2):
    # a recompute at a tighter tolerance stays within the reported bound
    pair = PulsePair(alpha2, beta2)
    coarse = p_err_optimal(pair, tail_tol=1e-10)
    fine = p_err_optimal(pair, tail_tol=1e-14)
    assert abs(coarse.error_probability - fine.error_probability) < coarse.metadata[
        "truncation_bound"
    ]
    assert coarse.metadata["n_max"] >= 10


def test_p_err_optimal_dominates_receivers_on_sample_points():
    # strong signals leave every P tiny, so the slack is relative
    points = [(0.05, 0.05), (0.1, 1.0), (0.5, 4.0), (4.0, 0.1), (20.0, 30.0), (12.0, 40.0)]
    for alpha2, beta2 in points:
        pair = PulsePair(alpha2, beta2)
        opt = p_err_optimal(pair).error_probability
        assert opt <= p_kennedy_generalized(pair).error_probability * (1.0 + 1e-12)
        assert opt <= p_homodyne_generalized(pair).error_probability * (1.0 + 1e-12)


# alpha^2 and beta^2 in {0} and [1e-6, 1e3], log-uniform
strengths = st.one_of(st.just(0.0), st.floats(min_value=-6.0, max_value=3.0).map(lambda e: 10.0**e))


@given(strengths, strengths)
@settings(max_examples=100)
def test_p_err_optimal_within_fidelity_bounds(alpha2, beta2):
    # Fuchs-van de Graaf, with the fidelity of the two states the sector sum
    # of w_N |r|^N = e^(-2 min(alpha^2, beta^2)); equal strengths (r = 0)
    # leave only the vacuum sector, where the upper bound is attained
    res = p_err_optimal(PulsePair(alpha2, beta2))
    p, slack = res.error_probability, res.metadata["truncation_bound"]
    fidelity = math.exp(-2.0 * min(alpha2, beta2))
    assert 0.5 * (1.0 - math.sqrt(-math.expm1(-4.0 * min(alpha2, beta2)))) <= p + slack
    assert p <= fidelity / 2.0 * (1.0 + 1e-14) + slack
    if alpha2 == beta2:
        assert p == pytest.approx(fidelity / 2.0, rel=1e-14)


@given(strengths, strengths, st.floats(min_value=0.0, max_value=math.pi / 4.0))
@settings(max_examples=100)
def test_p_err_optimal_beats_every_receiver(alpha2, beta2, phi):
    pair = PulsePair(alpha2, beta2)
    opt = p_err_optimal(pair)
    floor = opt.error_probability - opt.metadata["truncation_bound"]
    for res in (
        p_kennedy_generalized(pair),
        p_homodyne_generalized(pair),
        p_beamsplitter_ml(pair, Beamsplitter(phi)),
    ):
        assert floor <= res.error_probability * (1.0 + 1e-12) + res.metadata.get("error_bound", 0.0)


@given(strengths, strengths)
@settings(max_examples=100)
def test_p_err_optimal_symmetric_under_swap(alpha2, beta2):
    pair = PulsePair(alpha2, beta2)
    assert p_err_optimal(pair) == p_err_optimal(pair.swapped())


# alpha^2 and beta^2 in {0} and [1e-12, 1e4], log-uniform
wide_strengths = st.just(0.0) | st.floats(min_value=-12.0, max_value=4.0).map(lambda e: 10.0**e)


@given(wide_strengths, wide_strengths)
@settings(max_examples=200, deadline=None)
def test_p_err_optimal_lies_between_half_and_all_of_the_dark_port(alpha2, beta2):
    # P_opt = P_ken * E[1 / (1 + sqrt(1 - r^(2N)))], an expectation in [1/2, 1]
    pair = PulsePair(alpha2, beta2)
    res = p_err_optimal(pair)
    p, slack = res.error_probability, res.metadata["truncation_bound"]
    ken = p_kennedy_generalized(pair).error_probability
    assert 0.5 * ken <= p + slack
    assert p <= ken + slack


def _dark_port_expectation(alpha2, beta2):
    """P_ken * E[1 / (1 + sqrt(1 - r^(2N)))] at 40 digits, N ~ Poisson(T r^2).

    T = alpha^2 + beta^2 and r = (beta^2 - alpha^2) / T; P_ken is the dark
    port's e^(-4 alpha^2 beta^2 / T) / 2. Terms run until the Poisson weight
    is past its mean and below 1e-45.
    """
    with mp.workdps(40):
        a2, b2 = mp.mpf(alpha2), mp.mpf(beta2)
        total = a2 + b2
        r2 = ((b2 - a2) / total) ** 2
        mean = total * r2
        expectation, n, weight = mp.mpf(0), 0, mp.exp(-mean)
        while n <= mean or weight > mp.mpf("1e-45"):
            expectation += weight / (1 + mp.sqrt(1 - r2**n))
            n += 1
            weight *= mean / n
        return mp.exp(-4 * a2 * b2 / total) / 2 * expectation


@pytest.mark.parametrize(
    "alpha2,beta2",
    [(0.1, 1.0), (0.1, 10.0), (1.0, 10.0), (0.5, 3.0), (3.0, 3.0), (2.9, 3.0), (100.0, 150.0)],
)
def test_p_err_optimal_is_the_dark_port_times_a_poisson_expectation(alpha2, beta2):
    res = p_err_optimal(PulsePair(alpha2, beta2))
    expected = float(_dark_port_expectation(alpha2, beta2))
    assert abs(res.error_probability - expected) <= res.metadata["truncation_bound"]
    assert res.error_probability == pytest.approx(expected, rel=1e-14)


def test_small_alpha_consistency_improves_as_signal_weakens():
    # the series is the alpha -> 0 limit of the sector sum; the exact sum
    # falls below it by a relative alpha^2 at leading order
    for beta2 in (0.5, 1.0, 4.0, 10.0):
        series_ratio = d_err_small_alpha(PulsePair(1.0, beta2)) / 2.0
        for alpha2 in (1e-4, 1e-6):
            pair = PulsePair(alpha2, beta2)
            exact_ratio = p_err_optimal(pair).distinguishability / (2.0 * pair.alpha)
            gap = (series_ratio - exact_ratio) / series_ratio
            assert 0.99 <= gap / alpha2 <= 1.01, (alpha2, beta2)


# ------------------------------------------------------- weak-signal series


@pytest.mark.parametrize("beta2", [1e-6, 0.37, 1.0, 3.3, 10.0, 47.0, 1234.5, 1e5])
def test_small_alpha_series_against_oracle(beta2):
    got = d_err_small_alpha(PulsePair(0.01, beta2))
    expected = float(oracle_small_alpha_series(0.01, beta2))
    # the log-space Poisson weights lose digits as beta^2 grows
    assert got == pytest.approx(expected, rel=1e-13 if beta2 <= 47.0 else 1e-10)


def test_small_alpha_series_limits():
    assert d_err_small_alpha(PulsePair(0.1, 0.0)) == 0.0
    assert d_err_small_alpha(PulsePair(0.0, 1.0)) == 0.0
    # strong-reference limit: the ratio to 2*alpha approaches one
    ratio = d_err_small_alpha(PulsePair(1.0, 1e4)) / 2.0
    assert abs(ratio - 1.0) < 1e-2
    # the shared cutoff still fits under the photon-count ceiling here
    assert abs(d_err_small_alpha(PulsePair(1.0, 1e6)) / 2.0 - 1.0) < 1e-6
