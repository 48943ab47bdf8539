"""Poisson log-weights, and the truncated Poisson weight vectors every sum uses.

Probability machinery works in log space so that products of Poisson
weights survive strong reference pulses, and returns to linear space only
for the final sums. The layer works on rows: a grid of means (one row per
grid point) is one block, each row zero-padded past its own end, and every
row holds bit for bit the vector a one-row call gives. A log-pmf block
subtracts the means and a prefix of the shared ln n! table in place, with no
gather. The cutoff search is the only place a Poisson tail is summed, from
the far end of each row over the padding's exact zeros; every cutoff, and
the optimum's and the weak-signal series' weights over a grid of pairs, come
from one search per block, which also returns each row's end. Each receiver
port has a bright and a dark mean, and ``_pmf_rows`` gives a grid's cutoffs
and the two pmf blocks from one search on the bright column; ``_row_blocks``
splits every grid so that no block passes a fixed element budget. All of
these are private to the package and pure functions of their inputs; the
shared factorial table is only ever replaced by a larger one.

The module exports only ``MAX_PHOTON_COUNT``, the one ceiling on every
truncated sum in the package, and ``NumericalResourceError``, which the
search raises past it before anything is allocated. ``_checked_tail`` is the
one rule for a tail budget.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["MAX_PHOTON_COUNT", "NumericalResourceError"]

NEG_INF = float("-inf")

# the largest photon count a truncated sum may index (8 MB per float array)
MAX_PHOTON_COUNT = 1 << 20


class NumericalResourceError(RuntimeError):
    """A computation exceeded its configured numerical budget."""


def _checked_count(x: float) -> int:
    """int(x) as a truncation's top photon count, refused above the ceiling (also x = inf)."""
    if not x <= MAX_PHOTON_COUNT:
        raise NumericalResourceError(
            f"truncation needs photon counts up to {x:.4g}, above the ceiling of {MAX_PHOTON_COUNT}"
        )
    return int(x)


def _checked_tail(tail_tol: float) -> None:
    """A tail budget as every truncated sum takes it, refused outside (0, 1) (also nan)."""
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")


def _log_factorial_table(max_n: int) -> np.ndarray:
    """Read-only ln(n!) for n = 0 .. max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    values = np.empty(max_n + 1)
    values[0] = 0.0
    # compensated summation keeps each entry within ~1 ulp of ln(n!)
    total = 0.0
    carry = 0.0
    for n in range(1, max_n + 1):
        term = math.log(n) - carry
        acc = total + term
        carry = (acc - total) - term
        total = acc
        values[n] = total
    values.setflags(write=False)
    return values


_log_factorials = _log_factorial_table(256)
_install_lock = threading.Lock()


def _log_factorial_prefix(n: int) -> np.ndarray:
    """ln(k!) for k = 0 .. n, n within the ceiling: a prefix of the shared table.

    Each call reads the table it slices into a local, and a rebuilt table
    replaces the shared one only when it is larger, so a call running
    concurrently with another thread's rebuild never sees the table shrink.
    The table doubles as it grows, but never past ``MAX_PHOTON_COUNT``.
    """
    global _log_factorials
    table = _log_factorials
    if n >= len(table):
        table = _log_factorial_table(min(max(n, 2 * (len(table) - 1)), MAX_PHOTON_COUNT))
        with _install_lock:
            if len(table) > len(_log_factorials):
                _log_factorials = table
    return table[: n + 1]


def _log_pmf_rows(n_max: int, means: list[float]) -> np.ndarray:
    """ln pmf at n = 0 .. n_max for each non-negative mean, one row each.

    Row by row the same arithmetic as a single vector: n * ln(mean), minus
    the mean, minus a prefix of the shared ln n! table, with ln taken by
    ``math.log`` per mean; a zero mean's row is 0 then -inf.
    """
    log_means = [math.log(m) if m > 0.0 else 0.0 for m in means]
    out = np.multiply.outer(log_means, np.arange(n_max + 1.0))
    out -= np.array(means, dtype=float)[:, None]
    out -= _log_factorial_prefix(n_max)
    if 0.0 in means:
        dark = [i for i, m in enumerate(means) if m == 0.0]
        out[dark] = NEG_INF
        out[dark, 0] = 0.0
    return out


def _log_remainder_bound(mean: float, upper: int, log_last: float) -> float:
    """ln of a bound on P[Poisson(mean) > upper], given log_last = ln pmf[upper]."""
    # beyond `upper` the pmf decays at least geometrically with ratio d = mean / (upper + 1),
    # so the remainder is at most pmf[upper] * d / (1 - d), and unbounded while d >= 1;
    # the logs are taken apart because d underflows for subnormal means
    slack = upper + 1.0 - mean
    return log_last + math.log(mean) - math.log(slack) if slack > 0.0 else math.inf


def _first_margin(mean: float) -> float:
    """Counts past the mean that a cutoff search builds first; it doubles until the bound holds."""
    return 10.0 * math.sqrt(mean + 1.0) + 40.0


def _past(ends: list[int]):
    """Mask of the entries past each row's end in a block as wide as the longest; None if none."""
    widest = max(ends)
    return np.arange(widest + 1) > np.array(ends)[:, None] if min(ends) < widest else None


def _poisson_search(means: list[float], tail_mass: float):
    """Tail cutoffs of Poisson(mean) at tail_mass for each mean, from a vector built past it.

    Each mean's vector ends at its own ``upper``, the first margin past the
    mean doubled until ln of the geometric bound on P[X > upper] lies e^30
    below tail_mass. The vectors are the rows of one block as wide as the
    longest, -inf (log-pmf) and 0 (pmf) past their upper, so a one-row block
    is exactly the vector. Returns per-row cuts (the smallest cut with
    P[X > cut] < tail_mass), the log-pmf, pmf and tails blocks, with
    tails[i, n] = P[n <= X <= upper_i] (0 from upper_i + 1 on), per-row
    ln of the bound on P[X > upper_i], and the per-row uppers; every row is
    bit for bit a search on its mean alone.
    """
    log_floor = math.log(tail_mass) - 30.0
    uppers, log_rests = [], []
    for mean in means:
        upper, log_rest = 0, NEG_INF
        if mean > 0.0:
            log_mean = math.log(mean)
            margin = _first_margin(mean)
            while True:
                upper = _checked_count(mean + margin)
                # the vector's last entry, in the order _log_pmf_rows computes it
                log_last = upper * log_mean - mean - _log_factorial_prefix(upper).item(upper)
                log_rest = _log_remainder_bound(mean, upper, log_last)
                if log_rest < log_floor:
                    break
                margin *= 2.0
        uppers.append(upper)
        log_rests.append(log_rest)
    widest = max(uppers)
    logs = _log_pmf_rows(widest, means)
    past = _past(uppers)
    if past is not None:
        logs[past] = NEG_INF
    pmf = np.exp(logs)
    # summed from the far end so tiny tails keep full accuracy
    tails = np.zeros((len(uppers), widest + 2))
    pmf[:, ::-1].cumsum(axis=1, out=tails[:, -2::-1])
    cuts = (tails < tail_mass).argmax(axis=1) - 1
    return cuts.tolist(), logs, pmf, tails, log_rests, uppers


def _pmf_rows(bright, dark, tail_mass: float) -> tuple[list[int], tuple[np.ndarray, np.ndarray]]:
    """Per-row common cutoffs, and the pmf blocks of a bright and a dark column of means.

    Each row is one port of one grid point, whose bright mean is at least its
    dark one. The tail grows with the mean, so one search on the bright
    column gives every row's cutoff and the bright block; the dark block is
    built at the widest cutoff. Both blocks are 0 past each row's own
    cutoff, and every row is bit for bit a one-row call.
    """
    cuts, _, pmf, _, _, _ = _poisson_search(bright, tail_mass)
    width, past = max(cuts) + 1, _past(cuts)
    blocks = pmf[:, :width], np.exp(_log_pmf_rows(width - 1, dark))
    if past is not None:
        for block in blocks:
            block[past] = 0.0
    return cuts, blocks


# entries a row block may hold per array (128 KB of floats): grids split into
# consecutive blocks within it, so strong references do not grow peak memory
_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(tops) -> list[slice]:
    """Consecutive row slices whose blocks, sized by each row's largest mean in ``tops``,
    stay within ``_BLOCK_ELEMENTS``; a row counts as wide as its first search."""
    blocks, start, widest = [], 0, 0.0
    for i, top in enumerate(tops):
        width = top + _first_margin(top) + 2.0
        if i > start and (i + 1 - start) * max(widest, width) > _BLOCK_ELEMENTS:
            blocks.append(slice(start, i))
            start, widest = i, 0.0
        widest = max(widest, width)
    blocks.append(slice(start, len(tops)))
    return blocks
