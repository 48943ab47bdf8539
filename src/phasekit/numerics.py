"""Poisson log-weights, and the truncated Poisson weight vectors every sum uses.

Probability machinery works in log space so that products of Poisson
weights survive strong reference pulses, and returns to linear space only
for the final sums. A log-pmf vector subtracts the mean and a prefix of the
shared ln n! table in place, with no gather and no temporaries. The cutoff
search is the only place a Poisson tail is summed, from the far end straight
into one preallocated vector, and each truncated sum runs it once, on its
largest mean: every cutoff and the optimum's sector weights come from that
search's vector.
Everything here is a pure function of its inputs; the shared factorial table
is only ever replaced by a larger one.

``MAX_PHOTON_COUNT`` is the one ceiling on every truncated sum in the package;
``checked_count`` enforces it before anything is allocated.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np

__all__ = [
    "MAX_PHOTON_COUNT",
    "NumericalResourceError",
    "checked_count",
    "log_poisson_pmf_array",
    "poisson_pmfs",
]

NEG_INF = float("-inf")

# the largest photon count a truncated sum may index (8 MB per float array)
MAX_PHOTON_COUNT = 1 << 20


class NumericalResourceError(RuntimeError):
    """A computation exceeded its configured numerical budget."""


def checked_count(x) -> int:
    """int(x) as a truncation's top photon count, refused above the ceiling (also x = inf)."""
    if not x <= MAX_PHOTON_COUNT:
        if isinstance(x, int) and x > sys.float_info.max:
            from decimal import Decimal  # %g of an int beyond float range overflows

            x = Decimal(x)
        raise NumericalResourceError(
            f"truncation needs photon counts up to {x:.4g}, above the ceiling of {MAX_PHOTON_COUNT}"
        )
    return int(x)


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


def log_poisson_pmf_array(n_max: int, mean: float) -> np.ndarray:
    """ln pmf at n = 0 .. n_max as one vector."""
    if mean < 0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    checked_count(n_max)
    if mean == 0.0:
        out = np.full(n_max + 1, NEG_INF)
        out[0] = 0.0
        return out
    out = np.arange(n_max + 1) * math.log(mean)
    out -= mean
    out -= _log_factorial_prefix(n_max)
    return out


def _log_remainder_bound(mean: float, upper: int, log_last: float) -> float:
    """ln of a bound on P[Poisson(mean) > upper], given log_last = ln pmf[upper]."""
    # beyond `upper` the pmf decays at least geometrically with ratio d = mean / (upper + 1),
    # so the remainder is at most pmf[upper] * d / (1 - d), and unbounded while d >= 1;
    # the logs are taken apart because d underflows for subnormal means
    slack = upper + 1.0 - mean
    return log_last + math.log(mean) - math.log(slack) if slack > 0.0 else math.inf


def _poisson_search(mean: float, tail_mass: float):
    """The tail cutoff of Poisson(mean) at tail_mass, from one vector built past it.

    Returns the smallest cut with P[X > cut] < tail_mass, the log-pmf and pmf at
    0 .. upper, tails[n] = P[n <= X <= upper] for n up to upper + 1 (where it is
    0), and ln of a bound on P[X > upper], at least e^30 below tail_mass.
    """
    if mean == 0.0:
        return 0, np.zeros(1), np.ones(1), np.array([1.0, 0.0]), NEG_INF
    log_floor = math.log(tail_mass) - 30.0
    margin = 10.0 * math.sqrt(mean + 1.0) + 40.0
    while True:
        logs = log_poisson_pmf_array(checked_count(mean + margin), mean)
        log_rest = _log_remainder_bound(mean, len(logs) - 1, logs[-1])
        if log_rest < log_floor:
            pmf = np.exp(logs)
            # summed from the far end so tiny tails keep full accuracy
            tails = np.empty(len(pmf) + 1)
            tails[-1] = 0.0
            pmf[::-1].cumsum(out=tails[-2::-1])
            return int((tails < tail_mass).argmax()) - 1, logs, pmf, tails, log_rest
        margin *= 2.0


def poisson_pmfs(means, tail_mass: float) -> tuple[int, list[np.ndarray]]:
    """Smallest N with P[Poisson(mean) > N] < tail_mass for every mean, and their pmfs at 0 .. N.

    The tail grows with the mean, so one search on the largest mean gives N and its
    pmf; each other pmf is built at N, bit for bit the prefix its own search gives.
    """
    if not (0.0 < tail_mass < 1.0):
        raise ValueError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    for mean in means:
        if not mean >= 0:  # also NaN, which max() would pass over
            raise ValueError(f"mean must be non-negative, got {mean}")
    top = max(means)
    cut, _, pmf, _, _ = _poisson_search(top, tail_mass)
    return cut, [
        pmf[: cut + 1] if mean == top else np.exp(log_poisson_pmf_array(cut, mean))
        for mean in means
    ]
