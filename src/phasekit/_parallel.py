"""Thread-pool helper honouring the PHASEKIT_THREADS cap (0 or unset = auto).

A map of fewer than ``POOL_MIN_ITEMS`` items runs on the calling thread: at 2
threads, a fresh process gained less from pooling 2-4 Monte Carlo blocks (2-7
ms each) than the pool's import and start cost it (about 5 ms).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "PHASEKIT_THREADS"

POOL_MIN_ITEMS = 5


def thread_budget() -> int:
    raw = os.environ.get(ENV_VAR, "").strip()
    try:
        n = int(raw or 0)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"{ENV_VAR} must be a non-negative integer, got {n}")
    if n > 0:
        return n
    # the CPUs this process may run on: a cpuset or affinity mask can allow fewer than the host has
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map preserving input order; results never depend on scheduling."""
    seq: Sequence[T] = list(items)
    budget = min(thread_budget(), len(seq))
    if budget <= 1 or len(seq) < POOL_MIN_ITEMS:
        return [fn(x) for x in seq]
    # imported here, so a process that never starts a pool never loads it (nor logging)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=budget) as pool:
        return list(pool.map(fn, seq))
