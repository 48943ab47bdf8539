"""Thread-pool helper honouring the PHASEKIT_THREADS cap (0 or unset = auto).

A map of fewer than ``POOL_MIN_ITEMS`` items runs on the calling thread: at 2
threads, a fresh process gained less from pooling 2-4 Monte Carlo blocks (2-7
ms each) than the pool's import and start cost it (about 5 ms). A longer map
runs on plain threads, which take the items in input order while the caller
waits; the standard library's executor would behave the same but import
several more modules, about 0.6 MB of resident memory.

The threads are kept, idle, for the life of the process and serve later maps.
A thread that ends hands its malloc arena back only after ``join`` has
returned, so threads started for each map could find no free arena and make
new ones, each keeping the freed blocks of the map that filled it: on 2 busy
CPUs, 100 pooled Monte Carlo runs grew from 3 to 5 arenas and peaked 2.9 MB
higher than with the same 2 threads kept.
"""

from __future__ import annotations

import os
import threading
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


class _Worker:
    """A daemon thread that runs one task per ``start`` and is kept for the next."""

    def __init__(self) -> None:
        # both locks are held while the worker waits: ``start`` releases the
        # first to hand it a task, the worker releases the second when done
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task: Callable[[], None] | None = None
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            self._task()
            self._task = None
            self._done.release()

    def start(self, task: Callable[[], None]) -> None:
        self._task = task
        self._go.release()

    def wait(self) -> None:
        self._done.acquire()


# workers not serving a map; one map's workers are never shared with another's,
# so concurrent and nested maps each get their own
_idle: list[_Worker] = []
_idle_lock = threading.Lock()


def _forget_workers() -> None:
    # a forked child holds none of its parent's threads
    global _idle_lock
    _idle.clear()
    _idle_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map preserving input order; results never depend on scheduling.

    If items raise, the one earliest in input order propagates, as with
    ``Executor.map``: the threads take items in input order, so every item
    before a failed one has run, and they take no more after a failure.
    """
    seq: Sequence[T] = list(items)
    budget = min(thread_budget(), len(seq))
    if budget <= 1 or len(seq) < POOL_MIN_ITEMS:
        return [fn(x) for x in seq]
    results: list = [None] * len(seq)
    failures: dict[int, BaseException] = {}
    indices = iter(range(len(seq)))
    taking = threading.Lock()

    def work() -> None:
        while not failures:
            with taking:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(seq[i])
            except BaseException as exc:
                failures[i] = exc

    with _idle_lock:
        workers = [_idle.pop() for _ in range(min(budget, len(_idle)))]
    workers += [_Worker() for _ in range(budget - len(workers))]
    try:
        for worker in workers:
            worker.start(work)
        for worker in workers:
            worker.wait()
    except BaseException:
        # an interrupted caller, as Executor.map's, leaves no item to be taken;
        # its threads finish the ones they hold and are not reused
        with taking:
            for _ in indices:
                pass
        raise
    with _idle_lock:
        _idle.extend(workers)
    if failures:
        raise failures[min(failures)]
    return results
