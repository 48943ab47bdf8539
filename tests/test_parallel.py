import os
import threading
import time

import pytest

from phasekit import _parallel


def test_pool_keeps_input_order(monkeypatch):
    monkeypatch.setenv(_parallel.ENV_VAR, "2")
    workers = set()

    def square(x):
        workers.add(threading.get_ident())
        time.sleep(0.002 * (8 - x))  # the first items take longest
        return x * x

    assert _parallel.parallel_map(square, range(8)) == [x * x for x in range(8)]
    # every item ran on a pool thread, none on the caller's
    assert workers and threading.get_ident() not in workers


@pytest.mark.parametrize("items", [2, _parallel.POOL_MIN_ITEMS - 1])
def test_a_short_map_runs_on_the_calling_thread(monkeypatch, items):
    monkeypatch.setenv(_parallel.ENV_VAR, "2")
    workers = set()

    def square(x):
        workers.add(threading.get_ident())
        return x * x

    assert _parallel.parallel_map(square, range(items)) == [x * x for x in range(items)]
    assert workers == {threading.get_ident()}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_an_item_that_raises_propagates(monkeypatch, threads):
    monkeypatch.setenv(_parallel.ENV_VAR, threads)

    def fail_on_three(x):
        if x == 3:
            raise ValueError("item 3")
        return x

    with pytest.raises(ValueError, match="item 3"):
        _parallel.parallel_map(fail_on_three, range(_parallel.POOL_MIN_ITEMS + 1))


# unset and 0 mean one thread per CPU this process may run on; a set cap is kept as it is
@pytest.mark.parametrize("raw, budget", [(None, 3), ("0", 3), ("7", 7)])
def test_budget_follows_the_affinity_mask(monkeypatch, raw, budget):
    if raw is None:
        monkeypatch.delenv(_parallel.ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(_parallel.ENV_VAR, raw)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _parallel.thread_budget() == budget


@pytest.mark.parametrize("cpus, budget", [(5, 5), (None, 1)])
def test_auto_budget_falls_back_to_cpu_count(monkeypatch, cpus, budget):
    monkeypatch.delenv(_parallel.ENV_VAR, raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _parallel.thread_budget() == budget

