import os
import signal
import subprocess
import sys
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
    # at 2 threads item 1 fails last, after item 6 has failed on the other
    # thread; at either cap, as with Executor.map, the failure earliest in
    # input order is the one raised
    monkeypatch.setenv(_parallel.ENV_VAR, threads)

    def fail_late_on_one_and_early_on_six(x):
        if x == 1:
            time.sleep(0.05)
            raise ValueError("item 1")
        if x == 6:
            raise ValueError("item 6")
        return x

    with pytest.raises(ValueError, match="item 1"):
        _parallel.parallel_map(fail_late_on_one_and_early_on_six, range(_parallel.POOL_MIN_ITEMS + 3))


def test_later_maps_reuse_the_pool_threads(monkeypatch):
    # a thread that ends frees its malloc arena only after join returns, so
    # fresh threads per map could each make a new arena; kept threads do not
    monkeypatch.setenv(_parallel.ENV_VAR, "2")
    maps = [set(), set()]
    for workers in maps:
        def record(x, workers=workers):
            workers.add(threading.get_ident())
            time.sleep(0.002)
            return x

        assert _parallel.parallel_map(record, range(8)) == list(range(8))
    assert maps[0] == maps[1] and len(maps[0]) == 2


FORKED_CHILD = """\
import os, signal, sys
from phasekit import _parallel
os.environ[_parallel.ENV_VAR] = "2"
assert _parallel.parallel_map(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3]
pid = os.fork()
if pid == 0:
    # the parent's pool threads do not exist here; a map must start its own,
    # and one that waits on the missing threads ends by the alarm
    signal.alarm(20)
    os._exit(0 if _parallel.parallel_map(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3] else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool_threads():
    proc = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", FORKED_CHILD],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_an_interrupted_map_takes_no_more_items(monkeypatch):
    monkeypatch.setenv(_parallel.ENV_VAR, "2")
    ran = []

    def interrupt_the_caller_first(x):
        ran.append(x)
        if x == 0:
            # by then the caller is blocked waiting; a signal that lands just
            # before it blocks is only seen once the wait ends
            time.sleep(0.05)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.01)
        return x

    with pytest.raises(KeyboardInterrupt):
        _parallel.parallel_map(interrupt_the_caller_first, range(50))
    # the threads finish the items they hold and take no more; had they gone
    # on, all 50 would have run within 0.3 s
    time.sleep(0.5)
    assert len(ran) < 25


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

