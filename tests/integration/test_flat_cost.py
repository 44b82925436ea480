"""Data-path cost follows the work, not the file or the cache (PR 17).

Counted, not timed: ``sys.setprofile`` counts the Python calls one unit
of work makes, which for a fixed seed is the same number on every run
and every machine.  The work is the same in cycle 50 and in cycle 500,
so the count must be; before PR 17 it grew with the file's extent list
(about ten calls per extent per cycle) and with the resident set.
"""

import sys
from statistics import median

from repro.client import Page, PageCache
from repro.core.config import LeaseConfig
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def python_calls(fn) -> int:
    """Python-level calls made while ``fn()`` runs."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


RANGES = 4
STRIPE = RANGES * BLOCK_SIZE


def _cycle(client, path, n):
    """One ``intent_write`` cycle (bench/workloads.py): open for write,
    grow the file by one stripe, rewrite it under range locks, close."""
    base = n * STRIPE
    fd = yield from client.open_file(path, "w")
    yield from client.write(fd, base, STRIPE)
    yield from client.write_ranges_locked(
        fd, [(base + i * BLOCK_SIZE, BLOCK_SIZE) for i in range(RANGES)])
    yield from client.close(fd)


def test_cycle_500_costs_what_cycle_50_cost():
    # The bench workload's timing (tau, think time), so that the timers
    # each cycle leaves behind fire at a steady rate well before cycle 50.
    s = make_system(n_clients=2, record_trace=False,
                    writeback_interval=1000.0, lease=LeaseConfig(tau=8.0))
    workers = [(s.client("c1"), "/w1"), (s.client("c2"), "/w2")]
    for client, path in workers:
        run_gen(s, client.create(path, size=BLOCK_SIZE))
    cost = {50: [], 500: []}
    for n in range(503):
        # In turn, so the two files' stripes alternate on the disk and
        # every cycle adds an extent to each.
        for client, path in workers:
            # Five cycles around each mark, for the median: a cycle that
            # coincides with a lease timer costs some 2% more.
            mark = round(n, -1)
            if path == "/w1" and mark in cost and abs(n - mark) <= 2:
                cost[mark].append(python_calls(
                    lambda: run_gen(s, _cycle(client, path, n))))
            else:
                run_gen(s, _cycle(client, path, n))
        s.run(until=s.sim.now + 0.2)
    c1 = s.client("c1")
    assert len(c1.data.layouts[c1.data.path_fid["/w1"]].extents) > 500
    early, late = median(cost[50]), median(cost[500])
    assert abs(late - early) <= 0.02 * early, cost


class CountedInt(int):
    """An int whose ``==`` is a Python call, so a scan hidden inside a C
    builtin (the old cache's ``list.remove``) shows in the call count."""

    __hash__ = int.__hash__

    def __eq__(self, other):
        return int(self) == int(other)


def test_a_cache_hit_costs_the_same_at_16_and_1024_resident_pages():
    def hit_cost(resident: int) -> int:
        cache = PageCache(capacity_pages=resident)
        for block in range(resident):
            cache.put_clean(Page(file_id=1, logical_block=CountedInt(block),
                                 device="d", lba=block, tag=None, version=0))
        # The most recently used page: last in any recency scan.
        probe = CountedInt(resident - 1)
        calls = python_calls(lambda: cache.get(1, probe))
        assert cache.stats.hits == 1
        return calls
    assert hit_cost(1024) == hit_cost(16)
