"""A fixed reference workload that tells the benchmark how fast the host is.

The host's speed swings by 1.5x to 3x in spells lasting minutes, and
every timing the benchmark takes swings with it.  So each repeat of a
run is paired with runs of :func:`reference_sim`, taken right beside it
in the same process, and reported as the time it would have taken on a
host where the reference takes :data:`REFERENCE_S` seconds.  Set-ups
are paired the same way with ``import_reference.py`` and
:data:`IMPORT_REFERENCE_S` (see ``STEADINESS.md`` for the measurements
behind this).

The reference is a small queueing simulation in plain Python: a heap of
events, a sorted wait queue, first-fit over a dict of free cores and
objects with attributes, the kinds of work the simulator does.  It
imports nothing from ``repro``, so no change to the program moves it.
Do not change it either: every baseline is expressed in its units.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

__all__ = ["IMPORT_REFERENCE_S", "REFERENCE_S", "reference_s",
           "reference_sim"]

#: Seconds one :func:`reference_sim` takes on the nominal host.  Timings
#: are scaled to this host; the value only sets the scale.
REFERENCE_S = 0.04
#: Seconds ``import_reference.py`` takes on the nominal host.
IMPORT_REFERENCE_S = 0.07


class _Job:
    def __init__(self, ident: int, submit: float, cores: int,
                 runtime: float, priority: int) -> None:
        self.ident = ident
        self.submit = submit
        self.cores = cores
        self.runtime = runtime
        self.priority = priority
        self.machine = -1


def reference_sim(n_jobs: int = 6000, machines: int = 40,
                  cores: int = 4) -> tuple[int, float]:
    """Simulate a fixed stream of jobs; returns (jobs done, total wait)."""
    rng = random.Random(7)
    heap: list = []
    seq = 0
    now = 0.0
    for ident in range(n_jobs):
        now += rng.expovariate(1.0)
        job = _Job(ident, now, rng.randint(1, 2), rng.uniform(20.0, 160.0),
                   rng.randint(0, 3))
        heapq.heappush(heap, (now, seq, 0, job))
        seq += 1
    free = dict.fromkeys(range(machines), cores)
    queue: list = []
    running: dict = {}
    done = 0
    waited = 0.0
    while heap:
        now, _, kind, job = heapq.heappop(heap)
        if kind == 0:
            queue.append(job)
        else:
            free[job.machine] += job.cores
            del running[job.ident]
            done += 1
        queue.sort(key=lambda j: (j.priority, j.submit))
        waiting = []
        for job in queue:
            for machine, spare in free.items():
                if spare >= job.cores:
                    free[machine] = spare - job.cores
                    job.machine = machine
                    running[job.ident] = job
                    waited += now - job.submit
                    heapq.heappush(heap, (now + job.runtime, seq, 1, job))
                    seq += 1
                    break
            else:
                waiting.append(job)
        queue = waiting
    return done, waited


def reference_s() -> float:
    """Seconds one :func:`reference_sim` takes on this host right now."""
    gc.collect()
    start = time.perf_counter()
    reference_sim()
    return time.perf_counter() - start
