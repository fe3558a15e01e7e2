"""Seeded scenario specs for the four benchmark workloads.

Every spec is plain data built from the seed alone; the simulator sees
only the JSON text that :func:`spec_json` returns.  Nothing here
imports ``repro``, so generating a spec costs no set-up time and the
same seed always yields byte-identical JSON.

Task *counts* and shapes are fixed per workload and the seed moves the
random draws (runtimes, cores, submit times, failure victims).  That
keeps the amount of work nearly constant across seeds, which matters
because every benchmark run uses another seed:

- The shard benchmark's MMPP and Poisson job generators draw a
  seed-dependent number of tasks (2,994 to 3,634 over three seeds at
  horizon 100), which moved one run by 50% from seed to seed.  The
  gaming and banking services therefore keep their task profiles but
  arrive as fixed-size bursts and steady streams of ``uniform-tasks``.
- Four-core banking batches on four-core machines starve behind
  one- and two-core backfill for a seed-dependent time.  With them the
  queue entries a run orders varied by 9% (quartile spread over ten
  seeds); with two-core batches, by 4%.
- At load 0.9 the open-arrival macro builds a queue whose depth
  depends on the seed: over ten seeds it ordered 25,499 to 152,611
  queue entries (load 0.8: 2,502 to 28,823).  At load 0.7 every seed
  orders 2,500 to 2,505, one per task, so ``tidy`` runs at 0.7.
"""

from __future__ import annotations

import json

__all__ = ["WORKLOADS", "spec_dict", "spec_json"]

#: Per-region arrival horizon of the composite workloads (sim-seconds).
HORIZON = 100.0
#: Gaming arrives in bursts of this length, one every ``BURST_PERIOD``.
BURST = 15.0
BURST_PERIOD = 45.0
#: Regions of the composite workloads and their shared infrastructure.
REGIONS = 2
MACHINES_PER_REGION = 30
CORES_PER_MACHINE = 4
#: One-way WAN latency between the ``regions`` shards (sim-seconds).
LINK_LATENCY = 0.5


def _tasks(prefix: str, n_tasks: int, runtime, cores, submit) -> dict:
    """A fixed-size ``uniform-tasks`` part drawing from its own stream."""
    return {"kind": "uniform-tasks", "params": {
        "n_tasks": n_tasks, "runtime": runtime, "cores": cores,
        "submit": submit, "prefix": prefix, "stream": prefix}}


def _region_workload(region: int) -> dict:
    """Gaming + banking + FaaS on one region's shared infrastructure.

    The task profiles follow ``benchmarks/perf/shard_benchmark.py``:
    two-core matches and one-core lobbies in gaming bursts, one-core
    transactions and two-core batches in banking, short one- or
    two-core functions in FaaS.
    """
    prefix = f"r{region}"
    parts = []
    start = 0.0
    burst = 0
    while start < HORIZON:
        window = [start, start + BURST]
        parts.append(_tasks(f"{prefix}-match{burst}-", 15, [18.0, 42.0], 2,
                            window))
        parts.append(_tasks(f"{prefix}-lobby{burst}-", 15, [5.0, 11.0], 1,
                            window))
        start += BURST_PERIOD
        burst += 1
    steady = [0.0, HORIZON]
    parts.append(_tasks(f"{prefix}-txn-", 200, [7.0, 13.0], 1, steady))
    parts.append(_tasks(f"{prefix}-batch-", 200, [25.0, 75.0], 2, steady))
    parts.append(_tasks(f"{prefix}-fn-", 800, [2.0, 16.0], [1, 2], steady))
    return {"kind": "composite", "params": {"parts": parts}}


def _region_clusters() -> list[dict]:
    return [{"name": f"r{i}", "machines": MACHINES_PER_REGION,
             "cores": CORES_PER_MACHINE, "machines_per_rack": 6}
            for i in range(REGIONS)]


def _backlog(seed: int) -> dict:
    parts = [_region_workload(i) for i in range(REGIONS)]
    return {
        "name": "bench-backlog", "seed": seed,
        "topology": {"clusters": _region_clusters(),
                     "datacenter": "continent"},
        "workload": {"kind": "composite", "params": {"parts": parts}},
        "horizon": 20000.0,
    }


def _regions(seed: int) -> dict:
    spec = _backlog(seed)
    spec["name"] = "bench-regions"
    names = [f"r{i}" for i in range(REGIONS)]
    shards = []
    for i, name in enumerate(names):
        peer = names[(i + 1) % REGIONS]
        shards.append({"name": name, "clusters": [name],
                       "workload": _region_workload(i),
                       "offload": {"target": peer, "threshold": 0.85}})
    spec["shards"] = {"shards": shards, "links": [
        {"src": names[0], "dst": names[1], "latency": LINK_LATENCY}]}
    return spec


def _tidy(seed: int) -> dict:
    """The ``scheduling_spec`` macro shape: open arrivals at load 0.7."""
    return {
        "name": "bench-tidy", "seed": seed,
        "topology": {"clusters": [{"name": "perf", "machines": 256,
                                   "cores": 8, "memory": 32.0,
                                   "machines_per_rack": 32}],
                     "datacenter": "perf-dc"},
        "workload": {"kind": "open-arrivals", "params": {
            "n_tasks": 2500, "load": 0.7, "cores": [1, 8],
            "runtime": [5.0, 195.0], "memory_per_core": 2.0,
            "prefix": "perf", "stream": "perf-workload"}},
    }


def _elastic(seed: int) -> dict:
    """A ``chaos_slo.json``-style cluster with every daemon armed."""
    return {
        "name": "bench-elastic", "seed": seed,
        "topology": {"clusters": [{"name": "chaos", "machines": 24,
                                   "cores": 4, "memory": 32.0,
                                   "machines_per_rack": 6}],
                     "datacenter": "chaos-dc"},
        "workload": {"kind": "uniform-tasks", "params": {
            "n_tasks": 160, "runtime": [20.0, 150.0], "cores": [1, 3],
            "submit": [0.0, 80.0], "priority_levels": 3,
            "prefix": "chaos-", "stream": "workload"}},
        "scheduler": {"queue": "fcfs", "placement": "first-fit",
                      "portfolio": ["sjf", "edf"],
                      "portfolio_interval": 480.0},
        "autoscaler": {"policy": "react", "interval": 1000.0},
        "failures": {"kind": "sampled-bursts", "params": {
            "times": [1060.0, 1150.0, 1250.0], "victims": 6,
            "duration": 35.0, "stream": "failures"}},
        "retries": {"max_attempts": 6, "base": 1.0, "multiplier": 2.0,
                    "cap": 60.0, "jitter": "decorrelated"},
        "checkpoints": {"interval": 20.0, "overhead": 0.5},
        "slos": {"objectives": [
            {"kind": "availability", "params": {
                "name": "exec-success", "target": 0.9,
                "good": "datacenter.executions_finished",
                "bad": "datacenter.executions_interrupted"}},
            {"kind": "queue-wait", "params": {
                "name": "fast-start", "target": 0.9, "threshold": 50.0}}],
            "rules": [{"name": "fast", "long_window": 2000.0,
                       "short_window": 500.0, "threshold": 4.0}],
            "telemetry_interval": 250.0},
        "horizon": 2000.0,
        "injection_jitter": 3.0,
        "availability_slo": 0.85,
    }


#: Workload name -> ``seed -> spec dict``.
WORKLOADS = {
    "backlog": _backlog,
    "tidy": _tidy,
    "elastic": _elastic,
    "regions": _regions,
}


def spec_dict(workload: str, seed: int) -> dict:
    """The workload's scenario spec for ``seed``, as plain data."""
    return WORKLOADS[workload](seed)


def spec_json(workload: str, seed: int) -> str:
    """The workload's scenario spec for ``seed``, as canonical JSON."""
    return json.dumps(spec_dict(workload, seed), sort_keys=True)
