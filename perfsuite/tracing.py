"""Outside-in layer tracing: spans around calls into each layer.

:class:`Tracer` replaces public methods of the simulator's layers with
thin wrappers while it is installed, and restores them on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes; the wrappers
are attached at run time from this file.  Each wrapped call records a
span ``[name, start, end, parent, run]`` in memory and, where the
layer reports work through its return value, bumps a counter.

A layer's self time is its spans' time minus the time its child spans
cover (:func:`self_times`).  :func:`layer_metrics` folds one traced run
into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Any, Callable

__all__ = ["COUNTERS", "Tracer", "layer_metrics", "self_times",
           "write_spans"]

#: Work counters, in the order the benchmark reports them.
COUNTERS = (
    "sim.events", "scheduling.rounds", "scheduling.entries_ordered",
    "scheduling.placement_probes", "scheduling.placement_hits",
    "scheduling.portfolio_evals", "datacenter.executions",
    "datacenter.capacity_syncs", "autoscaling.decisions",
    "observability.advances", "observability.windows",
    "sharding.epochs", "sharding.empty_epochs", "sharding.messages",
)

# Span names (the wrapped call sites) -> the self-time metric they feed.
_SPAN_METRICS = {
    "sim.step": "sim.step_self_s",
    "scheduling.order": "scheduling.order_s",
    "scheduling.placement": "scheduling.placement_s",
    "scheduling.portfolio": "scheduling.portfolio_s",
    "datacenter.execute": "datacenter.execute_s",
    "datacenter.epoch_flush": "datacenter.epoch_flush_s",
    "datacenter.capacity_sync": "datacenter.capacity_sync_s",
    "autoscaling.decide": "autoscaling.decide_s",
    "observability.advance": "observability.advance_s",
    "sharding.advance": "sharding.advance_s",
    "sharding.drain": "sharding.exchange_s",
    "sharding.inject": "sharding.exchange_s",
    "scenario.compile": "scenario.compile_s",
    "scenario.digest": "scenario.digest_s",
}


def self_times(spans: list) -> dict[str, float]:
    """Summed self time per span name.

    Each span is ``[name, start, end, parent, run]`` with ``parent`` the
    index of the enclosing span in ``spans`` (``-1`` for a root).  A
    span's self time is its duration minus its direct children's
    durations; children nest inside their parent, so the subtraction
    never double-counts.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start
                                                - child_time[index])
    return totals


class Tracer:
    """Records spans and work counts around the layers' public calls.

    One tracer serves one traced run at a time: :meth:`begin` clears
    the spans and counters and tags later spans with a run id.  The
    run's simulated step times are kept too, so the idle tail (steps
    after the last task finished) can be counted once the result is
    known.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.step_times = array("d")
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def begin(self, run: int) -> None:
        """Start a fresh run: drop the previous run's spans and counts."""
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.step_times = array("d")
        self.run = run
        self._stack = []

    def span(self, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span named ``name``."""
        spans = self.spans
        stack = self._stack
        index = len(spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
        spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, owner: Any, attr: str, name: str,
              count: Callable[[dict, Any], None] | None = None) -> None:
        """Replace ``owner.attr`` with a spanning, counting wrapper."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args: Any) -> Any:
            result = tracer.span(name, original, *args)
            if count is not None:
                count(tracer.counts, result)
            return result

        wrapper.__wrapped__ = original
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Attach the wrappers to every traced layer boundary."""
        from repro.autoscaling.autoscalers import AUTOSCALERS
        from repro.datacenter.capacity import CapacityIndex
        from repro.datacenter.datacenter import Datacenter
        from repro.observability.streaming import StreamingPipeline
        from repro.scenario.result import ScenarioResult
        from repro.scenario.runtime import ScenarioRuntime
        from repro.scheduling import scheduler as scheduler_module
        from repro.scheduling.portfolio import PortfolioScheduler
        from repro.scheduling.taskqueue import TaskQueue
        from repro.sim.engine import Simulator
        from repro.sim.sharding import ShardedScenarioRuntime, ShardHarness

        def bump(key: str) -> Callable[[dict, Any], None]:
            def count(counts: dict, _result: Any) -> None:
                counts[key] += 1
            return count

        def ordered(counts: dict, result: list) -> None:
            counts["scheduling.rounds"] += 1
            counts["scheduling.entries_ordered"] += len(result)

        def advanced(counts: dict, windows: int) -> None:
            counts["observability.advances"] += 1
            counts["observability.windows"] += windows

        def epoch(counts: dict, events: int) -> None:
            counts["sharding.epochs"] += 1
            if not events:
                counts["sharding.empty_epochs"] += 1

        def drained(counts: dict, messages: list) -> None:
            counts["sharding.messages"] += len(messages)

        original_step = Simulator.__dict__["step"]
        tracer = self

        def step(sim: Any) -> None:
            tracer.span("sim.step", original_step, sim)
            tracer.counts["sim.events"] += 1
            tracer.step_times.append(sim.now)

        step.__wrapped__ = original_step
        self._restore.append((Simulator, "step", original_step))
        Simulator.step = step

        self._wrap(TaskQueue, "ordered", "scheduling.order", ordered)
        self._wrap(PortfolioScheduler, "evaluate", "scheduling.portfolio",
                   bump("scheduling.portfolio_evals"))
        self._wrap(Datacenter, "execute", "datacenter.execute",
                   bump("datacenter.executions"))
        self._wrap(Datacenter, "end_epoch", "datacenter.epoch_flush")
        self._wrap(CapacityIndex, "sync", "datacenter.capacity_sync",
                   bump("datacenter.capacity_syncs"))
        for policy in dict.fromkeys(AUTOSCALERS.values()):
            self._wrap(policy, "decide", "autoscaling.decide",
                       bump("autoscaling.decisions"))
        self._wrap(StreamingPipeline, "advance", "observability.advance",
                   advanced)
        self._wrap(ShardHarness, "advance", "sharding.advance", epoch)
        self._wrap(ShardHarness, "drain", "sharding.drain", drained)
        self._wrap(ShardHarness, "inject", "sharding.inject")
        self._wrap(ScenarioRuntime, "result", "scenario.compile")
        self._wrap(ShardedScenarioRuntime, "result", "scenario.compile")
        self._wrap(ScenarioResult, "digest", "scenario.digest")

        # The scheduler binds ``vectorized_placement`` at import time and
        # calls the kernel it returns once per placement probe.
        original_lookup = scheduler_module.vectorized_placement

        def placement_lookup(policy: Any) -> Any:
            kernel = original_lookup(policy)
            if kernel is None:
                return None

            def probe(*args: Any) -> Any:
                machine = tracer.span("scheduling.placement", kernel, *args)
                counts = tracer.counts
                counts["scheduling.placement_probes"] += 1
                if machine is not None:
                    counts["scheduling.placement_hits"] += 1
                return machine

            return probe

        self._restore.append((scheduler_module, "vectorized_placement",
                              original_lookup))
        scheduler_module.vectorized_placement = placement_lookup

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def write_spans(spans: list, path: Any) -> None:
    """Write spans as JSON lines ``[name, start, end, parent, run]``."""
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span))
            out.write("\n")


def layer_metrics(tracer: Tracer, result: Any) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Times are self times in seconds, summed over the run's spans;
    counts come from the wrappers.  ``result`` is the run's
    ``ScenarioResult``: it supplies the task count, the simulated
    makespan that bounds the idle tail, and the mean queue length.
    """
    counts = tracer.counts
    selfs = self_times(tracer.spans)
    metrics: dict[str, float] = {}
    for span_name, metric in _SPAN_METRICS.items():
        metrics[metric] = metrics.get(metric, 0.0) + selfs.get(span_name,
                                                               0.0)
    for key in COUNTERS:
        if key != "scheduling.placement_hits":
            metrics[key] = counts[key]
    events = counts["sim.events"]
    metrics["sim.us_per_event"] = (metrics["sim.step_self_s"] / events * 1e6
                                   if events else 0.0)
    makespan = result.makespan
    metrics["sim.idle_tail_events"] = sum(
        1 for when in tracer.step_times if when > makespan)
    probes = counts["scheduling.placement_probes"]
    metrics["scheduling.probe_hit_ratio"] = (
        counts["scheduling.placement_hits"] / probes if probes else 0.0)
    metrics["scenario.tasks"] = result.tasks_total
    metrics["scheduling.queue_len_mean"] = _queue_len_mean(result)
    return metrics


def _queue_len_mean(result: Any) -> float:
    """Simulated mean queue length; the shard mean for sharded runs."""
    if result.shards is None:
        return (result.statistics or {}).get("mean_queue_length", 0.0)
    values = [(shard["result"]["statistics"] or {}).get(
                  "mean_queue_length", 0.0)
              for shard in result.shards["by_shard"].values()]
    return sum(values) / len(values) if values else 0.0
