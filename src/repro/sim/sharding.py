"""Sharded simulation: per-region event loops, conservatively coupled.

The paper's central object is the *ecosystem* — millions of users
across geo-distributed datacenters — yet a scenario used to be one
:class:`~repro.sim.engine.Simulator` on one core.  This module
partitions a multi-datacenter scenario by region into per-shard
simulators, each owning its local event loop, scheduler, and
datacenter, coupled only through explicit cross-shard messages
(federation offload and its completion acknowledgements) carried over
the declared :class:`~repro.datacenter.wide_area.WideAreaLink`
channels.

**Conservative epoch coupling.**  Shards advance in windows.  Each
epoch the coordinator reads every shard's next-event time (and every
undelivered message's delivery time), sets the window end to their
minimum plus the *lookahead* — the minimum cross-shard link latency
(:func:`~repro.datacenter.wide_area.min_lookahead`), or the plan's
tighter explicit ``epoch`` — injects the previous epoch's messages,
and lets every shard process events strictly below the window end.
The loop ends when every shard is done (quiescent, or past its
``duration``/``max_time`` bound) and no message is in flight.
The classic safety argument applies: a message sent at time *t* inside
the window delivers at ``t + latency >= window_end``, so delivering it
at the next barrier can never rewind any shard's clock.

**Deterministic message ordering.**  Every message is stamped with
``(send_time, source shard, per-shard sequence number)`` and each
destination's inbox is sorted by ``(deliver_time, src, seq)`` before
injection, so the injected event order — and therefore every digest —
is a pure function of the spec, independent of how shards are packed
onto worker processes.

**Determinism contract.**  The merged
:class:`~repro.scenario.result.ScenarioResult` and fleet telemetry of
one sharded spec are byte-identical whether the shards run in-process
(one worker) or across any number of worker processes; the golden
tests pin 1/2/8-worker configurations to one digest.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..errors import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenario.result import ScenarioResult
    from ..scenario.spec import ScenarioSpec, ShardSpec

__all__ = [
    "ShardConfigError",
    "RemoteSubmit",
    "CompletionAck",
    "ShardHarness",
    "ShardedScenarioRuntime",
    "ShardedOutcome",
    "run_sharded",
]


class ShardConfigError(SpecError):
    """An invalid shard partition or coupling declaration.

    The user-facing error for everything a shard plan can get wrong —
    unknown datacenter clusters, overlapping shards, zero-latency
    links, dangling offload targets.  A :class:`~repro.errors.SpecError`,
    so the CLI exits 2 and the service answers 400 with the message.
    """


# ---------------------------------------------------------------------------
# Cross-shard messages
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RemoteSubmit:
    """One task delegated across a shard boundary.

    Stamped with the sender's ``(send_time, src, seq)`` so destinations
    can order concurrent arrivals deterministically; ``deliver_time``
    is ``send_time`` plus the link latency, and the task itself travels
    as a plain-data payload (the origin's Task object never crosses the
    process boundary).
    """

    src: str
    dst: str
    seq: int
    send_time: float
    deliver_time: float
    task: dict

    def to_dict(self) -> dict:
        """Plain-data form (for the worker pipe)."""
        return {"type": "submit", "src": self.src, "dst": self.dst,
                "seq": self.seq, "send_time": self.send_time,
                "deliver_time": self.deliver_time, "task": dict(self.task)}


@dataclass(frozen=True)
class CompletionAck:
    """Notice that a delegated task finished at its destination.

    Flows back over the same link so the origin can account for its
    offloaded work (merged ``tasks_finished`` and makespan) without
    sharing any object state.
    """

    src: str
    dst: str
    seq: int
    send_time: float
    deliver_time: float
    task_name: str
    finish_time: float

    def to_dict(self) -> dict:
        """Plain-data form (for the worker pipe)."""
        return {"type": "ack", "src": self.src, "dst": self.dst,
                "seq": self.seq, "send_time": self.send_time,
                "deliver_time": self.deliver_time,
                "task_name": self.task_name,
                "finish_time": self.finish_time}


def message_from_dict(data: Mapping[str, Any]) -> "RemoteSubmit | CompletionAck":
    """Rehydrate a cross-shard message from its plain-data form."""
    kind = data["type"]
    if kind == "submit":
        return RemoteSubmit(src=data["src"], dst=data["dst"],
                            seq=data["seq"], send_time=data["send_time"],
                            deliver_time=data["deliver_time"],
                            task=dict(data["task"]))
    if kind == "ack":
        return CompletionAck(src=data["src"], dst=data["dst"],
                             seq=data["seq"], send_time=data["send_time"],
                             deliver_time=data["deliver_time"],
                             task_name=data["task_name"],
                             finish_time=data["finish_time"])
    raise ValueError(f"unknown cross-shard message type {kind!r}")


def _message_order(message: "RemoteSubmit | CompletionAck"):
    """The deterministic per-destination injection order."""
    return (message.deliver_time, message.src, message.seq)


def _task_payload(task: Any) -> dict:
    """A task's wire form: everything needed to rebuild it remotely."""
    return {
        "runtime": task.runtime,
        "cores": task.cores,
        "memory": task.memory,
        "name": task.name,
        "kind": task.kind,
        "deadline": task.deadline,
        "priority": task.priority,
        "checkpoint_interval": task.checkpoint_interval,
        "checkpoint_overhead": task.checkpoint_overhead,
        "input_files": dict(task.input_files),
        "output_files": dict(task.output_files),
    }


def _task_from_payload(payload: Mapping[str, Any], submit_time: float):
    """Rebuild a delegated task at its destination.

    The rebuilt task submits at its delivery time (it spent the link
    latency in flight) and keeps its origin name, so destination-side
    statistics stay stable however shards are packed onto workers.
    """
    from ..workload.task import Task
    return Task(runtime=payload["runtime"], cores=payload["cores"],
                memory=payload["memory"], submit_time=submit_time,
                name=payload["name"], kind=payload["kind"],
                deadline=payload["deadline"], priority=payload["priority"],
                checkpoint_interval=payload["checkpoint_interval"],
                checkpoint_overhead=payload["checkpoint_overhead"],
                input_files=dict(payload["input_files"]),
                output_files=dict(payload["output_files"]))


# ---------------------------------------------------------------------------
# One shard
# ---------------------------------------------------------------------------
class ShardHarness:
    """One region's event loop plus its cross-shard edges.

    Wraps the shard's composed
    :class:`~repro.scenario.runtime.ScenarioRuntime` with the three
    seams the coordinator drives: arrival-time offload routing (an
    :class:`~repro.datacenter.federation.OffloadGate` over the local
    datacenter diverts plain tasks into the outbox), message injection
    (delegated tasks and acknowledgements arrive as future events via
    :meth:`~repro.sim.engine.Simulator.inject`), and windowed
    advancement (:meth:`~repro.scenario.runtime.ScenarioRuntime.advance`
    up to the epoch barrier).
    """

    def __init__(self, spec: "ScenarioSpec", shard: "ShardSpec",
                 links: Mapping[str, float], capture: bool = False) -> None:
        from ..datacenter.federation import OffloadGate
        from ..observability.observer import Observer
        from ..scenario.runtime import build_runtime
        self.name = shard.name
        self.links = dict(links)
        self.subspec = spec.shard_subspec(shard)
        self._declared = bool(self.subspec.observer
                              or self.subspec.slos is not None)
        self._capture = capture
        self._offload = shard.offload
        self._outbox: list[RemoteSubmit | CompletionAck] = []
        self._seq = 0
        self._remote_origin: dict[int, str] = {}
        self.offloads_sent = 0
        self.offloads_run = 0
        self.remote_finished = 0
        self.remote_finish_max = 0.0
        overrides: dict[str, Any] = {}
        if shard.offload is not None:
            overrides["submit_router"] = self._route
        if capture and not self._declared:
            overrides["observer"] = Observer()
        self.runtime = build_runtime(self.subspec, **overrides)
        self._gate = (OffloadGate(self.runtime.datacenter,
                                  shard.offload.threshold)
                      if shard.offload is not None else None)
        self.runtime.scheduler.on_task_complete.append(self._on_complete)

    # -- outbound -------------------------------------------------------
    def _route(self, item: Any) -> bool:
        """Arrival-time router: divert plain tasks the gate offloads."""
        from ..workload.task import Task
        if not isinstance(item, Task) or item.dependencies:
            return False
        if not self._gate.should_offload(item):
            return False
        sim = self.runtime.sim
        target = self._offload.target
        self._seq += 1
        self.offloads_sent += 1
        self._outbox.append(RemoteSubmit(
            src=self.name, dst=target, seq=self._seq, send_time=sim.now,
            deliver_time=sim.now + self.links[target],
            task=_task_payload(item)))
        return True

    def _on_complete(self, task: Any) -> None:
        """Acknowledge delegated tasks back to their origin shard."""
        origin = self._remote_origin.pop(task.task_id, None)
        if origin is None:
            return
        sim = self.runtime.sim
        self._seq += 1
        self.offloads_run += 1
        self._outbox.append(CompletionAck(
            src=self.name, dst=origin, seq=self._seq, send_time=sim.now,
            deliver_time=sim.now + self.links[origin],
            task_name=task.name, finish_time=float(task.finish_time)))

    def drain(self) -> list["RemoteSubmit | CompletionAck"]:
        """Take (and clear) the messages produced this epoch."""
        messages = self._outbox
        self._outbox = []
        return messages

    # -- inbound --------------------------------------------------------
    def inject(self, message: "RemoteSubmit | CompletionAck") -> None:
        """Schedule a cross-shard message as a local future event."""
        sim = self.runtime.sim
        if isinstance(message, RemoteSubmit):
            sim.inject(message.deliver_time,
                       lambda _event, m=message: self._deliver_submit(m))
        else:
            sim.inject(message.deliver_time,
                       lambda _event, m=message: self._deliver_ack(m))

    def _deliver_submit(self, message: RemoteSubmit) -> None:
        task = _task_from_payload(message.task,
                                  submit_time=message.deliver_time)
        self._remote_origin[task.task_id] = message.src
        self.runtime.scheduler.submit(task)

    def _deliver_ack(self, message: CompletionAck) -> None:
        self.remote_finished += 1
        if message.finish_time > self.remote_finish_max:
            self.remote_finish_max = message.finish_time

    # -- advancement ----------------------------------------------------
    def peek(self) -> float:
        """The shard's next local event time (``inf`` once it is done)."""
        return self.runtime.peek()

    def advance(self, stop: float) -> int:
        """Process local events strictly before the window end."""
        return self.runtime.advance(stop)

    # -- completion -----------------------------------------------------
    def finish(self) -> dict:
        """Settle the run and compile the shard's wire payload.

        Drives the shard's runtime to its end — once the epoch loop is
        over that processes no event, only the duration clock jump and
        final telemetry advance — finalizes, and returns the result
        JSON, optional telemetry snapshot JSON (run id
        ``shard-<name>``), and the cross-shard accounting the merge
        needs — all plain data, safe to ship over a pipe.
        """
        runtime = self.runtime
        runtime.drive()
        runtime.finalize()
        observer = runtime.observer
        if not self._declared:
            # An undeclared capture observer must not leak into the
            # result bytes (mirrors sweep.run_spec_observed).
            runtime.observer = None
        result = runtime.result()
        telemetry = None
        if observer is not None:
            observer.detach()
            if self._capture:
                from ..observability.federation import TelemetrySnapshot
                telemetry = TelemetrySnapshot.capture(
                    observer, run_id=f"shard-{self.name}",
                    fingerprint=self.subspec.fingerprint(),
                    seed=self.subspec.seed).to_json()
        return {
            "result": result.to_json(),
            "telemetry": telemetry,
            "extras": {
                "offloads_sent": self.offloads_sent,
                "offloads_run": self.offloads_run,
                "remote_finished": self.remote_finished,
                "remote_finish_max": self.remote_finish_max,
                "total_cores": runtime.datacenter.total_cores,
            },
        }


def _peer_links(plan: Any, name: str) -> dict[str, float]:
    """The one-way latencies from shard ``name`` to each linked peer."""
    links: dict[str, float] = {}
    for link in plan.links:
        if link.src == name:
            links[link.dst] = link.latency
        elif link.dst == name:
            links[link.src] = link.latency
    return links


# ---------------------------------------------------------------------------
# The epoch coordinator
# ---------------------------------------------------------------------------
def _route_messages(outbound: Iterable["RemoteSubmit | CompletionAck"],
                    ) -> dict[str, list]:
    """Group messages by destination in deterministic injection order."""
    by_dst: dict[str, list] = {}
    for message in outbound:
        by_dst.setdefault(message.dst, []).append(message)
    for messages in by_dst.values():
        messages.sort(key=_message_order)
    return by_dst


def _drive_epochs(shard_set: Any, *, lookahead: float) -> int:
    """Run the conservative epoch loop over a shard set.

    Each iteration: compute every shard's *effective* horizon (its next
    local event, or an earlier undelivered message), stop when every
    shard is done and no message is in flight, otherwise open a window of
    ``lookahead`` past the global minimum, deliver the pending batch,
    advance every shard to the barrier, and collect the next batch.
    Returns the number of epochs (windows) executed — part of the
    coupling record, so worker counts can be checked against it.
    """
    pending: dict[str, list] = {}
    peeks = shard_set.peeks()
    epochs = 0
    while True:
        effective = dict(peeks)
        for dst, messages in pending.items():
            horizon = min(m.deliver_time for m in messages)
            if horizon < effective.get(dst, float("inf")):
                effective[dst] = horizon
        floor = min(effective.values(), default=float("inf"))
        if floor == float("inf"):
            break
        outbound, peeks = shard_set.run_epoch(floor + lookahead, pending)
        pending = _route_messages(outbound)
        epochs += 1
    return epochs


class _InProcessShards:
    """Every shard harness in the calling process (the 1-worker set)."""

    def __init__(self, spec: "ScenarioSpec", capture: bool = False) -> None:
        plan = spec.shards
        self.order = [shard.name for shard in plan.shards]
        self.harnesses = {
            shard.name: ShardHarness(spec, shard,
                                     _peer_links(plan, shard.name),
                                     capture=capture)
            for shard in plan.shards
        }

    def peeks(self) -> dict[str, float]:
        return {name: self.harnesses[name].peek() for name in self.order}

    def run_epoch(self, window: float, inbound: Mapping[str, list],
                  ) -> tuple[list, dict[str, float]]:
        for name in self.order:
            for message in inbound.get(name, ()):
                self.harnesses[name].inject(message)
        for name in self.order:
            self.harnesses[name].advance(window)
        outbound: list = []
        peeks: dict[str, float] = {}
        for name in self.order:
            outbound.extend(self.harnesses[name].drain())
            peeks[name] = self.harnesses[name].peek()
        return outbound, peeks

    def finish(self) -> dict[str, dict]:
        return {name: self.harnesses[name].finish() for name in self.order}

    def close(self) -> None:
        pass


def _shard_worker(conn: Any, spec_json: str, names: Sequence[str],
                  capture: bool) -> None:
    """Worker-process loop owning a subset of the shards.

    Speaks a tiny command protocol over the pipe — ``("peeks",)``,
    ``("epoch", window, inbound)``, ``("finish",)``, ``("close",)`` —
    replying ``("ok", payload)`` or ``("error", message)``.  Messages
    cross the pipe in plain-data form only.
    """
    from ..scenario.spec import ScenarioSpec
    spec = ScenarioSpec.from_json(spec_json)
    plan = spec.shards
    by_name = {shard.name: shard for shard in plan.shards}
    harnesses = {
        name: ShardHarness(spec, by_name[name], _peer_links(plan, name),
                           capture=capture)
        for name in names
    }
    while True:
        command = conn.recv()
        kind = command[0]
        try:
            if kind == "peeks":
                reply: Any = {name: harnesses[name].peek()
                              for name in names}
            elif kind == "epoch":
                _, window, inbound = command
                for name in names:
                    for data in inbound.get(name, ()):
                        harnesses[name].inject(message_from_dict(data))
                for name in names:
                    harnesses[name].advance(window)
                outbound = []
                peeks = {}
                for name in names:
                    outbound.extend(m.to_dict()
                                    for m in harnesses[name].drain())
                    peeks[name] = harnesses[name].peek()
                reply = (outbound, peeks)
            elif kind == "finish":
                reply = {name: harnesses[name].finish() for name in names}
            elif kind == "close":
                conn.close()
                return
            else:
                raise ValueError(f"unknown shard command {kind!r}")
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            raise
        conn.send(("ok", reply))


class _WorkerShards:
    """Shards packed round-robin onto long-lived worker processes.

    Shard *i* (in plan declaration order) lives on worker ``i % n`` for
    the whole run, so per-shard state persists across epochs; every
    epoch is one synchronous command round-trip per worker.
    """

    def __init__(self, spec: "ScenarioSpec", workers: int,
                 capture: bool = False) -> None:
        plan = spec.shards
        self.order = [shard.name for shard in plan.shards]
        spec_json = spec.to_json()
        self._assignments = [self.order[index::workers]
                             for index in range(workers)]
        self._conns = []
        self._procs = []
        for assigned in self._assignments:
            parent_conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_shard_worker,
                args=(child_conn, spec_json, assigned, capture),
                daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _round_trip(self, command: tuple) -> list:
        for conn in self._conns:
            conn.send(command)
        replies = []
        for conn, assigned in zip(self._conns, self._assignments):
            status, payload = conn.recv()
            if status != "ok":
                raise RuntimeError(
                    f"shard worker for {assigned} failed: {payload}")
            replies.append(payload)
        return replies

    def peeks(self) -> dict[str, float]:
        peeks: dict[str, float] = {}
        for reply in self._round_trip(("peeks",)):
            peeks.update(reply)
        return peeks

    def run_epoch(self, window: float, inbound: Mapping[str, list],
                  ) -> tuple[list, dict[str, float]]:
        for conn, assigned in zip(self._conns, self._assignments):
            batch = {name: [m.to_dict() for m in inbound[name]]
                     for name in assigned if name in inbound}
            conn.send(("epoch", window, batch))
        outbound: list = []
        peeks: dict[str, float] = {}
        for conn, assigned in zip(self._conns, self._assignments):
            status, payload = conn.recv()
            if status != "ok":
                raise RuntimeError(
                    f"shard worker for {assigned} failed: {payload}")
            sent, worker_peeks = payload
            outbound.extend(message_from_dict(data) for data in sent)
            peeks.update(worker_peeks)
        return outbound, peeks

    def finish(self) -> dict[str, dict]:
        payloads: dict[str, dict] = {}
        for reply in self._round_trip(("finish",)):
            payloads.update(reply)
        return payloads

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            conn.close()


# ---------------------------------------------------------------------------
# Result merge
# ---------------------------------------------------------------------------
def _merge_payloads(spec: "ScenarioSpec", order: Sequence[str],
                    payloads: Mapping[str, dict], *, epochs: int,
                    lookahead: float,
                    ) -> tuple["ScenarioResult", dict | None]:
    """Fold per-shard payloads into the scenario-level outcome.

    Counters and energies sum; clocks and makespans take maxima
    (including delegated tasks finishing remotely, via the
    acknowledgement stream); mean utilization is weighted by shard
    capacity; per-shard results nest in full under ``shards.by_shard``
    so nothing is lost in the roll-up.  Telemetry snapshots, when
    captured, fold through the standard
    :class:`~repro.observability.federation.TelemetryMerge` into one
    ``telemetry-fleet/v1`` view.  Everything is a pure function of the
    payload set — the worker count leaves no trace.
    """
    from ..observability.federation import TelemetryMerge
    from ..scenario.result import ScenarioResult
    results = {name: ScenarioResult.from_json(payloads[name]["result"])
               for name in order}
    extras = {name: payloads[name]["extras"] for name in order}
    remote_finished = sum(e["remote_finished"] for e in extras.values())
    makespans = [results[name].makespan for name in order]
    makespans.extend(e["remote_finish_max"] for e in extras.values()
                     if e["remote_finished"])
    total_cores = sum(e["total_cores"] for e in extras.values())
    datacenter_view: dict[str, float] = {
        "mean_utilization": (
            sum(results[n].datacenter["mean_utilization"]
                * extras[n]["total_cores"] for n in order) / total_cores
            if total_cores else 0.0),
        "energy_joules": sum(results[n].datacenter["energy_joules"]
                             for n in order),
        "failed_executions": sum(
            results[n].datacenter["failed_executions"] for n in order),
        "wasted_core_seconds": sum(
            results[n].datacenter["wasted_core_seconds"] for n in order),
        "preserved_core_seconds": sum(
            results[n].datacenter["preserved_core_seconds"] for n in order),
    }
    data_keys = ("data_transfer_seconds", "data_transfer_bytes",
                 "data_local_bytes")
    if any(key in results[n].datacenter for n in order for key in data_keys):
        for key in data_keys:
            datacenter_view[key] = sum(
                results[n].datacenter.get(key, 0.0) for n in order)
    shards_section = {
        "coupling": {
            "lookahead": (None if lookahead == float("inf")
                          else lookahead),
            "epochs": epochs,
            "offloaded": sum(e["offloads_sent"] for e in extras.values()),
            "acked": sum(e["offloads_run"] for e in extras.values()),
        },
        "by_shard": {
            name: {
                "result": results[name].to_dict(),
                "offloads_sent": extras[name]["offloads_sent"],
                "offloads_run": extras[name]["offloads_run"],
                "remote_finished": extras[name]["remote_finished"],
                "remote_finish_max": extras[name]["remote_finish_max"],
            }
            for name in order
        },
    }
    merged = ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        fingerprint=spec.fingerprint(),
        sim_time=max(results[name].sim_time for name in order),
        events_processed=sum(results[name].events_processed
                             for name in order),
        makespan=max(makespans),
        tasks_total=sum(results[name].tasks_total for name in order),
        tasks_finished=(sum(results[name].tasks_finished for name in order)
                        + remote_finished),
        datacenter=datacenter_view,
        shards=shards_section,
    )
    snapshots = [payloads[name]["telemetry"] for name in order
                 if payloads[name]["telemetry"] is not None]
    fleet = None
    if snapshots:
        merge = TelemetryMerge()
        for snapshot in snapshots:
            merge.add_json(snapshot)
        fleet = merge.fleet()
    return merged, fleet


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
class ShardedScenarioRuntime:
    """The sharded counterpart of a composed scenario runtime.

    What :meth:`ScenarioSpec.build` returns for a spec with a
    ``shards`` section: every shard harness composed in-process, driven
    through the conservative epoch loop by :meth:`execute`.  Mirrors
    the single-loop runtime's surface where it matters (``tasks``,
    :meth:`finalize`, :meth:`execute`), so spec tooling works on both.
    """

    def __init__(self, spec: "ScenarioSpec", capture: bool | None = None,
                 ) -> None:
        if spec.shards is None:
            raise ShardConfigError(
                f"scenario {spec.name!r} declares no shards")
        self.spec = spec
        declared = bool(spec.observer or spec.slos is not None)
        self.capture = declared if capture is None else capture
        self.lookahead = spec.shards.lookahead()
        self.epochs = 0
        self.telemetry: dict | None = None
        self._set = _InProcessShards(spec, capture=self.capture)
        self._driven = False
        self._result: "ScenarioResult | None" = None

    @property
    def harnesses(self) -> dict[str, ShardHarness]:
        """The live per-shard harnesses, by shard name."""
        return self._set.harnesses

    @property
    def tasks(self) -> list:
        """Every locally generated task, in shard declaration order."""
        return [task for name in self._set.order
                for task in self._set.harnesses[name].runtime.tasks]

    def drive(self) -> None:
        """Run the conservative epoch loop to completion."""
        if self._driven:
            raise RuntimeError("this sharded runtime was already driven; "
                               "build a fresh one per run")
        self._driven = True
        self.epochs = _drive_epochs(self._set, lookahead=self.lookahead)

    def finalize(self) -> None:
        """Stop every shard's periodic processes (idempotent)."""
        for name in self._set.order:
            self._set.harnesses[name].runtime.finalize()

    def result(self) -> "ScenarioResult":
        """The merged result (available after :meth:`execute`)."""
        if self._result is None:
            raise RuntimeError("execute() the sharded runtime first")
        return self._result

    def execute(self) -> "ScenarioResult":
        """Drive, settle every shard, and merge the fleet outcome."""
        self.drive()
        payloads = self._set.finish()
        self._result, self.telemetry = _merge_payloads(
            self.spec, self._set.order, payloads, epochs=self.epochs,
            lookahead=self.lookahead)
        return self._result


@dataclass(frozen=True)
class ShardedOutcome:
    """What one sharded run produced: merged result + fleet telemetry."""

    result: "ScenarioResult"
    telemetry: dict | None
    epochs: int
    workers: int


def run_sharded(spec: "ScenarioSpec", *, workers: int = 1,
                observe: bool = False) -> ShardedOutcome:
    """Execute a sharded spec across ``workers`` processes.

    ``workers=1`` runs every shard in-process; more workers pack shards
    round-robin onto long-lived processes (capped at the shard count —
    extra workers would idle).  ``observe=True`` captures per-shard
    telemetry even when the spec declares no observer.  The merged
    result and telemetry are byte-identical for every worker count:
    that is the module's determinism contract, and what the goldens
    pin.
    """
    plan = spec.shards
    if plan is None:
        raise ShardConfigError(
            f"scenario {spec.name!r} declares no shards; add a 'shards' "
            f"section (see docs/SCENARIOS.md)")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    declared = bool(spec.observer or spec.slos is not None)
    capture = bool(observe or declared)
    workers = min(workers, len(plan.shards))
    if workers == 1:
        runtime = ShardedScenarioRuntime(spec, capture=capture)
        result = runtime.execute()
        return ShardedOutcome(result=result, telemetry=runtime.telemetry,
                              epochs=runtime.epochs, workers=1)
    lookahead = plan.lookahead()
    order = [shard.name for shard in plan.shards]
    shard_set = _WorkerShards(spec, workers, capture=capture)
    try:
        epochs = _drive_epochs(shard_set, lookahead=lookahead)
        payloads = shard_set.finish()
    finally:
        shard_set.close()
    result, fleet = _merge_payloads(spec, order, payloads, epochs=epochs,
                                    lookahead=lookahead)
    return ShardedOutcome(result=result, telemetry=fleet, epochs=epochs,
                          workers=workers)
