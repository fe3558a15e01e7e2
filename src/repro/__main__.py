"""Command-line interface: tables, figures, and scenario runs.

Usage::

    python -m repro                 # list available artifacts
    python -m repro table2          # print one artifact
    python -m repro all             # print everything
    python -m repro observe         # watch a simulation observe itself
    python -m repro observe --spec examples/specs/chaos_slo.json
    python -m repro run examples/specs/chaos_baseline.json
    python -m repro sweep examples/specs/chaos_baseline.json \\
        --seeds 1,2 --policies fcfs,sjf --workers 2
    python -m repro serve --port 8765 --workers 2

``observe`` (also ``--observe``) runs a small deterministic scenario —
a fork-join workflow on a cluster that takes a correlated failure
burst mid-run — with the full observability stack armed, then prints
the operator's view: the metrics table, the SLO verdicts, the alert
log, and the workflow's critical path.  With ``--spec <file>`` it
instead arms the observability stack on *any* declarative scenario
spec and prints the same operator's view for it.  With ``--federated``
it runs a seed grid across worker processes with per-worker Observer
capture, prints the merged fleet view, and verifies the merge is
byte-identical to a serial re-run (see docs/OBSERVABILITY.md,
"Federation").

``run`` executes one scenario spec (a JSON document, see
``docs/SCENARIOS.md``) and prints its deterministic result summary,
fingerprint, and digest; ``--out <file>`` also writes the full result
JSON.  Specs with a ``shards`` section run as per-region event loops
under conservative epoch coupling; ``--shard-workers N`` spreads the
shards over ``N`` OS processes with a byte-identical result for every
``N`` (see docs/ARCHITECTURE.md, "Sharding").  ``sweep`` fans a seed/policy/scale grid of the spec across
worker processes (``--workers``) with a deterministic merge;
``--verify-serial`` re-runs the grid serially and asserts the merged
report digest is byte-identical.

``serve`` runs the scenario kernel as a long-lived multi-tenant HTTP
service fronted by the repo's own resilience stack — bounded-queue
admission with per-tenant quotas (429 + ``Retry-After``), a circuit
breaker around the warm worker pool (503 while open), per-tenant retry
budgets, and a fingerprint-keyed result cache.  See
``docs/SERVICE.md`` for the API.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .core import (
    ChallengeRegistry,
    CurriculumRegistry,
    FieldRegistry,
    MCSOverview,
    PrincipleRegistry,
    UseCaseRegistry,
)
from .datacenter import ReferenceArchitecture
from .errors import SpecError
from .evolution import TechnologyTimeline
from .faas import FaaSReferenceArchitecture
from .gaming import GamingArchitecture
from .reporting import render_table

__all__ = ["main"]


def _table1() -> str:
    return render_table(["Question", "Aspect", "Content"],
                        MCSOverview().table_rows(),
                        title="TABLE 1. AN OVERVIEW OF MCS.")


def _table2() -> str:
    return render_table(["Type", "Index", "Key aspects"],
                        PrincipleRegistry().table_rows(),
                        title="TABLE 2. THE 10 KEY PRINCIPLES OF MCS.")


def _table3() -> str:
    return render_table(["Type", "Index", "Key aspects", "Princip."],
                        ChallengeRegistry().table_rows(),
                        title="TABLE 3. THE 20 CHALLENGES RAISED BY MCS.")


def _table4() -> str:
    return render_table(["Loc.", "Description", "Key aspects"],
                        UseCaseRegistry().table_rows(),
                        title="TABLE 4. SELECTED USE-CASES FOR MCS.")


def _table5() -> str:
    return render_table(
        ["Field (Decade)", "Crisis", "Continues", "Obj.", "Object",
         "Method.", "Char."],
        FieldRegistry().table_rows(),
        title="TABLE 5. COMPARISON OF FIELDS.")


def _figure2() -> str:
    return render_table(["Decade", "Field", "Technology"],
                        TechnologyTimeline().table_rows(),
                        title="FIGURE 2. MAIN TECHNOLOGIES LEADING TO MCS.")


def _figure3() -> str:
    return render_table(["#", "Layer", "Responsibility"],
                        ReferenceArchitecture().table_rows(),
                        title="FIGURE 3. REFERENCE ARCHITECTURE FOR "
                              "DATACENTERS.")


def _figure4() -> str:
    return render_table(["Function", "Main topics"],
                        GamingArchitecture().table_rows(),
                        title="FIGURE 4. ONLINE GAMING ARCHITECTURE.")


def _figure5() -> str:
    return render_table(["#", "Layer", "Responsibility"],
                        FaaSReferenceArchitecture().table_rows(),
                        title="FIGURE 5. FAAS REFERENCE ARCHITECTURE.")


def _curriculum() -> str:
    rows = [(a.index, a.title, a.audience)
            for a in CurriculumRegistry()]
    return render_table(["#", "Addition", "Audience"], rows,
                        title="C12. THE BOKMCS CURRICULUM ADDITIONS.")


def _observe() -> str:
    """One self-observing run: telemetry, SLOs, alerts, critical path.

    Everything is fixed (no randomness), so the printed tables are
    byte-identical on every invocation — the observability contract,
    demonstrated at the command line.
    """
    from .datacenter import Datacenter, MachineSpec, homogeneous_cluster
    from .failures import FailureEvent, FailureInjector
    from .observability import (AvailabilityObjective, BurnRateRule,
                                Observer, QueueWaitObjective, SLOEngine,
                                StreamingPipeline, critical_path)
    from .reporting import (render_alerts, render_critical_path,
                            render_metrics, render_slo_report)
    from .scheduling import ClusterScheduler, WorkflowEngine
    from .sim import Simulator
    from .workload import Task, Workflow

    sim = Simulator()
    observer = Observer()
    observer.attach(sim)
    cluster = homogeneous_cluster("observe", 4, MachineSpec(cores=2),
                                  machines_per_rack=2)
    datacenter = Datacenter(sim, [cluster], name="observe-dc")
    scheduler = ClusterScheduler(sim, datacenter)
    engine = WorkflowEngine(sim, scheduler)

    workflow = Workflow("observe-demo")
    prep = workflow.add_task(Task(runtime=5.0, cores=1, name="prep"))
    stages = [workflow.add_task(Task(runtime=8.0 + i, cores=1,
                                     name=f"stage{i}"),
                                dependencies=[prep])
              for i in range(6)]
    workflow.add_task(Task(runtime=4.0, cores=1, name="merge"),
                      dependencies=stages)

    burst = FailureEvent(time=9.0, duration=25.0,
                         machine_names=("observe-m0", "observe-m1"))
    FailureInjector(sim, datacenter, [burst])

    pipeline = StreamingPipeline(sim, observer.metrics, interval=2.0)
    pipeline.attach(until=120.0)
    slo = SLOEngine(
        pipeline,
        objectives=[
            AvailabilityObjective(
                "exec-success", good="datacenter.executions_finished",
                bad="datacenter.executions_interrupted", target=0.9),
            QueueWaitObjective("fast-start", threshold=5.0, target=0.9),
        ],
        rules=(BurnRateRule("fast", long_window=20.0, short_window=6.0,
                            threshold=2.0),))

    done = engine.submit(workflow)
    sim.run(until=done)
    scheduler.stop()

    path = critical_path(observer.tracer, "workflow observe-demo")
    sections = [
        f"One workflow, one failure burst, makespan {sim.now:.1f}s "
        "- as the run saw itself:",
        render_metrics(observer.metrics.snapshot(),
                       title="Metrics (end of run)"),
        render_slo_report(slo.report()),
        render_alerts(slo.alerts),
        render_critical_path(path,
                             title="Critical path (workflow observe-demo)"),
    ]
    return "\n\n".join(sections)


def _load_spec(path: str):
    """Read a :class:`ScenarioSpec` from a JSON file.

    Raises :class:`~repro.errors.SpecError` with an actionable message
    when the file is missing, unreadable, not JSON, or not a valid
    spec — the CLI turns that into one stderr line and exit code 2,
    never a raw traceback.
    """
    from .scenario import ScenarioSpec
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(
            f"cannot read spec file {path!r}: {exc.strerror or exc}"
        ) from exc
    try:
        return ScenarioSpec.from_json(text)
    except SpecError as exc:
        raise SpecError(
            f"spec file {path!r} is not a valid scenario spec: "
            f"{type(exc).__name__}: {exc} (see docs/SCENARIOS.md)"
        ) from exc


def _observe_spec(path: str) -> str:
    """The operator's view of one declarative scenario run.

    A spec with a ``shards`` section gets the federated view instead:
    every per-region event loop captures its own telemetry plane and
    the merged fleet report is printed under per-shard run IDs.
    """
    from .observability import Observer
    from .reporting import (render_alerts, render_metrics,
                            render_slo_report)
    spec = _load_spec(path)
    if spec.shards is not None:
        from .reporting import render_fleet_report
        from .sim.sharding import run_sharded
        outcome = run_sharded(spec, observe=True)
        assert outcome.telemetry is not None
        sections = [
            f"Scenario {spec.name!r} (seed {spec.seed}, fingerprint "
            f"{spec.fingerprint()}) - as the sharded run saw itself:",
            render_fleet_report(
                outcome.telemetry,
                title=f"Fleet telemetry "
                      f"({len(spec.shards.shards)} shard(s))"),
            f"Result digest: {outcome.result.digest()}",
        ]
        return "\n\n".join(sections)
    observer = Observer()
    runtime = spec.build(observer=observer)
    engine = runtime.engine
    result = runtime.execute()
    sections = [
        f"Scenario {spec.name!r} (seed {spec.seed}, fingerprint "
        f"{spec.fingerprint()}) - as the run saw itself:",
        render_metrics(observer.metrics.snapshot(),
                       title="Metrics (end of run)"),
    ]
    if engine is not None:
        sections.append(render_slo_report(engine.report()))
        sections.append(render_alerts(engine.alerts))
    if result.chaos is not None:
        lines = [f"  {key}: {value:g}"
                 for key, value in sorted(result.chaos["summary"].items())]
        sections.append("Resilience summary:\n" + "\n".join(lines))
    sections.append(f"Result digest: {result.digest()}")
    return "\n\n".join(sections)


def _observe_federated(argv: list[str]) -> int:
    """``observe --federated [--spec F] [--workers N] [--seeds ..]``.

    Runs a seed grid of the spec with federated observation — every
    worker ships its telemetry snapshot across the pool seam — then
    prints the merged fleet view and pins its determinism by re-running
    the grid serially and comparing fleet digests.
    """
    from .observability.federation import fleet_digest
    from .reporting import render_fleet_report
    from .scenario import SweepRunner
    options = {"--spec": "examples/specs/chaos_baseline.json",
               "--workers": "2", "--seeds": "1,2,3,4"}
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument in options:
            if index + 1 >= len(argv):
                print(f"missing value for {argument}", file=sys.stderr)
                return 2
            options[argument] = argv[index + 1]
            index += 2
        else:
            print("usage: python -m repro observe --federated "
                  "[--spec <file>] [--workers N] [--seeds 1,2,3,4]",
                  file=sys.stderr)
            return 2
    spec = _load_spec(options["--spec"])
    seeds = _parse_axis(options["--seeds"], int)
    workers = int(options["--workers"])
    report = SweepRunner(spec, workers=workers,
                         observe=True).sweep(seeds=seeds)
    assert report.telemetry is not None
    print(render_fleet_report(
        report.telemetry,
        title=f"Fleet telemetry for {spec.name!r} "
              f"({workers} worker(s))"))
    print(f"\n  report digest: {report.digest()}")
    serial = SweepRunner(spec, workers=1, observe=True).sweep(seeds=seeds)
    assert serial.telemetry is not None
    if fleet_digest(serial.telemetry) != fleet_digest(report.telemetry):
        print("  FAIL: serial fleet digest differs", file=sys.stderr)
        return 1
    print("  serial re-run fleet digest matches (byte-identical merge)")
    return 0


def _run_spec(argv: list[str]) -> int:
    """``run <spec.json> [--out F] [--shard-workers N]``: one run.

    For a spec with a ``shards`` section, ``--shard-workers N``
    spreads the per-region event loops over ``N`` OS processes; the
    result (and its digest) is byte-identical for every ``N`` — the
    sharding determinism contract, demonstrated at the command line.
    """
    out = None
    shard_workers = 1
    if "--out" in argv:
        index = argv.index("--out")
        out = argv[index + 1]
        argv = argv[:index] + argv[index + 2:]
    if "--shard-workers" in argv:
        index = argv.index("--shard-workers")
        try:
            shard_workers = int(argv[index + 1])
        except (IndexError, ValueError):
            print("missing or invalid value for --shard-workers",
                  file=sys.stderr)
            return 2
        argv = argv[:index] + argv[index + 2:]
    if len(argv) != 1:
        print("usage: python -m repro run <spec.json> [--out result.json] "
              "[--shard-workers N]", file=sys.stderr)
        return 2
    spec = _load_spec(argv[0])
    if spec.shards is not None or shard_workers != 1:
        from .sim.sharding import run_sharded
        outcome = run_sharded(spec, workers=shard_workers)
        result = outcome.result
        coupling = result.shards["coupling"]
        print(f"  shards: {len(result.shards['by_shard'])} over "
              f"{outcome.workers} worker(s), {coupling['epochs']} epochs, "
              f"{coupling['offloaded']} task(s) offloaded")
    else:
        result = spec.run()
    for key, value in sorted(result.summary().items()):
        print(f"  {key}: {value:g}")
    print(f"  fingerprint: {result.fingerprint}")
    print(f"  digest: {result.digest()}")
    if out is not None:
        Path(out).write_text(result.to_json() + "\n", encoding="utf-8")
        print(f"  result written to {out}")
    return 0


def _parse_axis(text: str, cast) -> list:
    """Split a ``--axis a,b,c`` value into typed entries."""
    return [cast(part) for part in text.split(",") if part]


def _sweep_spec(argv: list[str]) -> int:
    """``sweep <spec.json> --seeds 1,2 --policies fcfs,sjf ...``."""
    from .reporting import render_table
    from .scenario import SweepRunner
    options = {"--seeds": None, "--policies": None, "--scale": None,
               "--workers": "1", "--out": None}
    positional: list[str] = []
    verify_serial = False
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument == "--verify-serial":
            verify_serial = True
            index += 1
        elif argument in options:
            if index + 1 >= len(argv):
                print(f"missing value for {argument}", file=sys.stderr)
                return 2
            options[argument] = argv[index + 1]
            index += 2
        else:
            positional.append(argument)
            index += 1
    if len(positional) != 1:
        print("usage: python -m repro sweep <spec.json> [--seeds 1,2] "
              "[--policies fcfs,sjf] [--scale 1.0,2.0] [--workers N] "
              "[--verify-serial] [--out report.json]", file=sys.stderr)
        return 2
    spec = _load_spec(positional[0])
    seeds = _parse_axis(options["--seeds"] or "", int)
    policies = _parse_axis(options["--policies"] or "", str)
    scale = _parse_axis(options["--scale"] or "", float)
    workers = int(options["--workers"] or "1")
    report = SweepRunner(spec, workers=workers).sweep(
        seeds=seeds, policies=policies, scale=scale)
    rows = []
    for label, summary in report.rows():
        rows.append((label, f"{summary['makespan']:.1f}",
                     f"{summary['tasks_finished']:.0f}/"
                     f"{summary['tasks_total']:.0f}",
                     f"{summary.get('wait_mean', 0.0):.1f}"))
    print(render_table(
        ["Point", "Makespan", "Finished", "Mean wait"], rows,
        title=f"Sweep of {spec.name!r}: {len(report.runs)} runs on "
              f"{workers} worker(s)"))
    print(f"  base fingerprint: {report.base_fingerprint}")
    print(f"  report digest: {report.digest()}")
    if verify_serial:
        serial = SweepRunner(spec, workers=1).sweep(
            seeds=seeds, policies=policies, scale=scale)
        if serial.digest() != report.digest():
            print("  FAIL: serial re-run digest differs", file=sys.stderr)
            return 1
        print("  serial re-run digest matches (byte-identical merge)")
    if options["--out"] is not None:
        Path(options["--out"]).write_text(report.to_json() + "\n",
                                          encoding="utf-8")
        print(f"  report written to {options['--out']}")
    return 0


def _serve(argv: list[str]) -> int:
    """``serve [--host H] [--port P] [--workers N] ...``: HTTP service.

    Blocks until SIGINT/SIGTERM, then shuts the server and its worker
    pool down cleanly.  ``--inline`` swaps the warm process pool for
    the in-process executor (useful on machines where spawning
    processes is expensive; it is what the CI smoke job uses).
    ``--observe`` turns on federated per-run telemetry capture so
    ``/v1/metrics?format=openmetrics`` carries the fleet plane.
    """
    import signal
    import threading

    from .service import (InlineExecutor, ScenarioService, ServiceConfig,
                          ServiceHTTPServer)
    options = {"--host": "127.0.0.1", "--port": "8765", "--workers": "2",
               "--max-queue": "64", "--tenant-quota": "16"}
    inline = False
    observe = False
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument == "--inline":
            inline = True
            index += 1
        elif argument == "--observe":
            observe = True
            index += 1
        elif argument in options:
            if index + 1 >= len(argv):
                print(f"missing value for {argument}", file=sys.stderr)
                return 2
            options[argument] = argv[index + 1]
            index += 2
        else:
            print("usage: python -m repro serve [--host H] [--port P] "
                  "[--workers N] [--max-queue N] [--tenant-quota N] "
                  "[--inline] [--observe]", file=sys.stderr)
            return 2
    try:
        config = ServiceConfig(max_queue=int(options["--max-queue"]),
                               tenant_quota=int(options["--tenant-quota"]),
                               workers=int(options["--workers"]),
                               observe=observe)
        port = int(options["--port"])
    except ValueError as exc:
        print(f"invalid serve option: {exc}", file=sys.stderr)
        return 2
    executor = InlineExecutor() if inline else None
    service = ScenarioService(config, executor=executor)
    server = ServiceHTTPServer(service, host=options["--host"], port=port)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    print(f"repro service listening on {server.address} "
          f"({'inline' if inline else str(config.workers) + ' warm'} "
          f"worker(s), queue {config.max_queue}, quota "
          f"{config.tenant_quota}/tenant"
          f"{', federated observation on' if observe else ''})",
          flush=True)
    stop.wait()
    print("shutting down...", flush=True)
    server.stop()
    return 0


ARTIFACTS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "figure2": _figure2,
    "figure3": _figure3,
    "figure4": _figure4,
    "figure5": _figure5,
    "curriculum": _curriculum,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print("\nAvailable artifacts:")
        for name in sorted(ARTIFACTS):
            print(f"  {name}")
        print("  all")
        print("  observe [--spec <file>]")
        print("  observe --federated [--spec <file>] [--workers N] "
              "[--seeds 1,2,3,4]")
        print("  run <spec.json> [--out <file>] [--shard-workers N]")
        print("  sweep <spec.json> [--seeds ..] [--policies ..] "
              "[--scale ..] [--workers N] [--verify-serial] [--out <file>]")
        print("  serve [--host H] [--port P] [--workers N] [--inline]")
        return 0
    name = argv[0]
    try:
        if name in ("observe", "--observe"):
            if "--federated" in argv[1:]:
                rest = [arg for arg in argv[1:] if arg != "--federated"]
                return _observe_federated(rest)
            if len(argv) >= 3 and argv[1] == "--spec":
                print(_observe_spec(argv[2]))
            else:
                print(_observe())
            return 0
        if name == "run":
            return _run_spec(argv[1:])
        if name == "sweep":
            return _sweep_spec(argv[1:])
        if name == "serve":
            return _serve(argv[1:])
    except SpecError as exc:
        # Unreadable or invalid specs, malformed WfFormat documents and
        # invalid shard plans all surface as one line and exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if name == "all":
        for artifact in sorted(ARTIFACTS):
            print(ARTIFACTS[artifact]())
            print()
        return 0
    if name not in ARTIFACTS:
        print(f"unknown artifact {name!r}; try: "
              f"{', '.join(sorted(ARTIFACTS))}, all", file=sys.stderr)
        return 2
    print(ARTIFACTS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
