"""The composition root: specs become live runtimes, once, correctly."""

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.observability import Observer
from repro.scenario import (ClusterSpec, ObjectiveSpec, ScenarioSpec,
                            SLOSpec, TopologySpec, WorkloadSpec, compose)
from repro.scheduling import SJF
from repro.workload import TaskState


def test_build_wires_every_declared_section(full_spec):
    runtime = full_spec.build()
    assert runtime.spec is full_spec
    assert runtime.injector is not None          # failures declared
    assert runtime.planner is not None           # retries declared
    assert runtime.admission is not None         # shedding declared
    assert runtime.engine is not None            # slos declared
    assert runtime.observer is not None          # auto-armed for slos
    assert runtime.datacenter.name == "sink-dc"
    assert len(runtime.datacenter.clusters) == 2
    assert runtime.tasks, "workload resolved to tasks"


def test_small_spec_leaves_optional_systems_off(small_spec):
    runtime = small_spec.build()
    assert runtime.injector is None
    assert runtime.planner is None
    assert runtime.admission is None
    assert runtime.engine is None
    assert runtime.observer is None
    assert runtime.controller is None


def test_execute_returns_deterministic_result(small_spec):
    first = small_spec.run()
    second = small_spec.run()
    assert first.to_json() == second.to_json()
    assert first.digest() == second.digest()
    assert first.tasks_finished == first.tasks_total == 12
    assert first.fingerprint == small_spec.fingerprint()


def test_runtime_cannot_be_driven_twice(small_spec):
    runtime = small_spec.build()
    runtime.drive()
    with pytest.raises(RuntimeError, match="already driven"):
        runtime.drive()


def test_build_overrides_replace_ingredients(small_spec):
    runtime = small_spec.build(queue_policy=SJF())
    result = runtime.execute()
    assert result.tasks_finished == result.tasks_total
    # The declarative path produces the same digest as the explicit
    # registry instance: "sjf" in the spec is the same class.
    declared = small_spec.override({"scheduler.queue": "sjf"}).run()
    assert declared.statistics == result.statistics


def test_duration_extends_the_clock(small_spec):
    result = small_spec.override({"duration": 500.0}).run()
    assert result.sim_time == 500.0


def test_chaos_section_present_only_when_armed(small_spec, full_spec):
    assert small_spec.run().chaos is None
    chaos = full_spec.run().chaos
    assert chaos is not None
    # Resilience invariants hold; any violations are declared-SLO
    # verdicts (the kitchen-sink spec deliberately overloads itself).
    assert all(line.startswith("SLO ") for line in chaos["violations"])
    assert chaos["summary"]["tasks_total"] == 48
    assert chaos["summary"]["tasks_shed"] == 4


def test_observer_flag_arms_profile(small_spec):
    profiled = small_spec.override({"observer": True}).run()
    assert profiled.profile is not None
    assert "metrics" in profiled.profile and "profile" in profiled.profile
    assert small_spec.run().profile is None


def test_compose_requires_observer_for_slos(full_spec):
    ingredients = {"seed": 1,
                   "clusters": full_spec.cluster_factory(),
                   "workload": full_spec.workload_fn(),
                   "slos": full_spec.slos.build_objectives()}
    with pytest.raises(ValueError, match="pass an observer"):
        compose(**ingredients)
    ingredients["observer"] = Observer()
    runtime = compose(**ingredients)
    assert runtime.engine is not None


def test_empty_workload_rejected(small_spec):
    empty = small_spec.override({"workload.params.n_tasks": 0})
    with pytest.raises(ValueError, match="produced no tasks"):
        empty.build()


def test_autoscaler_section_builds_controller(small_spec):
    elastic = small_spec.override(
        {"autoscaler": {"policy": "react", "interval": 5.0}})
    runtime = elastic.build()
    assert runtime.controller is not None
    result = runtime.execute()
    assert result.tasks_finished == result.tasks_total
    # The controller's ticks are daemons: the run ends with its last
    # task, not at the max_time safety cap.
    assert result.sim_time == result.makespan
    assert result.events_processed < 100


# ---------------------------------------------------------------------------
# Quiescence: daemon ticks never decide when a run ends
# ---------------------------------------------------------------------------
def _outcome_digest(runtime) -> str:
    """SHA-256 over every task's (name, start, finish, machine, attempts)."""
    rows = [[task.name, task.start_time, task.finish_time, task.machine,
             task.attempts] for task in runtime.tasks]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: Task outcomes of controller-armed runs, computed when their daemon
#: ticks still ran on to max_time.  Ending at quiescence may shorten the
#: clock; it must not move a single task.
PINNED_OUTCOMES = {
    "react-5": ("small", {"autoscaler": {"policy": "react",
                                         "interval": 5.0}},
                "770b46e3ae9764bc01249cb10bde047316765882839b564a34cf2a32ae596b47"),
    "react-50": ("small", {"autoscaler": {"policy": "react",
                                          "interval": 50.0}},
                 "c4ec540568d5798f71e386aa4fb67fb48596c1aa8db19b2ff704420cc4d26229"),
    "portfolio": ("full", {"scheduler.portfolio": ["sjf", "edf"]},
                  "50fc6f834e00cac7d5ebfd494e0814843343d5051a808c5e325008fa449ec237"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTCOMES))
def test_quiescence_keeps_task_outcomes(case, small_spec, full_spec):
    base, updates, digest = PINNED_OUTCOMES[case]
    spec = (small_spec if base == "small" else full_spec).override(updates)
    runtime = spec.build()
    result = runtime.execute()
    assert _outcome_digest(runtime) == digest
    assert result.sim_time < spec.max_time


def test_waiting_tasks_keep_a_controller_run_live(small_spec):
    # At interval 50 the react policy reaches a state where only its
    # ticks are queued while tasks wait for capacity it has yet to add.
    spec = small_spec.override(
        {"autoscaler": {"policy": "react", "interval": 50.0}})
    runtime = spec.build()
    result = runtime.execute()
    assert result.tasks_finished == result.tasks_total == 12
    last_finish = max(task.finish_time for task in runtime.tasks)
    assert result.sim_time == result.makespan == last_finish
    # Without the scheduler's hold, "only daemons left" strands them.
    naive = spec.build()
    naive.sim._holds.clear()
    assert naive.execute().tasks_finished < 12


_CAPS = (2_000.0, 10_000_000.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_tasks=st.integers(1, 10),
       machines=st.integers(1, 4), max_cores=st.integers(1, 2),
       autoscaler=st.sampled_from([None, "react", "adapt", "hist", "reg",
                                   "conpaas"]),
       interval=st.sampled_from([3.0, 50.0]),
       portfolio=st.sampled_from([(), ("sjf",), ("sjf", "edf")]),
       slos=st.booleans())
def test_drained_result_is_independent_of_max_time(
        seed, n_tasks, machines, max_cores, autoscaler, interval,
        portfolio, slos):
    data = ScenarioSpec(
        name="drain", seed=seed,
        topology=TopologySpec(clusters=(
            ClusterSpec("c", machines, cores=2, machines_per_rack=2),)),
        workload=WorkloadSpec("uniform-tasks", {
            "n_tasks": n_tasks, "runtime": [2.0, 30.0],
            "cores": [1, max_cores], "submit": [0.0, 40.0],
            "prefix": "d"}),
        slos=(SLOSpec(objectives=(ObjectiveSpec("queue-wait", {
            "name": "fast-start", "threshold": 10.0, "target": 0.9}),))
              if slos else None)).to_dict()
    if autoscaler is not None:
        data["autoscaler"] = {"policy": autoscaler, "interval": interval}
    data["scheduler"]["portfolio"] = list(portfolio)
    spec = ScenarioSpec.from_dict(data)
    # Same spec (same fingerprint), two safety caps.
    results = [spec.build(max_time=cap).execute() for cap in _CAPS]
    assume(results[0].sim_time < _CAPS[0])
    assert results[0].digest() == results[1].digest()


def test_tasks_reach_terminal_states(full_spec):
    runtime = full_spec.build()
    runtime.execute()
    terminal = {TaskState.FINISHED, TaskState.FAILED, TaskState.SHED}
    assert all(task.state in terminal for task in runtime.tasks)
