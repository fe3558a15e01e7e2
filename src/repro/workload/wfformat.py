"""WfCommons WfFormat importer: published workflow instances as workloads.

WfCommons distributes real workflow traces (Montage, Epigenomics,
LIGO/Inspiral, ...) as WfFormat JSON documents — tasks with
parent/child edges, the files they read and write, and per-task
execution measurements.  This module compiles such a document into the
repo's :class:`~repro.workload.workflow.Workflow` model so any
published instance replays through the scenario kernel
(``python -m repro run --spec``) with a pinned digest.

Supported subset (WfFormat schema v1.5):

- ``workflow.specification.tasks``: ``id``, ``name``, ``parents``,
  ``children``, ``inputFiles``, ``outputFiles``.
- ``workflow.specification.files``: ``id``, ``sizeInBytes``.
- ``workflow.execution.tasks``: ``id``, ``runtimeInSeconds``,
  ``coreCount``, ``memoryInBytes``.

Everything else (machines, authors, timestamps) is ignored.  File
sizes become :attr:`~repro.workload.task.Task.input_files` /
``output_files`` entries, which the datacenter's
:class:`~repro.datacenter.datastore.DataStore` turns into stage-in
transfer time — so data-aware placement policies can exploit the
instance's real data-flow structure.

Malformed documents raise :class:`WfFormatError` carrying the
offending task id.  It is a :class:`~repro.errors.SpecError`, so the
CLI maps it to the same ``error: ... / exit 2`` surface as every other
scenario-spec error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import SpecError
from .task import Task
from .workflow import Workflow

__all__ = ["WfFormatError", "load_wfformat", "wfformat_workflow",
           "scenario_from_wfformat"]

#: Bytes per GiB — WfFormat reports memory in bytes, Task.memory is GiB.
_GIB = float(2 ** 30)


class WfFormatError(SpecError):
    """A WfFormat document is malformed.

    Attributes:
        task_id: Id of the offending task, when one can be named.
    """

    def __init__(self, message: str, task_id: str | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id


def load_wfformat(source: Union[str, Path, dict]) -> dict:
    """Load a WfFormat document from a dict, JSON text, or file path.

    A ``dict`` passes through unchanged; a string containing ``{`` or a
    newline is parsed as JSON text; anything else is treated as a path.
    Raises :class:`WfFormatError` on unparseable JSON or a document
    without the ``workflow`` section.
    """
    if isinstance(source, dict):
        document = source
    else:
        text = str(source)
        if not ("{" in text or "\n" in text):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise WfFormatError(
                    f"cannot read WfFormat file {source!s}: {exc}") from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WfFormatError(f"invalid WfFormat JSON: {exc}") from exc
    if not isinstance(document, dict) or "workflow" not in document:
        raise WfFormatError(
            "not a WfFormat document: missing top-level 'workflow' section")
    return document


def _file_sizes(specification: dict) -> dict[str, float]:
    sizes: dict[str, float] = {}
    for entry in specification.get("files", []):
        file_id = str(entry.get("id", ""))
        if not file_id:
            raise WfFormatError("file entry without an 'id'")
        size = float(entry.get("sizeInBytes", 0.0))
        if size < 0:
            raise WfFormatError(
                f"file {file_id!r} has negative sizeInBytes {size}")
        sizes[file_id] = size
    return sizes


def _task_files(entry: dict, key: str, sizes: dict[str, float],
                task_id: str) -> dict[str, float]:
    files: dict[str, float] = {}
    for file_id in entry.get(key, []):
        file_id = str(file_id)
        if file_id not in sizes:
            raise WfFormatError(
                f"task {task_id!r} references undeclared file {file_id!r}",
                task_id=task_id)
        files[file_id] = sizes[file_id]
    return files


def wfformat_workflow(document: Union[str, Path, dict], *,
                      runtime_scale: float = 1.0,
                      submit_time: float = 0.0,
                      default_runtime: float = 1.0,
                      default_cores: int = 1,
                      default_memory: float = 1.0) -> Workflow:
    """Compile a WfFormat document into a :class:`Workflow`.

    Tasks are created in a deterministic topological order (Kahn's
    algorithm seeded and expanded in declaration order), so the same
    document always yields the same workflow — and therefore the same
    scenario digest.

    Args:
        document: WfFormat dict, JSON text, or file path.
        runtime_scale: Multiplier applied to every measured runtime
            (time-scaling a large instance down for fast replay).
        submit_time: Submit time of the resulting workflow job.
        default_runtime: Runtime for tasks without execution data.
        default_cores: Core count for tasks without execution data.
        default_memory: Memory (GiB) for tasks without execution data.

    Raises:
        WfFormatError: Unknown parents, cyclic dependencies, undeclared
            or negative-size files — each naming the offending task id.
    """
    document = load_wfformat(document)
    if runtime_scale <= 0:
        raise WfFormatError(
            f"runtime_scale must be positive, got {runtime_scale}")
    section = document.get("workflow", {})
    specification = section.get("specification", section)
    spec_tasks = specification.get("tasks", [])
    if not spec_tasks:
        raise WfFormatError("WfFormat document declares no tasks")
    sizes = _file_sizes(specification)
    execution = {str(entry.get("id", "")): entry
                 for entry in section.get("execution", {}).get("tasks", [])}

    entries: dict[str, dict] = {}
    order: list[str] = []
    for entry in spec_tasks:
        task_id = str(entry.get("id", ""))
        if not task_id:
            raise WfFormatError("task entry without an 'id'")
        if task_id in entries:
            raise WfFormatError(f"duplicate task id {task_id!r}",
                                task_id=task_id)
        entries[task_id] = entry
        order.append(task_id)

    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {tid: [] for tid in order}
    for task_id in order:
        declared = [str(p) for p in entries[task_id].get("parents", [])]
        for parent in declared:
            if parent not in entries:
                raise WfFormatError(
                    f"task {task_id!r} names unknown parent {parent!r}",
                    task_id=task_id)
            children[parent].append(task_id)
        parents[task_id] = declared

    # Deterministic Kahn order: frontier seeded in declaration order,
    # children appended in declaration order, FIFO expansion.
    indegree = {tid: len(parents[tid]) for tid in order}
    frontier = [tid for tid in order if indegree[tid] == 0]
    topo: list[str] = []
    cursor = 0
    while cursor < len(frontier):
        current = frontier[cursor]
        cursor += 1
        topo.append(current)
        for child in children[current]:
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
    if len(topo) != len(order):
        stuck = next(tid for tid in order if indegree[tid] > 0)
        raise WfFormatError(
            f"cyclic dependencies: task {stuck!r} never becomes eligible",
            task_id=stuck)

    name = str(document.get("name", "wfformat"))
    workflow = Workflow(name, submit_time=submit_time)
    built: dict[str, Task] = {}
    for task_id in topo:
        entry = entries[task_id]
        measured = execution.get(task_id, {})
        runtime = float(measured.get("runtimeInSeconds", default_runtime))
        if runtime < 0:
            raise WfFormatError(
                f"task {task_id!r} has negative runtimeInSeconds {runtime}",
                task_id=task_id)
        cores = int(measured.get("coreCount", default_cores))
        memory_bytes = measured.get("memoryInBytes")
        memory = (float(memory_bytes) / _GIB if memory_bytes is not None
                  else default_memory)
        task = Task(
            runtime=runtime * runtime_scale,
            cores=max(1, cores),
            memory=memory,
            submit_time=submit_time,
            name=task_id,
            kind=str(entry.get("name", "wfformat")),
            input_files=_task_files(entry, "inputFiles", sizes, task_id),
            output_files=_task_files(entry, "outputFiles", sizes, task_id),
        )
        workflow.add_task(task, [built[p] for p in parents[task_id]])
        built[task_id] = task
    return workflow


def scenario_from_wfformat(document: Union[str, Path, dict], *,
                           name: str | None = None,
                           seed: int = 42,
                           machines: int = 8,
                           cores: int = 8,
                           link_bandwidth: float = 1.0e8,
                           runtime_scale: float = 1.0,
                           placement: str = "data-local"):
    """Wrap a WfFormat document in a runnable ``ScenarioSpec``.

    The document is embedded inline in the spec (``params.document``),
    so the resulting spec file is self-contained and digest-pinnable.
    ``placement`` defaults to the data-locality policy so the
    instance's file structure actually shapes placement, and the
    default ``link_bandwidth`` (100 MB/s) is slow enough that transfer
    time is visible next to task runtimes.
    """
    # Imported lazily: scenario.spec imports this module's builders.
    from ..scenario.spec import (
        ClusterSpec,
        ScenarioSpec,
        SchedulerSpec,
        TopologySpec,
        WorkloadSpec,
    )

    document = load_wfformat(document)
    wfformat_workflow(document)  # validate eagerly: fail at build time
    return ScenarioSpec(
        name=name or str(document.get("name", "wfformat")),
        seed=seed,
        topology=TopologySpec(clusters=(
            ClusterSpec(name="cluster-0", machines=machines, cores=cores,
                        link_bandwidth=link_bandwidth),)),
        workload=WorkloadSpec(kind="wfformat", params={
            "document": document,
            "runtime_scale": runtime_scale,
        }),
        scheduler=SchedulerSpec(placement=placement),
    )
