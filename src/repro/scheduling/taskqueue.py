"""An index-backed waiting queue with incremental service ordering.

The scheduler's waiting queue historically was a plain list: O(n)
``remove`` on every task start, and a full ``sorted()`` of the queue on
every scheduling round.  Under a 10k-task backlog those two costs
dominate the whole simulation.  :class:`TaskQueue` replaces the list
with:

- a membership dict (O(1) ``in``/``remove``/``len``);
- an insertion-ordered entry deque using *tombstones* — removal marks
  the entry dead instead of shifting the tail, and dead entries are
  swept in amortized batches;
- an optional *incrementally sorted view*: when the active queue policy
  has a time-invariant sort key (FCFS, SJF, ...), entries are kept
  sorted by ``bisect.insort`` at enqueue time, so a scheduling round
  reads the service order instead of recomputing it.  Full rebuilds
  (policy swaps on a deep backlog) go through a numpy ``lexsort`` over
  the preextracted key columns instead of a Python ``sorted()``.

Order semantics are exactly those of the old list: iteration yields
live tasks in insertion order, and the sorted view equals
``sorted(queue, key=...)`` (keys embed ``task_id``, so they are unique
and stability never matters).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Callable, Iterable, Iterator, Optional

import numpy as _np

from ..workload.task import Task

__all__ = ["TaskQueue"]

#: Sweep dead entries once they outnumber live ones beyond this floor.
_COMPACT_FLOOR = 64

#: Full rebuilds switch from sorted() to a numpy lexsort over the key
#: columns at this size.
_LEXSORT_FLOOR = 256


def _sort_items(items: list[tuple]) -> list[tuple]:
    """Sort ``(key, seq, entry)`` items, vectorizing large rebuilds.

    Keys are tuples of uniform width whose components are numeric
    (in-tree policy keys are floats and small ints, all exact in
    float64; keys embed ``task_id``, so they are unique and ties cannot
    arise).  A lexsort over the transposed key columns therefore
    produces exactly ``sorted(items)``.  Anything that does not fit
    that shape — ragged widths, non-numeric components, huge ints —
    falls back to ``sorted()``.
    """
    if len(items) < _LEXSORT_FLOOR:
        return sorted(items)
    width = len(items[0][0])
    keys = [item[0] for item in items]
    if any(len(key) != width for key in keys):
        return sorted(items)
    try:
        columns = [_np.asarray(column, dtype=_np.float64)
                   for column in zip(*keys)]
    except (TypeError, ValueError, OverflowError):
        return sorted(items)
    for column, raw in zip(columns, zip(*keys)):
        # Refuse lossy conversions (e.g. ints beyond 2**53): a
        # collapsed column could reorder ties differently than
        # sorted() would.
        if any(stored != original
               for stored, original in zip(column.tolist(), raw)):
            return sorted(items)
    order = _np.lexsort(columns[::-1])
    return [items[i] for i in order]


class _Entry:
    """One queue slot; ``alive`` is cleared instead of unlinking."""

    __slots__ = ("task", "seq", "alive")

    def __init__(self, task: Task, seq: int) -> None:
        self.task = task
        self.seq = seq
        self.alive = True


class TaskQueue:
    """Waiting-queue container used by :class:`ClusterScheduler`.

    Supports the list-like surface external code relies on (``in``,
    ``len``, truthiness, iteration, ``append``/``extend``/``remove``)
    plus :meth:`ordered`, which returns the service order under the
    key installed with :meth:`set_key` (or insertion order without one).
    """

    def __init__(self, key: Optional[Callable[[Task], tuple]] = None) -> None:
        self._entries: deque[_Entry] = deque()
        self._live: dict[Task, _Entry] = {}
        self._seq = 0
        self._dead = 0
        self._key: Optional[Callable[[Task], tuple]] = None
        self._sorted: list[tuple] = []
        self._sorted_dead = 0
        if key is not None:
            self.set_key(key)

    # ------------------------------------------------------------------
    # List-like surface
    # ------------------------------------------------------------------
    def append(self, task: Task) -> None:
        """Enqueue ``task`` (must not already be queued)."""
        if task in self._live:
            raise ValueError(f"task {task.name} is already queued")
        entry = _Entry(task, self._seq)
        self._seq += 1
        self._live[task] = entry
        self._entries.append(entry)
        if self._key is not None:
            insort(self._sorted, (self._key(task), entry.seq, entry))

    def extend(self, tasks: Iterable[Task]) -> None:
        """Enqueue several tasks in order."""
        for task in tasks:
            self.append(task)

    def remove(self, task: Task) -> None:
        """Dequeue ``task``; raises ``ValueError`` if absent (like list)."""
        entry = self._live.pop(task, None)
        if entry is None:
            raise ValueError(f"task {task!r} is not queued")
        entry.alive = False
        self._dead += 1
        self._sorted_dead += 1
        if self._dead > _COMPACT_FLOOR and self._dead > len(self._live):
            self._compact()

    def __contains__(self, task: object) -> bool:
        return task in self._live

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __iter__(self) -> Iterator[Task]:
        """Live tasks in insertion order."""
        for entry in self._entries:
            if entry.alive:
                yield entry.task

    # ------------------------------------------------------------------
    # Ordered view
    # ------------------------------------------------------------------
    @property
    def has_key(self) -> bool:
        """Whether an incremental sort key is installed."""
        return self._key is not None

    def set_key(self, key: Optional[Callable[[Task], tuple]]) -> None:
        """Install (or clear) the incremental sort key.

        Rebuilds the sorted view from the live entries, so it is safe to
        call mid-stream when a portfolio scheduler swaps policies.
        """
        self._key = key
        if key is None:
            self._sorted = []
            self._sorted_dead = 0
            return
        self._sorted = _sort_items(
            [(key(entry.task), entry.seq, entry)
             for entry in self._entries if entry.alive])
        self._sorted_dead = 0

    def ordered(self) -> list[Task]:
        """Service order under the installed key (insertion order if none)."""
        if self._key is None:
            return list(self)
        if self._sorted_dead > _COMPACT_FLOOR and \
                self._sorted_dead > len(self._live):
            self._sorted = [item for item in self._sorted if item[2].alive]
            self._sorted_dead = 0
        return [item[2].task for item in self._sorted if item[2].alive]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Sweep tombstones out of the insertion-order deque."""
        self._entries = deque(e for e in self._entries if e.alive)
        self._dead = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskQueue {len(self._live)} queued>"
