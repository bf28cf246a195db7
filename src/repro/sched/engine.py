"""In-order-resource task DAG simulator.

The execution model matches the hardware the paper runs on:

* every :class:`Task` optionally occupies one named *resource* (the GPU
  compute stream, a DMA engine, the NIC, the CPU);
* each resource executes its tasks **in submission order** (a HIP stream,
  a link, and an MPI progression engine are all FIFO);
* a task starts when its dependencies have finished *and* the resource has
  retired everything submitted before it;
* tasks with ``resource=None`` are pure dependency nodes (zero-cost
  markers are the usual use).

Because real issue code enqueues work after its inputs exist, we require
the submission order to be a valid topological order (dependencies must be
submitted first); :func:`simulate` then resolves every start/end time in a
single pass, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScheduleError


@dataclass(eq=False, slots=True)
class Task:
    """One unit of work in the timeline DAG.

    Attributes:
        name: Human-readable label.
        duration: Seconds of busy time on ``resource``.
        resource: The in-order resource this task occupies, or ``None``.
        deps: Tasks that must finish first (must be submitted earlier).
        phase: Accounting label for the Fig. 7 breakdown: the simulator's
            ``FACT`` / ``MPI`` / ``TRANSFER`` / ``GPU``; a task a numeric
            run executed carries its step's label instead (``FACT`` /
            ``LBCAST`` / ``RS`` / ``UPDATE`` / ``TRANSFER``).
        tag: Free-form grouping key (we use the iteration index).
        start, end: Seconds from the run's origin, set by :func:`simulate`
            (or, for a numeric run, by the wall clock around its step).
        cpu: Thread CPU seconds a numeric run's step burned; ``end -
            start - cpu`` is its waiting.  The simulator leaves it 0.
        flops: Flops a numeric run's step executed (the rank's ``FLOPS``
            count across it); the simulator leaves it 0.
        nbytes: Host-device bytes a numeric run's ``d2h.*`` / ``h2d.*``
            step stands for (the name gives the direction); 0 otherwise.
    """

    name: str
    duration: float
    resource: str | None = None
    deps: tuple["Task", ...] = ()
    phase: str = ""
    tag: int = 0
    start: float = -1.0
    end: float = -1.0
    cpu: float = 0.0
    flops: float = 0.0
    nbytes: float = 0.0

    def __repr__(self) -> str:
        return (
            f"Task({self.name!r}, dur={self.duration:.3e}, res={self.resource}, "
            f"[{self.start:.3e}, {self.end:.3e}])"
        )


@dataclass
class TimelineResult:
    """Outcome of a simulation: scheduled tasks plus aggregates."""

    tasks: list[Task]
    makespan: float
    resource_busy: dict[str, float]
    _by_tag: dict[int, list[Task]] | None = None

    def tasks_tagged(self, tag: int) -> list[Task]:
        if self._by_tag is None:
            index: dict[int, list[Task]] = {}
            for t in self.tasks:
                index.setdefault(t.tag, []).append(t)
            self._by_tag = index
        return self._by_tag.get(tag, [])

    def span_of_tag(self, tag: int) -> tuple[float, float]:
        """(earliest start, latest end) over tasks with this tag."""
        sel = self.tasks_tagged(tag)
        if not sel:
            raise ScheduleError(f"no tasks tagged {tag}")
        return min(t.start for t in sel), max(t.end for t in sel)

    def busy_in_tag(self, tag: int, resource: str) -> float:
        return sum(
            t.duration for t in self.tasks_tagged(tag) if t.resource == resource
        )

    def phase_in_tag(self, tag: int, phase: str) -> float:
        return sum(t.duration for t in self.tasks_tagged(tag) if t.phase == phase)


def simulate(tasks: list[Task]) -> TimelineResult:
    """Resolve start/end times for ``tasks`` (submission order = list order).

    Raises:
        ScheduleError: if a dependency appears after its dependent, a
            duration is negative, or a task depends on an unknown task.
    """
    # Snapshot the submission list: the returned TimelineResult must not
    # alias a caller-owned list, or later caller-side appends would
    # silently skew span_of_tag/busy_in_tag through the lazy _by_tag
    # index and leave makespan out of sync with .tasks.
    tasks = list(tasks)
    index: dict[int, int] = {id(t): i for i, t in enumerate(tasks)}
    if len(index) != len(tasks):
        raise ScheduleError("duplicate task object in submission list")
    resource_free: dict[str, float] = {}
    for i, task in enumerate(tasks):
        if task.duration < 0:
            raise ScheduleError(f"negative duration on {task.name!r}")
        ready = 0.0
        for dep in task.deps:
            j = index.get(id(dep))
            if j is None:
                raise ScheduleError(
                    f"{task.name!r} depends on unsubmitted task {dep.name!r}"
                )
            if j >= i:
                raise ScheduleError(
                    f"{task.name!r} depends on later-submitted {dep.name!r}; "
                    "submission order must be topological"
                )
            ready = max(ready, dep.end)
        if task.resource is not None:
            ready = max(ready, resource_free.get(task.resource, 0.0))
        task.start = ready
        task.end = ready + task.duration
        if task.resource is not None:
            resource_free[task.resource] = task.end
    makespan = max((t.end for t in tasks), default=0.0)
    busy: dict[str, float] = {}
    for task in tasks:
        if task.resource is not None:
            busy[task.resource] = busy.get(task.resource, 0.0) + task.duration
    return TimelineResult(tasks=tasks, makespan=makespan, resource_busy=busy)
