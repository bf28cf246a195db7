"""Multiprocess worker pool: the lease protocol over a transport.

:class:`WorkerPool` is the one supervisor.  It *leases* ready jobs from
a coordinator -- ``claim_jobs`` a batch under a TTL, ``heartbeat`` while
children run, ``complete_job`` / ``fail_job`` each outcome -- and
executes every job in one of up to ``n`` *resident runner children*.
The coordinator is
either backend of the service facade (:mod:`repro.service.facade`), of
which the pool uses six calls (``claim_jobs``, ``heartbeat``,
``complete_job``, ``fail_job``, ``result``, ``counts``): a
:class:`~repro.service.http.ServiceClient` drains a remote ``repro
serve`` over HTTP, and :meth:`Service.run_workers
<repro.service.api.Service.run_workers>` / ``repro serve --workers``
hand the pool the :class:`~repro.service.api.Service` itself -- the
methods the HTTP routes call.  N hosts each running ``repro workers
--url http://coordinator:8400`` drain one queue and fill one
content-addressed result cache, which is how a sweep like the paper's
Fig. 8 stops being bounded by a single machine.

A runner child is forked when concurrency demands it, serves jobs over
its pipe one at a time, and is *reused only after a success*: the first
job on a child pays its runner's imports (~220 ms for ``sim``: numpy
and the simulator, never scipy), every later one only the work
(~2 ms).  It is retired -- terminated, never handed another job --
after an ``("error", traceback)``, a timeout, a crash, a lost lease,
:data:`MAX_JOBS_PER_CHILD` jobs, or a :func:`register_runner` call made
since it was forked, so a failed attempt never shares a process with a
later one.  The price is memory: a warm child holds ~37 MB (numpy + the
simulator; ~62 MB once a ``run`` job has loaded scipy) for the life of
the pool where a per-attempt child held it for one job.  Custom runners
must therefore not rely on a fresh interpreter per job (module globals,
caches and the working directory persist across the jobs of one child).

The supervisor's loop has one blocking point (:meth:`WorkerPool._wait`):
it sleeps on the pipes of its busy children -- a result, an error or a
death is reaped when it happens -- and on a wake socket that
:meth:`WorkerPool.wake` writes to, which a :class:`Service` does for the
pools it built whenever it logs a submit, a DAG release or a requeue.
The idle tick is only the timeout of that wait: it still paces
heartbeats and deadlines, and finds what no one announces -- another
process's submit to a shared workdir, a retry whose backoff ran out, a
lapsed lease, and every new job of a remote (``ServiceClient``) pool.

The child process buys three properties the service needs:

* **per-job timeout** -- the supervisor terminates a child that outlives
  ``job.timeout`` and the attempt counts as a failure;
* **crash isolation** -- a child that dies (unhandled exception, or even
  a hard crash) fails only its own attempt; the supervisor and the other
  workers keep draining;
* **bounded retry with exponential backoff** -- decided by the
  coordinator when an attempt is failed back (``fail_leased``): within
  ``job.max_retries`` the job returns to PENDING with
  ``not_before = now + backoff_base * 2**(attempts-1)``.

Failure model: if the supervisor dies (or the network partitions), its
heartbeats stop, the lease lapses, and the coordinator requeues the jobs
exactly once -- the same recovery for an embedded pool as for a remote
one.  A report that loses the race against lease expiry is rejected
(``lease_expired``) and the attempt is counted ``lost`` here, never
recorded twice there.  The result always crosses the pipe to the
supervisor and from there to the coordinator, which owns the cache.  A
child whose supervisor died exits at once, busy or not: an idle one sees
its pipe close, and a watchdog thread ends a busy one, whose result
could reach no one.  It holds none of the supervisor's sockets.

Runners -- the functions that turn a payload dict into a result dict --
are looked up by job kind in :data:`RUNNERS`.  The built-in kinds map
onto the existing entry points (``run`` -> :func:`repro.hpl.api.run_hpl`,
``sim`` -> :func:`repro.perf.hplsim.simulate_run`, ``scale`` ->
:func:`repro.perf.scaling.weak_scaling`, ``fact`` ->
:func:`repro.perf.factsim.fact_sweep`), each reading its payload
through its one parser in :data:`PARSERS`; ``probe`` jobs exercise the
pool itself (ok / sleep / crash / exit / flaky behaviours) and are used
by the test suite and as operational smoke tests.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import selectors
import socket
import stat
import threading
import time
import traceback
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Callable

from ..config import (BcastVariant, HPLConfig, PerfConfig, Schedule,
                      SwapVariant)
from ..errors import (ConfigError, LeaseConflictError, ResultTooLargeError,
                      ServiceError, UnknownJobError, UnknownJobKindError)
from .dag import has_placeholders, needs_parent_results, resolve_payload
from .jobs import Job, JobState

Runner = Callable[[dict, Job], dict]

RUNNERS: dict[str, Runner] = {}

#: Bumped by :func:`register_runner`.  A runner child holds the copy of
#: :data:`RUNNERS` it was forked with, so the pool retires idle children
#: forked under an older version instead of handing them a job.
_registry_version = 0

#: Jobs one runner child serves before it is retired, so a leaking
#: runner cannot grow for the life of the pool.
MAX_JOBS_PER_CHILD = 1000


@dataclass(frozen=True)
class WorkerOptions:
    """Every worker-pool knob, in one bundle shared by all entry points.

    :meth:`Service.run_workers`, ``repro serve --workers`` and the
    ``repro workers`` CLI command all hand :class:`WorkerPool` this
    dataclass.  ``n`` is the number of child slots, ``lease_ttl`` the
    claim TTL (heartbeats fire at half-TTL while any child of that
    lease is still running) and ``poll_interval`` the idle poll's
    starting delay.
    """

    n: int = 2
    drain: bool = True
    max_seconds: float | None = None
    poll_interval: float = 0.02
    lease_ttl: float = 30.0

    def replace(self, **changes) -> "WorkerOptions":
        return _dc_replace(self, **changes)


def register_runner(kind: str, fn: Runner) -> None:
    """Register (or replace) the runner for a job kind."""
    global _registry_version
    RUNNERS[kind] = fn
    _registry_version += 1


def runner_for(kind: str) -> Runner:
    try:
        return RUNNERS[kind]
    except KeyError:
        raise UnknownJobKindError(
            f"no runner registered for job kind {kind!r}"
            f" (known: {', '.join(sorted(RUNNERS))})"
        ) from None


# ---------------------------------------------------------------------------
# Built-in runners
# ---------------------------------------------------------------------------


def _run_runner(payload: dict, job: Job) -> dict:
    """Numeric HPL run on the simulated-MPI runtime."""
    from ..hpl.api import run_hpl

    cfg = HPLConfig.from_dict(payload)
    result = run_hpl(cfg)
    return {
        "n": cfg.n, "nb": cfg.nb, "p": cfg.p, "q": cfg.q,
        "resid": result.resid,
        "passed": result.passed,
        "wall_seconds": result.wall_seconds,
        "tflops": cfg.total_flops / result.wall_seconds / 1e12,
    }


# Each built-in kind has one payload parser (:data:`PARSERS`), called by
# its runner and by the server at submit, so none may import numpy
# (``repro.config`` does not).  Keys a parser does not name are ignored.

def sim_config(payload: dict) -> PerfConfig:
    """The :class:`PerfConfig` a ``sim`` payload describes.

    A missing field, a wrongly typed value or an unknown variant name is
    a :class:`ConfigError`, like any value the config itself rejects.
    """
    try:
        return PerfConfig(
            n=payload["n"], nb=payload["nb"], p=payload["p"], q=payload["q"],
            pl=payload.get("pl") or payload["p"],
            ql=payload.get("ql") or payload["q"],
            schedule=Schedule(payload.get("schedule", "split")),
            split_fraction=payload.get("split_fraction", 0.5),
            bcast=BcastVariant(payload.get("bcast", "1ringM")),
            swap=SwapVariant(payload.get("swap", "long")),
            swap_threshold=payload.get("swap_threshold", 64),
            fact_threads=payload.get("fact_threads", 0),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"invalid sim payload: {type(exc).__name__}: {exc}"
        ) from None


def _count(name: str, value) -> int:
    if type(value) is not int or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def scale_args(payload: dict) -> dict:
    """The :func:`~repro.perf.scaling.weak_scaling` arguments of a
    ``scale`` payload: one node count, ``nnodes``."""
    try:
        schedule = Schedule(payload.get("schedule", "split"))
    except ValueError as exc:
        raise ConfigError(f"invalid scale payload: {exc}") from None
    return {"node_counts": [_count("nnodes", payload.get("nnodes"))],
            "n_single": _count("n_single", payload.get("n_single", 256_000)),
            "nb": _count("nb", payload.get("nb", 512)), "schedule": schedule}


def fact_args(payload: dict) -> dict:
    """The :func:`~repro.perf.factsim.fact_sweep` arguments of a
    ``fact`` payload; an absent list means the sweep's default."""
    args = {"nb": _count("nb", payload.get("nb", 512))}
    for key in ("m_multiples", "thread_counts"):
        values = args[key] = payload.get(key)
        if values is None:
            continue
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{key} must be a non-empty list, got {values!r}")
        for value in values:
            _count(key, value)
    return args


def reduce_args(payload: dict) -> tuple[str, str]:
    """``(metric, mode)`` of a ``reduce`` payload: the parent result
    field to rank by, and ``max`` (the default) or ``min``."""
    metric, mode = payload.get("metric"), payload.get("mode", "max")
    if not isinstance(metric, str) or not metric:
        raise ConfigError(f"reduce needs a 'metric' to rank by, got {metric!r}")
    if mode not in ("max", "min"):
        raise ConfigError(f"reduce mode must be 'max' or 'min', got {mode!r}")
    return metric, mode


def _sim_runner(payload: dict, job: Job) -> dict:
    """Performance simulation of one full-size run (Fig. 7 machinery)."""
    from ..machine.frontier import crusher_cluster
    from ..perf.hplsim import simulate_run

    cfg = sim_config(payload)
    nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
    report = simulate_run(cfg, crusher_cluster(nodes))
    return {
        "n": cfg.n, "nb": cfg.nb, "p": cfg.p, "q": cfg.q, "nodes": nodes,
        "score_tflops": report.score_tflops,
        "makespan": report.makespan,
        "hidden_time_fraction": report.hidden_time_fraction,
        "hidden_iteration_fraction": report.hidden_iteration_fraction,
        "iterations": len(report.k),
    }


def _scale_runner(payload: dict, job: Job) -> dict:
    """One node count of the Fig. 8 weak-scaling sweep."""
    from ..perf.scaling import weak_scaling

    point = weak_scaling(**scale_args(payload))[0]
    return {
        "nnodes": point.nnodes, "n": point.n, "p": point.p, "q": point.q,
        "tflops": point.tflops,
        "makespan": point.report.makespan,
        "hidden_time_fraction": point.report.hidden_time_fraction,
    }


def _fact_runner(payload: dict, job: Job) -> dict:
    """The Fig. 5 FACT multi-threading sweep on the CPU panel model."""
    from ..perf.factsim import fact_sweep

    args = fact_args(payload)
    curves = fact_sweep(**args)
    return {
        "nb": args["nb"],
        "curves": [
            {"threads": c.threads, "m_values": c.m_values,
             "gflops": c.gflops}
            for c in curves
        ],
    }


def _reduce_runner(payload: dict, job: Job) -> dict:
    """Pick the winning parent by a result metric (campaign stage 2).

    The pool injects ``job.parent_results`` before launch (a reduce job
    only ever runs after all its parents are DONE).  The payload names
    the ``metric`` to rank by and the ``mode`` (:func:`reduce_args`);
    the result carries the winning parent's id and payload so
    downstream ``$winner`` placeholders can be resolved from it.
    """
    metric, mode = reduce_args(payload)
    parents = job.parent_results or {}
    if not parents:
        raise ServiceError(
            "reduce job has no parent results (was it submitted with"
            " depends_on?)"
        )
    ranked = [
        (pid, info) for pid, info in sorted(parents.items())
        if isinstance(info.get("result"), dict)
        and metric in info["result"]
    ]
    if not ranked:
        raise ServiceError(
            f"no parent result carries metric {metric!r}"
        )
    pick = max if mode == "max" else min
    winner_id, winner = pick(ranked, key=lambda kv: kv[1]["result"][metric])
    return {
        "metric": metric,
        "mode": mode,
        "value": winner["result"][metric],
        "winner_job": winner_id,
        "winner_payload": winner["payload"],
        "candidates": len(ranked),
    }


def _probe_runner(payload: dict, job: Job) -> dict:
    """Pool self-test job: behaves as its payload instructs."""
    behavior = payload.get("behavior", "ok")
    if behavior == "ok":
        return {"ok": True, "attempt": job.attempts, "pid": os.getpid()}
    if behavior == "echo":
        # Returns the payload itself (sans ``behavior``) -- gives DAG
        # and reduce tests a metric-bearing result without running a
        # simulation.
        return {k: v for k, v in payload.items() if k != "behavior"}
    if behavior == "sleep":
        time.sleep(float(payload.get("seconds", 1.0)))
        return {"ok": True, "slept": payload.get("seconds", 1.0)}
    if behavior == "crash":
        raise RuntimeError(payload.get("message", "probe crash"))
    if behavior == "exit":
        os._exit(int(payload.get("code", 1)))  # a hard crash: no report
    if behavior == "flaky":
        # Fails the first `fail_times` attempts, then succeeds -- used to
        # verify the retry path end-to-end.
        fail_times = int(payload.get("fail_times", 1))
        if job.attempts <= fail_times:
            raise RuntimeError(
                f"flaky probe failing attempt {job.attempts}/{fail_times}"
            )
        return {"ok": True, "attempt": job.attempts}
    if behavior == "hang_once":
        # Sleeps (only) on the first attempt -- lets recovery tests kill
        # a supervisor mid-job and watch the retry complete promptly.
        if job.attempts <= 1:
            time.sleep(float(payload.get("seconds", 60.0)))
        return {"ok": True, "attempt": job.attempts}
    raise ServiceError(f"unknown probe behavior {behavior!r}")


RUNNERS.update({
    "run": _run_runner,
    "sim": _sim_runner,
    "scale": _scale_runner,
    "fact": _fact_runner,
    "reduce": _reduce_runner,
    "probe": _probe_runner,
})

#: The payload parser of each built-in kind that has one.
PARSERS: dict[str, Callable[[dict], object]] = {
    "run": HPLConfig.from_dict,
    "sim": sim_config,
    "scale": scale_args,
    "fact": fact_args,
    "reduce": reduce_args,
}


# ---------------------------------------------------------------------------
# Child process entry point
# ---------------------------------------------------------------------------


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket this forked child inherited, except ``keep``.

    A resident child would otherwise hold the coordinator's listening
    socket (and every accepted connection) for the life of the pool, so
    a restarted ``repro serve`` could not bind its port while an orphan
    lived.  The supervisor's ends of its *other* children's pipes are
    sockets too: closing those copies is what makes pipe EOF mean "my
    supervisor is gone" for every child.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # no fd directory: nothing to enumerate
        return
    for fd in fds:
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass  # the listing's own descriptor, already closed


#: Seconds between a runner child's checks that its supervisor lives.
ORPHAN_POLL_S = 0.1


def _exit_when_orphaned(supervisor: int) -> None:
    """End this child once ``supervisor`` is gone, busy or not.

    A dead process's children are re-parented, so ``getppid()`` changes.
    The job in hand can report to no one (its lease lapses and the
    coordinator requeues it), so dropping it loses nothing.
    """
    while os.getppid() == supervisor:
        time.sleep(ORPHAN_POLL_S)
    os._exit(1)


def _child_main(conn) -> None:
    """Serve leased jobs from ``conn`` until told to stop or orphaned.

    Each ``Job`` received is answered with ``("ok", result)`` (the
    supervisor hands the result to the coordinator, which owns the
    cache) or, on a Python exception, ``("error", traceback)`` -- after
    which the child exits, because the supervisor never reuses a child
    that failed.  A hard crash sends nothing: the supervisor treats a
    dead, silent child as a failure.  EOF (the supervisor died), a
    ``None`` sentinel or an interrupt while idle ends the child quietly;
    a supervisor that dies mid-job ends it through its watchdog.
    """
    # A forked child inherits every other thread's objects but not the
    # threads.  Their sqlite connections are garbage here, and closing
    # one waits forever on any mutex its thread held at the instant of
    # the fork.  The supervisor forks with everything frozen
    # (WorkerPool._spawn); freezing again here parks what the start-up
    # made too, so no collection in this process ever finalizes
    # inherited objects; each job's own garbage is still collected.
    gc.freeze()
    _close_inherited_sockets(keep=conn.fileno())
    # Should the supervisor die before this line, the pipe's EOF ends
    # the still idle child instead.
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="orphan-watchdog", daemon=True).start()
    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return
            if job is None:
                return
            try:
                conn.send(("ok", runner_for(job.kind)(job.payload, job)))
            except BaseException:
                try:
                    conn.send(("error", traceback.format_exc()))
                except BaseException:
                    pass  # the supervisor is gone too
                return
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


@dataclass
class _Child:
    """One resident runner process and the supervisor's end of its pipe."""

    process: multiprocessing.Process
    conn: object  # a multiprocessing Connection
    version: int  # the registry version it was forked under
    jobs: int = 0  # jobs handed to it so far


@dataclass
class _Slot:
    """One in-flight leased job: its child, deadline and owning lease."""

    job: Job
    child: _Child
    deadline: float  # 0 = no timeout
    lease_id: str


@dataclass
class PoolSummary:
    """What one :meth:`WorkerPool.run` call did.

    ``completed`` / ``retried`` / ``failed`` count attempts by what the
    coordinator made of the report (DONE, back to PENDING within the
    retry budget, FAILED).  ``lost`` counts attempts whose report the
    coordinator rejected with ``lease_expired``/``conflict`` (it had
    already requeued the job) or that could not be reported at all --
    never double-recorded work.  Jobs the coordinator fulfilled from
    the cache at claim time never reach the pool and are not counted.
    ``spawned`` counts the runner children forked: well below
    ``claimed`` when children are being reused.
    """

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    lost: int = 0
    spawned: int = 0
    counts: dict = field(default_factory=dict)


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Backoff:
    """Exponential backoff with jitter; resets on observed progress.

    Paces a worker pool's idle poll (see :meth:`WorkerPool.run`).
    """

    def __init__(self, initial: float, maximum: float, factor: float,
                 jitter: float, rng: random.Random) -> None:
        self.initial = initial
        self.maximum = maximum
        self.factor = factor
        self.jitter = jitter
        self.rng = rng
        self.delay = initial

    def next_delay(self, progressed: bool) -> float:
        if progressed:
            self.delay = self.initial
        else:
            self.delay = min(self.delay * self.factor, self.maximum)
        # uniform jitter in [1 - j, 1 + j] around the nominal delay
        return self.delay * (1.0 + self.jitter * (2.0 * self.rng.random() - 1.0))


class WorkerPool:
    """Lease-driven supervisor with ``options.n`` child slots.

    ``coordinator`` is a :class:`~repro.service.api.Service` or a
    :class:`~repro.service.http.ServiceClient`; the pool calls
    ``claim_jobs(worker, n=, ttl=)``, ``heartbeat(lease_id, ttl=)``,
    ``complete_job(job_id, lease_id, result)``, ``fail_job(job_id,
    lease_id, error)``, ``result(job_id)`` and ``counts()`` on it, and
    reads its ``poll_backoff`` growth factor for the idle poll (1.0 in
    process: an empty claim is one local query, so the poll stays flat
    at ``poll_interval``; 2.0 over HTTP: each one is a round-trip, so
    the poll backs off).  The poll delay is the longest the pool waits,
    not how long: see :meth:`_wait` and :meth:`wake`.
    """

    def __init__(self, coordinator, options: WorkerOptions | None = None,
                 worker: str | None = None) -> None:
        self.options = options or WorkerOptions()
        if self.options.n < 1:
            raise ServiceError(
                f"nworkers must be >= 1, got {self.options.n}"
            )
        self.coordinator = coordinator
        self.worker = worker or default_worker_name()
        self._slots: list[_Slot] = []
        # Idle children, warmest last: reuse pops the one that ran most
        # recently, and a cold one is forked only when every live child
        # is busy.  len(_slots) + len(_idle) never exceeds options.n.
        self._idle: list[_Child] = []
        self._leases: dict[str, float] = {}  # lease id -> expiry time
        # The wake socket pair (read end, write end); open while run() is.
        self._wake_r = self._wake_w = None
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )

    # -- coordinator calls with retry ------------------------------------

    def _with_retries(self, fn, *args, attempts: int = 4, **kwargs):
        """Call the coordinator, retrying transient failures.

        Lease/job-state rejections (``lease_expired``, ``conflict``,
        ``unknown_job``) and an oversized result (``too_large``) are
        *not* transient and re-raise immediately; anything else
        service-shaped (an unreachable server, a wedged store) is
        retried with exponential backoff and then re-raised.
        """
        delay = 0.1
        for attempt in range(attempts):
            try:
                return fn(*args, **kwargs)
            except (LeaseConflictError, UnknownJobError, ResultTooLargeError):
                raise
            except ServiceError:
                if attempt == attempts - 1:
                    raise
                time.sleep(delay)
                delay *= 2

    # -- slot management -------------------------------------------------

    def _spawn(self, summary: PoolSummary) -> _Child:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_child_main, args=(child_conn,),
            name=f"{self.worker}-runner", daemon=True,
        )
        # Everything alive at the fork is frozen in the child from its
        # first instruction: no collection in it, automatic ones during
        # the start-up before _child_main included, can finalize what
        # another thread owned (see _child_main).  Only this fork is
        # affected, and the parent gets its generations back at once.
        gc.freeze()
        try:
            proc.start()
        finally:
            gc.unfreeze()
        child_conn.close()
        summary.spawned += 1
        return _Child(proc, parent_conn, _registry_version)

    def _idle_child(self, summary: PoolSummary) -> _Child:
        """The warmest usable idle child, or a newly forked one."""
        while self._idle:
            child = self._idle.pop()
            if child.version == _registry_version \
                    and child.process.is_alive():
                return child
            self._retire(child)
        return self._spawn(summary)

    def _launch(self, job: Job, lease_id: str,
                summary: PoolSummary) -> None:
        child = self._idle_child(summary)
        try:
            child.conn.send(job)
        except OSError:
            # It died idle and never saw the job: not a failed attempt.
            self._retire(child)
            child = self._spawn(summary)
            child.conn.send(job)
        child.jobs += 1
        deadline = time.time() + job.timeout if job.timeout > 0 else 0.0
        self._slots.append(_Slot(job, child, deadline, lease_id))

    def _report(self, job: Job, lease_id: str, summary: PoolSummary,
                error: str | None, result: dict | None,
                attempts: int = 4) -> None:
        try:
            if error is None and result is not None:
                try:
                    self._with_retries(self.coordinator.complete_job, job.id,
                                       lease_id, result, attempts=attempts)
                except ResultTooLargeError as exc:
                    # The same result would be refused again: the
                    # attempt failed, with the refusal as its error.
                    error = str(exc)
                else:
                    summary.completed += 1
                    return
            view = self._with_retries(
                self.coordinator.fail_job, job.id, lease_id,
                error or "worker child died without reporting",
                attempts=attempts,
            )
        except ServiceError:
            # The coordinator refused the report (lease lapsed, job
            # requeued/completed elsewhere) or stayed unreachable: the
            # lease-expiry sweep owns the job now.  Never retried here,
            # so the job cannot be recorded twice.
            summary.lost += 1
            return
        if view.state == JobState.PENDING.value:
            summary.retried += 1
        else:
            summary.failed += 1

    @staticmethod
    def _retire(child: _Child) -> None:
        """Stop a child for good; it is never handed another job."""
        if child.process.is_alive():
            child.process.terminate()
            child.process.join(timeout=5.0)
            if child.process.is_alive():  # pragma: no cover
                child.process.kill()
                child.process.join()
        child.conn.close()

    def _reap(self, summary: PoolSummary) -> None:
        now = time.time()
        live: list[_Slot] = []
        for slot in self._slots:
            child = slot.child
            # A ready pipe is drained even while the child is alive: a
            # result larger than the OS pipe buffer keeps the child
            # blocked in ``send`` until the supervisor reads it.
            if not child.conn.poll() and child.process.is_alive():
                if slot.deadline and now >= slot.deadline:
                    self._retire(child)
                    self._report(
                        slot.job, slot.lease_id, summary,
                        f"timeout: exceeded {slot.job.timeout:.3g}s", None,
                    )
                else:
                    live.append(slot)
                continue
            try:
                status, body = child.conn.recv()
            except (EOFError, OSError):
                status = None  # the pipe closed without a report
            if status == "ok" and child.jobs < MAX_JOBS_PER_CHILD:
                self._idle.append(child)
            else:
                if status != "ok":  # it is exiting, or already has
                    child.process.join(timeout=5.0)
                self._retire(child)
            if status == "ok":
                error, result = None, body
            elif status == "error":
                error, result = body, None
            else:
                error, result = ("worker child crashed"
                                 f" (exit code {child.process.exitcode})"), None
            self._report(slot.job, slot.lease_id, summary, error, result)
        self._slots = live
        self._leases = {
            lid: exp for lid, exp in self._leases.items()
            if any(s.lease_id == lid for s in self._slots)
        }

    def _heartbeat(self) -> None:
        """Extend every lease that still has children, at half-TTL."""
        now = time.time()
        ttl = self.options.lease_ttl
        for lid, expires in list(self._leases.items()):
            if now < expires - ttl / 2.0:
                continue
            try:
                lease = self._with_retries(
                    self.coordinator.heartbeat, lid, ttl=ttl, attempts=2,
                )
                self._leases[lid] = lease.expires
            except ServiceError:
                # Lease gone: the coordinator requeued our jobs.  Stop
                # burning cores on work that now belongs to someone else.
                self._leases.pop(lid, None)
                for slot in self._slots:
                    if slot.lease_id == lid \
                            and slot.child.process.is_alive():
                        slot.child.process.terminate()

    def _prepare(self, job: Job) -> None:
        """Fetch parent results for reduce / ``$winner`` jobs.

        A leased job's parents are all DONE (the coordinator only
        releases it then), so their results are one ``result`` call
        each.  A missing result raises :class:`ServiceError`
        and the attempt is failed back to the coordinator through the
        retry policy.
        """
        if not needs_parent_results(job):
            return
        parent_results: dict = {}
        for pid in job.depends_on:
            view = self._with_retries(self.coordinator.result, pid,
                                      attempts=2)
            if not view.ready or view.result is None:
                raise ServiceError(
                    f"parent {pid} result unavailable"
                    f" (state {view.state})"
                )
            parent_results[pid] = {"payload": view.job.payload,
                                   "result": view.result}
        job.parent_results = parent_results
        if has_placeholders(job.payload):
            job.payload = resolve_payload(job.payload, parent_results)

    def _claim(self, summary: PoolSummary) -> bool:
        free = self.options.n - len(self._slots)
        if free < 1:
            return False
        lease, jobs = self._with_retries(
            self.coordinator.claim_jobs, self.worker, n=free,
            ttl=self.options.lease_ttl,
        )
        if lease is None or not jobs:
            return False
        self._leases[lease.id] = lease.expires
        for job in jobs:
            summary.claimed += 1
            try:
                self._prepare(job)
            except ServiceError as exc:
                self._report(job, lease.id, summary,
                             f"dag input error: {exc}", None, attempts=2)
                continue
            self._launch(job, lease.id, summary)
        return True

    def _drained(self) -> bool:
        try:
            counts = self.coordinator.counts()
        except ServiceError:
            return False
        return not any(n for state, n in counts.items()
                       if not JobState(state).terminal)

    # -- waiting ---------------------------------------------------------

    def wake(self) -> None:
        """Cut the pool's current wait short: a job may be claimable.

        Safe from any thread and never blocks; a no-op unless the pool
        is inside :meth:`run`.  One unread byte is a pending wake, so a
        write the buffer refuses (or that races shutdown) is dropped.
        """
        sock = self._wake_w
        if sock is not None:
            try:
                sock.send(b"\0")
            except OSError:
                pass

    def _wait(self, timeout: float) -> None:
        """Block until a busy child's pipe is readable (it answered, or
        died), :meth:`wake` is called, or ``timeout`` seconds pass."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._wake_r, selectors.EVENT_READ)
            for slot in self._slots:
                selector.register(slot.child.conn, selectors.EVENT_READ)
            selector.select(timeout)
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass  # drained

    # -- main loop -------------------------------------------------------

    def run(self, stop: threading.Event | None = None) -> PoolSummary:
        """Lease and execute jobs until the coordinator's queue drains.

        With ``options.drain`` (the default) the pool exits once the
        coordinator reports zero outstanding jobs -- which waits out
        retry backoffs and other workers' leases too, so a fleet member
        survives to pick up a dead sibling's requeued jobs.
        ``options.drain=False`` polls forever (a resident worker host)
        until ``options.max_seconds`` elapses, the ``stop`` event is set
        (how an embedding HTTP server shuts its pool down), or the
        process is interrupted; children are terminated and their
        attempts failed back to the coordinator on the way out, so the
        jobs requeue immediately instead of waiting out the lease.
        """
        options = self.options
        summary = PoolSummary()
        start = time.time()
        # The idle wait must never outlast the heartbeat window: cap it
        # at a quarter TTL so a lease is always renewed before half-TTL
        # drift can let it lapse under a healthy worker.
        idle = _Backoff(max(options.poll_interval, 0.01),
                        min(2.0, options.lease_ttl / 4.0),
                        self.coordinator.poll_backoff, 0.1,
                        random.Random())
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        try:
            while True:
                self._reap(summary)
                self._heartbeat()
                claimed = False
                try:
                    claimed = self._claim(summary)
                except ServiceError:
                    pass  # coordinator briefly unreachable; keep polling
                if options.drain and not self._slots and not claimed \
                        and self._drained():
                    break
                if options.max_seconds is not None \
                        and time.time() - start > options.max_seconds:
                    break
                if stop is not None and stop.is_set():
                    break
                self._wait(idle.next_delay(progressed=claimed))
        finally:
            self._shutdown(summary)
        try:
            summary.counts = self.coordinator.counts()
        except ServiceError:
            pass  # summary still useful without final queue counts
        return summary

    def _shutdown(self, summary: PoolSummary) -> None:
        for slot in self._slots:
            self._retire(slot.child)
            self._report(slot.job, slot.lease_id, summary,
                         "worker pool shut down", None)
        # Idle children are asked to leave, then made to: pipe EOF alone
        # is not relied on.
        for child in self._idle:
            try:
                child.conn.send(None)
            except OSError:
                pass  # already dead
        for child in self._idle:
            child.process.join(timeout=1.0)
            self._retire(child)
        self._slots = []
        self._idle = []
        self._leases = {}
        self._wake_r.close()
        self._wake_w.close()
        self._wake_r = self._wake_w = None
