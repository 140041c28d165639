"""Sweep execution: fan points out across workers with shared compile caches.

:class:`SweepRunner` is the process-parallel engine: it expands a
:class:`~repro.sweep.spec.SweepSpec`, skips points already completed in
the :class:`~repro.sweep.store.ResultStore` (resume), and fans the rest
out over worker processes.  Each worker keeps one ``Session`` per
(machine, hierarchy) and takes model bundles from
:func:`~repro.sweep.spec.bundle_for`, so points sharing a model or a
compile fingerprint pay tracing/lowering once per worker, not once per
point.

Execution is staged (``docs/sweeps.md``): a worker runs each group of
points that differ only in machine and hierarchy functionally once, and
times that run per point; dispatch keeps a worker on its group.

Every point is functionally verified against its bundle's dense reference;
the per-point record carries ``max_abs_err`` so a sweep doubles as a
correctness regression over the whole grid.

Failure tolerance (see ``docs/reliability.md``): the parallel engine is a
supervisor over dedicated worker processes, not a bare pool.  A worker
that *crashes* (OOM kill, segfault, an injected ``sweep.point`` crash
fault) loses only its in-flight point — the supervisor re-spawns the
worker and re-dispatches the point; a worker that *hangs* past
``point_timeout`` is killed the same way; a point that keeps failing
transiently is retried with exponential backoff up to ``max_attempts``
and then *quarantined* as a terminal ``"crashed"``/``"timeout"`` (or
``"error"``) record, so the sweep always completes with one terminal
record per point and ``resume`` converges instead of aborting on the
first lost worker.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..comal.machines import MACHINES, Machine
from ..driver.compiled import FunctionalRun, ProgramResult
from ..driver.pipeline import RegionStore
from ..driver.session import Session
from ..models.common import VERIFY_TOLERANCE, ModelBundle
from ..reliability import fault_point
from .spec import _BUNDLES, SweepPoint, SweepSpec, bundle_for
from .store import ResultStore, ResultStoreError

__all__ = [
    "SweepRunner",
    "SweepOutcome",
    "run_sweep",
    "run_point",
    "run_record",
    "clear_worker_caches",
    "default_workers",
]

#: Exception type names (the prefix of an error record's ``error`` field)
#: treated as *transient*: worth retrying with backoff before giving the
#: point up.  Everything else — verification failures, schedule errors,
#: real bugs — is deterministic and fails fast on the first attempt.
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "InjectedFault",
        "TimeoutError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionRefusedError",
        "BrokenPipeError",
        "InterruptedError",
        "BlockingIOError",
        "OSError",
        "IOError",
        "MemoryError",
    }
)


def _is_transient(record: Dict[str, object]) -> bool:
    """Whether an error record looks retryable (exception-type allowlist)."""
    if record.get("status") != "error":
        return False
    error = str(record.get("error", ""))
    return error.split(":", 1)[0].strip() in TRANSIENT_ERROR_TYPES

# ----------------------------------------------------------------------
# Worker-side execution (used both inline and in worker processes)
# ----------------------------------------------------------------------

# Per-process sessions.  In a worker process these live for the pool's
# lifetime, so every point handed to that worker shares compile work via
# the Session cache (and tracing work via ``bundle_for``).
_SESSIONS: Dict[Tuple[str, str, str], Session] = {}

# The region store shared by the per-process sessions: a group's points
# differ only in machine and hierarchy, which lowering never reads, so a
# worker lowers each region of its group's (program, schedule) once and
# every other point of the group runs placement alone.
_STORE = RegionStore()

# Per-process stage cache: the functional run of the last group run here,
# by stage key (one entry: a worker gets its group's points back to back).
_STAGE: Dict[str, FunctionalRun] = {}

def _session_for(
    machine: str, hierarchy: str = "flat", cache_dir: Optional[str] = None
) -> Session:
    """The per-process Session for (machine, hierarchy), attached to the
    persistent compile cache ``cache_dir`` (``None``: none)."""
    key = (machine, hierarchy, cache_dir or "")
    session = _SESSIONS.get(key)
    if session is None:
        session = Session(
            machine=MACHINES[machine],
            cache_size=1024,
            hierarchy=hierarchy,
            disk_cache=cache_dir,
        )
        session.pipeline.store = _STORE
        _SESSIONS[key] = session
    return session


def run_record(
    bundle: ModelBundle, result: ProgramResult, machine: Machine
) -> Dict[str, object]:
    """Verify one run of a model and turn it into reported numbers.

    The one place that happens: sweep records, ``/v1/simulate`` payloads
    and ``fuseflow tune --verify`` all come from here.

    Returns
    -------
    dict
        ``metrics`` (cycles, FLOPs, per-level memory traffic, and the
        utilizations on ``machine``), ``max_abs_err`` vs the bundle's dense
        reference and ``verified`` (below :data:`VERIFY_TOLERANCE`); an
        unverified run also gets an ``error`` saying so.
    """
    max_abs_err = bundle.max_abs_err(result)
    verified = bool(max_abs_err < VERIFY_TOLERANCE)
    metrics = result.metrics
    record: Dict[str, object] = {
        "metrics": {
            "cycles": metrics.cycles,
            "flops": metrics.flops,
            "dram_bytes": metrics.dram_bytes,
            "sram_bytes": metrics.sram_bytes,
            "spill_bytes": metrics.spill_bytes,
            "fill_bytes": metrics.fill_bytes,
            "tokens": metrics.tokens,
            "num_kernels": metrics.num_kernels,
            "operational_intensity": metrics.operational_intensity(),
            "compute_utilization": metrics.compute_utilization(machine),
            "memory_utilization": metrics.memory_utilization(machine),
        },
        "max_abs_err": max_abs_err,
        "verified": verified,
    }
    if not verified:
        record["error"] = (
            f"verification failed: max |err| {max_abs_err:.3e} >= "
            f"{VERIFY_TOLERANCE:.0e} vs dense reference"
        )
    return record


def run_point(point: SweepPoint) -> Dict[str, object]:
    """Execute one sweep point; never raises — failures become records.

    Parameters
    ----------
    point:
        The experiment to run; bundle, session and the functional run of
        its group come from the per-process caches.

    Returns
    -------
    dict
        A JSON-safe result record: ``status`` (``"ok"``/``"error"``), the
        :func:`run_record` fields, fingerprints, and cache/timing
        metadata.  A point that executes but disagrees with the reference
        is an ``"error"`` record.
    """
    return _run_point(point)[0]


def _run_point(
    point: SweepPoint, cache_dir: Optional[str] = None
) -> Tuple[Dict[str, object], int, Optional[ProgramResult]]:
    """:func:`run_point` with its session attached to the persistent
    compile cache ``cache_dir``: the record, the functional runs it paid
    (0 or 1) and the run's :class:`ProgramResult` (``None`` when it
    raised)."""
    started = time.perf_counter()
    paid = 0
    base = {
        "type": "result",
        "point_id": point.point_id,
        "label": point.label(),
        "point": point.to_record(),
        "worker_pid": os.getpid(),
    }
    try:
        # Fault site: an injected raise becomes an error record (retried
        # when transient), a hang trips the supervisor's point timeout,
        # and a crash takes the whole worker process down — each exercises
        # one leg of the runner's recovery machinery.
        # Keyed by the human-readable label so ``match=`` globs can target
        # e.g. ``*unfused*`` without knowing content-hash point IDs.
        fault_point("sweep.point", key=point.label())
        bundle = bundle_for(point)
        session = _session_for(point.machine, point.hierarchy, cache_dir)
        schedule = point.schedule_for(bundle)
        before = session.cache_info()
        executable = session.compile(bundle.program, schedule)
        cache_hit = session.cache_info().hits > before.hits
        key = point.stage_key()
        run = _STAGE.get(key)
        if run is None or run.signature != executable.compiled.signature:
            _STAGE.clear()
            run = executable.functional(bundle.binding)
            _STAGE[key] = run
            paid = 1
        result = executable.time(run)
        measured = run_record(bundle, result, MACHINES[point.machine])
        base.update(
            {
                # A point that executes but disagrees with the dense
                # reference is a failure: nonzero exit codes, counted in
                # points_failed, and retried by resume.
                "status": "ok" if measured["verified"] else "error",
                **measured,
                # The compile key: program, schedule, pipeline.
                "fingerprints": dict(
                    zip(("program", "schedule", "pipeline"), executable.fingerprint)
                ),
                "compile_cache_hit": cache_hit,
                "compile_seconds": executable.compiled.compile_seconds,
                "elapsed_seconds": time.perf_counter() - started,
            }
        )
    except Exception as exc:
        result = None
        base.update(
            {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
                "elapsed_seconds": time.perf_counter() - started,
            }
        )
    return base, paid, result


def _worker_main(conn, cache_dir: Optional[str]) -> None:
    """Worker-process loop: recv a point record, run it, send the result.

    One point in flight per worker, over a dedicated duplex pipe — that
    is what lets the supervisor attribute a crash or hang to exactly one
    point.  A result travels as ``(record, functional runs paid)``, never
    the run itself.  A ``None`` message (or a closed pipe) is the shutdown
    signal.  Every point's session attaches to ``cache_dir``.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            record, paid, _ = _run_point(SweepPoint.from_record(message), cache_dir)
            try:
                conn.send((record, paid))
            except (BrokenPipeError, OSError):
                break  # supervisor went away; nothing left to report to
    finally:
        try:
            conn.close()
        except OSError:
            pass


def clear_worker_caches() -> None:
    """Drop the per-process sessions, bundles, region store and stage
    cache (tests, memory pressure)."""
    _SESSIONS.clear()
    _STORE.clear()
    _BUNDLES.clear()
    _STAGE.clear()


# ----------------------------------------------------------------------
# The parallel runner
# ----------------------------------------------------------------------


@dataclass
class SweepOutcome:
    """What one ``SweepRunner.run`` call did.

    ``failed`` counts every non-``"ok"`` terminal record, including
    quarantined ``"crashed"``/``"timeout"`` points; ``retries`` counts
    extra attempts the runner made recovering from crashes, hangs, and
    transient errors (0 on a healthy run).  ``functional_runs`` counts
    the functional stages paid; it is not written to the results file.
    """

    total_points: int
    ran: int
    skipped: int
    failed: int
    elapsed_seconds: float
    records: List[Dict[str, object]] = field(default_factory=list)
    retries: int = 0
    functional_runs: int = 0

    def describe(self) -> str:
        """One-line human-readable summary of the run."""
        text = (
            f"{self.total_points} point(s): {self.ran} ran "
            f"({self.failed} failed), {self.skipped} resumed from store, "
            f"{self.functional_runs} functional run(s), "
            f"{self.elapsed_seconds:.1f}s"
        )
        if self.retries:
            text += f", {self.retries} retr(ies)"
        return text


@dataclass
class _PointTask:
    """Supervisor bookkeeping for one point across its attempts."""

    point: SweepPoint
    attempts: int = 0
    not_before: float = 0.0  # monotonic gate for backoff re-dispatch


class _Groups:
    """Pending points by stage key.  :meth:`take` gives a worker the next
    point of the group it last ran, else of the next untouched group in
    spec order, else of the largest group left, so no worker idles."""

    def __init__(self, tasks: Iterable[_PointTask]) -> None:
        self.pending: Dict[str, Deque[_PointTask]] = {}
        for task in tasks:
            self.put(task)
        self.untouched: Deque[str] = deque(self.pending)

    def __bool__(self) -> bool:
        return bool(self.pending)

    def put(self, task: _PointTask) -> None:
        self.pending.setdefault(task.point.stage_key(), deque()).append(task)

    def take(self, group: Optional[str]) -> Tuple[str, _PointTask]:
        if group not in self.pending:
            while self.untouched and group not in self.pending:
                group = self.untouched.popleft()
            if group not in self.pending:
                group = max(self.pending, key=lambda k: len(self.pending[k]))
        queue = self.pending[group]
        task = queue.popleft()
        if not queue:
            del self.pending[group]
        return group, task


class _WorkerHandle:
    """One supervised worker process plus its dedicated pipe."""

    __slots__ = ("process", "conn", "task", "deadline", "group")

    def __init__(self, process, conn, group: Optional[str] = None) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[_PointTask] = None
        self.deadline: Optional[float] = None
        self.group = group  # stage key of the last group dispatched here

    def retire(self, kill: bool = False) -> None:
        """Stop this worker (``kill=True`` = SIGKILL a hung process)."""
        if kill and self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


def default_workers() -> int:
    """Default worker-process count: CPU count minus one, capped at 8."""
    return max(1, min(8, (os.cpu_count() or 2) - 1))


class SweepRunner:
    """Fan a sweep spec's points out across worker processes.

    Parameters
    ----------
    spec:
        The sweep to execute.
    store:
        Optional :class:`~repro.sweep.store.ResultStore` records are
        appended to as they land.
    workers:
        Worker processes (``None`` = :func:`default_workers`); 1 runs
        inline.
    resume:
        Skip points whose latest store record succeeded.
    cache_dir:
        Optional persistent compile-cache directory
        (:class:`~repro.driver.diskcache.DiskCache`); worker sessions —
        inline and in pool processes — warm-start compiles from it and
        write new entries back, so repeated sweeps over the same grid pay
        lowering once per entry, not once per process.  ``None``: no disk
        cache.
    point_timeout:
        Per-point wall-clock timeout in seconds.  A worker still busy on
        one point past this is presumed hung, killed, and re-spawned; the
        point is retried and eventually quarantined as a ``"timeout"``
        record.  ``None`` (default) disables the timeout.  Enforced by
        the parallel supervisor only — an inline (``workers=1``) run has
        no second process to do the killing.
    max_attempts:
        Dispatch attempts per point before a crashing / hanging /
        transiently-failing point is quarantined with a terminal record
        (default 3).  Deterministic failures are never retried.
    retry_backoff:
        Base of the exponential re-dispatch delay: attempt ``n`` waits
        ``retry_backoff * 2**(n-1)`` seconds first (default 0.25s).
    """

    def __init__(
        self,
        spec: SweepSpec,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        resume: bool = False,
        cache_dir: Optional[str] = None,
        point_timeout: Optional[float] = None,
        max_attempts: Optional[int] = None,
        retry_backoff: float = 0.25,
    ) -> None:
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.spec = spec
        self.store = store
        self.workers = default_workers() if workers is None else max(1, workers)
        self.resume = resume
        self.cache_dir = cache_dir
        self.point_timeout = point_timeout
        self.max_attempts = 3 if max_attempts is None else max_attempts
        self.retry_backoff = retry_backoff

    def run(
        self, progress: Optional[Callable[[Dict[str, object]], None]] = None
    ) -> SweepOutcome:
        """Execute all pending points; returns the aggregate outcome.

        With ``resume=True`` every point whose latest store record succeeded
        is skipped.  Each completed record is appended to the store (and
        handed to ``progress``) as soon as it lands, so interrupting the
        sweep loses at most the in-flight points.

        Parameters
        ----------
        progress:
            Optional callback invoked with each record as it completes.

        Returns
        -------
        SweepOutcome
            Counts (ran/skipped/failed), elapsed time, and the records.
        """
        started = time.perf_counter()
        points = self.spec.points()
        done: set = set()
        if self.resume and self.store is not None:
            done = self.store.completed_ids()
        todo = [p for p in points if p.point_id not in done]

        records: List[Dict[str, object]] = []

        def _collect(record: Dict[str, object]) -> None:
            records.append(record)
            if self.store is not None:
                self.store.append(record)
            if progress is not None:
                progress(record)

        if self.workers == 1 or len(todo) <= 1:
            retries, functional_runs = self._run_inline(todo, _collect)
        else:
            retries, functional_runs = self._run_parallel(todo, _collect)

        failed = sum(1 for r in records if r.get("status") != "ok")
        return SweepOutcome(
            total_points=len(points),
            ran=len(records),
            skipped=len(points) - len(todo),
            failed=failed,
            elapsed_seconds=time.perf_counter() - started,
            records=records,
            retries=retries,
            functional_runs=functional_runs,
        )

    def _run_inline(
        self,
        todo: List[SweepPoint],
        collect: Callable[[Dict[str, object]], None],
    ) -> Tuple[int, int]:
        """In-process execution with transient-error retries (no pool).

        Crash/hang containment needs a second process and so lives in
        :meth:`_run_parallel` only; inline runs still get the bounded
        retry-with-backoff loop for transient failures.  Sessions attach to
        ``cache_dir``, as a worker's do.  Returns (retries, functional
        runs paid).
        """
        retries = functional_runs = 0
        groups = _Groups(_PointTask(p) for p in todo)
        group = None
        while groups:
            group, task = groups.take(group)
            attempts = 1
            record, paid, _ = _run_point(task.point, self.cache_dir)
            functional_runs += paid
            while _is_transient(record) and attempts < self.max_attempts:
                time.sleep(self.retry_backoff * (2 ** (attempts - 1)))
                attempts += 1
                retries += 1
                record, paid, _ = _run_point(task.point, self.cache_dir)
                functional_runs += paid
            if attempts > 1:
                # Annotated only on retried points, so a healthy sweep's
                # records stay byte-identical to the no-retry engine.
                record = dict(record)
                record["attempts"] = attempts
            collect(record)
        return retries, functional_runs

    def _run_parallel(
        self,
        todo: List[SweepPoint],
        collect: Callable[[Dict[str, object]], None],
    ) -> Tuple[int, int]:
        """Supervise worker processes; survive crashes, hangs, and retries.

        One dedicated process + duplex pipe per worker slot, one point in
        flight per worker (from :class:`_Groups`).  The supervisor multiplexes over every busy
        worker's pipe *and* process sentinel, so three failure signals are
        distinguishable and each maps to a recovery:

        * **result arrives** — collect it, or re-dispatch with backoff if
          the error is transient and attempts remain;
        * **process sentinel fires** (worker died: OOM kill, segfault,
          injected crash) — re-spawn the worker, re-dispatch or
          quarantine its point as a ``"crashed"`` record;
        * **deadline passes** with neither (worker hung) — SIGKILL the
          worker, re-spawn, re-dispatch or quarantine as ``"timeout"``.

        Returns the number of extra attempts made (retries) and of
        functional runs the workers paid.
        """
        import multiprocessing
        import sys
        from multiprocessing.connection import wait as connection_wait

        if sys.platform.startswith("linux"):
            # Workers inherit the parent's imported modules for free.
            # Restricted to Linux: forking after numpy/Accelerate or ObjC
            # frameworks initialize is unsafe on macOS (why CPython's own
            # default there is spawn).
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-Linux platforms
            ctx = multiprocessing.get_context()

        def spawn(group: Optional[str] = None) -> _WorkerHandle:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.cache_dir),
                daemon=True,
            )
            process.start()
            child_conn.close()
            return _WorkerHandle(process, parent_conn, group)

        def respawn(index: int, kill: bool = False) -> None:
            worker = workers[index]  # its successor keeps the group
            worker.retire(kill=kill)
            workers[index] = spawn(worker.group)

        groups = _Groups(_PointTask(p) for p in todo)
        waiting: List[_PointTask] = []  # backoff-gated re-dispatches
        retries = functional_runs = 0

        def finish_or_retry(
            worker: _WorkerHandle, record: Dict[str, object]
        ) -> None:
            """A result landed: collect it, or back off and retry."""
            nonlocal retries
            task = worker.task
            worker.task = None
            worker.deadline = None
            if _is_transient(record) and task.attempts < self.max_attempts:
                retries += 1
                task.not_before = time.monotonic() + self.retry_backoff * (
                    2 ** (task.attempts - 1)
                )
                waiting.append(task)
                return
            if task.attempts > 1:
                # Annotated only on retried points, so a healthy sweep's
                # records stay byte-identical to the no-retry engine.
                record = dict(record)
                record["attempts"] = task.attempts
            collect(record)

        def redispatch_or_quarantine(task: _PointTask, status: str, error: str) -> None:
            """The attempt was *lost* (crash/hang), not merely failed."""
            nonlocal retries
            if task.attempts < self.max_attempts:
                retries += 1
                task.not_before = time.monotonic() + self.retry_backoff * (
                    2 ** (task.attempts - 1)
                )
                waiting.append(task)
                return
            collect(
                {
                    "type": "result",
                    "point_id": task.point.point_id,
                    "label": task.point.label(),
                    "point": task.point.to_record(),
                    "status": status,
                    "error": error,
                    "attempts": task.attempts,
                }
            )

        workers = [spawn() for _ in range(min(self.workers, len(todo)))]
        try:
            while groups or waiting or any(w.task is not None for w in workers):
                now = time.monotonic()
                for task in [t for t in waiting if t.not_before <= now]:
                    waiting.remove(task)
                    groups.put(task)
                for worker in workers:
                    if worker.task is None and groups:
                        worker.group, task = groups.take(worker.group)
                        task.attempts += 1
                        worker.task = task
                        worker.deadline = (
                            now + self.point_timeout
                            if self.point_timeout is not None
                            else None
                        )
                        try:
                            worker.conn.send(task.point.to_record())
                        except (OSError, ValueError):
                            # Worker already dead: its sentinel fires on
                            # the next wait and the crash path recovers.
                            pass
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    # Nothing running; sleep until the next retry is due.
                    if waiting:
                        pause = min(t.not_before for t in waiting) - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue
                timeout: Optional[float] = None
                for worker in busy:
                    if worker.deadline is not None:
                        remain = max(0.0, worker.deadline - now)
                        timeout = remain if timeout is None else min(timeout, remain)
                for task in waiting:
                    remain = max(0.0, task.not_before - now)
                    timeout = remain if timeout is None else min(timeout, remain)
                signaled = set(
                    connection_wait(
                        [w.conn for w in busy]
                        + [w.process.sentinel for w in busy],
                        timeout=timeout,
                    )
                )
                now = time.monotonic()
                for index, worker in enumerate(workers):
                    if worker.task is None:
                        continue
                    task = worker.task
                    if worker.conn in signaled:
                        try:
                            record, paid = worker.conn.recv()
                        except (EOFError, OSError):
                            # Died mid-send: treat as a crash below.
                            respawn(index)
                            redispatch_or_quarantine(
                                task,
                                "crashed",
                                "worker process died mid-result "
                                f"(pid {worker.process.pid}, exit code "
                                f"{worker.process.exitcode}) on attempt "
                                f"{task.attempts}",
                            )
                            continue
                        functional_runs += paid
                        finish_or_retry(worker, record)
                    elif worker.process.sentinel in signaled:
                        exitcode = worker.process.exitcode
                        respawn(index)
                        redispatch_or_quarantine(
                            task,
                            "crashed",
                            "worker process crashed "
                            f"(pid {worker.process.pid}, exit code "
                            f"{exitcode}) while running this point on "
                            f"attempt {task.attempts}",
                        )
                    elif worker.deadline is not None and now >= worker.deadline:
                        respawn(index, kill=True)
                        redispatch_or_quarantine(
                            task,
                            "timeout",
                            f"point exceeded the {self.point_timeout:g}s "
                            "wall-clock timeout; hung worker "
                            f"(pid {worker.process.pid}) killed on attempt "
                            f"{task.attempts}",
                        )
        finally:
            for worker in workers:
                if worker.process.is_alive() and worker.task is None:
                    try:
                        worker.conn.send(None)
                    except (OSError, ValueError):
                        pass
            for worker in workers:
                worker.retire(kill=worker.task is not None)
        return retries, functional_runs


def run_sweep(
    spec: Optional[SweepSpec] = None,
    store_path: Optional[str] = None,
    workers: Optional[int] = None,
    resume: bool = False,
    force: bool = False,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    cache_dir: Optional[str] = None,
    point_timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> SweepOutcome:
    """One-call convenience: open/create the store and run the sweep.

    Parameters
    ----------
    spec:
        The sweep to run.  On resume it may be ``None`` — the store's
        header is the spec then; a caller-supplied spec is *checked*
        against that header by fingerprint and a mismatch raises (an old
        results file must never silently hijack a different sweep).
    store_path:
        JSONL results file; ``None`` keeps results in memory only.
    workers:
        Worker processes (``None`` = :func:`default_workers`).
    resume:
        Continue a previous run, skipping completed points by ID.
    force:
        Overwrite an existing results file instead of refusing.
    progress:
        Optional per-record callback.
    cache_dir:
        Persistent compile-cache directory shared by all worker sessions
        (see :class:`SweepRunner`).
    point_timeout:
        Per-point wall-clock timeout in seconds (see :class:`SweepRunner`).
    max_attempts:
        Attempts per point before quarantine (see :class:`SweepRunner`).

    Returns
    -------
    SweepOutcome

    Raises
    ------
    ResultStoreError
        Resume without a store path, a missing/corrupt results file, an
        existing file without ``force``, or a resume spec whose
        fingerprint disagrees with the stored header.
    """
    store: Optional[ResultStore] = None
    if resume and store_path is None:
        raise ResultStoreError(
            "resume=True needs store_path (there is nothing to resume from)"
        )
    if spec is None and not resume:
        raise ResultStoreError("spec is required unless resuming from a store")
    if store_path is not None:
        if resume:
            store = ResultStore.open(store_path)
            stored_spec = store.spec()
            if stored_spec is None:
                raise ResultStoreError(
                    f"results file {store_path!r} has no spec header; cannot "
                    "resume (was it generated by `sweep run`?)"
                )
            if spec is not None:
                caller_fp = spec.fingerprint()
                stored_fp = stored_spec.fingerprint()
                if caller_fp != stored_fp:
                    raise ResultStoreError(
                        f"resume spec mismatch for {store_path!r}: the "
                        f"caller's spec (fingerprint {caller_fp[:16]}) is "
                        "not the sweep this results file records "
                        f"(fingerprint {stored_fp[:16]}); resuming would "
                        "run the stored grid, not the requested one — pass "
                        "spec=None to continue the stored sweep, or a new "
                        "store_path to start this one"
                    )
            spec = stored_spec
        else:
            store = ResultStore.create(store_path, spec, force=force)
    try:
        return SweepRunner(
            spec,
            store=store,
            workers=workers,
            resume=resume,
            cache_dir=cache_dir,
            point_timeout=point_timeout,
            max_attempts=max_attempts,
        ).run(progress)
    finally:
        if store is not None:
            store.close()
