"""The Session: machine + compile flow + fingerprint-keyed compile cache.

A :class:`Session` owns a simulated machine and memoizes compilation
through the compile flow for that machine's hierarchy: the cache key is
the canonical content fingerprint of the program, the schedule, and the
flow — every knob the compiler reads, fusion regions through ``par`` and
``splits`` — so any in-place mutation of a schedule misses the cache
rather than serving a stale executable, while repeated identical
compiles — autotuning sweeps, benchmark loops, serving the same model
over and over — return the same :class:`Executable` object at
dictionary-lookup cost.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..comal.hierarchy import resolve_hierarchy
from ..comal.machines import Machine, RDA_MACHINE
from ..core.einsum.ast import EinsumProgram
from ..core.schedule.schedule import Schedule, unfused
from ..ftree.tensor import SparseTensor
from ..reliability import fault_point
from .compiled import CompiledProgram, ProgramResult
from .diagnostics import CompileDiagnostics
from .diskcache import DiskCache, entry_key
from .executable import Executable
from .pipeline import PassPipeline

CacheKey = Tuple[str, str, str, str]


def _entry_is_whole(entry: dict) -> bool:
    """A disk entry holds what ``_load_or_compile`` is about to use."""
    return isinstance(entry.get("compiled"), CompiledProgram) and isinstance(
        entry.get("diagnostics"), CompileDiagnostics
    )


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a session's compile-cache counters.

    ``disk_hits``/``disk_misses`` count only the in-memory misses that fell
    through to a configured disk cache (0 when the session has none).
    ``disk_disabled_reason`` reports a disk cache whose write breaker
    tripped (see :class:`~repro.driver.diskcache.DiskCache`); ``None``
    while healthy or when no disk cache is configured.
    ``disk_rejected`` counts the cache files refused because someone other
    than this user could have written them.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int
    disk_hits: int = 0
    disk_misses: int = 0
    disk_disabled_reason: Optional[str] = None
    disk_rejected: int = 0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.entries}/{self.max_entries} cached"
        )
        if self.disk_hits or self.disk_misses:
            text += f", disk {self.disk_hits}/{self.disk_hits + self.disk_misses}"
        if self.disk_rejected:
            text += f", {self.disk_rejected} disk file(s) rejected"
        if self.disk_disabled_reason:
            text += f", disk {self.disk_disabled_reason}"
        return text


class Session:
    """Compile-and-run context with a fingerprint-keyed executable cache.

    Parameters
    ----------
    machine:
        Timing model simulations run on (default: the RDA machine).
    pipeline:
        Accepted for existing callers and ignored: the compile flow is
        fixed, and :attr:`pipeline` is always the flow for this session's
        hierarchy.
    cache_size:
        Maximum cached executables (LRU eviction).
    debug_streams, sim_cache:
        Simulation options threaded into every executable this session
        compiles: per-stream protocol checking (``None`` reads
        ``FUSEFLOW_DEBUG_STREAMS`` at run time) and the one simulator
        memo, kept per executable (:meth:`Executable.__call__`); with
        ``sim_cache=False`` every call simulates.
    backend:
        Accepted and ignored: one rule picks each region's execution tier
        (:mod:`repro.comal.functional`).  Frozen ``bench/`` passes it;
        delete at the bench re-cut.
    hierarchy:
        Memory hierarchy: a preset name (``"fpga-small"``),
        ``"preset@capacity_bytes"``, or a
        :class:`~repro.comal.hierarchy.HierarchySpec`.  Configures the
        machine (timed engine + scratchpad budget, via
        :meth:`Machine.with_hierarchy`); ``None`` inherits the machine's.
        The compiler places memory in the machine's hierarchy, so the two
        always agree; the no-on-chip-buffer ablation is ``"flat"``.
    disk_cache:
        Second cache level behind the in-memory one: a
        :class:`~repro.driver.diskcache.DiskCache`, a cache-directory
        path, ``None`` to follow the ``FUSEFLOW_CACHE_DIR`` environment
        variable (no disk cache when unset), or ``False`` to disable even
        when the variable is set.  An in-memory miss consults the disk
        cache before compiling, and fresh compiles are written back, so a
        warm directory makes cold-process compiles a read-and-unpickle.

    Raises
    ------
    ValueError
        If ``cache_size < 1`` or the hierarchy cannot be resolved.
    """

    def __init__(
        self,
        machine: Machine = RDA_MACHINE,
        pipeline: object = None,
        cache_size: int = 256,
        debug_streams: Optional[bool] = None,
        sim_cache: bool = True,
        hierarchy: Optional[object] = None,
        backend: Optional[str] = None,
        disk_cache: Union[DiskCache, str, bool, None] = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        if hierarchy is not None:
            spec = resolve_hierarchy(hierarchy)
            if spec is not machine.hierarchy:
                machine = machine.with_hierarchy(spec)
        self.machine = machine
        #: The compile flow; it places memory in the machine's hierarchy.
        self.pipeline = PassPipeline(machine.hierarchy)
        self.cache_size = cache_size
        #: Execution options threaded into every executable this session
        #: compiles.
        self.debug_streams = debug_streams
        self.sim_cache = sim_cache
        if disk_cache is None:
            disk_cache = os.environ.get("FUSEFLOW_CACHE_DIR") or False
        if disk_cache is False:
            self.disk_cache: Optional[DiskCache] = None
        elif isinstance(disk_cache, DiskCache):
            self.disk_cache = disk_cache
        else:
            self.disk_cache = DiskCache(str(disk_cache))
        self._cache: "OrderedDict[CacheKey, Executable]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._disk_misses = 0
        # The compile cache is shared state under the threaded serve front
        # end: get/move_to_end/popitem and the counters all race without a
        # guard.  Compilation itself runs outside the lock (it is the slow
        # part); the post-compile re-check keeps the cache single-valued.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def cache_key(
        self, program: EinsumProgram, schedule: Schedule
    ) -> CacheKey:
        """The compile-cache key: canonical content fingerprints.

        Returns
        -------
        tuple of str
            ``(program.fingerprint(), schedule.fingerprint(),
            pipeline.fingerprint(), "codegen")`` — every input the compiler
            reads (the flow's fingerprint covers the hierarchy it places
            memory in).  The last field is a constant where the execution
            backend's name used to be; frozen ``bench/`` unpacks four
            fields and pins it.
        """
        return (
            program.fingerprint(),
            schedule.fingerprint(),
            self.pipeline.fingerprint(),
            "codegen",
        )

    def compile(
        self, program: EinsumProgram, schedule: Optional[Schedule] = None
    ) -> Executable:
        """Compile ``program`` under ``schedule`` (default: unfused), cached.

        Parameters
        ----------
        program:
            The Einsum program to compile.
        schedule:
            Fusion/ordering/parallelization schedule; ``None`` compiles
            unfused (one region per statement).

        Returns
        -------
        Executable
            Callable on bindings; fingerprint-identical compiles return
            the *same* object at dictionary-lookup cost.
        """
        return self.compile_detailed(program, schedule)[0]

    def compile_detailed(
        self, program: EinsumProgram, schedule: Optional[Schedule] = None
    ) -> Tuple[Executable, str]:
        """Like :meth:`compile`, but also reports where the result came from.

        Returns
        -------
        tuple
            ``(executable, source)`` where ``source`` is ``"memory"``
            (in-memory cache hit), ``"disk"`` (loaded from the persistent
            cache), or ``"compiled"`` (fresh compile).  The serve
            front end surfaces this as the ``X-Fuseflow-Cache`` header.
        """
        schedule = schedule or unfused(program)
        key = self.cache_key(program, schedule)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                self._cache.move_to_end(key)
                return cached, "memory"
            self._misses += 1
        executable, source = self._load_or_compile(key, program, schedule)
        with self._lock:
            existing = self._cache.get(key)
            if existing is not None:
                # Another thread compiled the same key while we did: keep
                # the incumbent so every caller shares one Executable.
                self._cache.move_to_end(key)
                return existing, source
            self._cache[key] = executable
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return executable, source

    def _disk_key(self, key: CacheKey) -> str:
        """The disk-cache key: the session key plus the memory hierarchy.

        The in-memory key covers the hierarchy only through the flow's
        fingerprint, which reads every hierarchy without an on-chip level
        as flat; on disk, entries from differently-configured sessions
        share one directory, so the hierarchy is hashed in explicitly.
        """
        return entry_key(*key, self.machine.hierarchy.describe())

    def _load_or_compile(
        self, key: CacheKey, program: EinsumProgram, schedule: Schedule
    ) -> Tuple[Executable, str]:
        dkey = None
        if self.disk_cache is not None:
            dkey = self._disk_key(key)
            entry = self.disk_cache.get(dkey, check=_entry_is_whole)
            with self._lock:
                if entry is not None:
                    self._disk_hits += 1
                else:
                    self._disk_misses += 1
            if entry is not None:
                return (
                    self._wrap(entry["compiled"], entry["diagnostics"], key),
                    "disk",
                )
        # Fault site: an injected raise/hang here behaves exactly like a
        # compiler bug or a pathological schedule — what sweep retries and
        # serve deadlines are tested against.
        fault_point("compile", key=key[0])
        start = time.perf_counter()
        regions, decls, diagnostics = self.pipeline.run(program, schedule)
        compiled = CompiledProgram(
            program=program,
            schedule=schedule,
            regions=regions,
            decls=decls,
            compile_seconds=time.perf_counter() - start,
        )
        diagnostics.compile_seconds = compiled.compile_seconds
        if self.disk_cache is not None and dkey is not None:
            self.disk_cache.put(
                dkey,
                {
                    "compiled": compiled,
                    "diagnostics": diagnostics,
                    "meta": {
                        "program": program.name,
                        "schedule": schedule.name,
                        "hierarchy": self.machine.hierarchy.describe(),
                        "compile_seconds": compiled.compile_seconds,
                        "created": time.time(),
                    },
                },
            )
        return self._wrap(compiled, diagnostics, key), "compiled"

    def _wrap(
        self, compiled: CompiledProgram, diagnostics, key: CacheKey
    ) -> Executable:
        return Executable(
            compiled,
            self.machine,
            diagnostics,
            key,
            debug_streams=self.debug_streams,
            sim_cache=self.sim_cache,
        )

    # ------------------------------------------------------------------
    # Convenience execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: EinsumProgram,
        binding: Dict[str, SparseTensor],
        schedule: Optional[Schedule] = None,
        machine: Optional[Machine] = None,
    ) -> ProgramResult:
        """Compile (cached) and execute in one call.

        Parameters
        ----------
        program, schedule:
            Forwarded to :meth:`compile`.
        binding:
            Tensor name -> :class:`~repro.ftree.tensor.SparseTensor`.
        machine:
            Per-call machine override; ``None`` uses the session's.

        Returns
        -------
        ProgramResult
            Metrics plus the materialized output tensors.
        """
        return self.compile(program, schedule)(binding, machine=machine)

    def compare_schedules(
        self,
        program: EinsumProgram,
        binding: Dict[str, SparseTensor],
        schedules: Sequence[Schedule],
        machine: Optional[Machine] = None,
    ) -> Dict[str, ProgramResult]:
        """Run the program under several schedules (fusion sweeps).

        The one in-process schedule loop: every compile is cached, and the
        first schedule that fails to compile or run raises.  (Schedule
        search, which skips infeasible candidates, is
        :func:`~repro.core.schedule.autotune.autotune`.)

        Returns
        -------
        dict
            Schedule name -> :class:`ProgramResult`, in input order.
        """
        return {
            schedule.name: self.run(program, binding, schedule, machine)
            for schedule in schedules
        }

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Snapshot of the compile-cache counters (hits/misses/entries)."""
        disk = (
            self.disk_cache.info(scan=False)
            if self.disk_cache is not None
            else None
        )
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._cache),
                max_entries=self.cache_size,
                disk_hits=self._disk_hits,
                disk_misses=self._disk_misses,
                disk_disabled_reason=disk.disabled_reason if disk else None,
                disk_rejected=disk.rejected if disk else 0,
            )

    def clear_cache(self) -> None:
        """Drop every cached executable and reset the hit/miss counters.

        The persistent disk cache (when configured) is left alone; use
        ``session.disk_cache.clear()`` to empty it.
        """
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0
            self._disk_misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Session machine={self.machine.name!r} "
            f"hierarchy={self.machine.hierarchy.name!r} cache={self.cache_info()}>"
        )


_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-wide Session behind ``ModelBundle.run`` and the frontend.

    Sharing one cache is what keeps callers that hold no session of their
    own from recompiling on every call: compiled artifacts depend only on
    program/schedule/hierarchy content, never on tensor data, so reuse
    across callers is sound.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
