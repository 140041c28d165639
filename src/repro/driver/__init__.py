"""The FuseFlow compiler driver: sessions, the compile flow, executables.

This package is the redesigned public compile API:

* :class:`Session` — owns a machine and a compile cache keyed by
  canonical program/schedule/flow fingerprints;
  ``session.compile(program, schedule)`` returns an :class:`Executable`.
* :class:`Executable` — directly callable on bindings
  (``exe(binding)`` / ``exe.run(A=...)``), with ``describe()`` and
  structured :class:`CompileDiagnostics`.
* :class:`PassPipeline` — the fixed compile flow for one memory
  hierarchy: ``fuse-regions``, ``fold-masks``, ``merge-contractions``,
  ``split-indices``, ``lower-region``, ``place-memory``, ``parallelize``
  (:data:`DEFAULT_PASS_ORDER`), with per-pass timings.  The schedule and
  the hierarchy decide what each pass does.

:func:`default_session` is the process-wide session for callers that hold
none of their own (``ModelBundle.run``, the tracing frontend).
"""

from .compiled import (
    CompiledProgram,
    CompiledRegion,
    ProgramResult,
    execute_compiled,
)
from .diagnostics import CompileDiagnostics, RegionDiagnostics
from .diskcache import DiskCache, DiskCacheInfo
from .executable import Executable
from .pipeline import DEFAULT_PASS_ORDER, PassPipeline, PipelineError
from .session import CacheInfo, Session, default_session

__all__ = [
    "Session",
    "default_session",
    "CacheInfo",
    "DiskCache",
    "DiskCacheInfo",
    "Executable",
    "PassPipeline",
    "PipelineError",
    "DEFAULT_PASS_ORDER",
    "CompileDiagnostics",
    "RegionDiagnostics",
    "CompiledProgram",
    "CompiledRegion",
    "ProgramResult",
    "execute_compiled",
]
