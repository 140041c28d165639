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
"""

from .compiled import (
    CompiledProgram,
    CompiledRegion,
    FunctionalRun,
    ProgramResult,
    execute_compiled,
)
from .diagnostics import CompileDiagnostics, RegionDiagnostics
from .diskcache import DiskCache, DiskCacheInfo
from .executable import Executable
from .pipeline import DEFAULT_PASS_ORDER, PassPipeline, PipelineError
from .session import CacheInfo, Session

__all__ = [
    "Session",
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
    "FunctionalRun",
    "ProgramResult",
    "execute_compiled",
]
