"""The FuseFlow compiler driver: sessions, pass pipelines, executables.

This package is the redesigned public compile API:

* :class:`Session` — owns a machine, a :class:`PassPipeline`, and a
  compile cache keyed by canonical program/schedule/pipeline fingerprints;
  ``session.compile(program, schedule)`` returns an :class:`Executable`.
* :class:`Executable` — directly callable on bindings
  (``exe(binding)`` / ``exe.run(A=...)``), with ``describe()`` and
  structured :class:`CompileDiagnostics`.
* :class:`PassPipeline` — named, reorderable, pluggable passes
  (``fuse-regions``, ``fold-masks``, ``merge-contractions``,
  ``lower-region``, ``place-memory``, ``parallelize``) with per-pass
  timings; extend via :func:`register_pass` or
  ``pipeline.with_pass(...)``.

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
from .passes import (
    PASS_REGISTRY,
    FoldMasks,
    FuseRegions,
    LowerRegion,
    MergeContractions,
    Parallelize,
    Pass,
    PassContext,
    PlaceMemory,
    RegionState,
    register_pass,
)
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
    "Pass",
    "PassContext",
    "RegionState",
    "register_pass",
    "PASS_REGISTRY",
    "FuseRegions",
    "FoldMasks",
    "MergeContractions",
    "LowerRegion",
    "PlaceMemory",
    "Parallelize",
    "CompileDiagnostics",
    "RegionDiagnostics",
    "CompiledProgram",
    "CompiledRegion",
    "ProgramResult",
    "execute_compiled",
]
