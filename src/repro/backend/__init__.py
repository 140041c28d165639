"""Execution backends for lowered fusion regions.

``repro.backend`` separates *what* a region computes (the SAM token
protocol, defined by the interpreter in :mod:`repro.comal.functional`)
from *how* it is executed.  :mod:`repro.backend.base` holds the backend
names and the one rule that picks among them;
:mod:`repro.backend.codegen` is the code-generating backend that emits
one specialized, compiled Python kernel per region.

The codegen module is imported lazily so that importing this package (as
:mod:`repro.comal.functional` does for name resolution) never recurses
back into the functional executor mid-import.
"""

from .base import BACKEND_NAMES, resolve_backend_name

__all__ = [
    "BACKEND_NAMES",
    "CodegenError",
    "RegionArtifact",
    "artifact_for",
    "codegen_cache_info",
    "resolve_backend_name",
]

_LAZY = {
    "CodegenError",
    "RegionArtifact",
    "artifact_for",
    "codegen_cache_info",
}


def __getattr__(name):
    if name in _LAZY:
        from . import codegen

        return getattr(codegen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
