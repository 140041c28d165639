"""What remains of the code generator: names the frozen ``bench/`` imports.

Nothing emits code: every region runs the ordinary node loop of
:func:`repro.comal.functional.run_functional` on the tier its rule picks,
so there is no artifact, no compile cache and no kernel store.
These four functions keep their signatures and the dict keys
``bench/layers.py`` reads, and report that nothing was emitted.

Kept for frozen ``bench/``; delete at the bench re-cut.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict

__all__ = [
    "artifact_for",
    "cached_artifacts",
    "clear_codegen_caches",
    "codegen_cache_info",
]


def clear_codegen_caches() -> None:
    """Nothing to clear: no kernel is emitted or cached."""


def codegen_cache_info() -> Dict[str, int]:
    """The counters the bench reads, all zero: nothing is emitted."""
    return {"code_hits": 0, "token_dispatches": 0}


def cached_artifacts(graph) -> Dict[str, Any]:
    """Emitted artifacts of ``graph`` by tier: always none.

    Parameters
    ----------
    graph:
        A region :class:`~repro.sam.graph.SAMGraph` (unused).
    """
    return {}


def artifact_for(graph, tier: str = "columnar") -> SimpleNamespace:
    """An empty artifact for ``graph``: no source, no kernel, zero cost.

    Parameters
    ----------
    graph:
        A region :class:`~repro.sam.graph.SAMGraph`.
    tier:
        ``"token"`` or ``"columnar"``, echoed back.
    """
    return SimpleNamespace(
        region=graph.name,
        tier=tier,
        fn=None,
        loc=0,
        emit_seconds=0.0,
        compile_seconds=0.0,
    )
