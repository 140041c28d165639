"""Functional (untimed) executor for SAMML graphs.

Evaluates every node of a graph in topological order, producing the exact
token streams of the SAM protocol.  This layer defines functional
correctness; the timed executor in :mod:`repro.comal.engine` replays the
same streams through a machine timing model.

One node-walking loop runs every region on one of two tiers, which
differ only in the primitive method each node is one call to: the *token
tier* (tuple-list streams, per-token ``process`` loops) or the *columnar
tier* (:class:`~repro.sam.token.TokenStream` structure-of-arrays,
vectorized ``process_columnar`` kernels).  The tier rule is one line: a
region that reads a tensor bound with blocked payloads (gpt3's
block-sparse matrices) runs the token tier, because a columnar stream
holds scalars only and block semantics live in ``process`` alone; every
other region runs the columnar tier.  Both tiers produce identical
streams, statistics, and results — ``tests/test_columnar_differential.py``
and ``tests/test_codegen_differential.py`` enforce this model by model,
forcing a tier by patching the rule, :func:`_reads_blocked`.  Why two
tiers and not one: ``docs/performance.md``, "Why two tiers".

Per-stream protocol validation (``check_stream``) costs a pass over every
produced stream, so it is gated behind ``debug_streams=True`` (or
``FUSEFLOW_DEBUG_STREAMS=1``); the test suite turns it on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ..sam.graph import SAMGraph
from ..sam.primitives.base import ExecutionContext, NodeStats
from ..sam.token import StreamProtocolError, check_stream

_TRUTHY = ("1", "true", "yes", "on")


def default_debug_streams() -> bool:
    """Per-stream protocol checks only when FUSEFLOW_DEBUG_STREAMS is set."""
    return os.environ.get("FUSEFLOW_DEBUG_STREAMS", "").lower() in _TRUTHY


def _reads_blocked(graph: SAMGraph, order: List[str], binding: Dict[str, Any]) -> bool:
    """Whether the region reads a tensor bound with multi-dimensional
    (blocked) payloads: the one thing that sends a run to the token tier."""
    for node_id in order:
        prim = graph.nodes[node_id].prim
        if prim.kind in ("scan", "array", "locate"):
            values = getattr(binding.get(prim.tensor_name), "values", None)
            if values is not None and values.ndim > 1:
                return True
    return False


@dataclass
class FunctionalResult:
    """Streams and statistics from one functional execution; ``lengths``
    keeps each port's token count where a staged run drops the streams."""

    streams: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    stats: Dict[str, NodeStats] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    lengths: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def stream(self, node_id: str, port: str = "out"):
        return self.streams[(node_id, port)]

    def total_ops(self) -> int:
        return sum(s.ops for s in self.stats.values())

    def total_dram_bytes(self) -> int:
        return sum(s.dram_reads + s.dram_writes for s in self.stats.values())

    def total_tokens(self) -> int:
        return sum(s.tokens_out for s in self.stats.values())

    def port_lengths(self) -> Dict[Tuple[str, str], int]:
        """Each port's token count: all the timed engine reads."""
        return {key: len(s) for key, s in self.streams.items()} or self.lengths

    @cached_property
    def out_ports(self) -> Dict[str, Tuple[int, List[Tuple[int, List[str]]]]]:
        """Per node: its longest port's length and its ports grouped by
        length, computed once however often the result is timed."""
        by_node: Dict[str, Dict[int, List[str]]] = {}
        for (nid, port), length in self.port_lengths().items():
            by_node.setdefault(nid, {}).setdefault(length, []).append(port)
        return {
            nid: (max(groups), list(groups.items()))
            for nid, groups in by_node.items()
        }

    def resolved(self, scratchpad_bytes: int) -> "FunctionalResult":
        """This result as timed on one machine: a copy whose stats with
        pending operand reads are copies charged at ``scratchpad_bytes``
        (the rest depend on no machine and are shared) and which leaves
        ``lengths`` behind, so a timed result never holds them; ``self``
        when there is neither to do."""
        pending = [nid for nid, s in self.stats.items() if s.residency]
        if not pending and not self.lengths:
            return self
        stats = dict(self.stats)
        for nid in pending:
            stats[nid] = copy = replace(stats[nid])
            copy.charge(scratchpad_bytes)
        return FunctionalResult(
            streams=self.streams,
            stats=stats,
            results=dict(self.results),
            order=self.order,
        )


def run_functional(
    graph: SAMGraph,
    binding: Dict[str, Any],
    scratchpad_bytes: Optional[int] = 1 << 16,
    *,
    debug_streams: Optional[bool] = None,
    backend: Optional[str] = None,
    cache: bool = True,
) -> FunctionalResult:
    """Execute ``graph`` functionally with tensors bound by name.

    The tier rule (module docstring) picks the tier.  ``debug_streams``
    enables per-stream protocol validation (``None`` reads
    ``FUSEFLOW_DEBUG_STREAMS``).
    Validation of the graph structure itself happens once per graph
    object — the compile flow validates at compile time, so cached
    executables pay nothing here.

    Execution is machine-free: each operand read is recorded as an
    ``(access, footprint)`` pair on its node's stats, and the run's end
    charges the pairs to ``dram_reads`` at ``scratchpad_bytes``.  ``None``
    leaves them pending, so :func:`repro.comal.engine.run_timed` can time
    one run on many machines (:meth:`FunctionalResult.resolved`).

    Every call executes, and the result returned here keeps every token
    stream: the one simulator memo is the
    :class:`~repro.driver.executable.Executable`'s.  ``backend`` and
    ``cache`` are accepted and ignored (frozen ``bench/`` passes them;
    delete at the bench re-cut).
    """
    if debug_streams is None:
        debug_streams = default_debug_streams()
    graph.ensure_validated()
    order = graph.topological_order()
    columnar = not _reads_blocked(graph, order, binding)
    ctx = ExecutionContext(binding, debug_streams=debug_streams)
    result = FunctionalResult()
    result.order = order
    for node_id in order:
        node = graph.nodes[node_id]
        ins = {}
        for port_name, src in node.inputs.items():
            key = (src.node_id, src.port)
            if key not in result.streams:
                raise RuntimeError(
                    f"node {node_id} consumes {key} before it is produced"
                )
            ins[port_name] = result.streams[key]
        stats = ctx.stats_for(node_id)
        ctx.current_node = node_id
        if columnar:
            outs = node.prim.process_columnar(ins, ctx, stats)
        else:
            outs = node.prim.process(ins, ctx, stats)
        for port_name, stream in outs.items():
            if debug_streams and len(stream):
                try:
                    check_stream(stream)
                except StreamProtocolError as exc:
                    raise StreamProtocolError(
                        f"node {node_id} port {port_name!r}: {exc}"
                    ) from exc
            result.streams[(node_id, port_name)] = stream
    if scratchpad_bytes is not None:
        for stats in ctx.stats.values():
            if stats.residency:
                stats.charge(scratchpad_bytes)
    result.stats = ctx.stats
    result.results = ctx.results
    return result
