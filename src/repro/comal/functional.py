"""Functional (untimed) executor for SAMML graphs.

Evaluates every node of a graph in topological order, producing the exact
token streams of the SAM protocol.  This layer defines functional
correctness; the timed executor in :mod:`repro.comal.engine` replays the
same streams through a machine timing model.

The node-walking loop here runs two of the three backends:

* ``"columnar"`` (default): streams are
  :class:`~repro.sam.token.TokenStream` structure-of-arrays and primitives
  run their vectorized ``process_columnar`` kernels;
* ``"interp"``: streams are tuple lists and primitives run their per-token
  ``process`` loops — the reference the differential suites compare
  against.

``"codegen"`` hands the graph to :mod:`repro.backend.codegen` instead.  All
three produce identical streams, statistics, and results —
``tests/test_columnar_differential.py`` and
``tests/test_codegen_differential.py`` enforce this model by model.

Per-stream protocol validation (``check_stream``) costs a pass over every
produced stream, so it is gated behind ``debug_streams=True`` (or
``FUSEFLOW_DEBUG_STREAMS=1``); the test suite turns it on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..backend.base import resolve_backend_name
from ..sam.graph import SAMGraph
from ..sam.primitives.base import ExecutionContext, NodeStats
from ..sam.token import StreamProtocolError, check_stream

_TRUTHY = ("1", "true", "yes", "on")


def default_debug_streams() -> bool:
    """Per-stream protocol checks only when FUSEFLOW_DEBUG_STREAMS is set."""
    return os.environ.get("FUSEFLOW_DEBUG_STREAMS", "").lower() in _TRUTHY


#: Entries kept per graph in the functional/timed memo (a sweep touches a
#: handful of bindings per graph at most; executions dominate).
_CACHE_ENTRIES = 4


def _binding_key(graph: SAMGraph, binding: Dict[str, Any]) -> Optional[Tuple]:
    """Identity key of the tensors this graph reads, or None if unbound.

    Functional execution is a pure function of the graph and the bound
    tensor *objects* (tensors are immutable once built), so object identity
    is a sound memo key as long as the entry pins the tensors alive.
    """
    names = graph.input_tensor_names()
    try:
        return tuple(id(binding[name]) for name in names)
    except KeyError:
        return None


@dataclass
class FunctionalResult:
    """Streams and statistics from one functional execution."""

    streams: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    stats: Dict[str, NodeStats] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)

    def stream(self, node_id: str, port: str = "out"):
        return self.streams[(node_id, port)]

    def total_ops(self) -> int:
        return sum(s.ops for s in self.stats.values())

    def total_dram_bytes(self) -> int:
        return sum(s.dram_reads + s.dram_writes for s in self.stats.values())

    def total_tokens(self) -> int:
        return sum(s.tokens_out for s in self.stats.values())


def run_functional(
    graph: SAMGraph,
    binding: Dict[str, Any],
    scratchpad_bytes: int = 1 << 16,
    *,
    backend: Optional[str] = None,
    debug_streams: Optional[bool] = None,
    cache: bool = True,
) -> FunctionalResult:
    """Execute ``graph`` functionally with tensors bound by name.

    ``backend`` names the execution backend (``"interp"``, ``"columnar"``,
    or ``"codegen"``; ``None`` follows
    :func:`repro.backend.base.resolve_backend_name`).  ``debug_streams``
    enables per-stream protocol validation (``None`` reads
    ``FUSEFLOW_DEBUG_STREAMS``).  Validation of the graph structure itself
    happens once per graph object — the compile flow validates at
    compile time, so cached executables pay nothing here.

    ``cache`` memoizes the result per (tensor identities, scratchpad, mode):
    functional execution is machine-independent apart from the scratchpad
    size, so schedule sweeps and repeated executions of a cached
    ``Executable`` skip re-simulation entirely (``cache=False`` disables).
    Bound tensors are treated as immutable.
    """
    mode = resolve_backend_name(backend)
    if debug_streams is None:
        debug_streams = default_debug_streams()
    memo_key = None
    if cache:
        ids = _binding_key(graph, binding)
        if ids is not None:
            memo_key = (scratchpad_bytes, mode, debug_streams, ids)
            memo = graph.func_cache
            if memo is not None:
                entry = memo.get(memo_key)
                if entry is not None:
                    return entry[0]
    graph.ensure_validated()
    if mode == "codegen":
        from ..backend.codegen import try_run_codegen

        return _memoize(
            graph,
            binding,
            memo_key,
            try_run_codegen(graph, binding, scratchpad_bytes, debug_streams),
        )
    columnar = mode != "interp"
    ctx = ExecutionContext(
        binding, scratchpad_bytes=scratchpad_bytes, debug_streams=debug_streams
    )
    result = FunctionalResult()
    order = graph.topological_order()
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
    result.stats = ctx.stats
    result.results = ctx.results
    return _memoize(graph, binding, memo_key, result)


def _memoize(
    graph: SAMGraph,
    binding: Dict[str, Any],
    memo_key: Optional[Tuple],
    result: FunctionalResult,
) -> FunctionalResult:
    """Store ``result`` in the graph's functional memo (if enabled)."""
    if memo_key is not None:
        memo = graph.func_cache
        if memo is None:
            memo = graph.func_cache = {}
        # Pin the bound tensors so the id()-based key stays valid.
        memo[memo_key] = (
            result,
            [binding[n] for n in graph.input_tensor_names()],
        )
        while len(memo) > _CACHE_ENTRIES:
            memo.pop(next(iter(memo)))
    return result
