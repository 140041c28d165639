"""Functional (untimed) executor for SAMML graphs.

Evaluates every node of a graph in topological order, producing the exact
token streams of the SAM protocol.  This layer defines functional
correctness; the timed executor in :mod:`repro.comal.engine` replays the
same streams through a machine timing model.

One node-walking loop runs all three backends; they differ only in the
primitive method each node is one call to:

* ``"columnar"`` (default): streams are
  :class:`~repro.sam.token.TokenStream` structure-of-arrays and primitives
  run their vectorized ``process_columnar`` kernels;
* ``"interp"``: streams are tuple lists and primitives run their per-token
  ``process`` loops — the reference the differential suites compare
  against;
* ``"codegen"``: the per-region tier rule (the name is historical: it once
  emitted a Python kernel per region).  A region runs ``process`` when a
  tensor it reads is bound with blocked payloads or when its input carries
  fewer than :data:`DEFAULT_SMALL_STREAM_CUTOFF` payloads — numpy's
  per-call cost dominates short arrays, and blocked payloads ride the
  ``objs`` escape hatch through every columnar kernel — and
  ``process_columnar`` otherwise.

All three produce identical streams, statistics, and results —
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

#: Payload-count cutoff under which backend ``codegen`` runs a region on
#: the token tier (``process``): numpy call overhead dominates short
#: arrays, so plain Python loops win there.  256 separates the
#: golden-scale sae regions (~120-150 payloads per region, faster on the
#: token tier) from the gcn / graphsage ones (~380-670, faster columnar);
#: blocked gpt3 routes to the token tier separately, via the
#: blocked-payload probe, regardless of size.
DEFAULT_SMALL_STREAM_CUTOFF = 256


def _probe_spec(graph: SAMGraph, order: List[str]) -> Tuple[Tuple[str, ...], int]:
    """Tensor names + constant token floor used to size a run's input.

    The tier rule estimates how much work a run carries by summing the nnz
    of the tensors the region reads plus the length of any replayed source
    streams; both are knowable without executing.
    """
    names: Dict[str, None] = {}
    base = 0
    for node_id in order:
        prim = graph.nodes[node_id].prim
        if prim.kind in ("scan", "array", "locate"):
            names[prim.tensor_name] = None
        elif prim.kind == "source":
            base += len(prim.stream)
    return tuple(names), base


def _probe_size(probe: Tuple[Tuple[str, ...], int], binding: Dict[str, Any]):
    """Size a run from its binding: (estimated input tokens, blocked payloads).

    ``blocked`` is True when any probed tensor carries multi-dimensional
    payloads (e.g. gpt3's block-sparse matrices): those ride the ``objs``
    escape hatch through every columnar kernel, so the token tier's plain
    loops are the faster choice regardless of stream length.
    """
    names, size = probe
    blocked = False
    for name in names:
        values = getattr(binding.get(name), "values", None)
        if values is not None:
            size += int(values.size)
            if values.ndim > 1:
                blocked = True
    return size, blocked


def _runs_columnar(mode: str, graph: SAMGraph, order: List[str], binding) -> bool:
    """The tier a run takes: fixed by ``interp``/``columnar``, else the rule."""
    if mode != "codegen":
        return mode == "columnar"
    size, blocked = _probe_size(_probe_spec(graph, order), binding)
    return not blocked and size >= DEFAULT_SMALL_STREAM_CUTOFF


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
    or ``"codegen"``, the per-region tier rule; ``None`` follows
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
    order = graph.topological_order()
    columnar = _runs_columnar(mode, graph, order, binding)
    ctx = ExecutionContext(
        binding, scratchpad_bytes=scratchpad_bytes, debug_streams=debug_streams
    )
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
