"""Primitive base class and execution context for SAM/SAMML nodes.

Each primitive is a pure function over whole token streams: given a dict of
input streams (one per input port) it produces a dict of output streams.  The
execution context supplies the tensor binding (name -> SparseTensor) and a
per-node statistics accumulator used by the simulator's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..token import Stream, TokenStream


@dataclass
class NodeStats:
    """Per-node instrumentation collected during functional execution.

    ``tokens_in``/``tokens_out`` count every token moved through the node.
    ``ops`` counts arithmetic operations (FLOPs for ALU-class nodes).
    ``dram_reads``/``dram_writes`` count bytes exchanged with off-chip memory
    (zero for nodes operating purely on on-chip streams).
    """

    tokens_in: int = 0
    tokens_out: int = 0
    ops: int = 0
    dram_reads: int = 0
    dram_writes: int = 0

    def merge(self, other: "NodeStats") -> None:
        self.tokens_in += other.tokens_in
        self.tokens_out += other.tokens_out
        self.ops += other.ops
        self.dram_reads += other.dram_reads
        self.dram_writes += other.dram_writes


class ExecutionContext:
    """Carries tensor bindings and stats collection through execution."""

    def __init__(
        self,
        binding: Dict[str, Any] | None = None,
        scratchpad_bytes: int = 1 << 16,
        debug_streams: bool = False,
    ) -> None:
        self.binding: Dict[str, Any] = dict(binding or {})
        self.stats: Dict[str, NodeStats] = {}
        # Tensors produced by writer nodes during execution.
        self.results: Dict[str, Any] = {}
        # On-chip scratchpad capacity: tensors that fit are charged DRAM
        # traffic once (compulsory), not per re-access.
        self.scratchpad_bytes = scratchpad_bytes
        # When True, every produced stream is protocol-checked (check_stream)
        # and writers re-validate their inputs; costs a pass per stream, so
        # it is off on hot paths and turned on by tests / debugging sessions.
        self.debug_streams = debug_streams
        # Node id currently executing, for error attribution in primitives.
        self.current_node: str = "?"

    def tensor(self, name: str):
        try:
            return self.binding[name]
        except KeyError:
            raise KeyError(
                f"tensor {name!r} not bound (have {sorted(self.binding)})"
            ) from None

    def stats_for(self, node_id: str) -> NodeStats:
        if node_id not in self.stats:
            self.stats[node_id] = NodeStats()
        return self.stats[node_id]


class Primitive:
    """Base class for all SAM/SAMML dataflow primitives.

    Subclasses define ``kind`` (a short identifier used by the timing model),
    ``in_ports``/``out_ports`` (names of stream ports), and implement
    :meth:`process`.
    """

    kind: str = "prim"
    in_ports: Tuple[str, ...] = ()
    out_ports: Tuple[str, ...] = ("out",)
    # Timing class used by machine models; defaults to ``kind``.
    op_class: Optional[str] = None

    def process(self, ins: Dict[str, Stream], ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        """Consume input streams, return output streams, update ``stats``."""
        raise NotImplementedError

    def process_columnar(
        self,
        ins: Dict[str, TokenStream],
        ctx: ExecutionContext,
        stats: NodeStats,
    ) -> Dict[str, TokenStream]:
        """Columnar-path counterpart of :meth:`process`.

        Hot primitives override this with vectorized numpy kernels; the
        default bridges through the legacy tuple-list implementation so
        exotic primitives stay correct without a rewrite.  Either way the
        observable semantics — streams, stats, errors — match the legacy
        path token for token.
        """
        legacy_ins = {
            port: stream.to_tokens() if isinstance(stream, TokenStream) else stream
            for port, stream in ins.items()
        }
        outs = self.process(legacy_ins, ctx, stats)
        return {
            port: TokenStream.from_tokens(stream) for port, stream in outs.items()
        }

    def timing_class(self) -> str:
        return self.op_class or self.kind

    def describe(self) -> str:
        return self.kind

    def touches_dram(self) -> bool:
        """True when the node moves data to/from off-chip memory."""
        return False
