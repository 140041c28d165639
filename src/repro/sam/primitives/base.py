"""Primitive base class and execution context for SAM/SAMML nodes.

Each primitive is a pure function over whole token streams: given a dict of
input streams (one per input port) it produces a dict of output streams.  The
execution context supplies the tensor binding (name -> SparseTensor) and a
per-node statistics accumulator used by the simulator's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..token import Stream, TokenStream


def residency_charge(access, footprint, capacity):
    """DRAM bytes one operand read costs beside a ``capacity``-byte
    scratchpad: a tensor that fits is charged at most its footprint (the
    compulsory traffic), one that does not every access.  The simulator
    and the fusion heuristic's estimates share this rule."""
    return min(access, footprint) if footprint <= capacity else access


@dataclass
class NodeStats:
    """Per-node instrumentation collected during functional execution.

    ``tokens_in``/``tokens_out`` count every token moved through the node.
    ``ops`` counts arithmetic operations (FLOPs for ALU-class nodes).
    ``dram_reads``/``dram_writes`` count bytes exchanged with off-chip memory
    (zero for nodes operating purely on on-chip streams).  ``residency``
    holds one ``(access, footprint)`` pair per operand read, pending until
    :meth:`charge` charges them at a machine's scratchpad.
    """

    tokens_in: int = 0
    tokens_out: int = 0
    ops: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    residency: Tuple[Tuple[int, int], ...] = ()

    def read_operand(self, access: int, footprint: int) -> None:
        """Record a read of ``access`` bytes from a ``footprint``-byte tensor."""
        self.residency += ((access, footprint),)

    def charge(self, capacity: int) -> None:
        """Charge every pending operand read to ``dram_reads`` at a
        ``capacity``-byte scratchpad (:func:`residency_charge`)."""
        for access, footprint in self.residency:
            self.dram_reads += residency_charge(access, footprint, capacity)
        self.residency = ()


class ExecutionContext:
    """Carries tensor bindings and stats collection through execution.

    It holds no machine: operand reads are recorded on the node's stats
    (:meth:`NodeStats.read_operand`) and charged where the run is timed.
    """

    def __init__(
        self,
        binding: Dict[str, Any] | None = None,
        debug_streams: bool = False,
    ) -> None:
        self.binding: Dict[str, Any] = dict(binding or {})
        self.stats: Dict[str, NodeStats] = {}
        # Tensors produced by writer nodes during execution.
        self.results: Dict[str, Any] = {}
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
    :meth:`process` and :meth:`process_columnar`.
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
        """Columnar-tier counterpart of :meth:`process`: the same streams,
        stats and errors over :class:`~repro.sam.token.TokenStream`
        columns.  Every primitive implements both."""
        raise NotImplementedError

    def timing_class(self) -> str:
        return self.op_class or self.kind

    def describe(self) -> str:
        return self.kind

    def touches_dram(self) -> bool:
        """True when the node moves data to/from off-chip memory."""
        return False
