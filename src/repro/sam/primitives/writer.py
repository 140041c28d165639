"""Tensor construction: level writers assembling output fibertrees.

The :class:`TensorWriter` consumes one coordinate stream per output level
plus the final value stream, reconstructs the coordinate paths, drops
explicit zeros (coordinate-dropper semantics), and assembles a
:class:`~repro.ftree.tensor.SparseTensor` in the requested output format.
Writes are charged to DRAM.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ...ftree.format import Format
from ...ftree.tensor import SparseTensor
from ..token import (
    CRD,
    DONE,
    STOP,
    Stream,
    StreamProtocolError,
    TokenStream,
    check_stream,
    stream_to_nest,
)
from .base import ExecutionContext, NodeStats, Primitive


class TensorWriter(Primitive):
    """Assemble an output tensor from level crd streams and a val stream.

    Ports: ``crd0`` .. ``crd{n-1}`` (outer to inner) and ``val``.  The
    streams must share the nesting produced by the graph's fused iteration:
    the crd stream for level ``d`` has nesting depth ``d + 1`` and aligns
    positionally with the levels above it.
    """

    kind = "write"
    out_ports = ("tensor",)

    def __init__(
        self,
        tensor_name: str,
        shape: Tuple[int, ...],
        fmt: Format,
    ) -> None:
        self.tensor_name = tensor_name
        self.shape = tuple(shape)
        self.fmt = fmt
        self.in_ports = tuple(f"crd{d}" for d in range(len(shape))) + ("val",)

    def describe(self) -> str:
        return f"write({self.tensor_name})"

    def touches_dram(self) -> bool:
        return True

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        n = len(self.shape)
        stats.tokens_in += sum(len(s) for s in ins.values())
        check = ctx.debug_streams
        nests = [
            stream_to_nest(ins[f"crd{d}"], d + 1, check=check) for d in range(n)
        ]
        val_nest = stream_to_nest(ins["val"], n, check=check)
        coords: Dict[Tuple[int, ...], Any] = {}

        def rec(depth: int, frames: List[Any], vals: Any, prefix: Tuple[int, ...]) -> None:
            coords_here = frames[0]
            if len(coords_here) != len(vals):
                raise StreamProtocolError(
                    f"writer {self.tensor_name}: level {depth} crd/val fan-out "
                    f"mismatch ({len(coords_here)} vs {len(vals)})"
                )
            for i, c in enumerate(coords_here):
                path = prefix + (c,)
                if depth == n - 1:
                    coords[path] = vals[i]
                else:
                    rec(depth + 1, [f[i] for f in frames[1:]], vals[i], path)

        rec(0, nests, val_nest, ())
        coords = {
            p: v
            for p, v in coords.items()
            if (np.abs(v).max() if isinstance(v, np.ndarray) else abs(v)) != 0.0
        }
        return self._build(coords, ctx, stats)

    def _build(
        self, coords: Dict[Tuple[int, ...], Any], ctx: ExecutionContext, stats: NodeStats
    ) -> Dict[str, Stream]:
        tensor = SparseTensor.from_coords(
            self.shape, self.fmt, coords, name=self.tensor_name
        )
        stats.dram_writes += tensor.bytes_total()
        ctx.results[self.tensor_name] = tensor
        # Emit a sentinel stream so the writer participates in timing.
        out: Stream = []
        stats.tokens_out += len(out)
        return {"tensor": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        """Columnar assembly: coordinate paths by counting fiber closures.

        The coordinate path of the ``k``-th value is recovered without
        nesting: at level ``d`` the active coordinate is the ``g``-th
        payload of ``crd_d``, where ``g`` counts the stops of level
        ``>= n-2-d`` seen before the value (each such stop closes one
        depth-``d+1`` fiber of the value nest).  The innermost crd stream
        aligns 1:1 with the values.
        """
        n = len(self.shape)
        stats.tokens_in += sum(len(s) for s in ins.values())
        if ctx.debug_streams:
            for stream in ins.values():
                check_stream(stream)
        val = ins["val"]
        kinds = val.kinds
        val_pos = np.nonzero((kinds != STOP) & (kinds != DONE))[0]
        m = len(val_pos)

        cols: List[np.ndarray] = []
        for d in range(n):
            crd = ins[f"crd{d}"]
            ck = crd.kinds
            pay = np.nonzero((ck != STOP) & (ck != DONE))[0]
            if (ck[pay] != CRD).any():
                raise StreamProtocolError(
                    f"writer {self.tensor_name}: crd{d} carries non-coordinate "
                    "payload tokens"
                )
            payloads = crd.data[pay].astype(np.int64)
            if d == n - 1:
                if len(payloads) != m:
                    raise StreamProtocolError(
                        f"writer {self.tensor_name}: level {d} crd/val fan-out "
                        f"mismatch ({len(payloads)} vs {m})"
                    )
                cols.append(payloads)
            else:
                closes = (kinds == STOP) & (val.data >= n - 2 - d)
                group = np.cumsum(closes)[val_pos]
                if m and (
                    len(payloads) <= int(group.max())
                ):
                    raise StreamProtocolError(
                        f"writer {self.tensor_name}: level {d} crd/val fan-out "
                        f"mismatch ({len(payloads)} vs {int(group.max()) + 1})"
                    )
                cols.append(payloads[group] if m else payloads[:0])

        vals = val.data[val_pos]
        keep = vals != 0.0
        vals = vals[keep]
        cols = [c[keep] for c in cols]

        paths = zip(*(c.tolist() for c in cols)) if n else iter(())
        coords = dict(zip(paths, vals.tolist()))
        self._build(coords, ctx, stats)
        return {"tensor": TokenStream.empty()}
