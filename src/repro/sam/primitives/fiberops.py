"""Fiber-granularity ML primitives: streaming softmax and normalization.

These are the SAMML additions the paper makes to SAM for sparse ML models
(Section 7): nonlinear operators that need a whole innermost fiber of values
at once.  Each buffers the values of the current innermost fiber and applies
the operator when the fiber closes, preserving the stream's control
structure exactly.

Softmax follows sparse-attention semantics: it normalizes over the *stored*
entries of a fiber (absent coordinates behave as masked, i.e. ``-inf``
logits), which is what masked block-sparse attention requires.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..token import (
    CRD,
    DONE,
    EMPTY,
    REF,
    STOP,
    VAL,
    Stream,
    StreamProtocolError,
    TokenStream,
)
from .base import ExecutionContext, NodeStats, Primitive


def _apply_over_fiber(values: List[Any], fn) -> List[Any]:
    """Apply ``fn`` across a fiber that may hold scalars or 2-D blocks.

    Blocks are concatenated along their last axis so row-wise operators see
    the whole logical row, then split back into blocks.
    """
    if not values:
        return values
    if isinstance(values[0], np.ndarray) and values[0].ndim == 2:
        widths = [v.shape[1] for v in values]
        row = np.concatenate(values, axis=1)
        row = fn(row, axis=1)
        out: List[Any] = []
        start = 0
        for w in widths:
            out.append(row[:, start : start + w])
            start += w
        return out
    arr = fn(np.asarray(values, dtype=np.float64), axis=0)
    return [float(x) for x in arr]


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _layernorm(x: np.ndarray, axis: int, eps: float = 1e-5) -> np.ndarray:
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.var(x, axis=axis, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


class FiberOp(Primitive):
    """Base for fiber-buffered operators on the innermost level."""

    kind = "fiberop"
    in_ports = ("val",)
    out_ports = ("out",)
    flops_per_elem = 4

    def _fn(self, x: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        out: Stream = []
        buffer: List[Any] = []
        stats.tokens_in += len(ins["val"])

        def flush() -> None:
            if buffer:
                results = _apply_over_fiber(buffer, self._fn)
                for r in results:
                    out.append((VAL, r))
                    stats.ops += self.flops_per_elem * (
                        int(r.size) if isinstance(r, np.ndarray) else 1
                    )
                buffer.clear()

        for token in ins["val"]:
            kind = token[0]
            if kind == VAL:
                buffer.append(token[1])
            elif kind == EMPTY:
                buffer.append(0.0)
            elif kind == STOP or kind == DONE:
                flush()
                out.append(token)
            else:
                raise StreamProtocolError(f"{self.kind} got token kind {kind}")
        stats.tokens_out += len(out)
        return {"out": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        """Columnar fiber op: slice per fiber, skip the token walk.

        The numpy operator is applied to exactly the same per-fiber value
        array the legacy path builds token by token, so results are
        bit-identical; only the buffering loop is eliminated.
        """
        ts = ins["val"]
        n = len(ts)
        stats.tokens_in += n
        kinds = ts.kinds
        bad = np.nonzero((kinds == CRD) | (kinds == REF))[0]
        if bad.size:
            raise StreamProtocolError(
                f"{self.kind} got token kind {int(kinds[bad[0]])}"
            )
        ctrl_pos = np.nonzero((kinds == STOP) | (kinds == DONE))[0]
        pay_mask = (kinds == VAL) | (kinds == EMPTY)
        pay_pos = np.nonzero(pay_mask)[0]
        out_kinds = np.where(pay_mask, np.int8(VAL), kinds)
        out_data = ts.data.copy()
        # Fiber boundaries within the payload-position array.
        bounds = np.searchsorted(pay_pos, ctrl_pos)
        values_all = ts.data[pay_pos]
        start = 0
        for end in bounds.tolist():
            if end > start:
                seg = values_all[start:end]
                out_data[pay_pos[start:end]] = self._fn(seg, axis=0)
                stats.ops += self.flops_per_elem * (end - start)
            start = end
        out = TokenStream(out_kinds, out_data)
        stats.tokens_out += n
        return {"out": out}


class FiberSoftmax(FiberOp):
    """Softmax over each innermost fiber's stored values."""

    kind = "softmax"
    flops_per_elem = 5

    def _fn(self, x: np.ndarray, axis: int) -> np.ndarray:
        return _softmax(x, axis)


class FiberNorm(FiberOp):
    """Mean/variance normalization (layernorm core) over innermost fibers."""

    kind = "layernorm"
    flops_per_elem = 6

    def _fn(self, x: np.ndarray, axis: int) -> np.ndarray:
        return _layernorm(x, axis)

