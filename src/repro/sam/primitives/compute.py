"""Compute primitives: binary/unary ALUs and value arrays.

ALUs operate elementwise over positionally aligned value streams.  Values may
be scalars or dense numpy blocks (blocked formats); all operators broadcast
through numpy, and the ``bmm`` operator performs block matrix multiplication
for contractions over blocked tensors.  EMPTY tokens behave as zeros.
Blocks have one kernel, ``process``: the columnar kernels take scalar
payloads only, as a region that reads a blocked tensor runs the token tier.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..token import (
    BLOCKED_ON_TOKEN_TIER,
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


def _as_value(token, zero=0.0):
    """Payload of a val token; EMPTY becomes zero."""
    if token[0] == EMPTY:
        return zero
    return token[1]


def _flops_of(value) -> int:
    """FLOPs charged for one elementwise op on a scalar or block."""
    if isinstance(value, np.ndarray):
        return int(value.size)
    return 1


_BINARY_OPS: Dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b if not isinstance(b, float) or b != 0.0 else 0.0,
    "max": lambda a, b: np.maximum(a, b),
    "min": lambda a, b: np.minimum(a, b),
    "bmm": lambda a, b: _block_mm(a, b),
    "bmt": lambda a, b: _block_mmt(a, b),
}


def _block_mm(a, b):
    """Block product: matmul for 2-D blocks, scalar multiply otherwise."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.ndim == 2:
        return a @ b
    return a * b


def _block_mmt(a, b):
    """Transposed block product ``a @ b.T`` (QK^T in block space)."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.ndim == 2:
        return a @ b.T
    return a * b


class BinaryALU(Primitive):
    """Elementwise binary operator over two aligned value streams."""

    kind = "alu"
    in_ports = ("a", "b")
    out_ports = ("out",)

    def __init__(self, op: str) -> None:
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self._fn = _BINARY_OPS[op]

    def __getstate__(self):
        # ``_fn`` is a module-level lambda looked up by op name; pickling
        # it directly fails (and would be redundant), so it is dropped and
        # restored from the op table (the persistent compile cache
        # serializes whole region graphs).
        state = dict(self.__dict__)
        state.pop("_fn", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._fn = _BINARY_OPS[self.op]

    def describe(self) -> str:
        return f"alu({self.op})"

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        a, b = ins["a"], ins["b"]
        if len(a) != len(b):
            raise StreamProtocolError(
                f"alu({self.op}): misaligned inputs ({len(a)} vs {len(b)})"
            )
        stats.tokens_in += len(a) + len(b)
        out: Stream = []
        fn = self._fn
        for ta, tb in zip(a, b):
            ka, kb = ta[0], tb[0]
            if ka == STOP or ka == DONE:
                if ta != tb:
                    raise StreamProtocolError(
                        f"alu({self.op}): control mismatch {ta} vs {tb}"
                    )
                out.append(ta)
            elif ka == EMPTY and kb == EMPTY:
                out.append(ta)
            else:
                va = _as_value(ta)
                vb = _as_value(tb)
                result = fn(va, vb)
                if self.op in ("bmm", "bmt") and isinstance(result, np.ndarray) and result.ndim == 2:
                    stats.ops += 2 * result.shape[0] * result.shape[1] * (
                        va.shape[1] if isinstance(va, np.ndarray) and va.ndim == 2 else 1
                    )
                else:
                    stats.ops += _flops_of(result)
                out.append((VAL, result))
        stats.tokens_out += len(out)
        return {"out": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        a, b = ins["a"], ins["b"]
        if len(a) != len(b):
            raise StreamProtocolError(
                f"alu({self.op}): misaligned inputs ({len(a)} vs {len(b)})"
            )
        n = len(a)
        stats.tokens_in += 2 * n
        ka, kb = a.kinds, b.kinds
        ctrl = (ka == STOP) | (ka == DONE)
        ctrl_b = (kb == STOP) | (kb == DONE)
        mismatch = (ctrl != ctrl_b) | (ctrl & ((ka != kb) | (a.data != b.data)))
        if mismatch.any():
            i = int(np.nonzero(mismatch)[0][0])
            raise StreamProtocolError(
                f"alu({self.op}): control mismatch {a.token_at(i)} vs "
                f"{b.token_at(i)} at position {i}"
            )
        both_empty = (ka == EMPTY) & (kb == EMPTY)
        compute = ~ctrl & ~both_empty
        out_kinds = np.where(compute, np.int8(VAL), ka)
        # One vectorized op over the value columns (EMPTY payloads are zero
        # by construction, matching _as_value).
        result = _vec_binary(self.op, a.data, b.data)
        out_data = np.where(compute, result, a.data)
        stats.ops += int(np.count_nonzero(compute))
        stats.tokens_out += n
        return {"out": TokenStream(out_kinds, out_data)}


def _vec_binary(op: str, a, b):
    """Vectorized counterparts of the scalar binary ops (bitwise-identical
    elementwise arithmetic; ``div`` keeps the divide-by-zero -> 0 rule)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op in ("mul", "bmm", "bmt"):
        # Scalar bmm/bmt degrade to multiplication, as in _block_mm.
        return a * b
    if op == "div":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b != 0.0, a / b, 0.0)
    if op == "max":
        return np.maximum(a, b)
    if op == "min":
        return np.minimum(a, b)
    raise ValueError(f"unknown binary op {op!r}")


def _gelu(x):
    """tanh approximation of GeLU, numpy-broadcastable."""
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)))


_UNARY_OPS: Dict[str, Callable] = {
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": _gelu,
    "exp": np.exp,
    "neg": lambda x: -x,
    "abs": np.abs,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "identity": lambda x: x,
    "square": lambda x: x * x,
}


class UnaryALU(Primitive):
    """Elementwise unary operator, optionally with scale/offset.

    Computes ``f(scale * x + offset)`` per stored value.  Operates on stored
    (nonzero) values only — the zero-preserving semantics sparse ML relies on
    (masked entries are absent, not zero-valued).
    """

    kind = "ualu"
    in_ports = ("a",)
    out_ports = ("out",)

    def __init__(self, op: str, scale: float = 1.0, offset: float = 0.0) -> None:
        if op not in _UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.scale = scale
        self.offset = offset
        self._fn = _UNARY_OPS[op]

    def __getstate__(self):
        # Same idiom as BinaryALU: the lambda is restored from the op table.
        state = dict(self.__dict__)
        state.pop("_fn", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._fn = _UNARY_OPS[self.op]

    def describe(self) -> str:
        extra = ""
        if self.scale != 1.0 or self.offset != 0.0:
            extra = f",{self.scale:g}x+{self.offset:g}"
        return f"ualu({self.op}{extra})"

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        a = ins["a"]
        stats.tokens_in += len(a)
        out: Stream = []
        for token in a:
            kind = token[0]
            if kind == VAL:
                x = token[1]
                if self.scale != 1.0 or self.offset != 0.0:
                    x = self.scale * x + self.offset
                result = self._fn(x)
                stats.ops += _flops_of(result)
                out.append((VAL, result))
            elif kind == EMPTY:
                out.append(token)
            else:
                out.append(token)
        stats.tokens_out += len(out)
        return {"out": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        a = ins["a"]
        n = len(a)
        stats.tokens_in += n
        kinds = a.kinds
        is_val = kinds == VAL
        x = a.data
        if self.scale != 1.0 or self.offset != 0.0:
            x = self.scale * x + self.offset
        with np.errstate(all="ignore"):
            result = self._fn(x)
        out_data = np.where(is_val, result, a.data)
        stats.ops += int(np.count_nonzero(is_val))
        stats.tokens_out += n
        return {"out": TokenStream(kinds, out_data)}


class ValArray(Primitive):
    """Fetch values from a tensor's value array given a reference stream.

    EMPTY references produce explicit zero values (union padding).  Blocked
    tensors return dense numpy blocks.  Reads are charged to DRAM.
    """

    kind = "array"
    in_ports = ("ref",)
    out_ports = ("val",)

    def __init__(self, tensor_name: str) -> None:
        self.tensor_name = tensor_name

    def describe(self) -> str:
        return f"array({self.tensor_name})"

    def touches_dram(self) -> bool:
        return True

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        tensor = ctx.tensor(self.tensor_name)
        values = tensor.values
        blocked = values.ndim > 1
        zero = np.zeros(values.shape[1:]) if blocked else 0.0
        elem_bytes = int(np.prod(values.shape[1:])) * 8 if blocked else 8
        out: Stream = []
        stats.tokens_in += len(ins["ref"])
        access_bytes = 0
        for token in ins["ref"]:
            kind = token[0]
            if kind == REF:
                out.append((VAL, values[token[1]]))
                access_bytes += elem_bytes
            elif kind == EMPTY:
                out.append((VAL, zero))
            elif kind == STOP or kind == DONE:
                out.append(token)
            else:
                raise StreamProtocolError(f"array got unexpected token kind {kind}")
        stats.read_operand(access_bytes, int(values.size) * 8)
        stats.tokens_out += len(out)
        return {"val": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        ref_in = ins["ref"]
        values = ctx.tensor(self.tensor_name).values
        if values.ndim > 1:
            raise StreamProtocolError(
                f"array({self.tensor_name}): {BLOCKED_ON_TOKEN_TIER}"
            )
        n = len(ref_in)
        stats.tokens_in += n
        kinds = ref_in.kinds
        bad = np.nonzero((kinds == CRD) | (kinds == VAL))[0]
        if bad.size:
            raise StreamProtocolError(
                f"array got unexpected token kind {int(kinds[bad[0]])}"
            )
        is_ref = kinds == REF
        is_empty = kinds == EMPTY
        ref_pos = np.nonzero(is_ref)[0]
        idx = ref_in.data[ref_pos].astype(np.int64)
        out_kinds = np.where(is_ref | is_empty, np.int8(VAL), kinds)
        out_data = np.where(is_ref | is_empty, 0.0, ref_in.data)
        out_data[ref_pos] = values[idx]
        stats.read_operand(8 * len(ref_pos), int(values.size) * 8)
        stats.tokens_out += n
        return {"val": TokenStream(out_kinds, out_data)}
