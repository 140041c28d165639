"""PyTorch-like tracing frontend (Torch-MLIR / MPACT stand-in).

Models are written against a small imperative API — symbolic tensors,
``Linear`` modules, ``relu``/``gelu``/``softmax``/``layer_norm`` functions,
``matmul`` — and every operation records one Einsum statement into an
:class:`~repro.core.einsum.ast.EinsumProgram`.  Sparse tensors carry format
annotations exactly as MPACT/Scorch sparse annotations do; the compiler
proper only ever sees the Einsum program, mirroring how FuseFlow consumes
the MLIR Linalg + SparseTensor dialects.

The :class:`ModelBuilder` also keeps the runtime binding (tensor name ->
:class:`~repro.ftree.tensor.SparseTensor`) for declared inputs, so a traced
model is immediately runnable through a :class:`~repro.driver.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.einsum.ast import EinsumProgram
from ..ftree.format import Format, dense as dense_format
from ..ftree.tensor import SparseTensor


@dataclass
class SymTensor:
    """A symbolic tensor handle produced by tracing."""

    builder: "ModelBuilder"
    name: str
    dims: Tuple[int, ...]
    blocked: bool = False

    @property
    def order(self) -> int:
        return len(self.dims)

    # Sugar so models read like PyTorch code.
    def __matmul__(self, other: "SymTensor") -> "SymTensor":
        return self.builder.matmul(self, other)

    def __add__(self, other: "SymTensor") -> "SymTensor":
        return self.builder.add(self, other)

    def __mul__(self, other: "SymTensor") -> "SymTensor":
        return self.builder.mul(self, other)


class ModelBuilder:
    """Records operations into an Einsum program plus a runtime binding."""

    def __init__(self, name: str = "model") -> None:
        self.program = EinsumProgram(name)
        self.binding: Dict[str, SparseTensor] = {}
        self._tensor_counter = 0
        self._index_counter = 0
        # Statement id -> human label (used to define fusion groups).
        self.labels: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def input(
        self,
        name: str,
        data: np.ndarray,
        fmt: Format | None = None,
    ) -> SymTensor:
        """Declare an input tensor with data and optional sparse format."""
        data = np.asarray(data, dtype=np.float64)
        fmt = fmt or dense_format(data.ndim)
        self.program.declare(name, data.shape, fmt)
        self.binding[name] = SparseTensor.from_dense(data, fmt, name=name)
        if fmt.is_blocked:
            grid = tuple(s // b for s, b in zip(data.shape, fmt.block_shape))
            return SymTensor(self, name, grid, blocked=True)
        return SymTensor(self, name, data.shape)

    def fresh_name(self, base: str = "t") -> str:
        self._tensor_counter += 1
        return f"{base}{self._tensor_counter}"

    def fresh_indices(self, count: int) -> List[str]:
        out = []
        for _ in range(count):
            self._index_counter += 1
            out.append(f"x{self._index_counter}")
        return out

    def _record(self, sid: int, label: Optional[str]) -> None:
        if label:
            self.labels[sid] = label

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def matmul(
        self,
        a: SymTensor,
        b: SymTensor,
        label: str | None = None,
        order: str | None = None,
        transpose_b: bool = False,
    ) -> SymTensor:
        """``out = a @ b`` (or ``a @ b.T`` with ``transpose_b``).

        ``order`` optionally schedules the statement's dataflow order as a
        permutation of ``"ikj"`` (i = rows of a, k = contraction, j = the
        other operand's free dimension).
        """
        if a.order != 2 or b.order != 2:
            raise ValueError("matmul expects 2-D tensors")
        i, k, j = self.fresh_indices(3)
        if transpose_b:
            if a.dims[1] != b.dims[1]:
                raise ValueError(f"matmul_t dims mismatch: {a.dims} x {b.dims}")
            out_dims = (a.dims[0], b.dims[0])
            b_access = (b.name, (j, k))
        else:
            if a.dims[1] != b.dims[0]:
                raise ValueError(f"matmul dims mismatch: {a.dims} x {b.dims}")
            out_dims = (a.dims[0], b.dims[1])
            b_access = (b.name, (k, j))
        blocked = a.blocked or b.blocked
        op = ("bmt" if transpose_b else "bmm") if blocked else "mul"
        name = self.fresh_name("mm")
        stmt_order = None
        if order:
            mapping = {"i": i, "k": k, "j": j}
            stmt_order = tuple(mapping[c] for c in order)
        stmt = self.program.contract(
            name, (i, j), op, [(a.name, (i, k)), b_access], order=stmt_order
        )
        self._record(stmt.sid, label)
        return SymTensor(self, name, out_dims, blocked=blocked)

    def mul(self, a: SymTensor, b: SymTensor, label: str | None = None) -> SymTensor:
        """Elementwise product, broadcasting ``b`` over missing leading dims."""
        return self._ewise("mul", a, b, label)

    def add(self, a: SymTensor, b: SymTensor, label: str | None = None) -> SymTensor:
        """Elementwise sum; ``b`` may be a vector broadcast over rows."""
        return self._ewise("add", a, b, label)

    def _ewise(self, op: str, a: SymTensor, b: SymTensor, label: str | None) -> SymTensor:
        idx = self.fresh_indices(a.order)
        if b.order == a.order:
            if a.dims != b.dims:
                raise ValueError(f"elementwise dims mismatch: {a.dims} vs {b.dims}")
            b_idx = tuple(idx)
        elif b.order == 1 and b.dims[0] == a.dims[-1]:
            b_idx = (idx[-1],)
        else:
            raise ValueError(f"cannot broadcast {b.dims} against {a.dims}")
        name = self.fresh_name("ew")
        stmt = self.program.contract(
            name, tuple(idx), op, [(a.name, tuple(idx)), (b.name, b_idx)]
        )
        self._record(stmt.sid, label)
        return SymTensor(self, name, a.dims, blocked=a.blocked or b.blocked)

    def unary(
        self,
        op: str,
        x: SymTensor,
        scale: float = 1.0,
        offset: float = 0.0,
        label: str | None = None,
    ) -> SymTensor:
        idx = tuple(self.fresh_indices(x.order))
        name = self.fresh_name(op)
        stmt = self.program.unary(name, idx, op, (x.name, idx), scale=scale, offset=offset)
        self._record(stmt.sid, label)
        return SymTensor(self, name, x.dims, blocked=x.blocked)

    def relu(self, x: SymTensor, label: str | None = None) -> SymTensor:
        return self.unary("relu", x, label=label)

    def gelu(self, x: SymTensor, label: str | None = None) -> SymTensor:
        return self.unary("gelu", x, label=label)

    def scale(self, x: SymTensor, factor: float, label: str | None = None) -> SymTensor:
        return self.unary("identity", x, scale=factor, label=label)

    def softmax(self, x: SymTensor, label: str | None = None) -> SymTensor:
        """Softmax over the innermost dimension (stored entries only)."""
        idx = tuple(self.fresh_indices(x.order))
        name = self.fresh_name("soft")
        stmt = self.program.fiber(name, idx, "softmax", (x.name, idx))
        self._record(stmt.sid, label)
        return SymTensor(self, name, x.dims, blocked=x.blocked)

    def layer_norm(self, x: SymTensor, label: str | None = None) -> SymTensor:
        """Mean/variance normalization over the innermost dimension."""
        idx = tuple(self.fresh_indices(x.order))
        name = self.fresh_name("ln")
        stmt = self.program.fiber(name, idx, "layernorm", (x.name, idx))
        self._record(stmt.sid, label)
        return SymTensor(self, name, x.dims, blocked=x.blocked)

    def masked(self, x: SymTensor, mask: SymTensor, label: str | None = None) -> SymTensor:
        """Apply a sparsity mask (elementwise product with a sparse tensor).

        Under fusion this folds into the producing contraction (SDDMM).
        """
        return self._ewise("mul", x, mask, label)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, schedule=None, session=None):
        """Compile the traced program into an :class:`~repro.driver.Executable`.

        Uses the process-wide default session unless one is given, so
        repeated compiles of an identical trace are served from cache.
        The driver import is deferred: the frontend layer otherwise only
        depends on the Einsum IR.
        """
        from ..driver.session import default_session

        session = session or default_session()
        return session.compile(self.program, schedule)

    # ------------------------------------------------------------------
    # Bookkeeping helpers for schedules
    # ------------------------------------------------------------------
    def sids(self, *labels: str) -> List[int]:
        """Statement ids carrying any of the given labels, in order."""
        wanted = set(labels)
        return [sid for sid, lab in sorted(self.labels.items()) if lab in wanted]


class Linear:
    """A dense (or sparse-weight) linear layer: ``y = x W + b``."""

    def __init__(
        self,
        builder: ModelBuilder,
        in_features: int,
        out_features: int,
        weight: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        weight_fmt: Format | None = None,
        name: str = "lin",
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        if weight is None:
            weight = rng.standard_normal((in_features, out_features)) / np.sqrt(in_features)
        if bias is None:
            bias = rng.standard_normal(out_features) * 0.1
        self.builder = builder
        self.weight = builder.input(f"{name}_w", weight, weight_fmt)
        self.bias = builder.input(f"{name}_b", bias)
        self.name = name

    def __call__(self, x: SymTensor, label_prefix: str = "") -> SymTensor:
        prefix = label_prefix or self.name
        y = self.builder.matmul(x, self.weight, label=f"{prefix}_mm")
        return self.builder.add(y, self.bias, label=f"{prefix}_bias")
