"""Einsum-level IR: accesses, statements, and programs.

A FuseFlow program is a DAG of *statements*, each producing one tensor from
one Einsum-style operation (paper Figure 6b).  Statements come in three
kinds:

``contract``
    ``lhs = reduce_+ (op over operands)`` where ``op`` is a multiplicative
    (``mul``/``bmm``) or additive (``add``/``sub``/``max``) elementwise
    combination and the reduction runs over every index that appears on the
    right but not on the left.  N-ary multiplicative contractions arise from
    mask folding during fusion (SDDMM-style kernels).
``unary``
    ``lhs = f(scale * operand + offset)`` elementwise over stored values
    (ReLU, GeLU, exp, ...).
``fiber``
    A fiber-granularity operator over the operand's innermost index
    (softmax, layernorm).

Index variables are plain strings.  Tensor declarations carry shapes and
storage formats; statement validation checks index/extent consistency.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...ftree.format import Format, dense as dense_format

MULTIPLICATIVE_OPS = {"mul", "bmm", "bmt"}
ADDITIVE_OPS = {"add", "sub", "max", "min"}
UNARY_OPS = {
    "relu",
    "gelu",
    "exp",
    "neg",
    "abs",
    "sigmoid",
    "tanh",
    "sqrt",
    "identity",
    "square",
}
FIBER_OPS = {"softmax", "layernorm"}


class EinsumError(ValueError):
    """Raised on malformed Einsum programs."""


@dataclass(frozen=True)
class Access:
    """One tensor access, e.g. ``A(i, k)``."""

    tensor: str
    indices: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.tensor}({', '.join(self.indices)})"

    def rename(self, mapping: Dict[str, str]) -> "Access":
        return Access(self.tensor, tuple(mapping.get(i, i) for i in self.indices))


@dataclass(frozen=True)
class TensorDecl:
    """Declared tensor: shape, storage format, role."""

    name: str
    shape: Tuple[int, ...]
    fmt: Format
    is_input: bool = True

    @property
    def order(self) -> int:
        return len(self.shape)


@dataclass
class Statement:
    """One Einsum statement producing ``lhs`` from ``operands``."""

    lhs: Access
    kind: str  # 'contract' | 'unary' | 'fiber'
    op: str
    operands: Tuple[Access, ...]
    # Optional user-scheduled dataflow order over this statement's indices.
    order: Optional[Tuple[str, ...]] = None
    # Unary parameters: lhs = f(scale * x + offset).
    scale: float = 1.0
    offset: float = 0.0
    sid: int = -1

    def __post_init__(self) -> None:
        if self.kind == "contract":
            if self.op not in MULTIPLICATIVE_OPS | ADDITIVE_OPS:
                raise EinsumError(f"bad contract op {self.op!r}")
            if not self.operands:
                raise EinsumError("contract needs operands")
            if self.op in ADDITIVE_OPS and len(self.operands) != 2:
                raise EinsumError("additive statements must be binary")
            if self.op in ADDITIVE_OPS and self.reduction_indices():
                raise EinsumError(
                    "additive statements may not reduce "
                    f"(got {self.reduction_indices()} in {self})"
                )
        elif self.kind == "unary":
            if self.op not in UNARY_OPS:
                raise EinsumError(f"bad unary op {self.op!r}")
            if len(self.operands) != 1:
                raise EinsumError("unary statements take one operand")
            if set(self.lhs.indices) != set(self.operands[0].indices):
                raise EinsumError(f"unary statement changes indices: {self}")
        elif self.kind == "fiber":
            if self.op not in FIBER_OPS:
                raise EinsumError(f"bad fiber op {self.op!r}")
            if len(self.operands) != 1:
                raise EinsumError("fiber statements take one operand")
        else:
            raise EinsumError(f"unknown statement kind {self.kind!r}")

    # ------------------------------------------------------------------
    def all_indices(self) -> Tuple[str, ...]:
        """Statement indices, in first-appearance order (lhs first)."""
        seen: List[str] = []
        for idx in self.lhs.indices:
            if idx not in seen:
                seen.append(idx)
        for acc in self.operands:
            for idx in acc.indices:
                if idx not in seen:
                    seen.append(idx)
        return tuple(seen)

    def reduction_indices(self) -> Tuple[str, ...]:
        """Indices reduced over (on the right but not the left)."""
        lhs = set(self.lhs.indices)
        out: List[str] = []
        for acc in self.operands:
            for idx in acc.indices:
                if idx not in lhs and idx not in out:
                    out.append(idx)
        return tuple(out)

    def uses(self) -> Set[str]:
        return {acc.tensor for acc in self.operands}

    def rename_indices(self, mapping: Dict[str, str]) -> "Statement":
        return replace(
            self,
            lhs=self.lhs.rename(mapping),
            operands=tuple(acc.rename(mapping) for acc in self.operands),
            order=tuple(mapping.get(i, i) for i in self.order) if self.order else None,
        )

    def __str__(self) -> str:
        rhs = f" {self.op} ".join(str(a) for a in self.operands)
        if self.kind == "unary":
            rhs = f"{self.op}({self.operands[0]})"
        elif self.kind == "fiber":
            over = self.operands[0].indices[-1]
            rhs = f"{self.op}[{over}]({self.operands[0]})"
        red = self.reduction_indices()
        prefix = f"sum_{{{','.join(red)}}} " if red else ""
        return f"{self.lhs} = {prefix}{rhs}"


class EinsumProgram:
    """A DAG of Einsum statements plus tensor declarations."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.decls: Dict[str, TensorDecl] = {}
        self.statements: List[Statement] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def declare(
        self,
        name: str,
        shape: Sequence[int],
        fmt: Format | None = None,
        is_input: bool = True,
    ) -> TensorDecl:
        if name in self.decls:
            raise EinsumError(f"tensor {name!r} declared twice")
        decl = TensorDecl(
            name, tuple(shape), fmt or dense_format(len(shape)), is_input
        )
        self.decls[name] = decl
        return decl

    def add(self, stmt: Statement) -> Statement:
        stmt.sid = len(self.statements)
        self.statements.append(stmt)
        return stmt

    def contract(
        self,
        lhs: str,
        lhs_indices: Sequence[str],
        op: str,
        operands: Sequence[Tuple[str, Sequence[str]]],
        order: Sequence[str] | None = None,
    ) -> Statement:
        """Convenience builder for contract statements."""
        stmt = Statement(
            lhs=Access(lhs, tuple(lhs_indices)),
            kind="contract",
            op=op,
            operands=tuple(Access(t, tuple(ix)) for t, ix in operands),
            order=tuple(order) if order else None,
        )
        return self.add(stmt)

    def unary(
        self,
        lhs: str,
        lhs_indices: Sequence[str],
        op: str,
        operand: Tuple[str, Sequence[str]],
        scale: float = 1.0,
        offset: float = 0.0,
    ) -> Statement:
        stmt = Statement(
            lhs=Access(lhs, tuple(lhs_indices)),
            kind="unary",
            op=op,
            operands=(Access(operand[0], tuple(operand[1])),),
            scale=scale,
            offset=offset,
        )
        return self.add(stmt)

    def fiber(
        self,
        lhs: str,
        lhs_indices: Sequence[str],
        op: str,
        operand: Tuple[str, Sequence[str]],
    ) -> Statement:
        stmt = Statement(
            lhs=Access(lhs, tuple(lhs_indices)),
            kind="fiber",
            op=op,
            operands=(Access(operand[0], tuple(operand[1])),),
        )
        return self.add(stmt)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def producers(self) -> Dict[str, Statement]:
        """Map tensor name -> the statement producing it."""
        out: Dict[str, Statement] = {}
        for stmt in self.statements:
            if stmt.lhs.tensor in out:
                raise EinsumError(f"tensor {stmt.lhs.tensor!r} produced twice")
            out[stmt.lhs.tensor] = stmt
        return out

    def intermediates(self) -> Set[str]:
        """Tensors that are both produced and consumed."""
        produced = {s.lhs.tensor for s in self.statements}
        consumed = {a.tensor for s in self.statements for a in s.operands}
        return produced & consumed

    def outputs(self) -> List[str]:
        """Produced tensors never consumed (program results)."""
        produced = [s.lhs.tensor for s in self.statements]
        consumed = {a.tensor for s in self.statements for a in s.operands}
        return [t for t in produced if t not in consumed]

    def index_sizes(self) -> Dict[str, int]:
        """Index name -> extent, derived from declarations and statements.

        Statement outputs may not be declared; their extents propagate from
        the operands that share the index.
        """
        sizes: Dict[str, int] = {}
        changed = True
        while changed:
            changed = False
            for stmt in self.statements:
                for acc in itertools.chain([stmt.lhs], stmt.operands):
                    decl = self.decls.get(acc.tensor)
                    if decl is None:
                        continue
                    shape = decl.shape
                    if decl.fmt.is_blocked:
                        shape = tuple(
                            s // b for s, b in zip(decl.shape, decl.fmt.block_shape)
                        )
                    if len(acc.indices) != len(shape):
                        raise EinsumError(
                            f"{acc} has {len(acc.indices)} indices but "
                            f"{acc.tensor} has order {len(shape)}"
                        )
                    for idx, extent in zip(acc.indices, shape):
                        if idx not in sizes:
                            sizes[idx] = extent
                            changed = True
                        elif sizes[idx] != extent:
                            raise EinsumError(
                                f"index {idx!r} has conflicting extents "
                                f"{sizes[idx]} vs {extent} (at {acc})"
                            )
        return sizes

    def fingerprint(self) -> str:
        """Stable content hash over declarations and statements.

        Two programs fingerprint equally iff they declare the same tensors
        (name, shape, storage format) and contain the same statement list
        (kind, op, accesses, scheduled order, unary parameters) — regardless
        of object identity.  The driver's compile cache keys on this, so the
        hash must cover every input the compiler reads.
        """
        parts = [f"program {self.name}"]
        for name in sorted(self.decls):
            decl = self.decls[name]
            parts.append(
                f"decl {name} shape={decl.shape} levels={decl.fmt.levels} "
                f"mode_order={decl.fmt.mode_order} "
                f"block={decl.fmt.block_shape} input={decl.is_input}"
            )
        for stmt in self.statements:
            parts.append(
                f"stmt {stmt.sid} {stmt.kind} {stmt.op} {stmt} "
                f"order={stmt.order} scale={stmt.scale} offset={stmt.offset}"
            )
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def validate(self) -> None:
        """Check DAG-ness, declarations, and index consistency."""
        produced: Set[str] = set()
        for stmt in self.statements:
            for acc in stmt.operands:
                if acc.tensor not in self.decls and acc.tensor not in produced:
                    raise EinsumError(
                        f"statement {stmt} uses {acc.tensor!r} before definition"
                    )
            produced.add(stmt.lhs.tensor)
        self.index_sizes()

    def __str__(self) -> str:
        lines = [f"program {self.name}:"]
        for name, decl in self.decls.items():
            lines.append(f"  tensor {name}{list(decl.shape)}: {decl.fmt.name()}")
        for stmt in self.statements:
            lines.append(f"  [{stmt.sid}] {stmt}")
        return "\n".join(lines)
