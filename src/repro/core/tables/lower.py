"""Fusion-table lowering: fused Einsum regions -> SAMML dataflow graphs.

This is FuseFlow's code generator (paper Section 6).  For one fused region
and one global dataflow order it plans a fusion table and emits a SAMML
graph in the *factored iteration* style: each statement gets its own input
iteration + computation pipeline, and intermediate results flow to
downstream statements as streams — coordinate streams from higher-order
(vector) reducers drive the input iteration of consumers (Figures 10/11).

Producer->consumer edges are lowered in one of three modes:

``streaming``
    The consumer's iteration order starts with exactly the producer's output
    indices; the producer's coordinate/value streams are consumed directly
    (reference cells in the fusion table).
``recompute``
    The consumer accesses the producer's output at an index nested inside
    foreign loops (e.g. the reduction index of a following matmul).  The
    producer subgraph is rebuilt inline, its outer level driven by the
    consumer's coordinate stream — re-computing producer fibers per consumer
    row.  This is the fusion-recomputation tradeoff that makes *full* fusion
    lose on GCN/GraphSAGE (Section 8.3).
``materialize``
    Region boundary: the producer writes a tensor through DRAM and the
    consumer re-scans it (orchestrated by the compile flow, not this module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...ftree.format import Format, LevelKind
from ...sam.graph import Port, SAMGraph
from ...sam.primitives import (
    AlignCheck,
    BinaryALU,
    FiberNorm,
    FiberSoftmax,
    Intersect,
    LevelScanner,
    Locate,
    Reduce,
    Repeat,
    Root,
    ScalarRepeat,
    TensorWriter,
    UnaryALU,
    Union,
    ValArray,
    VectorReducer,
)
from ..einsum.ast import Access, MULTIPLICATIVE_OPS, Statement, TensorDecl
from ..fusion.fuse import FusedEinsum
from .table import Cell, FusionTable


class LoweringError(ValueError):
    """Raised when a region cannot be lowered under the given schedule."""


@dataclass
class Driver:
    """Pre-iterated outer index supplied to a rebuilt producer."""

    index: str
    crd_port: Port


@dataclass
class Intermediate:
    """A lowered statement's output as streams.

    ``indices`` is the emission order (global order restricted to output
    indices); ``crd_ports[indices[-1]]`` aligns 1:1 with ``val_port``.
    """

    name: str
    indices: Tuple[str, ...]
    crd_ports: Dict[str, Port]
    val_port: Port


@dataclass
class _OperandState:
    """Per-operand bookkeeping during one statement's iteration."""

    acc: Access
    kind: str  # 'memory' | 'stream'
    decl: Optional[TensorDecl] = None
    tensor_name: str = ""
    next_level: int = 0
    frontier: Optional[Port] = None  # ref stream (memory) or val stream (stream)
    inter: Optional[Intermediate] = None
    pos: int = 0  # intermediate indices consumed so far
    column: str = ""

    def storage_indices(self) -> List[str]:
        """The operand's access indices in storage (level) order."""
        assert self.decl is not None
        return [self.acc.indices[m] for m in self.decl.fmt.mode_order]


@dataclass
class OutputSpec:
    """Metadata of one materialized region output."""

    name: str
    logical_indices: Tuple[str, ...]
    emission_indices: Tuple[str, ...]
    shape: Tuple[int, ...]
    fmt: Format


class RegionLowerer:
    """Lower one fused region to a SAMML graph under a dataflow order."""

    def __init__(
        self,
        fused: FusedEinsum,
        decls: Dict[str, TensorDecl],
        order: Sequence[str] | None = None,
        name: str | None = None,
    ) -> None:
        self.fused = fused
        self.decls = dict(decls)
        self.order: List[str] = list(order) if order else fused.first_order()
        if set(self.order) != set(fused.pog.indices):
            raise LoweringError(
                f"order {self.order} does not cover the fused index space "
                f"{sorted(fused.pog.indices)}"
            )
        if not fused.pog.is_valid_order(self.order):
            raise LoweringError(f"order {self.order} violates POG constraints")
        self.graph = SAMGraph(name or fused.name)
        self.table = FusionTable(name or fused.name, self.order)
        self.producer_of: Dict[str, Statement] = {
            s.lhs.tensor: s for s in fused.statements
        }
        self.inters: Dict[str, Intermediate] = {}
        self.output_specs: List[OutputSpec] = []
        # Views needing a permuted copy: (sid, operand_pos) -> (name, order).
        self.transpose_requests: Dict[Tuple[int, int], Tuple[str, Tuple[int, ...]]] = {}
        for view in fused.transposed_views:
            new_name = f"{view.tensor}__perm{len(self.transpose_requests)}"
            self.transpose_requests[(view.sid, view.operand_pos)] = (
                new_name,
                view.new_mode_order or (),
            )
        self._live = self._compute_liveness()
        self._sizes = fused.index_sizes

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def lower(self) -> SAMGraph:
        """Lower all live statements, attach writers, return the graph."""
        for stmt in self.fused.statements:
            if stmt.lhs.tensor not in self._live:
                continue
            inter = self.build_statement(stmt, driver=None)
            self.inters[stmt.lhs.tensor] = inter
            if stmt.lhs.tensor in self.fused.outputs:
                self._attach_writer(stmt, inter)
        self.graph.validate()
        return self.graph

    def _compute_liveness(self) -> Set[str]:
        """Statements needing a standalone (root-context) build."""
        consumers: Dict[str, List[Statement]] = {}
        for stmt in self.fused.statements:
            for acc in stmt.operands:
                if acc.tensor in self.producer_of:
                    consumers.setdefault(acc.tensor, []).append(stmt)
        live: Set[str] = set()
        for stmt in reversed(self.fused.statements):
            t = stmt.lhs.tensor
            if t in self.fused.outputs:
                live.add(t)
                continue
            for consumer in consumers.get(t, []):
                if (
                    consumer.lhs.tensor in live
                    and self.consumption_mode(stmt, consumer) == "streaming"
                ):
                    live.add(t)
                    break
        return live

    # ------------------------------------------------------------------
    # Order helpers
    # ------------------------------------------------------------------
    def stmt_iteration(self, stmt: Statement) -> List[str]:
        indices = set(stmt.all_indices())
        return [i for i in self.order if i in indices]

    def emission_indices(self, stmt: Statement) -> Tuple[str, ...]:
        out = set(stmt.lhs.indices)
        return tuple(i for i in self.order if i in out)

    def consumption_mode(self, producer: Statement, consumer: Statement) -> str:
        """'streaming' if the producer's output order prefixes the consumer's."""
        prod = self.emission_indices(producer)
        cons = tuple(self.stmt_iteration(consumer))
        return "streaming" if cons[: len(prod)] == prod else "recompute"

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def build_statement(self, stmt: Statement, driver: Optional[Driver]) -> Intermediate:
        if stmt.kind == "contract" and stmt.op in MULTIPLICATIVE_OPS:
            return self._build_contract(stmt, driver, joiner="intersect")
        if stmt.kind == "contract":
            return self._build_contract(stmt, driver, joiner="union")
        if stmt.kind == "unary":
            return self._build_unary(stmt, driver)
        if stmt.kind == "fiber":
            return self._build_fiber(stmt, driver)
        raise LoweringError(f"unknown statement kind {stmt.kind!r}")

    def _operand_intermediate(
        self, acc: Access, stmt: Statement, driver: Optional[Driver]
    ) -> Intermediate:
        """Resolve a unary/fiber operand to stream handles."""
        producer = self.producer_of.get(acc.tensor)
        if producer is not None:
            if driver is None:
                if acc.tensor not in self.inters:
                    raise LoweringError(
                        f"intermediate {acc.tensor} consumed before being built"
                    )
                return self.inters[acc.tensor]
            return self.build_statement(producer, driver)
        # Memory tensor: lower a pure read (single-operand contraction).
        read = Statement(
            lhs=Access(f"{acc.tensor}__read", acc.indices),
            kind="contract",
            op="mul",
            operands=(acc,),
        )
        read.sid = stmt.sid
        return self._build_contract(read, driver, joiner="intersect")

    def _build_unary(self, stmt: Statement, driver: Optional[Driver]) -> Intermediate:
        src = self._operand_intermediate(stmt.operands[0], stmt, driver)
        node = self.graph.add(
            UnaryALU(stmt.op, scale=stmt.scale, offset=stmt.offset),
            {"a": src.val_port},
            region="compute",
        )
        col = self.table.add_column(stmt.lhs.tensor)
        self.table.put(
            "val",
            col,
            Cell("compute", f"{stmt.op}(<{stmt.operands[0].tensor}.val>)", node.node_id),
        )
        return Intermediate(
            stmt.lhs.tensor, src.indices, dict(src.crd_ports), self.graph.port(node, "out")
        )

    def _build_fiber(self, stmt: Statement, driver: Optional[Driver]) -> Intermediate:
        src = self._operand_intermediate(stmt.operands[0], stmt, driver)
        prim = FiberSoftmax() if stmt.op == "softmax" else FiberNorm()
        node = self.graph.add(prim, {"val": src.val_port}, region="compute")
        col = self.table.add_column(stmt.lhs.tensor)
        self.table.put(
            "val",
            col,
            Cell("compute", f"{stmt.op}(<{stmt.operands[0].tensor}.val>)", node.node_id),
        )
        return Intermediate(
            stmt.lhs.tensor, src.indices, dict(src.crd_ports), self.graph.port(node, "out")
        )

    # ------------------------------------------------------------------
    # Contraction lowering (the core algorithm)
    # ------------------------------------------------------------------
    def _build_contract(
        self, stmt: Statement, driver: Optional[Driver], joiner: str
    ) -> Intermediate:
        iteration = self.stmt_iteration(stmt)
        for idx in stmt.lhs.indices:
            if not any(idx in acc.indices for acc in stmt.operands):
                raise LoweringError(f"output index {idx} missing from operands: {stmt}")

        states = [
            self._init_operand(acc, pos, stmt, driver)
            for pos, acc in enumerate(stmt.operands)
        ]
        crd_ports: Dict[str, Port] = {}
        if driver is not None:
            if not iteration or iteration[0] != driver.index:
                raise LoweringError(
                    f"driver index {driver.index} is not the first iterated "
                    f"index of {stmt} under order {self.order}"
                )
            crd_ports[driver.index] = driver.crd_port
            # Stream operands whose first index is the driver are rebuilt now.
            for state in states:
                if state.kind == "stream" and driver.index in state.acc.indices:
                    self._rebuild_stream_operand(state, driver.index, driver.crd_port)
            iteration = iteration[1:]

        for idx in iteration:
            crd_ports[idx] = self._iterate_index(idx, states, stmt, joiner)

        val_port = self._combine_values(states, stmt)
        val_port, crd_ports = self._apply_reductions(stmt, val_port, crd_ports)

        emission = self.emission_indices(stmt)
        out_crds = {idx: crd_ports[idx] for idx in emission}
        return Intermediate(stmt.lhs.tensor, emission, out_crds, val_port)

    def _init_operand(
        self, acc: Access, pos: int, stmt: Statement, driver: Optional[Driver]
    ) -> _OperandState:
        producer = self.producer_of.get(acc.tensor)
        if producer is not None:
            # In-region intermediate.
            state = _OperandState(acc=acc, kind="stream")
            if driver is None and self.consumption_mode(producer, stmt) == "streaming":
                state.inter = self.inters.get(acc.tensor)
                if state.inter is None:
                    raise LoweringError(
                        f"intermediate {acc.tensor} consumed before being built"
                    )
            # else: inter stays None; it is rebuilt (recompute) when its first
            # emission index is reached during iteration.
            state.column = self.table.add_column(str(acc))
            return state
        # Memory tensor (program input or materialized earlier region).
        tensor_name = acc.tensor
        decl = self.decls.get(tensor_name)
        if decl is None:
            raise LoweringError(f"no declaration for tensor {acc.tensor!r}")
        request = self.transpose_requests.get((stmt.sid, pos))
        if request is not None:
            new_name, mode_order = request
            tensor_name = new_name
            decl = TensorDecl(
                new_name,
                decl.shape,
                Format(decl.fmt.levels, tuple(mode_order), decl.fmt.block_shape),
                decl.is_input,
            )
            self.decls[new_name] = decl
        state = _OperandState(acc=acc, kind="memory", decl=decl, tensor_name=tensor_name)
        state.column = self.table.add_column(str(acc))
        root = self.graph.add(Root(), region="iterate")
        state.frontier = self.graph.port(root, "ref")
        if driver is not None:
            self._enter_driver_context(state, driver)
        return state

    def _enter_driver_context(self, state: _OperandState, driver: Driver) -> None:
        """Initialize a memory operand's frontier inside a rebuild context."""
        assert state.decl is not None
        if driver.index in state.acc.indices:
            storage = state.storage_indices()
            if storage[0] != driver.index:
                raise LoweringError(
                    f"recompute driver {driver.index} is discordant with "
                    f"{state.acc} (storage order {storage})"
                )
            node = self.graph.add(
                Locate(state.tensor_name, 0),
                {"crd": driver.crd_port},
                region="iterate",
                index_var=driver.index,
            )
            self.table.put(
                driver.index,
                state.column,
                Cell("locate", f"Loc(<{state.tensor_name}.{driver.index}>)", node.node_id),
            )
            state.frontier = self.graph.port(node, "ref")
            state.next_level = 1
        else:
            node = self.graph.add(
                ScalarRepeat(),
                {"base": state.frontier, "rep": driver.crd_port},
                region="iterate",
                index_var=driver.index,
            )
            self.table.put(
                driver.index,
                state.column,
                Cell("rep", f"Rep(root,<{driver.index}>)", node.node_id),
            )
            state.frontier = self.graph.port(node, "out")

    def _rebuild_stream_operand(
        self, state: _OperandState, idx: str, crd_port: Port
    ) -> None:
        """Rebuild a producer inline (recompute fusion) driven by ``crd_port``."""
        producer = self.producer_of[state.acc.tensor]
        emission = self.emission_indices(producer)
        if not emission or emission[0] != idx:
            raise LoweringError(
                f"recompute of {state.acc.tensor} at {idx} requires its first "
                f"output index to be {idx} (emission {emission})"
            )
        rebuilt = self.build_statement(producer, Driver(idx, crd_port))
        state.inter = rebuilt
        state.pos = 1
        if len(rebuilt.indices) == 1:
            state.frontier = rebuilt.val_port
        self.table.put(
            idx, state.column, Cell("ref", f"<{rebuilt.name}.{idx}>*", None)
        )

    # -- one index variable ---------------------------------------------
    def _iterate_index(
        self, idx: str, states: List[_OperandState], stmt: Statement, joiner: str
    ) -> Port:
        memory_contribs: List[Tuple[_OperandState, Port, Port]] = []
        inner_stream_contribs: List[Tuple[_OperandState, Port, Port]] = []
        adopters: List[Tuple[_OperandState, Port]] = []
        rebuilds: List[_OperandState] = []

        for state in states:
            if idx not in state.acc.indices:
                continue
            if state.kind == "memory":
                crd, ref = self._scan_memory_level(state, idx)
                memory_contribs.append((state, crd, ref))
                continue
            if state.inter is None:
                rebuilds.append(state)
                continue
            inter = state.inter
            if state.pos >= len(inter.indices) or inter.indices[state.pos] != idx:
                expected = (
                    inter.indices[state.pos]
                    if state.pos < len(inter.indices)
                    else "<exhausted>"
                )
                raise LoweringError(
                    f"intermediate {inter.name} consumed at {idx} but its next "
                    f"index is {expected} (emission order {inter.indices}); "
                    "the schedule requires a materialization here"
                )
            crd = inter.crd_ports[idx]
            innermost = state.pos == len(inter.indices) - 1
            state.pos += 1
            self.table.put(idx, state.column, Cell("ref", f"<{inter.name}.{idx}>", None))
            if innermost:
                inner_stream_contribs.append((state, crd, inter.val_port))
            else:
                adopters.append((state, crd))

        contributions = memory_contribs + inner_stream_contribs
        if not contributions and not adopters and not rebuilds:
            raise LoweringError(f"index {idx} has no owner in {stmt}")
        if adopters and inner_stream_contribs:
            raise LoweringError(
                f"index {idx} in {stmt} co-iterates a non-innermost fused "
                "intermediate with another intermediate's innermost level; "
                "materialize one of them (choose a coarser fusion granularity)"
            )

        if adopters:
            # Adopt the first intermediate's iteration.  Other adopters and
            # memory operands must align structurally (e.g. residual adds
            # over the same dense row space); AlignCheck enforces it at run
            # time.  Memory operands keep their own (unfiltered) frontiers.
            crd_port = adopters[0][1]
            others = [(state, crd) for state, crd in adopters[1:]]
            others.extend((state, crd) for state, crd, _ in memory_contribs)
            for state, other in others:
                node = self.graph.add(
                    AlignCheck(),
                    {"a": crd_port, "b": other},
                    region="iterate",
                    index_var=idx,
                )
                crd_port = self.graph.port(node, "out")
            for state, _, ref in memory_contribs:
                state.frontier = ref
        elif len(contributions) == 1:
            state, crd_port, payload = contributions[0]
            state.frontier = payload
        elif len(contributions) >= 2:
            crd_port = self._join(contributions, idx, joiner)
        else:
            raise LoweringError(
                f"recompute at {idx} in {stmt} has no co-iterated operand to "
                "drive the rebuilt producer; materialize the intermediate"
            )
        for state in rebuilds:
            self._rebuild_stream_operand(state, idx, crd_port)

        # Broadcast operands that do not carry this index.
        for state in states:
            if idx in state.acc.indices or state.frontier is None:
                continue
            node = self.graph.add(
                Repeat(),
                {"base": state.frontier, "rep": crd_port},
                region="iterate",
                index_var=idx,
            )
            self.table.put(
                idx,
                state.column,
                Cell("rep", f"Rep(<{state.acc.tensor}>,<{idx}>)", node.node_id),
            )
            state.frontier = self.graph.port(node, "out")
        return crd_port

    def _scan_memory_level(self, state: _OperandState, idx: str) -> Tuple[Port, Port]:
        assert state.decl is not None
        storage = state.storage_indices()
        if state.next_level >= len(storage) or storage[state.next_level] != idx:
            raise LoweringError(
                f"operand {state.acc} reached index {idx} out of storage "
                f"order {storage} (level {state.next_level}); the POG should "
                "have prevented this — check user-imposed orders"
            )
        node = self.graph.add(
            LevelScanner(state.tensor_name, state.next_level),
            {"ref": state.frontier},
            region="iterate",
            index_var=idx,
        )
        self.table.put(
            idx,
            state.column,
            Cell("ls", f"LS(<{state.tensor_name}.{idx}>)", node.node_id),
        )
        state.next_level += 1
        return self.graph.port(node, "crd"), self.graph.port(node, "ref")

    def _join(
        self,
        contributions: List[Tuple[_OperandState, Port, Port]],
        idx: str,
        joiner: str,
    ) -> Port:
        """Join all owners of ``idx``, filtering every payload to the result.

        Two owners use a single joiner node.  For more owners, the final
        coordinate stream is computed by chaining joins, then each owner's
        payload is re-filtered against the final coordinates with one more
        joiner (payloads ride the ``ref`` ports; values filter identically).
        """
        prim_cls = Intersect if joiner == "intersect" else Union
        symbol = "&" if joiner == "intersect" else "|"
        if len(contributions) == 2:
            (sa, ca, pa), (sb, cb, pb) = contributions
            node = self.graph.add(
                prim_cls(),
                {"crd_a": ca, "ref_a": pa, "crd_b": cb, "ref_b": pb},
                region="iterate",
                index_var=idx,
            )
            self.table.put(
                idx,
                sb.column,
                Cell("isect" if joiner == "intersect" else "union", f"{symbol}_{idx}", node.node_id),
            )
            sa.frontier = self.graph.port(node, "ref_a")
            sb.frontier = self.graph.port(node, "ref_b")
            return self.graph.port(node, "crd")
        # General n-way: chain coordinate joins, then filter payloads.
        crd_port = contributions[0][1]
        for state, crd_b, _ in contributions[1:]:
            node = self.graph.add(
                prim_cls(),
                {"crd_a": crd_port, "ref_a": crd_port, "crd_b": crd_b, "ref_b": crd_b},
                region="iterate",
                index_var=idx,
            )
            self.table.put(
                idx,
                state.column,
                Cell("isect" if joiner == "intersect" else "union", f"{symbol}_{idx}", node.node_id),
            )
            crd_port = self.graph.port(node, "crd")
        for state, crd_own, payload in contributions:
            filt = self.graph.add(
                prim_cls(),
                {"crd_a": crd_own, "ref_a": payload, "crd_b": crd_port, "ref_b": crd_port},
                region="iterate",
                index_var=idx,
            )
            state.frontier = self.graph.port(filt, "ref_a")
        return crd_port

    # -- values and reductions ------------------------------------------
    def _combine_values(self, states: List[_OperandState], stmt: Statement) -> Port:
        val_ports: List[Port] = []
        for state in states:
            if state.frontier is None:
                raise LoweringError(
                    f"operand {state.acc} contributed no stream in {stmt}"
                )
            if state.kind == "memory":
                node = self.graph.add(
                    ValArray(state.tensor_name), {"ref": state.frontier}, region="compute"
                )
                self.table.put(
                    "val",
                    state.column,
                    Cell("val", f"Val(<{state.tensor_name}>)", node.node_id),
                )
                val_ports.append(self.graph.port(node, "val"))
            else:
                val_ports.append(state.frontier)
        # Block matmul/transposed-matmul applies to the first operand pair
        # only; further operands (folded masks) multiply elementwise.
        chain_ops = [stmt.op] + [
            "mul" if stmt.op in ("bmm", "bmt") else stmt.op
            for _ in range(max(len(val_ports) - 2, 0))
        ]
        result = val_ports[0]
        for other, alu_op in zip(val_ports[1:], chain_ops):
            node = self.graph.add(
                BinaryALU(alu_op), {"a": result, "b": other}, region="compute"
            )
            result = self.graph.port(node, "out")
        if len(val_ports) > 1:
            result_col = self.table.add_column(stmt.lhs.tensor)
            self.table.put(
                "val", result_col, Cell("compute", f"{alu_op}(...)", result.node_id)
            )
        return result

    def _apply_reductions(
        self, stmt: Statement, val_port: Port, crd_ports: Dict[str, Port]
    ) -> Tuple[Port, Dict[str, Port]]:
        reduction = set(stmt.reduction_indices())
        remaining = self.stmt_iteration(stmt)
        crd_ports = dict(crd_ports)
        while reduction & set(remaining):
            while remaining and remaining[-1] in reduction:
                idx = remaining.pop()
                node = self.graph.add(
                    Reduce(), {"val": val_port}, region="compute", index_var=idx
                )
                self.table.put(
                    "val",
                    self.table.add_column(f"sum_{idx}"),
                    Cell("red", f"Red_{idx}", node.node_id),
                )
                val_port = self.graph.port(node, "val")
                reduction.discard(idx)
            if not (reduction & set(remaining)):
                break
            r_pos = max(i for i, idx in enumerate(remaining) if idx in reduction)
            red_idx = remaining[r_pos]
            below = remaining[r_pos + 1 :]
            aligned: List[Port] = []
            for d, out_idx in enumerate(below):
                port = crd_ports[out_idx]
                for deeper in below[d + 1 :]:
                    node = self.graph.add(
                        Repeat(),
                        {"base": port, "rep": crd_ports[deeper]},
                        region="compute",
                        index_var=out_idx,
                    )
                    port = self.graph.port(node, "out")
                aligned.append(port)
            vr_in: Dict[str, Port] = {f"crd{d}": port for d, port in enumerate(aligned)}
            vr_in["val"] = val_port
            node = self.graph.add(
                VectorReducer(order=len(below)), vr_in, region="compute", index_var=red_idx
            )
            self.table.put(
                "val",
                self.table.add_column(f"sum_{red_idx}"),
                Cell("vred", f"Red{len(below)}_{red_idx}", node.node_id),
            )
            val_port = self.graph.port(node, "val")
            for d, out_idx in enumerate(below):
                crd_ports[out_idx] = self.graph.port(node, f"crd{d}")
            remaining.pop(r_pos)
            reduction.discard(red_idx)
        return val_port, crd_ports

    # ------------------------------------------------------------------
    # Tensor construction
    # ------------------------------------------------------------------
    def _attach_writer(self, stmt: Statement, inter: Intermediate) -> None:
        spec = self.output_spec(stmt)
        writer = TensorWriter(spec.name, spec.shape, spec.fmt)
        inputs = {f"crd{d}": inter.crd_ports[idx] for d, idx in enumerate(inter.indices)}
        inputs["val"] = inter.val_port
        self.graph.add(writer, inputs, region="construct")
        self.output_specs.append(spec)

    def output_spec(self, stmt: Statement) -> OutputSpec:
        """Shape/format metadata for materializing ``stmt``'s output."""
        emission = self.emission_indices(stmt)
        logical = stmt.lhs.indices
        block = self._block_shape(stmt)
        shape_logical: List[int] = []
        for idx in logical:
            extent = self._sizes.get(idx)
            if extent is None:
                raise LoweringError(f"unknown extent for index {idx}")
            shape_logical.append(extent)
        sparsity = self._index_sparsity(stmt)
        kinds = tuple(
            LevelKind.COMPRESSED if sparsity.get(idx, False) else LevelKind.DENSE
            for idx in emission
        )
        mode_order = tuple(logical.index(idx) for idx in emission)
        if block:
            shape_logical = [s * b for s, b in zip(shape_logical, block)]
        fmt = Format(kinds, mode_order, block)
        return OutputSpec(
            name=stmt.lhs.tensor,
            logical_indices=logical,
            emission_indices=emission,
            shape=tuple(shape_logical),
            fmt=fmt,
        )

    def _block_shape(self, stmt: Statement, _depth: int = 0) -> Tuple[int, ...]:
        """Block shape of ``stmt``'s output.

        Block matmuls transform block shapes: ``bmm`` of (r, m) x (m, c)
        blocks yields (r, c) blocks; ``bmt`` of (r, m) x (c, m) yields
        (r, c).  Elementwise/unary statements inherit the first operand's
        block shape.
        """
        if _depth > 32:
            return ()
        operand_blocks = [
            self._operand_block_shape(acc, _depth) for acc in stmt.operands
        ]
        if stmt.kind == "contract" and stmt.op in ("bmm", "bmt"):
            a, b = operand_blocks[0], operand_blocks[1]
            if a and b:
                return (a[0], b[0]) if stmt.op == "bmt" else (a[0], b[-1])
        for block in operand_blocks:
            if block:
                return block
        return ()

    def _operand_block_shape(self, acc: Access, _depth: int) -> Tuple[int, ...]:
        decl = self.decls.get(acc.tensor)
        if decl is not None and decl.fmt.is_blocked:
            return decl.fmt.block_shape
        producer = self.producer_of.get(acc.tensor)
        if producer is not None:
            return self._block_shape(producer, _depth + 1)
        return ()

    def _index_sparsity(self, stmt: Statement, _depth: int = 0) -> Dict[str, bool]:
        """Whether each output index of ``stmt`` is sparse (compressed)."""
        if _depth > 32:
            return {}
        per_operand: List[Dict[str, bool]] = []
        for acc in stmt.operands:
            decl = self.decls.get(acc.tensor)
            if decl is not None:
                flags: Dict[str, bool] = {}
                for level, kind in enumerate(decl.fmt.levels):
                    idx = acc.indices[decl.fmt.mode_order[level]]
                    flags[idx] = kind is LevelKind.COMPRESSED
                per_operand.append(flags)
            else:
                producer = self.producer_of.get(acc.tensor)
                if producer is not None:
                    prod_flags = self._index_sparsity(producer, _depth + 1)
                    mapping = dict(zip(producer.lhs.indices, acc.indices))
                    per_operand.append(
                        {mapping.get(k, k): v for k, v in prod_flags.items()}
                    )
                else:
                    per_operand.append({})
        multiplicative = stmt.kind == "contract" and stmt.op in MULTIPLICATIVE_OPS
        sparsity: Dict[str, bool] = {}
        for idx in stmt.lhs.indices:
            flags = [f[idx] for f in per_operand if idx in f]
            if not flags:
                sparsity[idx] = False
            elif multiplicative and stmt.kind == "contract":
                sparsity[idx] = any(flags)
            else:
                sparsity[idx] = all(flags)
        return sparsity
