"""Analytical fusion heuristic (paper Section 7, evaluated in Table 3).

Estimates FLOPs and DRAM traffic of a scheduled program *without* running
the dataflow simulation.  Users supply tensor dimensions and sparsity
percentages (densities); intersection rates default to the independence
assumption (the probability that two sparse operands coincide at a
coordinate is the product of their densities).

The estimator mirrors the compiler's own region structure: it fuses each
region, derives the dataflow order, classifies producer->consumer edges as
streaming or recompute with the same prefix criterion the lowering uses, and
then walks statements with closed-form expected-count formulas.  It never
materializes iteration spaces, so it is cheap enough for the early pruning
of suboptimal schedules (Section 8.3): over the 1 206 predictions of the
benchmark's seven guided searches, one prediction averages 0.64 ms on a
2-vCPU Intel Xeon host (3.4 ms without the memos below; gpt3 beam, the
largest, 0.92 ms against 5.2 ms).

Neighbouring candidates in a search share most of their regions, so each
:class:`FusionHeuristic` memoises two things for its lifetime:

* the fused region, keyed by ``(sids, fold, rewrite)`` -- the statement ids
  and whether ``fold_masks`` / ``merge_contractions`` apply to it;
* the region's cost, keyed by that fused key, the dataflow order and the
  incoming stats of every tensor its statements name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...comal.machines import RDA_MACHINE
from ..einsum.ast import EinsumProgram, MULTIPLICATIVE_OPS, Statement
from ..fusion.fuse import FusedEinsum, fold_masks, fuse_region, merge_contractions
from ..schedule.schedule import Schedule, unfused


@dataclass
class TensorStats:
    """Shape, density, and block shape of one tensor."""

    shape: Tuple[int, ...]
    density: float
    block: Tuple[int, ...] = ()

    @property
    def nnz(self) -> float:
        size = float(np.prod(self.shape)) if self.shape else 1.0
        return self.density * size


def stats_from_binding(binding: Dict[str, object]) -> Dict[str, TensorStats]:
    """Measure shapes/densities from bound SparseTensor inputs."""
    out: Dict[str, TensorStats] = {}
    for name, tensor in binding.items():
        shape = tuple(tensor.shape)
        block = tensor.fmt.block_shape
        if block:
            shape = tuple(s // b for s, b in zip(shape, block))
        out[name] = TensorStats(shape=shape, density=tensor.density(), block=block)
    return out


@dataclass
class HeuristicEstimate:
    """Estimated cost of one schedule."""

    flops: float = 0.0
    dram_bytes: float = 0.0
    per_region: List[Tuple[str, float, float]] = field(default_factory=list)

    def operational_intensity(self) -> float:
        return self.flops / self.dram_bytes if self.dram_bytes else float("inf")


#: A region's fused-form key: statement ids, mask folding, global rewrite.
RegionKey = Tuple[Tuple[int, ...], bool, bool]


def stats_key(stats: Optional[TensorStats]) -> Optional[tuple]:
    """``stats`` as a hashable ``(shape, density, block)``, or ``None``."""
    if stats is None:
        return None
    return (tuple(stats.shape), stats.density, tuple(stats.block))


class _FusedRegion:
    """One memoised fused region, its tensors and its default order."""

    def __init__(self, fused: FusedEinsum) -> None:
        self.fused = fused
        names: Dict[str, None] = {}
        for stmt in fused.statements:
            names[stmt.lhs.tensor] = None
            for acc in stmt.operands:
                names[acc.tensor] = None
        self.tensors = tuple(names)
        self._first_order: Optional[List[str]] = None

    def first_order(self) -> List[str]:
        # Lazy: only schedules without an explicit order for the region
        # need it, and it may raise on a cyclic POG.
        if self._first_order is None:
            self._first_order = self.fused.first_order()
        return self._first_order


class FusionHeuristic:
    """FLOPs/bytes estimator over schedules of one program."""

    VALUE_BYTES = 8
    CRD_BYTES = 4

    def __init__(
        self,
        program: EinsumProgram,
        stats: Dict[str, TensorStats],
        scratchpad_bytes: int | None = None,
    ) -> None:
        self.program = program
        self.stats = dict(stats)
        self.sizes = program.index_sizes()
        # On-chip residency threshold, matching the simulator's
        # scratchpad.  Pass the target machine's value (rank_schedules
        # and the cost models do) so hierarchy-pinned operand budgets
        # shift the estimates the same way they shift simulated traffic.
        if scratchpad_bytes is None:
            scratchpad_bytes = RDA_MACHINE.scratchpad_bytes
        self.scratchpad_bytes = scratchpad_bytes
        # The two memos of the module docstring; both live as long as this
        # heuristic, which a cost model keeps for one program's search.
        self._fused: Dict[RegionKey, _FusedRegion] = {}
        self._costs: Dict[tuple, Tuple[float, float, Tuple[Tuple[str, TensorStats], ...]]] = {}

    # ------------------------------------------------------------------
    def estimate(self, schedule: Schedule | None = None) -> HeuristicEstimate:
        schedule = schedule or unfused(self.program)
        schedule.validate(self.program)
        estimate = HeuristicEstimate()
        known_stats = dict(self.stats)
        for pos, sids in enumerate(schedule.regions):
            fold = schedule.fold_masks and len(sids) > 1
            rewrite = schedule.global_rewrite and len(sids) > 1
            key = (tuple(sids), fold, rewrite)
            region = self._fused.get(key)
            if region is None:
                region = self._fused[key] = _FusedRegion(self._fuse(key))
            order = schedule.orders.get(pos) or region.first_order()
            flops, nbytes = self._region_cost(key, region, order, known_stats)
            estimate.flops += flops
            estimate.dram_bytes += nbytes
            name = f"h-r{pos}_global" if rewrite else f"h-r{pos}"
            estimate.per_region.append((name, flops, nbytes))
        return estimate

    def _fuse(self, key: RegionKey) -> FusedEinsum:
        sids, fold, rewrite = key
        fused = fuse_region(self.program, sids, name="h-r")
        if fold:
            fused = fold_masks(fused)
        if rewrite:
            fused = merge_contractions(fused)
        return fused

    def _region_cost(
        self,
        key: RegionKey,
        region: _FusedRegion,
        order: Sequence[str],
        known_stats: Dict[str, TensorStats],
    ) -> Tuple[float, float]:
        """``_estimate_region`` through the cost memo.

        The key is sound because ``_estimate_region`` reads ``known_stats``
        only for tensors named in ``fused.statements`` (operands, lhs, and
        the operands of in-region producers it traces), besides constants
        of this heuristic (``sizes``, ``program.decls``,
        ``scratchpad_bytes``); and it writes only those statements' lhs
        entries.  Equal incoming entries therefore give equal results and
        equal writes, which a hit replays in statement order.
        """
        incoming = tuple(
            stats_key(known_stats.get(tensor)) for tensor in region.tensors
        )
        cost_key = (key, tuple(order), incoming)
        hit = self._costs.get(cost_key)
        if hit is None:
            flops, nbytes = self._estimate_region(region.fused, order, known_stats)
            writes = tuple(
                (stmt.lhs.tensor, known_stats[stmt.lhs.tensor])
                for stmt in region.fused.statements
            )
            hit = self._costs[cost_key] = (flops, nbytes, writes)
        else:
            known_stats.update(hit[2])
        return hit[0], hit[1]

    # ------------------------------------------------------------------
    def _estimate_region(
        self,
        fused: FusedEinsum,
        order: Sequence[str],
        known_stats: Dict[str, TensorStats],
    ) -> Tuple[float, float]:
        sizes = dict(self.sizes)
        sizes.update(fused.index_sizes)
        producer_of = {s.lhs.tensor: s for s in fused.statements}
        # Extents for indices that only touch materialized intermediates.
        for stmt in fused.statements:
            for acc in list(stmt.operands) + [stmt.lhs]:
                recorded = known_stats.get(acc.tensor)
                if recorded is not None and len(recorded.shape) == len(acc.indices):
                    for idx, extent in zip(acc.indices, recorded.shape):
                        sizes.setdefault(idx, extent)
        rank = {idx: i for i, idx in enumerate(order)}

        def emission(stmt: Statement) -> Tuple[str, ...]:
            out = set(stmt.lhs.indices)
            return tuple(i for i in order if i in out)

        def iteration(stmt: Statement) -> Tuple[str, ...]:
            idxs = set(stmt.all_indices())
            return tuple(i for i in order if i in idxs)

        # Execution multiplicity: recompute consumers re-run producers.
        mult: Dict[str, float] = {s.lhs.tensor: 1.0 for s in fused.statements}
        for stmt in reversed(fused.statements):
            for acc in stmt.operands:
                producer = producer_of.get(acc.tensor)
                if producer is None:
                    continue
                prod_emit = emission(producer)
                cons_iter = iteration(stmt)
                streaming = cons_iter[: len(prod_emit)] == prod_emit
                if streaming:
                    factor = 1.0
                else:
                    # Each reference to the producer's outer index re-runs one
                    # fiber; references = expected co-iteration points at the
                    # driver level; distinct fibers = the index extent.
                    driver = prod_emit[0] if prod_emit else None
                    refs = self._expected_points(
                        stmt, cons_iter[: cons_iter.index(driver) + 1]
                        if driver in cons_iter
                        else cons_iter,
                        known_stats,
                        producer_of,
                        sizes,
                    )
                    extent = float(sizes.get(driver, 1)) or 1.0
                    factor = max(refs / extent, 1.0)
                mult[acc.tensor] = max(
                    mult.get(acc.tensor, 1.0),
                    mult[stmt.lhs.tensor] * factor,
                )

        flops = 0.0
        nbytes = 0.0
        for stmt in fused.statements:
            m = mult[stmt.lhs.tensor]
            stmt_flops, stmt_bytes = self._estimate_statement(
                stmt, known_stats, producer_of, sizes, order, m
            )
            flops += stmt_flops
            nbytes += stmt_bytes
            # Record output stats for downstream estimation.
            known_stats[stmt.lhs.tensor] = TensorStats(
                shape=tuple(sizes.get(i, 1) for i in stmt.lhs.indices),
                density=self._output_density(stmt, known_stats, producer_of, sizes),
                block=tuple(
                    self._block_shape_of(stmt.lhs, producer_of, known_stats=known_stats)
                    or ()
                ),
            )
            if stmt.lhs.tensor in fused.outputs:
                out_stats = known_stats[stmt.lhs.tensor]
                out_block = float(
                    np.prod(
                        self._block_shape_of(stmt.lhs, producer_of, known_stats=known_stats)
                        or (1,)
                    )
                )
                nbytes += out_stats.nnz * (
                    self.VALUE_BYTES * out_block + self.CRD_BYTES
                )
        return flops, nbytes

    # ------------------------------------------------------------------
    def _density_of(
        self,
        tensor: str,
        known_stats: Dict[str, TensorStats],
        producer_of: Dict[str, Statement],
        sizes: Dict[str, int],
        _depth: int = 0,
    ) -> float:
        if tensor in known_stats:
            return known_stats[tensor].density
        producer = producer_of.get(tensor)
        if producer is None or _depth > 16:
            return 1.0
        return self._output_density(producer, known_stats, producer_of, sizes, _depth + 1)

    def _output_density(
        self,
        stmt: Statement,
        known_stats: Dict[str, TensorStats],
        producer_of: Dict[str, Statement],
        sizes: Dict[str, int],
        _depth: int = 0,
    ) -> float:
        dens = [
            self._density_of(a.tensor, known_stats, producer_of, sizes, _depth + 1)
            for a in stmt.operands
        ]
        if stmt.kind in ("unary", "fiber"):
            return dens[0]
        if stmt.op in MULTIPLICATIVE_OPS:
            point = float(np.prod(dens))
            red = stmt.reduction_indices()
            red_size = float(np.prod([sizes.get(i, 1) for i in red])) if red else 1.0
            # Probability an output point sees at least one surviving term.
            return float(1.0 - (1.0 - point) ** red_size)
        # Additive: union of supports.
        keep = 1.0
        for d in dens:
            keep *= 1.0 - d
        return 1.0 - keep

    def _block_shape_of(self, acc, producer_of, _depth: int = 0, known_stats=None):
        """Block shape of an operand, traced through producer chains."""
        if _depth > 16:
            return ()
        decl = self.program.decls.get(acc.tensor)
        if decl is not None:
            return decl.fmt.block_shape
        if known_stats is not None and acc.tensor in known_stats:
            return known_stats[acc.tensor].block
        producer = producer_of.get(acc.tensor)
        if producer is None:
            return ()
        if producer.op == "bmt":
            a = self._block_shape_of(producer.operands[0], producer_of, _depth + 1, known_stats)
            b = self._block_shape_of(producer.operands[1], producer_of, _depth + 1, known_stats)
            return (a[0], b[0]) if a and b else ()
        if producer.op == "bmm":
            a = self._block_shape_of(producer.operands[0], producer_of, _depth + 1, known_stats)
            b = self._block_shape_of(producer.operands[1], producer_of, _depth + 1, known_stats)
            return (a[0], b[-1]) if a and b else ()
        return self._block_shape_of(producer.operands[0], producer_of, _depth + 1, known_stats)

    def _expected_points(
        self,
        stmt: Statement,
        prefix: Sequence[str],
        known_stats: Dict[str, TensorStats],
        producer_of: Dict[str, Statement],
        sizes: Dict[str, int],
    ) -> float:
        """Expected co-iteration points over the given index prefix."""
        space = float(np.prod([sizes.get(i, 1) for i in prefix])) if prefix else 1.0
        density = 1.0
        prefix_set = set(prefix)
        for acc in stmt.operands:
            if prefix_set & set(acc.indices):
                density *= self._density_of(
                    acc.tensor, known_stats, producer_of, sizes
                )
        return space * density

    def _estimate_statement(
        self,
        stmt: Statement,
        known_stats: Dict[str, TensorStats],
        producer_of: Dict[str, Statement],
        sizes: Dict[str, int],
        order: Sequence[str],
        mult: float = 1.0,
    ) -> Tuple[float, float]:
        """(flops, dram bytes) for ``mult`` executions of one statement."""
        iteration = [i for i in order if i in set(stmt.all_indices())]
        block = 1.0
        for acc in stmt.operands:
            decl = self.program.decls.get(acc.tensor)
            if decl is not None and decl.fmt.is_blocked:
                block = float(np.prod(decl.fmt.block_shape))
                break
        if stmt.kind in ("unary", "fiber"):
            src = stmt.operands[0]
            nnz = self._density_of(src.tensor, known_stats, producer_of, sizes)
            space = float(np.prod([sizes.get(i, 1) for i in src.indices]))
            count = nnz * space * block
            per_elem = 5.0 if stmt.kind == "fiber" else 1.0
            mem = 0.0
            if src.tensor not in producer_of and src.tensor in self.program.decls:
                footprint = count * self.VALUE_BYTES
                access = mult * footprint
                mem = min(access, footprint) if footprint <= self.scratchpad_bytes else access
            return mult * per_elem * count, mem
        # Contraction: innermost co-iteration points.
        points = self._expected_points(
            stmt, iteration, known_stats, producer_of, sizes
        )
        n_ops = len(stmt.operands)
        if stmt.op in ("bmm", "bmt"):
            # One block matmul per point plus elementwise extras and the add.
            shape_a = self._block_shape_of(stmt.operands[0], producer_of, known_stats=known_stats)
            shape_b = self._block_shape_of(stmt.operands[1], producer_of, known_stats=known_stats)
            if shape_a and shape_b:
                rows = shape_a[0]
                inner = shape_a[1]
                cols = shape_b[0] if stmt.op == "bmt" else shape_b[-1]
                matmul_flops = 2.0 * rows * cols * inner
            else:
                matmul_flops = 2.0 * block * np.sqrt(block)
            ops_per_point = matmul_flops + (n_ops - 1) * block
        elif stmt.op in MULTIPLICATIVE_OPS:
            # (n-1) multiplies plus one reduction add per point.
            ops_per_point = float(n_ops) * block
        else:
            ops_per_point = 1.0 * block
        flops = mult * points * ops_per_point
        # Memory: each *memory* operand's values are fetched per point it
        # participates in, capped at its footprint when it fits on chip
        # (mirroring the simulator's scratchpad residency); structure reads
        # for compressed levels are charged once.
        mem = 0.0
        for acc in stmt.operands:
            if acc.tensor in producer_of:
                continue  # streamed on-chip
            decl = self.program.decls.get(acc.tensor)
            acc_block = float(
                np.prod(self._block_shape_of(acc, producer_of, known_stats=known_stats) or (1,))
            )
            density = self._density_of(acc.tensor, known_stats, producer_of, sizes)
            space = float(np.prod([sizes.get(i, 1) for i in acc.indices]))
            footprint = density * space * self.VALUE_BYTES * acc_block
            access = mult * points * self.VALUE_BYTES * acc_block
            if footprint <= self.scratchpad_bytes:
                mem += min(access, footprint)
            else:
                mem += access
            mem += min(mult, 1.0) * density * space * self.CRD_BYTES
        return flops, mem


def estimate_schedule(
    program: EinsumProgram,
    schedule: Schedule,
    stats: Dict[str, TensorStats],
) -> HeuristicEstimate:
    """Convenience wrapper: estimate one schedule's cost."""
    return FusionHeuristic(program, stats).estimate(schedule)
