"""Cross-expression fusion (paper Section 5, Algorithm 1).

Given a fusion region — a set of statements from an Einsum program — this
module produces a :class:`FusedEinsum`: the region's statements rewritten
over a unified index space, plus a partial order graph (POG) encoding every
mode-order and dataflow-order constraint.

Steps, mirroring Algorithm 1:

1. *Rename local index variables.*  Every statement's indices are renamed
   apart; reduction variables become fresh ``u``-indices.
2. *Build producer-consumer edges.*  Uses of in-region intermediates unify
   the consumer's access indices with the producer's output indices
   (union-find index substitution).
3. *Propagate order constraints.*  Mode orders of memory tensor views and
   user dataflow orders insert POG edges.
4. *Handle multiple tensor uses.*  Each use is a distinct view; conflicting
   views whose constraints create POG cycles are resolved by materializing a
   permuted copy (higher-order transpose) for one view.

The result also records which tensors must be materialized (region outputs)
and supports emitting the single fully fused Einsum string of Figure 8c.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..einsum.ast import (
    Access,
    EinsumError,
    EinsumProgram,
    MULTIPLICATIVE_OPS,
    Statement,
)
from .pog import OrderConflictError, PartialOrderGraph


class _UnionFind:
    """Union-find over index names."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class TensorViewInfo:
    """One use of a tensor inside a fused region."""

    view_id: str
    tensor: str
    sid: int
    operand_pos: int  # -1 for the lhs
    indices: Tuple[str, ...]
    transposed: bool = False
    new_mode_order: Optional[Tuple[int, ...]] = None
    stmt_pos: int = -1  # position within the fused statement list


@dataclass
class FusedEinsum:
    """A fused region: unified statements + POG + bookkeeping."""

    name: str
    statements: List[Statement]
    pog: PartialOrderGraph
    views: List[TensorViewInfo]
    # Tensors this region must materialize (consumed outside or program outputs).
    outputs: List[str]
    # Views resolved by materializing a permuted copy of their tensor.
    transposed_views: List[TensorViewInfo] = field(default_factory=list)
    index_sizes: Dict[str, int] = field(default_factory=dict)

    def first_order(self) -> List[str]:
        """The default dataflow order: first valid topological sort."""
        return self.pog.first_order(preference=self._appearance_order())

    def valid_orders(self, limit: int = 1000) -> List[List[str]]:
        return list(self.pog.all_orders(limit))

    def _appearance_order(self) -> List[str]:
        seen: List[str] = []
        for stmt in self.statements:
            for idx in stmt.all_indices():
                if idx not in seen:
                    seen.append(idx)
        return seen

    def intermediates(self) -> Set[str]:
        produced = {s.lhs.tensor for s in self.statements}
        consumed = {a.tensor for s in self.statements for a in s.operands}
        return produced & consumed

    def fused_einsum_string(self) -> str:
        """Render the single fully fused Einsum (paper Figure 8c)."""
        order = self.first_order()
        body = "; ".join(str(s) for s in self.statements)
        return f"forall {' '.join(order)}: {body}"


def fuse_region(
    program: EinsumProgram,
    sids: Sequence[int],
    name: str = "region",
    extra_orders: Dict[int, Sequence[str]] | None = None,
    decls: Dict[str, object] | None = None,
) -> FusedEinsum:
    """Fuse the statements with ids ``sids`` into one :class:`FusedEinsum`.

    ``extra_orders`` optionally overrides per-statement dataflow orders
    (keyed by sid) on top of orders embedded in the statements.  ``decls``
    extends the program's declarations with tensors materialized by earlier
    regions (their storage formats constrain this region's POG too).
    """
    sids = list(sids)
    sid_set = set(sids)
    stmts = [program.statements[sid] for sid in sids]
    extra_orders = extra_orders or {}
    all_decls = dict(program.decls)
    if decls:
        all_decls.update(decls)

    # ------------------------------------------------------------------
    # Step 1: rename all indices apart (per-statement namespaces); bake any
    # schedule-supplied dataflow orders into the statements first so they
    # survive renames and cloning.
    # ------------------------------------------------------------------
    from dataclasses import replace as _replace

    work: List[Statement] = []
    orig_sids: List[int] = []
    for stmt in stmts:
        sid = stmt.sid
        if sid in extra_orders:
            stmt = _replace(stmt, order=tuple(extra_orders[sid]))
            stmt.sid = sid
        mapping = {idx: f"s{sid}:{idx}" for idx in stmt.all_indices()}
        renamed_stmt = stmt.rename_indices(mapping)
        renamed_stmt.sid = sid
        work.append(renamed_stmt)
        orig_sids.append(sid)

    # ------------------------------------------------------------------
    # Step 2: unify producer outputs with consumer accesses, one *use* at a
    # time.  A use whose unification would merge two distinct indices of any
    # statement (a diagonal collapse) marks a conflicting tensor view: the
    # producer chain is cloned with fresh indices for that use — the index
    # space of recomputation (paper Section 5, step 4).
    # ------------------------------------------------------------------
    uf = _UnionFind()
    clone_counter = 0

    def producer_index(tensor: str, limit: int) -> Optional[int]:
        for i in range(limit - 1, -1, -1):
            if work[i].lhs.tensor == tensor:
                return i
        return None

    def collides() -> bool:
        for stmt in work:
            indices = stmt.all_indices()
            roots = {uf.find(i) for i in indices}
            if len(roots) < len(indices):
                return True
        return False

    def clone_chain(pi: int, before: int) -> Tuple[str, int]:
        """Clone work[pi]'s transitive producer chain with fresh indices.

        Returns the clone's lhs tensor name and the number of statements
        inserted before position ``before``.
        """
        nonlocal clone_counter
        clone_counter += 1
        tag = clone_counter
        producer = work[pi]
        inserted = 0
        new_operands: List[Access] = []
        for acc in producer.operands:
            sub = producer_index(acc.tensor, before + inserted)
            if sub is not None:
                sub_name, sub_inserted = clone_chain(sub, before + inserted)
                inserted += sub_inserted
                new_operands.append(Access(sub_name, acc.indices))
            else:
                new_operands.append(acc)
        mapping = {
            idx: f"c{tag}:{idx.split(':', 1)[-1]}"
            for idx in producer.all_indices()
        }
        clone = _replace(
            producer,
            lhs=Access(f"{producer.lhs.tensor}__v{tag}", producer.lhs.indices),
            operands=tuple(new_operands),
        ).rename_indices(mapping)
        clone.sid = producer.sid
        work.insert(before + inserted, clone)
        orig_sids.insert(before + inserted, orig_sids[pi])
        inserted += 1
        # Unify the clone's operand accesses with its (cloned) producers.
        for acc in clone.operands:
            sub = producer_index(acc.tensor, before + inserted - 1)
            if sub is not None:
                for a, b in zip(acc.indices, work[sub].lhs.indices):
                    uf.union(a, b)
        return clone.lhs.tensor, inserted

    ci = 0
    while ci < len(work):
        stmt = work[ci]
        for pos in range(len(stmt.operands)):
            acc = work[ci].operands[pos]
            pi = producer_index(acc.tensor, ci)
            if pi is None:
                continue
            producer = work[pi]
            if len(acc.indices) != len(producer.lhs.indices):
                raise EinsumError(
                    f"access {acc} does not match producer output {producer.lhs}"
                )
            snapshot = dict(uf.parent)
            for a, b in zip(acc.indices, producer.lhs.indices):
                uf.union(a, b)
            if collides():
                uf.parent = snapshot
                clone_name, inserted = clone_chain(pi, ci)
                ci += inserted
                stmt = work[ci]
                new_ops = list(stmt.operands)
                new_ops[pos] = Access(clone_name, acc.indices)
                replaced = _replace(stmt, operands=tuple(new_ops))
                replaced.sid = stmt.sid
                work[ci] = replaced
                stmt = replaced
                clone_producer = producer_index(clone_name, ci)
                assert clone_producer is not None
                for a, b in zip(acc.indices, work[clone_producer].lhs.indices):
                    uf.union(a, b)
                if collides():
                    raise OrderConflictError(
                        f"use {acc} cannot be unified even after cloning"
                    )
        ci += 1

    # Dead-statement elimination: clones may orphan original statements.
    consumed_outside: Set[str] = set()
    for other in program.statements:
        if other.sid in sid_set:
            continue
        consumed_outside.update(a.tensor for a in other.operands)
    program_outputs = set(program.outputs())
    keep_always = consumed_outside | program_outputs
    changed_dce = True
    while changed_dce:
        changed_dce = False
        used = {a.tensor for s in work for a in s.operands}
        for i in range(len(work) - 1, -1, -1):
            t = work[i].lhs.tensor
            if t not in used and t not in keep_always:
                del work[i]
                del orig_sids[i]
                changed_dce = True

    # ------------------------------------------------------------------
    # Canonical names: free indices keep a readable base name; reduction
    # classes become fresh u-indices (paper's convention).
    # ------------------------------------------------------------------
    free_roots: Set[str] = set()
    for stmt in work:
        for idx in stmt.lhs.indices:
            free_roots.add(uf.find(idx))
    canonical: Dict[str, str] = {}
    taken: Set[str] = set()
    u_counter = 0

    def canon(index: str) -> str:
        nonlocal u_counter
        root = uf.find(index)
        if root in canonical:
            return canonical[root]
        base = root.split(":", 1)[1]
        if root in free_roots and base not in taken:
            chosen = base
        else:
            chosen = f"u{u_counter}"
            u_counter += 1
            while chosen in taken:
                chosen = f"u{u_counter}"
                u_counter += 1
        canonical[root] = chosen
        taken.add(chosen)
        return chosen

    unified: List[Statement] = []
    for stmt in work:
        mapping = {idx: canon(idx) for idx in stmt.all_indices()}
        new_stmt = stmt.rename_indices(mapping)
        new_stmt.sid = stmt.sid
        unified.append(new_stmt)

    # ------------------------------------------------------------------
    # Step 3: POG constraints from mode orders and dataflow orders.
    # ------------------------------------------------------------------
    pog = PartialOrderGraph()
    views: List[TensorViewInfo] = []
    in_region_outputs = {s.lhs.tensor for s in unified}
    for stmt_pos, stmt in enumerate(unified):
        sid = orig_sids[stmt_pos]
        for idx in stmt.all_indices():
            pog.add_index(idx)
        for pos, acc in enumerate(stmt.operands):
            if acc.tensor in in_region_outputs:
                continue  # intermediate: ordering follows from unification
            decl = all_decls.get(acc.tensor)
            view = TensorViewInfo(
                view_id=f"{acc.tensor}@{stmt_pos}.{pos}",
                tensor=acc.tensor,
                sid=sid,
                operand_pos=pos,
                indices=acc.indices,
                stmt_pos=stmt_pos,
            )
            views.append(view)
            if decl is None:
                continue
            mode_order = decl.fmt.mode_order
            storage_indices = [acc.indices[m] for m in mode_order]
            for outer, inner in zip(storage_indices, storage_indices[1:]):
                pog.add_constraint(
                    outer, inner, tag=view.view_id, reason="mode order"
                )
        # Output mode order constraints for declared region outputs.
        decl = all_decls.get(stmt.lhs.tensor)
        if decl is not None:
            storage_indices = [stmt.lhs.indices[m] for m in decl.fmt.mode_order]
            for outer, inner in zip(storage_indices, storage_indices[1:]):
                pog.add_constraint(
                    outer, inner, tag=f"{stmt.lhs.tensor}@out", reason="output order"
                )
        # User dataflow order (already renamed along with the statement).
        if stmt.order:
            for outer, inner in zip(stmt.order, stmt.order[1:]):
                pog.add_constraint(
                    outer, inner, tag=f"order@{stmt_pos}", reason="user schedule"
                )

    # ------------------------------------------------------------------
    # Step 4: resolve cycles by dropping one view's constraints and
    # materializing a permuted copy of that tensor for the view.
    # ------------------------------------------------------------------
    transposed: List[TensorViewInfo] = []
    view_by_id = {v.view_id: v for v in views}
    guard = 0
    while not pog.is_acyclic():
        guard += 1
        if guard > len(views) + 1:
            raise OrderConflictError("could not break POG cycles")
        cycle = pog.find_cycle()
        chosen: Optional[str] = None
        for u, v in cycle:
            for tag in pog.edge_tags(u, v):
                if tag in view_by_id and not view_by_id[tag].transposed:
                    chosen = tag
                    break
            if chosen:
                break
        if chosen is None:
            raise OrderConflictError(
                f"POG cycle {cycle} involves only user schedules; "
                "no transpose can break it"
            )
        pog.remove_tag(chosen)
        view = view_by_id[chosen]
        view.transposed = True
        transposed.append(view)

    # ------------------------------------------------------------------
    # Region outputs: consumed outside the region, or program outputs.
    # ------------------------------------------------------------------
    outputs = [
        s.lhs.tensor
        for s in unified
        if s.lhs.tensor in consumed_outside or s.lhs.tensor in program_outputs
    ]

    fused = FusedEinsum(
        name=name,
        statements=unified,
        pog=pog,
        views=views,
        outputs=outputs,
        transposed_views=transposed,
    )
    # Index sizes in unified names, derived from every declared access
    # (including tensors materialized by earlier regions) and propagated
    # through producer/consumer unification.
    sizes: Dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for stmt in unified:
            for acc in list(stmt.operands) + [stmt.lhs]:
                decl = all_decls.get(acc.tensor)
                if decl is not None:
                    shape = decl.shape
                    if decl.fmt.is_blocked:
                        shape = tuple(
                            s // b for s, b in zip(decl.shape, decl.fmt.block_shape)
                        )
                    for idx, extent in zip(acc.indices, shape):
                        if idx not in sizes:
                            sizes[idx] = extent
                            changed = True
                elif any(s.lhs.tensor == acc.tensor for s in unified):
                    producer = next(
                        s for s in unified if s.lhs.tensor == acc.tensor
                    )
                    for idx, p_idx in zip(acc.indices, producer.lhs.indices):
                        if idx not in sizes and p_idx in sizes:
                            sizes[idx] = sizes[p_idx]
                            changed = True
                        elif p_idx not in sizes and idx in sizes:
                            sizes[p_idx] = sizes[idx]
                            changed = True
    fused.index_sizes = sizes
    # Fill transposed views' new mode orders from the first valid order.
    if transposed:
        order = fused.first_order()
        rank = {idx: i for i, idx in enumerate(order)}
        for view in transposed:
            acc = fused.statements[view.stmt_pos].operands[view.operand_pos]
            perm = sorted(range(len(acc.indices)), key=lambda m: rank[acc.indices[m]])
            view.new_mode_order = tuple(perm)
    return fused


def fold_masks(fused: FusedEinsum) -> FusedEinsum:
    """Fold elementwise masking into producing contractions (SDDMM rewrite).

    Pattern: ``S = mul(P, M...)`` with no reduction, where ``P`` is an
    in-region intermediate produced by a multiplicative contraction and
    consumed only here.  The mask operands join the producer's operand list
    so its iteration is gated *before* the reduction loop — the
    asymptotic win of sparse cross-expression fusion.
    """
    stmts = list(fused.statements)
    changed = True
    while changed:
        changed = False
        produced = {s.lhs.tensor: i for i, s in enumerate(stmts)}
        use_counts: Dict[str, int] = {}
        for s in stmts:
            for a in s.operands:
                use_counts[a.tensor] = use_counts.get(a.tensor, 0) + 1
        for i, stmt in enumerate(stmts):
            if stmt.kind != "contract" or stmt.op not in MULTIPLICATIVE_OPS:
                continue
            if stmt.reduction_indices():
                continue
            inter_ops = [
                (pos, a)
                for pos, a in enumerate(stmt.operands)
                if a.tensor in produced
            ]
            if len(inter_ops) != 1:
                continue
            pos, target = inter_ops[0]
            if use_counts.get(target.tensor, 0) != 1:
                continue
            if target.tensor in fused.outputs:
                continue
            j = produced[target.tensor]
            producer = stmts[j]
            if producer.kind != "contract" or producer.op not in MULTIPLICATIVE_OPS:
                continue
            # Indices already unified: producer lhs indices == access indices.
            mask_operands = tuple(
                a for k, a in enumerate(stmt.operands) if k != pos
            )
            merged = Statement(
                lhs=stmt.lhs,
                kind="contract",
                op=producer.op,
                operands=producer.operands + mask_operands,
                order=producer.order,
            )
            merged.sid = producer.sid
            stmts[j] = merged
            del stmts[i]
            changed = True
            break
    return FusedEinsum(
        name=fused.name,
        statements=stmts,
        pog=fused.pog,
        views=fused.views,
        outputs=fused.outputs,
        transposed_views=fused.transposed_views,
        index_sizes=fused.index_sizes,
    )


def merge_contractions(fused: FusedEinsum) -> FusedEinsum:
    """Merge chained multiplicative contractions into single n-ary Einsums.

    This reproduces the Custard/Stardust-style *manual rewrite*: a chain
    like ``E = A*B; D = E*C`` becomes ``D = sum_{..} A*B*C``, whose lowering
    traverses a single global iteration space (coordinate explosion and
    all).  Used by the Section 8.4 prior-compiler comparison.
    """
    stmts = list(fused.statements)
    changed = True
    while changed:
        changed = False
        produced = {s.lhs.tensor: i for i, s in enumerate(stmts)}
        use_counts: Dict[str, int] = {}
        for s in stmts:
            for a in s.operands:
                use_counts[a.tensor] = use_counts.get(a.tensor, 0) + 1
        for i, stmt in enumerate(stmts):
            if stmt.kind != "contract" or stmt.op not in MULTIPLICATIVE_OPS:
                continue
            for pos, acc in enumerate(stmt.operands):
                j = produced.get(acc.tensor)
                if j is None:
                    continue
                producer = stmts[j]
                if (
                    producer.kind != "contract"
                    or producer.op not in MULTIPLICATIVE_OPS
                    or use_counts.get(acc.tensor, 0) != 1
                    or acc.tensor in fused.outputs
                ):
                    continue
                new_operands = (
                    stmt.operands[:pos] + producer.operands + stmt.operands[pos + 1 :]
                )
                merged = Statement(
                    lhs=stmt.lhs, kind="contract", op=stmt.op, operands=new_operands
                )
                merged.sid = stmt.sid
                stmts[i] = merged
                del stmts[j]
                changed = True
                break
            if changed:
                break
    return FusedEinsum(
        name=fused.name + "_global",
        statements=stmts,
        pog=fused.pog,
        views=fused.views,
        outputs=fused.outputs,
        transposed_views=fused.transposed_views,
        index_sizes=fused.index_sizes,
    )


#: The compile flow's front-end passes, in order (see :func:`front_end`).
FRONT_END_PASSES: Tuple[str, ...] = (
    "fuse-regions",
    "fold-masks",
    "merge-contractions",
)


def front_end_skips(schedule, sids: Sequence[int]) -> Dict[str, str]:
    """Why ``fold-masks`` / ``merge-contractions`` skip a region.

    Both rewrite across statements, so a singleton region skips them;
    otherwise the schedule's ``fold_masks`` / ``global_rewrite`` decide.
    A pass absent from the result runs.
    """
    skips: Dict[str, str] = {}
    if not schedule.fold_masks:
        skips["fold-masks"] = "disabled by schedule"
    elif len(sids) < 2:
        skips["fold-masks"] = "singleton region"
    if not schedule.global_rewrite:
        skips["merge-contractions"] = "schedule has no global rewrite"
    elif len(sids) < 2:
        skips["merge-contractions"] = "singleton region"
    return skips


def front_end(
    program: EinsumProgram,
    sids: Sequence[int],
    skips: Dict[str, str],
    name: str,
    extra_orders: Dict[int, Sequence[str]] | None = None,
    decls: Dict[str, object] | None = None,
    seconds: Dict[str, float] | None = None,
) -> FusedEinsum:
    """The compile flow's first three passes over one region.

    ``fuse-regions`` (:func:`fuse_region`), then ``fold-masks`` and
    ``merge-contractions`` unless ``skips`` (from :func:`front_end_skips`)
    names them.  The compiler and the fusion heuristic both fuse through
    here; ``seconds``, when given, accumulates each pass's wall time under
    its name.
    """
    start = time.perf_counter()
    fused = fuse_region(
        program, sids, name=name, extra_orders=extra_orders, decls=decls
    )
    ends = [("fuse-regions", time.perf_counter())]
    for pass_name, rewrite in (
        ("fold-masks", fold_masks),
        ("merge-contractions", merge_contractions),
    ):
        if pass_name not in skips:
            fused = rewrite(fused)
        ends.append((pass_name, time.perf_counter()))
    if seconds is not None:
        for pass_name, end in ends:
            seconds[pass_name] = seconds.get(pass_name, 0.0) + end - start
            start = end
    return fused
