"""The compile flow: one fixed function of (program, schedule, hierarchy).

Every region of a schedule goes through the same seven passes in
:data:`DEFAULT_PASS_ORDER`.  Whether an optional pass changes anything is
the schedule's or the hierarchy's say, never the flow's:

* ``fold-masks`` — ``Schedule.fold_masks``;
* ``merge-contractions`` — ``Schedule.global_rewrite``;
* ``split-indices`` — ``Schedule.splits``;
* ``place-memory`` — the memory hierarchy;
* ``parallelize`` — ``Schedule.par``.

``run`` times every pass and collects :class:`CompileDiagnostics`.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Sequence, Tuple

from ..comal.hierarchy import FLAT_HIERARCHY, resolve_hierarchy
from ..core.einsum.ast import EinsumProgram, TensorDecl
from ..core.fusion.fuse import FRONT_END_PASSES, front_end, front_end_skips
from ..core.schedule.schedule import Schedule
from .compiled import CompiledRegion
from .diagnostics import CompileDiagnostics, RegionDiagnostics
from .passes import BACK_END, MAX_ORDER_ATTEMPTS, PassContext, RegionState

#: The compile flow (paper Figure 6 plus memory placement and index
#: splitting): splitting is scheduled *before* lowering (the tile decision
#: shapes the dataflow order and the placement footprints), and placement
#: runs right after lowering so every materialized edge gets a hierarchy
#: level before parallelization retimes the compute lanes.
DEFAULT_PASS_ORDER: Tuple[str, ...] = (
    *FRONT_END_PASSES,
    *(name for name, _ in BACK_END),
)


class PipelineError(RuntimeError):
    """Raised when asked for a pass order other than the compile flow's."""


class PassPipeline:
    """The compile flow for one memory hierarchy.

    Parameters
    ----------
    hierarchy:
        Anything :func:`~repro.comal.hierarchy.resolve_hierarchy` accepts;
        ``place-memory`` places region outputs in it.  A hierarchy without
        a usable on-chip level places exactly like the flat one, so it
        compiles (and fingerprints) as flat.
    """

    def __init__(self, hierarchy=None) -> None:
        spec = resolve_hierarchy(hierarchy)
        self.hierarchy = spec if spec.has_sram else FLAT_HIERARCHY

    @classmethod
    def default(cls) -> "PassPipeline":
        """The flow on the flat hierarchy."""
        return cls()

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "PassPipeline":
        """The flat-hierarchy flow, given its own pass names.

        Raises
        ------
        PipelineError
            Unless ``names`` is :data:`DEFAULT_PASS_ORDER`: the order is
            fixed, and every ablation is a schedule field or the hierarchy.
        """
        if tuple(names) != DEFAULT_PASS_ORDER:
            raise PipelineError(
                f"the compile flow is fixed: {list(DEFAULT_PASS_ORDER)}, got "
                f"{list(names)}; ablate through the schedule (fold_masks, "
                "global_rewrite, splits, par) or the hierarchy instead"
            )
        return cls()

    def names(self) -> List[str]:
        """Pass names in execution order."""
        return list(DEFAULT_PASS_ORDER)

    def fingerprint(self) -> str:
        """Stable hash of the pass names, order and configuration.

        The rendering predates the fixed flow (one ``"name config"`` line
        per pass) and is kept so compile-cache keys, disk-cache entries and
        recorded sweep fingerprints stay valid.
        """
        configs = {
            "lower-region": (MAX_ORDER_ATTEMPTS,),
            "place-memory": self.hierarchy.config(),
        }
        parts = [f"{name} {configs.get(name, ())}" for name in DEFAULT_PASS_ORDER]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def run(
        self, program: EinsumProgram, schedule: Schedule
    ) -> Tuple[List[CompiledRegion], Dict[str, TensorDecl], CompileDiagnostics]:
        """Compile every region of ``schedule`` through the flow.

        Parameters
        ----------
        program:
            The (validated) Einsum program.
        schedule:
            The schedule whose regions drive the region-by-region flow.

        Returns
        -------
        tuple
            ``(regions, decls, diagnostics)``: one
            :class:`~repro.driver.compiled.CompiledRegion` per fusion
            region, the grown declaration registry, and the structured
            :class:`~repro.driver.diagnostics.CompileDiagnostics` (with
            per-pass ``pass_seconds``).
        """
        program.validate()
        schedule.validate(program)
        diagnostics = CompileDiagnostics(
            program=program.name,
            schedule=schedule.name,
            pass_names=self.names(),
        )
        ctx = PassContext(
            program=program,
            schedule=schedule,
            hierarchy=self.hierarchy,
            decls=dict(program.decls),
        )
        seconds = diagnostics.pass_seconds
        regions: List[CompiledRegion] = []
        for position, sids in enumerate(schedule.regions):
            name = f"{schedule.name}-r{position}"
            state = RegionState(
                position=position,
                sids=list(sids),
                name=name,
                diag=RegionDiagnostics(name=name, position=position, sids=list(sids)),
            )
            diagnostics.regions.append(state.diag)
            skips = front_end_skips(schedule, sids)
            state.diag.skipped_passes.update(skips)
            state.fused = front_end(
                program,
                sids,
                skips,
                name=name,
                extra_orders={
                    sid: order
                    for sid, order in schedule.stmt_orders.items()
                    if sid in sids
                },
                decls=ctx.decls,
                seconds=seconds,
            )
            state.diag.statements = len(state.fused.statements)
            for pass_name, run_pass in BACK_END:
                start = time.perf_counter()
                run_pass(ctx, state)
                seconds[pass_name] = (
                    seconds.get(pass_name, 0.0) + time.perf_counter() - start
                )
            # Validate at compile time so executions (which may replay a
            # cached Executable thousands of times) never re-validate.
            state.graph.validate()
            regions.append(
                CompiledRegion(
                    graph=state.graph,
                    fused=state.fused,
                    order=list(state.order),
                    output_specs=list(state.output_specs),
                    table_text=state.table_text,
                    transposes=list(state.transposes),
                )
            )
        return regions, ctx.decls, diagnostics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PassPipeline({self.hierarchy.name!r})"
