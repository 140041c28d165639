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

Only ``place-memory`` reads the hierarchy.  The other six passes lower a
(program, schedule) the same way for every hierarchy and machine, so
flows that share a :class:`SharedLowering` (a sweep worker's sessions)
keep their result — one placement-free :class:`LoweredRegion` per region
— and a compile of the same (program, schedule) runs ``place-memory``
alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..comal.hierarchy import FLAT_HIERARCHY, resolve_hierarchy
from ..core.einsum.ast import EinsumProgram, TensorDecl
from ..core.fusion.fuse import (
    FRONT_END_PASSES,
    FusedEinsum,
    front_end,
    front_end_skips,
)
from ..core.schedule.schedule import Schedule
from ..core.tables.lower import LoweringError, OutputSpec
from ..sam.graph import SAMGraph
from .compiled import CompiledRegion
from .diagnostics import CompileDiagnostics, RegionDiagnostics
from .passes import (
    BACK_END,
    MAX_ORDER_ATTEMPTS,
    PassContext,
    RegionState,
    place_memory,
    register_outputs,
)

#: The compile flow (paper Figure 6 plus memory placement and index
#: splitting): splitting is scheduled *before* lowering (the tile decision
#: shapes the dataflow order and the placement footprints), and placement
#: runs right after lowering so every materialized edge gets a hierarchy
#: level before parallelization retimes the compute lanes.
DEFAULT_PASS_ORDER: Tuple[str, ...] = (
    *FRONT_END_PASSES,
    *(name for name, _ in BACK_END),
)


#: The placement-free passes after the front end, in flow order.
_LOWERING = tuple((name, run) for name, run in BACK_END if name != "place-memory")


class PipelineError(RuntimeError):
    """Raised when asked for a pass order other than the compile flow's."""


@dataclass
class LoweredRegion:
    """A region as every pass but ``place-memory`` leaves it.

    Shared, never copied, by every compile that looks it up, and never
    mutated: the compiled regions hold its graph and lists, and ``diag``
    is a template each compile copies before placement adds its own
    figures.
    """

    fused: FusedEinsum
    graph: SAMGraph
    order: List[str]
    # The splits lowering materialized (place-memory scales footprints).
    splits: Dict[str, int]
    output_specs: List[OutputSpec]
    table_text: str
    transposes: List[Tuple[str, str, Tuple[int, ...]]]
    diag: RegionDiagnostics


@dataclass
class LoweredProgram:
    """Every region of one (program, schedule) as lowering left it: the
    regions lowered in flow order, then the error that stopped lowering
    (None when every region lowered)."""

    regions: List[LoweredRegion]
    error: Optional[LoweringError] = None


class SharedLowering:
    """The last (program, schedule) lowered by the flows that hold this.

    Keyed by the program's and the schedule's fingerprints, the first two
    fields of the compile cache's key; the machine and the hierarchy are
    not in it.  One record, like a sweep worker's stage cache: a worker
    gets a group's points — one (program, schedule) on each machine and
    hierarchy — back to back.  ``lowered`` counts the compiles that lowered
    a record, ``hits`` the compiles a record served.
    """

    def __init__(self) -> None:
        # (key, record), replaced whole so a reader never pairs a key with
        # another key's record.
        self._last: Optional[Tuple[Tuple[str, str], LoweredProgram]] = None
        self.lowered = 0
        self.hits = 0

    def get(self, key: Tuple[str, str]) -> Optional[LoweredProgram]:
        last = self._last
        if last is None or last[0] != key:
            return None
        self.hits += 1
        return last[1]

    def put(self, key: Tuple[str, str], record: LoweredProgram) -> None:
        self._last = (key, record)
        self.lowered += 1

    def clear(self) -> None:
        """Drop the record and reset the counters."""
        self._last = None
        self.lowered = 0
        self.hits = 0


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
        #: The lowering this flow reuses.  None lowers every compile; flows
        #: given one (a sweep worker's sessions) lower a (program,
        #: schedule) once between them.
        self.shared: Optional[SharedLowering] = None

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
        self,
        program: EinsumProgram,
        schedule: Schedule,
        fingerprints: Optional[Tuple[str, str]] = None,
    ) -> Tuple[List[CompiledRegion], Dict[str, TensorDecl], CompileDiagnostics]:
        """Compile every region of ``schedule`` through the flow.

        Parameters
        ----------
        program:
            The (validated) Einsum program.
        schedule:
            The schedule whose regions drive the region-by-region flow.
        fingerprints:
            ``(program.fingerprint(), schedule.fingerprint())`` when the
            caller already has them (:class:`SharedLowering` keys on them).

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
        record = built = None
        if self.shared is not None:
            if fingerprints is None:
                fingerprints = (program.fingerprint(), schedule.fingerprint())
            record = self.shared.get(fingerprints)
            if record is None:
                built = LoweredProgram(regions=[])
        seconds = diagnostics.pass_seconds
        regions: List[CompiledRegion] = []
        for position, sids in enumerate(schedule.regions):
            name = f"{schedule.name}-r{position}"
            if record is None:
                try:
                    lowered = _lower(ctx, position, list(sids), name, seconds)
                except LoweringError as exc:
                    if built is not None:
                        # A fresh copy: the raised one holds this compile's frames.
                        built.error = type(exc)(*exc.args)
                        self.shared.put(fingerprints, built)
                    raise
                if built is not None:
                    built.regions.append(lowered)
            elif position < len(record.regions):
                lowered = record.regions[position]
            else:
                raise type(record.error)(*record.error.args)
            state = RegionState(
                position=position,
                sids=list(sids),
                name=name,
                diag=_own_copy(lowered.diag),
                fused=lowered.fused,
                graph=lowered.graph,
                order=lowered.order,
                splits=lowered.splits,
                output_specs=lowered.output_specs,
                table_text=lowered.table_text,
                transposes=lowered.transposes,
            )
            diagnostics.regions.append(state.diag)
            register_outputs(ctx, state)
            start = time.perf_counter()
            place_memory(ctx, state)
            seconds["place-memory"] = (
                seconds.get("place-memory", 0.0) + time.perf_counter() - start
            )
            # Skip reasons in flow order, as a pass-by-pass run leaves them.
            skipped = state.diag.skipped_passes
            state.diag.skipped_passes = {
                pass_name: skipped[pass_name]
                for pass_name in DEFAULT_PASS_ORDER
                if pass_name in skipped
            }
            regions.append(
                CompiledRegion(
                    graph=state.graph,
                    fused=state.fused,
                    order=state.order,
                    output_specs=state.output_specs,
                    table_text=state.table_text,
                    transposes=state.transposes,
                    placement=state.placement,
                )
            )
        if built is not None:
            self.shared.put(fingerprints, built)
        return regions, ctx.decls, diagnostics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PassPipeline({self.hierarchy.name!r})"


def _own_copy(diag: RegionDiagnostics) -> RegionDiagnostics:
    """A copy of a lowered region's diagnostics that owns its containers."""
    return dataclasses.replace(
        diag,
        sids=list(diag.sids),
        orders_tried=list(diag.orders_tried),
        split_indices=dict(diag.split_indices),
        skipped_passes=dict(diag.skipped_passes),
    )


def _lower(
    ctx: PassContext,
    position: int,
    sids: List[int],
    name: str,
    seconds: Dict[str, float],
) -> LoweredRegion:
    """Run the front end and the placement-free back-end passes on one
    region, timing each pass into ``seconds``."""
    state = RegionState(
        position=position,
        sids=sids,
        name=name,
        diag=RegionDiagnostics(name=name, position=position, sids=list(sids)),
    )
    skips = front_end_skips(ctx.schedule, sids)
    state.diag.skipped_passes.update(skips)
    state.fused = front_end(
        ctx.program,
        sids,
        skips,
        name=name,
        extra_orders={
            sid: order
            for sid, order in ctx.schedule.stmt_orders.items()
            if sid in sids
        },
        decls=ctx.decls,
        seconds=seconds,
        uses=ctx.uses,
    )
    state.diag.statements = len(state.fused.statements)
    for pass_name, run_pass in _LOWERING:
        start = time.perf_counter()
        run_pass(ctx, state)
        seconds[pass_name] = seconds.get(pass_name, 0.0) + time.perf_counter() - start
    # Validate at compile time so executions (which may replay a cached
    # Executable thousands of times) never re-validate.
    state.graph.validate()
    return LoweredRegion(
        fused=state.fused,
        graph=state.graph,
        order=state.order,
        splits=state.splits,
        output_specs=state.output_specs,
        table_text=state.table_text,
        transposes=state.transposes,
        diag=state.diag,
    )
