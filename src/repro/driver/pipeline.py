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
region the same way for every hierarchy, machine and schedule that gives
it the same lowering context (its statements, front-end skips, pinned
and statement orders, the schedule's splits and par, and the tensors it
names that earlier regions materialized).  A flow keeps what they leave,
one placement-free :class:`LoweredRegion` per context, in its
:class:`RegionStore`; a region whose context the store holds runs
``place-memory`` alone, under the compiling schedule's region name.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..comal.hierarchy import FLAT_HIERARCHY, resolve_hierarchy
from ..core.einsum.ast import EinsumProgram, TensorDecl
from ..core.fusion.fuse import (
    FRONT_END_PASSES,
    FusedEinsum,
    ProgramUses,
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
    NO_ORDER_LOWERS,
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
    figures.  The region's name and position are the compile's that
    lowered it (``diag.name``, ``diag.position``); :meth:`render` puts
    another compile's in their place.
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

    def render(self, name: str, position: int) -> RegionState:
        """This region as a compile naming it ``name`` at ``position``
        receives it: the fused region, graph and fusion table under that
        name (graphs shared, only the name differs), and its own copy of
        the diagnostics."""
        diag = dataclasses.replace(
            self.diag,
            name=name,
            position=position,
            sids=list(self.diag.sids),
            orders_tried=list(self.diag.orders_tried),
            split_indices=dict(self.diag.split_indices),
            skipped_passes=dict(self.diag.skipped_passes),
        )
        state = RegionState(
            position=position,
            sids=list(diag.sids),
            name=name,
            diag=diag,
            fused=self.fused,
            graph=self.graph,
            order=self.order,
            splits=self.splits,
            output_specs=self.output_specs,
            table_text=self.table_text,
            transposes=self.transposes,
        )
        if name != self.diag.name:
            # merge-contractions suffixes the fused region's name.
            fused_name = name + self.fused.name[len(self.diag.name):]
            state.fused = copy.copy(self.fused)
            state.fused.name = fused_name
            state.graph = self.graph.renamed(fused_name)
            head = f"fusion table {self.fused.name}"
            state.table_text = f"fusion table {fused_name}" + self.table_text[len(head):]
        return state


@dataclass
class FailedRegion:
    """A region whose lowering raised ``error`` in the compile that named
    it ``name``."""

    error: LoweringError
    name: str

    def error_for(self, name: str) -> LoweringError:
        """A fresh copy of the error, as a compile naming the region
        ``name`` raises it."""
        message = str(self.error)
        head = NO_ORDER_LOWERS + self.name
        if name != self.name and message.startswith(head):
            message = NO_ORDER_LOWERS + name + message[len(head):]
        return type(self.error)(message)


class _ProgramTable:
    """One program's lowered regions, keyed by lowering context, and the
    region entries of each schedule compiled against it."""

    def __init__(self, program: EinsumProgram, fingerprint: Optional[str]) -> None:
        self.fingerprint = fingerprint
        self.uses = ProgramUses.of(program)
        # sid -> the tensors its statement names.
        self.names: Dict[int, Tuple[str, ...]] = {
            stmt.sid: (stmt.lhs.tensor, *(acc.tensor for acc in stmt.operands))
            for stmt in program.statements
        }
        self.regions: Dict[Tuple, Union[LoweredRegion, FailedRegion]] = {}
        # Schedule fingerprint -> its entries in region order (the last
        # one failed when lowering stopped there).
        self.schedules: Dict[str, List[Union[LoweredRegion, FailedRegion]]] = {}

    def key(
        self,
        ctx: PassContext,
        position: int,
        sids: Sequence[int],
        skips: Dict[str, str],
    ) -> Tuple:
        """A region's full lowering context.  The program is the table's;
        machine, hierarchy and region name are not in it."""
        schedule = ctx.schedule
        pinned = schedule.orders.get(position)
        stmt_orders = schedule.stmt_orders
        program_decls = ctx.program.decls
        materialized = []
        for tensor in dict.fromkeys(t for sid in sids for t in self.names[sid]):
            decl = ctx.decls.get(tensor)
            if decl is not program_decls.get(tensor):
                materialized.append((tensor, decl.shape, decl.fmt))
        return (
            tuple(sids),
            tuple(skips.items()),
            None if pinned is None else tuple(pinned),
            tuple((sid, tuple(stmt_orders[sid])) for sid in sids if sid in stmt_orders),
            tuple(schedule.splits.items()),
            tuple(schedule.par.items()),
            tuple(materialized),
        )


class RegionStore:
    """The lowered regions of the last program the flows holding this
    store compiled.

    Each region is lowered once per lowering context (:meth:`_ProgramTable.key`),
    whatever schedule it belongs to; a compile under a schedule the store
    has seen takes its entries in one lookup.  Compiling another program
    starts a fresh table.  A compile takes the table once and the store
    replaces it whole, so concurrent compiles need no lock.  ``lowered``
    counts the regions lowered into the store, ``hits`` the regions it
    served.
    """

    def __init__(self) -> None:
        self._table: Optional[_ProgramTable] = None
        self.lowered = 0
        self.hits = 0

    def table(
        self, program: EinsumProgram, fingerprint: Optional[str]
    ) -> _ProgramTable:
        """The table of the program with ``fingerprint``, validating the
        program when the store binds to it (the fingerprint covers all
        that validation reads)."""
        table = self._table
        if table is None or table.fingerprint != fingerprint:
            program.validate()
            table = _ProgramTable(program, fingerprint)
            self._table = table
        return table

    def clear(self) -> None:
        """Drop the table and reset the counters."""
        self._table = None
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
        #: The lowered regions this flow reuses; flows given one store (a
        #: sweep worker's sessions) lower each region context once between
        #: them.
        self.store = RegionStore()

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
            The Einsum program.
        schedule:
            The schedule whose regions drive the region-by-region flow.
        fingerprints:
            ``(program.fingerprint(), schedule.fingerprint())``, the
            compile cache's first two key fields.  Given, the flow looks
            regions up in :attr:`store` and keeps what it lowers there;
            without them it lowers every region and keeps nothing.

        Returns
        -------
        tuple
            ``(regions, decls, diagnostics)``: one
            :class:`~repro.driver.compiled.CompiledRegion` per fusion
            region, the grown declaration registry, and the structured
            :class:`~repro.driver.diagnostics.CompileDiagnostics` (with
            per-pass ``pass_seconds``).
        """
        # Without fingerprints, a store of this compile's own.
        store = self.store if fingerprints is not None else RegionStore()
        program_fp, schedule_fp = fingerprints or (None, None)
        table = store.table(program, program_fp)
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
            uses=table.uses,
        )
        # Published once complete (or ended by a failure), so a concurrent
        # compile of this schedule never reads a partial list.
        entries = table.schedules.get(schedule_fp)
        indexed = entries is not None
        if not indexed:
            entries = []
        seconds = diagnostics.pass_seconds
        regions: List[CompiledRegion] = []
        error: Optional[LoweringError] = None
        for position, sids in enumerate(schedule.regions):
            name = f"{schedule.name}-r{position}"
            if indexed:
                entry = entries[position]
                store.hits += 1
            else:
                skips = front_end_skips(schedule, sids)
                key = table.key(ctx, position, sids, skips)
                entry = table.regions.get(key)
                if entry is not None:
                    store.hits += 1
                else:
                    try:
                        entry = _lower(ctx, position, list(sids), name, skips, seconds)
                    except LoweringError as exc:
                        # Kept as a fresh copy: the raised one holds this
                        # compile's frames.
                        entry = FailedRegion(type(exc)(*exc.args), name)
                        error = exc
                    table.regions[key] = entry
                    store.lowered += 1
                entries.append(entry)
            if isinstance(entry, FailedRegion):
                if not indexed:
                    table.schedules[schedule_fp] = entries
                raise error or entry.error_for(name)
            state = entry.render(name, position)
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
        if not indexed:
            table.schedules[schedule_fp] = entries
        return regions, ctx.decls, diagnostics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PassPipeline({self.hierarchy.name!r})"


def _lower(
    ctx: PassContext,
    position: int,
    sids: List[int],
    name: str,
    skips: Dict[str, str],
    seconds: Dict[str, float],
) -> LoweredRegion:
    """Run the front end (minus the passes ``skips`` names) and the
    placement-free back-end passes on one region, timing each pass into
    ``seconds``."""
    state = RegionState(
        position=position,
        sids=sids,
        name=name,
        diag=RegionDiagnostics(name=name, position=position, sids=list(sids)),
    )
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
