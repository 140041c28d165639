"""The executable handle returned by :meth:`Session.compile`.

An :class:`Executable` is a compiled program bound to a machine: call it
on a binding (``exe(binding)`` or ``exe.run(A=..., X=...)``) to simulate,
introspect it with :meth:`describe`, and read the structured
:attr:`diagnostics` the compiler collected while compiling it.  Executables
are immutable and safe to share — the Session cache hands the same object
back for every fingerprint-identical compile.
A call is a machine-free :meth:`Executable.functional` run timed on a
machine by :meth:`Executable.time`; sweeps call the two stages apart.
Calls go through the one simulator memo, kept here per executable.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..comal.functional import default_debug_streams
from ..comal.machines import Machine
from ..core.einsum.ast import EinsumProgram, TensorDecl
from ..core.schedule.schedule import Schedule
from ..ftree.tensor import SparseTensor
from .compiled import (
    CompiledProgram,
    CompiledRegion,
    FunctionalRun,
    ProgramResult,
    execute_compiled,
    functional_stage,
    time_stage,
)
from .diagnostics import CompileDiagnostics

#: Entries the simulator memo keeps per executable.  Frozen
#: ``bench/wl_codegen.py`` rotates 6 bindings per class and must never be
#: served by the memo, so the cap stays below 6.
_MEMO_ENTRIES = 4
#: Serve threads share executables, so several calls may fill one memo at
#: once: insertion and eviction hold this lock (a lookup is one dict read).
_MEMO_LOCK = threading.Lock()


class Executable:
    """A compiled program plus the machine it will simulate on.

    Parameters
    ----------
    compiled:
        The region graphs and declaration registry from the compile flow.
    machine:
        Default timing model for executions (overridable per call).
    diagnostics:
        Structured record of what the compile flow did.
    fingerprint:
        The Session cache key this executable was stored under.
    debug_streams, sim_cache:
        Execution options inherited from the Session: per-stream
        protocol checking and the simulator memo (see :meth:`__call__`).
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine,
        diagnostics: CompileDiagnostics,
        fingerprint: Tuple[str, ...],
        debug_streams: Optional[bool] = None,
        sim_cache: bool = True,
    ) -> None:
        self.compiled = compiled
        self.machine = machine
        self.diagnostics = diagnostics
        #: The Session cache key this executable was stored under.
        self.fingerprint = fingerprint
        #: Execution options inherited from the Session.
        self.debug_streams = debug_streams
        self.sim_cache = sim_cache
        #: The simulator memo: key -> (result, pinned tensors, machine).
        self._memo: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def program(self) -> EinsumProgram:
        """The Einsum program this executable was compiled from."""
        return self.compiled.program

    @property
    def schedule(self) -> Schedule:
        """The schedule it was compiled under."""
        return self.compiled.schedule

    @property
    def regions(self) -> List[CompiledRegion]:
        """The compiled fusion regions, in execution order."""
        return self.compiled.regions

    @property
    def decls(self) -> Dict[str, TensorDecl]:
        """Declaration registry including materialized region outputs."""
        return self.compiled.decls

    def describe(self) -> str:
        """Region/graph summary plus the compile diagnostics."""
        return "\n".join(
            [
                self.compiled.describe(),
                self.diagnostics.describe(),
            ]
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @cached_property
    def _reads(self) -> Tuple[str, ...]:
        """Every name a region may read from the caller's binding: each
        graph's input tensors and each permuted copy's source."""
        names: Dict[str, None] = {}
        for region in self.compiled.regions:
            names.update(dict.fromkeys(orig for orig, _, _ in region.transposes))
            names.update(dict.fromkeys(region.graph.input_tensor_names()))
        return tuple(names)

    def __call__(
        self,
        binding: Optional[Dict[str, SparseTensor]] = None,
        machine: Optional[Machine] = None,
        **tensors: SparseTensor,
    ) -> ProgramResult:
        """Simulate on ``binding`` (and/or tensors by keyword).

        Calls go through the one simulator memo (``sim_cache``), keyed on
        the identities of the tensors the program reads from the binding
        (tensors are immutable once built), of the (frozen) machine, and
        the resolved ``debug_streams``; a hit returns the stored result
        itself.  It keeps at most :data:`_MEMO_ENTRIES` results, each
        pinning its tensors and machine; their regions keep stats, results
        and order, and streams only under ``debug_streams``.

        Parameters
        ----------
        binding:
            Tensor name -> :class:`~repro.ftree.tensor.SparseTensor`.
        machine:
            Per-call timing-model override.  Placement metadata baked in
            at compile time is a *request*: a machine without an SRAM
            level serves every placement from DRAM.
        **tensors:
            Individual tensors by keyword, merged over ``binding``.

        Returns
        -------
        ProgramResult
            Program metrics (incl. per-level memory traffic), per-region
            :class:`~repro.comal.engine.SimResult` list, and the
            materialized output tensors.
        """
        bind: Dict[str, SparseTensor] = dict(binding or {})
        bind.update(tensors)
        machine = machine or self.machine
        debug = self.debug_streams
        if debug is None:
            debug = default_debug_streams()
        key = None
        if self.sim_cache:
            ids = tuple(id(bind.get(name)) for name in self._reads)
            key = (ids, id(machine), debug)
            entry = self._memo.get(key)
            if entry is not None:
                return entry[0]
        result = execute_compiled(self.compiled, bind, machine, debug_streams=debug)
        if key is not None:
            pinned = [bind.get(name) for name in self._reads]
            with _MEMO_LOCK:
                self._memo[key] = (result, pinned, machine)
                while len(self._memo) > _MEMO_ENTRIES:
                    del self._memo[next(iter(self._memo))]
        return result

    def functional(self, binding: Dict[str, SparseTensor]) -> FunctionalRun:
        """Run every region with no machine: all :meth:`time` needs."""
        return functional_stage(
            self.compiled, binding, debug_streams=self.debug_streams
        )

    def time(self, run: FunctionalRun) -> ProgramResult:
        """Time a :meth:`functional` run on this executable's machine,
        bit-identical to calling it.  ``run`` may come from another compile
        whose region graphs match this one's node for node (another
        hierarchy's, say); ValueError otherwise."""
        if run.signature != self.compiled.signature:
            raise ValueError(
                "functional run is of a different compile: region graphs "
                "differ in node ids or kinds"
            )
        return time_stage(self.compiled, run, self.machine)

    def run(
        self,
        binding: Optional[Dict[str, SparseTensor]] = None,
        machine: Optional[Machine] = None,
        **tensors: SparseTensor,
    ) -> ProgramResult:
        """Alias for calling the executable directly."""
        return self(binding, machine=machine, **tensors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Executable {self.program.name}/{self.schedule.name} "
            f"({len(self.regions)} region(s), {self.compiled.total_nodes()} nodes)>"
        )
