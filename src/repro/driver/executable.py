"""The executable handle returned by :meth:`Session.compile`.

An :class:`Executable` is a compiled program bound to a machine: call it
on a binding (``exe(binding)`` or ``exe.run(A=..., X=...)``) to simulate,
introspect it with :meth:`describe`, and read the structured
:attr:`diagnostics` the compiler collected while compiling it.  Executables
are immutable and safe to share — the Session cache hands the same object
back for every fingerprint-identical compile.
A call is a machine-free :meth:`Executable.functional` run timed on a
machine by :meth:`Executable.time`; sweeps call the two stages apart.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
)
from .diagnostics import CompileDiagnostics


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
    backend, debug_streams, sim_cache:
        Execution options inherited from the Session: the resolved
        backend name this executable was compiled under, per-stream
        protocol checking, and result memoization.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine,
        diagnostics: CompileDiagnostics,
        fingerprint: Tuple[str, ...],
        backend: str,
        debug_streams: Optional[bool] = None,
        sim_cache: bool = True,
    ) -> None:
        self.compiled = compiled
        self.machine = machine
        self.diagnostics = diagnostics
        #: The Session cache key this executable was stored under.
        self.fingerprint = fingerprint
        #: Execution options inherited from the Session.
        self.backend = backend
        self.debug_streams = debug_streams
        self.sim_cache = sim_cache

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
    def __call__(
        self,
        binding: Optional[Dict[str, SparseTensor]] = None,
        machine: Optional[Machine] = None,
        **tensors: SparseTensor,
    ) -> ProgramResult:
        """Simulate on ``binding`` (and/or tensors by keyword).

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
        return execute_compiled(
            self.compiled,
            bind,
            machine or self.machine,
            backend=self.backend,
            debug_streams=self.debug_streams,
            cache=self.sim_cache,
        )

    def functional(self, binding: Dict[str, SparseTensor]) -> FunctionalRun:
        """Run every region with no machine: all :meth:`time` needs."""
        return execute_compiled(
            self.compiled, binding, None, backend=self.backend, debug_streams=self.debug_streams
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
        return execute_compiled(
            self.compiled, {}, self.machine,
            backend=self.backend, debug_streams=self.debug_streams, run=run,
        )

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
