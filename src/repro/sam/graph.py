"""SAMML dataflow graph IR.

A :class:`SAMGraph` is a directed graph of primitive nodes connected by named
streams.  Nodes are instances of primitives from
:mod:`repro.sam.primitives`; edges connect an output port of one node to an
input port of another.  Graphs are data-independent: scanners and value
arrays name the tensors they read, and an execution binds names to actual
:class:`~repro.ftree.tensor.SparseTensor` objects.

The graph deliberately mirrors the three regions of a SAM graph (input
iteration, computation, tensor construction); each node carries a ``region``
tag plus optional metadata such as the index variable it iterates and a
parallelization factor used by the timed simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .primitives.base import Primitive


@dataclass
class Port:
    """Reference to one output port of one node."""

    node_id: str
    port: str

    def key(self) -> Tuple[str, str]:
        return (self.node_id, self.port)


@dataclass
class Node:
    """One dataflow primitive instance within a graph."""

    node_id: str
    prim: Primitive
    inputs: Dict[str, Port] = field(default_factory=dict)
    region: str = "compute"
    index_var: Optional[str] = None
    par_factor: int = 1
    # Tile-sequential execution factor (index splitting): the node's token
    # stream is processed in this many back-to-back tile passes, each tile
    # boundary costing one pipeline fill/drain in the timed engine.  1 means
    # flat (un-tiled) execution — bit-identical to the pre-splitting model.
    tile_factor: int = 1
    meta: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.node_id}: {self.prim.describe()})"


class GraphError(ValueError):
    """Raised on malformed graph construction or validation failure."""


class SAMGraph:
    """A SAMML dataflow graph: primitives wired by named streams."""

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        # Named graph outputs: label -> producing port.
        self.outputs: Dict[str, Port] = {}
        self._counter = 0
        # Structure caches, invalidated by add()/set_output(): simulation
        # re-runs the same graph many times, so the topological sort and the
        # validation result are computed once per structural change.
        self._topo_cache: Optional[List[str]] = None
        self._validated = False
        self._input_tensor_names_cache: Optional[List[str]] = None
        # Executor-owned memoization slots (see repro.comal.functional /
        # repro.comal.engine); cleared on structural change.
        self.func_cache: Optional[Any] = None
        self.timed_cache: Optional[Any] = None

    def __getstate__(self):
        # The executor memo slots hold simulation results keyed by tensor
        # identity — meaningless (and potentially huge) in another process.
        # Dropping them keeps serialized graphs (persistent compile cache)
        # pure structure; the structure caches (_topo_cache etc.) are plain
        # data and travel as-is.
        state = dict(self.__dict__)
        state["func_cache"] = None
        state["timed_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        prim: Primitive,
        inputs: Dict[str, Port] | None = None,
        *,
        node_id: str | None = None,
        region: str = "compute",
        index_var: str | None = None,
    ) -> Node:
        """Add a node and return it.  Input ports are validated eagerly."""
        if node_id is None:
            self._counter += 1
            node_id = f"n{self._counter}_{prim.kind}"
        if node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        inputs = dict(inputs or {})
        for port_name in inputs:
            if port_name not in prim.in_ports:
                raise GraphError(
                    f"{prim.kind} has no input port {port_name!r} "
                    f"(expected one of {prim.in_ports})"
                )
        node = Node(node_id=node_id, prim=prim, inputs=inputs, region=region, index_var=index_var)
        self.nodes[node_id] = node
        self._topo_cache = None
        self._validated = False
        self._input_tensor_names_cache = None
        self.func_cache = None
        self.timed_cache = None
        return node

    def port(self, node: Node | str, port: str = "out") -> Port:
        """Build a :class:`Port` handle for ``node``'s output ``port``."""
        node_id = node if isinstance(node, str) else node.node_id
        prim = self.nodes[node_id].prim
        if port not in prim.out_ports:
            raise GraphError(
                f"{prim.kind} has no output port {port!r} (expected {prim.out_ports})"
            )
        return Port(node_id, port)

    def set_output(self, label: str, port: Port) -> None:
        """Mark a port as a named graph output."""
        self.outputs[label] = port
        self._validated = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def successors(self, node_id: str) -> Iterator[str]:
        for other in self.nodes.values():
            for port in other.inputs.values():
                if port.node_id == node_id:
                    yield other.node_id
                    break

    def topological_order(self) -> List[str]:
        """Kahn topological sort; raises on cycles (SAM graphs are DAGs).

        The result is cached until the next structural change — executors
        sort the same graph on every run.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indegree = {nid: 0 for nid in self.nodes}
        for node in self.nodes.values():
            seen_preds = set()
            for port in node.inputs.values():
                if port.node_id not in self.nodes:
                    raise GraphError(
                        f"node {node.node_id} reads from unknown node {port.node_id}"
                    )
                if port.node_id not in seen_preds:
                    seen_preds.add(port.node_id)
                    indegree[node.node_id] += 1
        ready = sorted(nid for nid, deg in indegree.items() if deg == 0)
        order: List[str] = []
        adjacency: Dict[str, List[str]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            for pred in set(p.node_id for p in node.inputs.values()):
                adjacency[pred].append(node.node_id)
        while ready:
            nid = ready.pop()
            order.append(nid)
            for succ in sorted(set(adjacency[nid])):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a cycle")
        self._topo_cache = order
        return order

    def input_tensor_names(self) -> List[str]:
        """Tensor names this graph *reads* (scanners/locators/arrays).

        Writer outputs are excluded: they are produced by execution, not
        bound into it — this is the name set a result memo must key on.
        """
        if self._input_tensor_names_cache is not None:
            return self._input_tensor_names_cache
        names = []
        for node in self.nodes.values():
            name = getattr(node.prim, "tensor_name", None)
            if name is not None and node.prim.kind != "write" and name not in names:
                names.append(name)
        self._input_tensor_names_cache = names
        return names

    def node_count(self) -> int:
        return len(self.nodes)

    def validate(self) -> None:
        """Check structural invariants: ports wired, DAG, outputs exist."""
        for node in self.nodes.values():
            for required in node.prim.in_ports:
                if required not in node.inputs:
                    raise GraphError(
                        f"node {node.node_id} missing required input {required!r}"
                    )
        self.topological_order()
        for label, port in self.outputs.items():
            if port.node_id not in self.nodes:
                raise GraphError(f"output {label!r} references unknown node")
        self._validated = True

    def ensure_validated(self) -> None:
        """Validate once; repeated calls on an unchanged graph are free.

        The compile flow validates every lowered graph at compile time,
        so executions of cached executables skip validation entirely; graphs
        built by hand (tests, notebooks) still get checked on first run.
        """
        if not self._validated:
            self.validate()

    def describe(self) -> str:
        """Multi-line human-readable dump, stable for golden tests."""
        lines = [f"graph {self.name} ({len(self.nodes)} nodes)"]
        for nid in self.topological_order():
            node = self.nodes[nid]
            ins = ", ".join(
                f"{p}<-{src.node_id}.{src.port}" for p, src in sorted(node.inputs.items())
            )
            tag = f" [{node.region}]"
            par = f" x{node.par_factor}" if node.par_factor > 1 else ""
            tiles = f" t{node.tile_factor}" if node.tile_factor > 1 else ""
            lines.append(f"  {nid}: {node.prim.describe()}{tag}{par}{tiles} ({ins})")
        for label, port in sorted(self.outputs.items()):
            lines.append(f"  output {label} = {port.node_id}.{port.port}")
        return "\n".join(lines)
