"""SAMML dataflow graph IR.

A :class:`SAMGraph` is a directed graph of primitive nodes connected by named
streams.  Nodes are instances of primitives from
:mod:`repro.sam.primitives`; edges connect an output port of one node to an
input port of another.  Graphs are data-independent: scanners and value
arrays name the tensors they read, and an execution binds names to actual
:class:`~repro.ftree.tensor.SparseTensor` objects.

The graph deliberately mirrors the three regions of a SAM graph (input
iteration, computation, tensor construction); each node carries a ``region``
tag plus the index variable it iterates and the parallelization and tile
factors the timed simulator reads.  Memory placement is not on the graph:
compiles for different hierarchies share one graph, each with its own
placement map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.node_id}: {self.prim.describe()})"


class GraphError(ValueError):
    """Raised on malformed graph construction or validation failure."""


#: One node of the timed engine's walk: id, timing class, input port
#: keys, and the node (read live for its parallel and tile factors).
PlanStep = Tuple[str, str, Tuple[Tuple[str, str], ...], Node]


class SAMGraph:
    """A SAMML dataflow graph: primitives wired by named streams."""

    #: Class default, so a graph unpickled without a plan builds one.
    _plan_cache: Optional[List[PlanStep]] = None

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self._counter = 0
        # Structure caches, invalidated by add(): simulation
        # re-runs the same graph many times, so the topological sort, the
        # timing plan and the validation result are computed once per
        # structural change.
        self._topo_cache: Optional[List[str]] = None
        self._plan_cache = None
        self._validated = False
        self._input_tensor_names_cache: Optional[List[str]] = None

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
        self._plan_cache = None
        self._validated = False
        self._input_tensor_names_cache = None
        return node

    def renamed(self, name: str) -> "SAMGraph":
        """This graph under another name, sharing its nodes and structure
        caches; neither may be mutated afterwards."""
        view = object.__new__(SAMGraph)
        view.__dict__.update(self.__dict__)
        view.name = name
        return view

    def __getstate__(self) -> Dict[str, object]:
        # The timing plan derives from the structure: a pickle (a disk
        # cache entry) leaves it out, and the loaded graph rebuilds it.
        state = dict(self.__dict__)
        state.pop("_plan_cache", None)
        return state

    def port(self, node: Node | str, port: str = "out") -> Port:
        """Build a :class:`Port` handle for ``node``'s output ``port``."""
        node_id = node if isinstance(node, str) else node.node_id
        prim = self.nodes[node_id].prim
        if port not in prim.out_ports:
            raise GraphError(
                f"{prim.kind} has no output port {port!r} (expected {prim.out_ports})"
            )
        return Port(node_id, port)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    def timing_plan(self) -> List[PlanStep]:
        """The timed engine's walk, one :data:`PlanStep` per node in
        topological order.  Built at validation and cached with the order,
        so :meth:`renamed` views share it."""
        if self._plan_cache is None:
            plan = []
            for node_id in self.topological_order():
                node = self.nodes[node_id]
                in_keys = tuple(src.key() for src in node.inputs.values())
                plan.append((node_id, node.prim.timing_class(), in_keys, node))
            self._plan_cache = plan
        return self._plan_cache

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
        """Check structural invariants: ports wired, DAG."""
        for node in self.nodes.values():
            for required in node.prim.in_ports:
                if required not in node.inputs:
                    raise GraphError(
                        f"node {node.node_id} missing required input {required!r}"
                    )
        self.timing_plan()
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
        return "\n".join(lines)
