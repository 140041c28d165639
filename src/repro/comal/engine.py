"""Timed executor: fully pipelined dataflow timing over functional streams.

Comal "models the architectural behavior of each IR node and tracks cycles
based on fully pipelined dataflow graphs" (paper Section 8.1).  This engine
follows that model: every node is a pipelined unit with a per-token
initiation interval (II) and a pipeline latency taken from a
:class:`~repro.comal.machines.Machine`; token timestamps propagate along
topological order with rate-based dependency tracking.  A node that moves
memory traffic paces its emissions at the bandwidth and latency of the level
it was placed in (``machine.dram_bandwidth``/``dram_latency``, or its SRAM
bank); each node streams at full port bandwidth, and contention is one
global roofline per level over the whole graph's bytes.

The result is a cycle count for the whole graph (the time the last token —
and the last memory write — lands), plus per-node busy/finish accounting used
for utilization reporting.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..sam.graph import SAMGraph
from .functional import FunctionalResult, run_functional
from .machines import Machine, RDA_MACHINE


@dataclass
class SimResult:
    """Outcome of one timed simulation of a SAMML graph.

    ``dram_bytes`` counts traffic served by the off-chip level only;
    ``sram_bytes`` counts traffic absorbed by the on-chip buffer (zero
    under the flat hierarchy).  ``spill_bytes``/``fill_bytes`` classify the
    DRAM share: writes of cross-region intermediates that did not fit
    on-chip, and the reads bringing them back.  Compulsory input/output
    traffic is DRAM traffic that is neither spill nor fill.
    """

    cycles: float
    flops: int
    dram_bytes: int
    tokens: int
    node_finish: Dict[str, float] = field(default_factory=dict)
    node_busy: Dict[str, float] = field(default_factory=dict)
    functional: Optional[FunctionalResult] = None
    machine_name: str = "rda"
    # Per-level traffic accounting (see repro.comal.hierarchy).
    sram_bytes: int = 0
    spill_bytes: int = 0
    fill_bytes: int = 0
    hierarchy: str = "flat"

    @property
    def results(self) -> Dict[str, Any]:
        """Tensors produced by writer nodes."""
        return self.functional.results if self.functional else {}

    def _check_cycles(self) -> None:
        if self.cycles < 0:
            raise ValueError(
                f"SimResult has negative cycle count {self.cycles}; this is "
                "a simulator bug (timestamps must be non-negative), not a "
                "utilization of zero"
            )

    def compute_utilization(self, machine: Machine) -> float:
        """Achieved FLOPs/cycle over peak — the Figure 1 "SM util" proxy."""
        self._check_cycles()
        if self.cycles == 0:
            return 0.0
        return self.flops / (self.cycles * machine.peak_flops_per_cycle)

    def memory_utilization(self, machine: Machine) -> float:
        """Achieved DRAM bytes/cycle over peak bandwidth."""
        self._check_cycles()
        if self.cycles == 0:
            return 0.0
        return self.dram_bytes / (self.cycles * machine.dram_bandwidth)

    def operational_intensity(self) -> float:
        """FLOPs per DRAM byte."""
        return self.flops / self.dram_bytes if self.dram_bytes else float("inf")


#: Below this length the pure-Python recurrences win: a handful of numpy
#: array allocations cost more than a few dozen loop iterations.  Above it
#: the ``np.maximum.accumulate`` closed forms take over.
_VECTOR_THRESHOLD = 96


def _emission_schedule(
    driver,
    length: int,
    ii: float,
    start: float,
):
    """Timestamps of ``length`` emissions paced by ``ii`` and input arrivals.

    Implements the recurrence ``t[k] = max(t[k-1] + ii, dep[k])`` (with
    ``t[-1] = start``).  Long schedules use the closed form: subtracting the
    ``ii``-ramp turns the running dependency into a prefix maximum, so the
    whole schedule is one ``np.maximum.accumulate`` instead of a per-token
    Python loop; short schedules stay in Python where numpy's fixed
    per-call cost dominates.
    """
    n_in = len(driver)
    if length < _VECTOR_THRESHOLD:
        times = []
        append = times.append
        prev = start
        for k in range(length):
            # (k * n_in) // length < n_in for every k < length, so no clamp.
            dep = driver[(k * n_in) // length] if n_in else start
            t = prev + ii
            if dep > t:
                t = dep
            append(t)
            prev = t
        return times
    # ii*k for k = 0..length: the ramp is its first `length` entries,
    # the ii*(k+1) floor its last `length`.
    steps = np.arange(length + 1, dtype=np.float64)
    steps *= ii
    ramp = steps[:-1]
    if n_in == length:
        run = np.subtract(driver, ramp)
    elif n_in:
        idx = (np.arange(length, dtype=np.int64) * n_in) // length
        run = np.asarray(driver, dtype=np.float64)[idx]
        run -= ramp
    else:
        run = np.subtract(start, ramp)
    return _ramp_max(run, steps, start)


def _paced_times(times, step: float, latency: float):
    """DRAM pacing ``served[k] = max(times[k], served[k-1] + step)`` + latency.

    (``served[-1] = 0``.)  Same adaptive strategy as
    :func:`_emission_schedule`: Python recurrence for short schedules, the
    ramp-subtraction closed form for long ones.
    """
    if len(times) < _VECTOR_THRESHOLD:
        out = []
        append = out.append
        prev = 0.0
        for t in times:
            served = prev + step
            if t > served:
                served = t
            append(served + latency)
            prev = served
        return out
    steps = np.arange(len(times) + 1, dtype=np.float64)
    steps *= step
    served = _ramp_max(np.subtract(times, steps[:-1]), steps, None)
    served += latency
    return served


def _ramp_max(run, steps, start):
    """``max(start + ii*(k+1), ii*k + prefix_max(run))``, in place.

    ``steps`` holds ``ii*k`` for ``k = 0 .. n`` and ``run`` the dependency
    minus its first ``n`` entries (the ramp).  Both are overwritten, so a
    long schedule allocates no temporaries; ``start=None`` adds nothing.
    Each step is the operation the expression names, on the same
    operands, so the result is bit-identical to evaluating it with
    temporaries.
    """
    np.maximum.accumulate(run, out=run)
    run += steps[:-1]
    floor = steps[1:]
    if start is not None:
        floor += start
    return np.maximum(floor, run, out=run)


def _tiled_times(times, tiles: int, bubble: float):
    """Re-pace an emission schedule as ``tiles`` tile-sequential passes.

    Index splitting (see :mod:`repro.core.schedule.split`) executes a node's
    token stream in ``tiles`` back-to-back passes; every tile boundary
    costs one pipeline fill/drain ``bubble``.  Token ``k`` of ``n`` belongs
    to tile ``k * tiles // n`` and is pushed back by that many bubbles —
    offsets are non-decreasing, so the schedule stays monotone and the
    last token lands ``(tiles - 1) * bubble`` later than untiled.
    """
    n = len(times)
    if n < _VECTOR_THRESHOLD:
        return [t + bubble * ((k * tiles) // n) for k, t in enumerate(times)]
    k = np.arange(n, dtype=np.int64)
    return np.asarray(times, dtype=np.float64) + bubble * ((k * tiles) // n)


def _port_times(schedule, n: int, max_len: int, lat: float):
    """Arrival times of an ``n``-token output port of a node.

    The node emits on ``schedule`` (``max_len`` entries, one per token of
    its longest port); a shorter port's token ``k`` leaves with emission
    ``k * max_len // n``, and every token arrives ``lat`` later.  Short
    ports resample in Python, long ones with one numpy gather.
    """
    if n == max_len:
        if isinstance(schedule, list):
            return [t + lat for t in schedule]
        return schedule + lat
    if n == 0:
        return ()
    if n < _VECTOR_THRESHOLD:
        return [schedule[(k * max_len) // n] + lat for k in range(n)]
    idx = np.minimum(max_len - 1, (np.arange(n, dtype=np.int64) * max_len) // n)
    return np.asarray(schedule)[idx] + lat


#: Shared empty out-port map (avoids allocating one per portless node).
_NO_PORTS: Dict[str, Any] = {}

#: Per-graph timing plans: node id, timing class, input port keys, and the
#: node object (read live for its parallel factor).  Keyed weakly by graph;
#: invalidated by identity of the topological-order list, which the graph
#: rebuilds on any structural change.
_PLAN_CACHE: "weakref.WeakKeyDictionary[SAMGraph, Tuple[Any, List[Tuple]]]" = (
    weakref.WeakKeyDictionary()
)


def _timing_plan(graph: SAMGraph, order: List[str]) -> List[Tuple]:
    cached = _PLAN_CACHE.get(graph)
    if cached is not None and cached[0] is order:
        return cached[1]
    plan = []
    for node_id in order:
        node = graph.nodes[node_id]
        in_keys = tuple(src.key() for src in node.inputs.values())
        # Placement metadata is written once at compile time by the
        # place-memory pass; hand-built graphs default to flat DRAM.
        plan.append(
            (
                node_id,
                node.prim.timing_class(),
                in_keys,
                node,
                node.meta.get("mem_level", "dram"),
                node.meta.get("mem_role", "io"),
                node.meta.get("mem_bank", 0),
            )
        )
    _PLAN_CACHE[graph] = (order, plan)
    return plan


def run_timed(
    graph: SAMGraph,
    binding: Dict[str, Any],
    machine: Machine = RDA_MACHINE,
    functional: FunctionalResult | None = None,
    *,
    tier: Optional[str] = None,
    debug_streams: Optional[bool] = None,
    backend: Optional[str] = None,
    cache: bool = True,
) -> SimResult:
    """Time ``graph`` on ``machine``, running it first if no ``functional``
    result is given.

    Without a result the graph runs through
    :func:`~repro.comal.functional.run_functional` with ``tier`` (the
    test-only tier override) and ``debug_streams``, charged at
    ``machine.scratchpad_bytes``.  A supplied result is never mutated:
    pending operand reads (a machine-free run, as
    :meth:`~repro.driver.executable.Executable.functional` makes) are
    charged at the machine's scratchpad in copied stats
    (:meth:`FunctionalResult.resolved`).  The engine reads port lengths,
    never tokens, and the returned ``functional`` keeps the run's stats,
    results, order and streams but no port lengths.

    Nothing is memoized here: the one simulator memo is the
    :class:`~repro.driver.executable.Executable`'s.  ``backend`` and
    ``cache`` are accepted and ignored (frozen ``bench/`` passes them;
    delete at the bench re-cut).
    """
    if functional is None:
        functional = run_functional(
            graph,
            binding,
            machine.scratchpad_bytes,
            tier=tier,
            debug_streams=debug_streams,
        )
    func = functional.resolved(machine.scratchpad_bytes)
    # On-chip buffer level: nodes the place-memory pass marked "sram" are
    # paced through their bank instead of the DRAM port.  A machine without
    # an SRAM level serves every placement from DRAM (the placement is a
    # request, the machine is the authority).
    hier = machine.hierarchy
    sram = hier.sram if hier.has_sram else None
    dram_total = 0
    sram_total = 0
    spill_total = 0
    fill_total = 0
    bank_bytes: Dict[int, int] = {}

    port_times: Dict[Tuple[str, str], Any] = {}
    node_finish: Dict[str, float] = {}
    node_busy: Dict[str, float] = {}

    # Group output port lengths by producing node once — the per-node
    # dict comprehension over *all* ports was quadratic in graph size.
    lengths_by_node: Dict[str, Dict[str, int]] = {}
    for (nid, port), length in functional.port_lengths().items():
        lengths_by_node.setdefault(nid, {})[port] = length

    for (
        node_id,
        tclass,
        in_keys,
        par_node,
        mem_level,
        mem_role,
        mem_bank,
    ) in _timing_plan(graph, func.order):
        par = par_node.par_factor
        ii = machine.ii_of(tclass) / (par if par > 1 else 1)
        lat = machine.latency_of(tclass)
        tiles = par_node.tile_factor
        stats = func.stats.get(node_id)

        driver = ()
        n_driver = 0
        for key in in_keys:
            arr = port_times[key]
            if len(arr) > n_driver:
                driver = arr
                n_driver = len(arr)
        start = float(driver[0]) if n_driver else 0.0

        out_ports = lengths_by_node.get(node_id, _NO_PORTS)
        max_len = max(out_ports.values(), default=0)

        schedule = _emission_schedule(driver, max_len, ii, start)
        if tiles > 1 and max_len:
            # Tile-sequential execution (index splitting): the stream runs
            # in `tiles` passes, each boundary costing one pipeline
            # fill/drain (latency to refill + one II to restart).
            schedule = _tiled_times(schedule, tiles, lat + ii)

        # Pace memory traffic through the level this node was placed in.
        # Each node streams at full port bandwidth (requests pipeline,
        # latency overlaps); aggregate contention is enforced by the
        # per-level rooflines below.
        traffic = (stats.dram_reads + stats.dram_writes) if stats else 0
        on_chip = traffic and sram is not None and mem_level == "sram"
        if on_chip:
            port_bw, port_lat = sram.bandwidth, sram.latency
        else:
            port_bw, port_lat = machine.dram_bandwidth, machine.dram_latency
        if traffic and max_len:
            per_token = traffic / max_len
            schedule = _paced_times(schedule, per_token / port_bw, port_lat)
        elif traffic:
            # No output tokens (pure writer): stream the traffic at the end.
            # Writers sit in the construct region, which apply_split leaves
            # un-tiled — the merging serializer drains continuously across
            # tile boundaries — so no per-tile term belongs here.
            arrival = float(driver[-1]) if n_driver else 0.0
            node_finish[node_id] = arrival + traffic / port_bw + port_lat
        if traffic:
            if on_chip:
                sram_total += traffic
                bank_bytes[mem_bank] = bank_bytes.get(mem_bank, 0) + traffic
            else:
                dram_total += traffic
                # Classify the DRAM share of cross-region intermediates:
                # an intermediate that did not stay on-chip is written out
                # (spill) by its producer and read back (fill) by its
                # consumers.  "intermediate" placements demoted here (SRAM
                # requested, machine has none) classify by direction.
                if mem_role == "spill" or (
                    mem_role == "intermediate" and stats.dram_writes
                ):
                    spill_total += traffic
                elif mem_role == "fill" or mem_role == "intermediate":
                    fill_total += traffic

        for port, length in out_ports.items():
            port_times[(node_id, port)] = _port_times(
                schedule, length, max_len, lat
            )

        busy = max_len * ii
        node_busy[node_id] = busy
        finish = node_finish.get(node_id, 0.0)
        if max_len:
            finish = max(finish, float(schedule[-1]) + lat)
        if n_driver:
            finish = max(finish, float(driver[-1]) + ii)
        node_finish[node_id] = finish

    cycles = max(node_finish.values(), default=0.0)
    # Global bandwidth rooflines: all DRAM traffic shares one device, and
    # each SRAM bank serializes the traffic of the tensors it holds.
    cycles = max(cycles, dram_total / machine.dram_bandwidth)
    if sram is not None and bank_bytes:
        cycles = max(cycles, max(bank_bytes.values()) / sram.bandwidth)
    return SimResult(
        cycles=cycles,
        flops=func.total_ops(),
        dram_bytes=func.total_dram_bytes() - sram_total,
        tokens=func.total_tokens(),
        node_finish=node_finish,
        node_busy=node_busy,
        functional=func,
        machine_name=machine.name,
        sram_bytes=sram_total,
        spill_bytes=spill_total,
        fill_bytes=fill_total,
        hierarchy=hier.name,
    )
