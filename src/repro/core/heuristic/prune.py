"""Schedule pruning via the fusion heuristic (paper Sections 7 / 8.3).

Given a set of candidate schedules, rank them by estimated cost and keep the
most promising ones for full simulation.  Cost combines estimated FLOPs and
DRAM traffic through a simple roofline: ``cycles ~ max(flops / peak,
bytes / bandwidth)``, which is what decides winners on a bandwidth-bound
dataflow machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ...comal.machines import Machine, RDA_MACHINE
from ..einsum.ast import EinsumProgram
from ..schedule.schedule import Schedule
from .model import FusionHeuristic, HeuristicEstimate, TensorStats


@dataclass
class RankedSchedule:
    """One candidate with its heuristic estimate and roofline score."""

    schedule: Schedule
    estimate: HeuristicEstimate
    score: float


def roofline_score(estimate: HeuristicEstimate, machine: Machine) -> float:
    """Estimated cycles under a compute/bandwidth roofline."""
    compute = estimate.flops / machine.peak_flops_per_cycle
    memory = estimate.dram_bytes / machine.dram_bandwidth
    return max(compute, memory)


def rank_schedules(
    program: EinsumProgram,
    schedules: Sequence[Schedule],
    stats: Dict[str, TensorStats],
    machine: Machine = RDA_MACHINE,
) -> List[RankedSchedule]:
    """Rank candidate schedules from best (lowest score) to worst."""
    heuristic = FusionHeuristic(
        program, stats, scratchpad_bytes=machine.scratchpad_bytes
    )
    ranked = [
        RankedSchedule(schedule=s, estimate=heuristic.estimate(s),
                       score=0.0)
        for s in schedules
    ]
    for r in ranked:
        r.score = roofline_score(r.estimate, machine)
    ranked.sort(key=lambda r: r.score)
    return ranked
