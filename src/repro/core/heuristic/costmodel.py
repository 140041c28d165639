"""The search-time cost model for guided schedule search.

The analytical :class:`~repro.core.heuristic.model.FusionHeuristic` plus
:func:`~repro.core.heuristic.prune.roofline_score` is fast and monotone
enough to *rank* fusion granularities; the search strategies only compare
predictions against each other, so an ordering signal is all they need.
:class:`HeuristicCostModel` packages that predictor with the memos a
search evaluating hundreds of neighbors relies on.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from ...comal.machines import Machine
from ..einsum.ast import EinsumProgram
from ..schedule.schedule import Schedule
from .model import FusionHeuristic, HeuristicEstimate, TensorStats, stats_key
from .prune import roofline_score


class HeuristicCostModel:
    """The analytical FLOPs/bytes heuristic as a search-time predictor.

    One :class:`FusionHeuristic` is cached per ``(program, scratchpad,
    stats)`` so a search evaluating hundreds of neighbors pays the
    per-program setup once and shares the heuristic's region memos, and
    its machine-independent estimates are memoized by schedule
    fingerprint (local moves revisit schedules; the heuristic is pure).
    The roofline score is applied per call, so machines that differ only
    in bandwidth or peak never share a prediction.
    """

    def __init__(self) -> None:
        self._heuristics: Dict[
            tuple, Tuple[FusionHeuristic, Dict[str, HeuristicEstimate]]
        ] = {}

    def estimate(
        self,
        program: EinsumProgram,
        schedule: Schedule,
        stats: Mapping[str, TensorStats],
        machine: Machine,
    ) -> HeuristicEstimate:
        """The (memoized) heuristic estimate of ``schedule``."""
        # Stats are matched by content: a caller may re-predict the same
        # program under changed densities.  The entry's heuristic holds
        # the program, so ``id(program)`` cannot be reused while it lives.
        key = (
            id(program),
            machine.scratchpad_bytes,
            tuple(sorted((name, stats_key(st)) for name, st in stats.items())),
        )
        entry = self._heuristics.get(key)
        if entry is None:
            heuristic = FusionHeuristic(
                program, dict(stats), scratchpad_bytes=machine.scratchpad_bytes
            )
            entry = self._heuristics[key] = (heuristic, {})
        heuristic, estimates = entry
        fingerprint = schedule.fingerprint()
        estimate = estimates.get(fingerprint)
        if estimate is None:
            estimate = estimates[fingerprint] = heuristic.estimate(schedule)
        return estimate

    def predict(
        self,
        program: EinsumProgram,
        schedule: Schedule,
        stats: Mapping[str, TensorStats],
        machine: Machine,
    ) -> float:
        """Predicted cycles of ``schedule``: an ordering signal only."""
        estimate = self.estimate(program, schedule, stats, machine)
        # The log1p/expm1 round trip is not the identity in floating
        # point: it moves some scores by an ulp, and searches break
        # near-ties on these values.  Keeping it keeps every recorded
        # search (ranking order, candidates considered) reproducible.
        return math.expm1(math.log1p(roofline_score(estimate, machine)))
