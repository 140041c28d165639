"""Analytical fusion heuristic, schedule ranking, and the search cost model."""

from .costmodel import HeuristicCostModel
from .model import FusionHeuristic, HeuristicEstimate, TensorStats, stats_from_binding
from .prune import RankedSchedule, rank_schedules, roofline_score

__all__ = [
    "FusionHeuristic",
    "HeuristicEstimate",
    "TensorStats",
    "stats_from_binding",
    "rank_schedules",
    "RankedSchedule",
    "roofline_score",
    "HeuristicCostModel",
]
