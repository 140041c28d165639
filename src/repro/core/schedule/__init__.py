"""Scheduling language: fusion regions, orders, parallelization, splitting."""

from .autotune import (
    TunedSchedule,
    autotune,
    contiguous_partitions,
    enumerate_schedules,
    partition_space_size,
)
from .par import apply_parallelization, parallelized_levels
from .search import (
    STRATEGIES,
    Evaluator,
    SearchPoint,
    SearchSpace,
    SearchTask,
)
from .schedule import (
    Schedule,
    ScheduleError,
    cs_rewrite,
    fully_fused,
    fused_groups,
    unfused,
)
from .split import (
    apply_split,
    intermediate_row_splits,
    is_tile_index,
    split_footprint_scale,
    tiled_levels,
    validate_split_item,
)

__all__ = [
    "Schedule",
    "ScheduleError",
    "unfused",
    "fully_fused",
    "fused_groups",
    "cs_rewrite",
    "apply_parallelization",
    "apply_split",
    "autotune",
    "TunedSchedule",
    "enumerate_schedules",
    "contiguous_partitions",
    "partition_space_size",
    "parallelized_levels",
    "tiled_levels",
    "split_footprint_scale",
    "intermediate_row_splits",
    "is_tile_index",
    "validate_split_item",
    "STRATEGIES",
    "SearchPoint",
    "SearchSpace",
    "SearchTask",
    "Evaluator",
]
