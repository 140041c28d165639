"""Autoscheduling: search the fusion-granularity design space automatically.

The paper leaves autoscheduling as future work ("future work includes
autoscheduling to determine fusion schedules for common sparse ML patterns",
Section 4.2) but ships the two ingredients: a schedule space (contiguous
partitions of the statement list into fusion regions) and a fast analytical
heuristic for pruning (Section 7).  This module composes them:

1. enumerate candidate fusion schedules (all contiguous partitions up to a
   budget, or user-supplied candidates),
2. rank them with the cost model under the session's machine,
3. simulate only the top-k survivors and return the measured winner.

This mirrors the paper's design-space-exploration methodology (56
configurations, heuristic pruning of suboptimal ones).  The guided
strategies that replace step 1 live in :mod:`.search`.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ...driver.executable import Executable
from ...driver.session import Session
from ..einsum.ast import EinsumProgram
from ..heuristic.model import TensorStats
from .schedule import Schedule, fused_groups
from .split import validate_split_item


@dataclass
class TunedSchedule:
    """Outcome of one autotuning run."""

    best: Schedule
    measured_cycles: float
    candidates_considered: int
    ranking: List[Tuple[str, float]] = field(default_factory=list)
    # The winner's compiled form, served from the session cache (no extra
    # lowering beyond the simulation that measured it).
    executable: Optional[Executable] = None
    # Size of the full contiguous-partition space (2^(n-1)) and how many
    # of those partitions the enumeration cap dropped.  Non-zero drops mean
    # the search was bounded — the kept subset is deterministic (balanced
    # boundary-count layers from both granularity ends, lexicographic cut
    # positions within a layer), but the winner is only best *within* it.
    partition_space: int = 0
    partitions_dropped: int = 0
    # Which search strategy produced this result ("exhaustive" is the
    # classic enumerate-rank-simulate path), how many successful
    # simulations the search spent (one ``ranking`` entry each), and the
    # step-by-step trace of every evaluated schedule (JSON-safe dicts;
    # identical across runs for a fixed seed).
    strategy: str = "exhaustive"
    evaluations: int = 0
    search_trace: List[Dict[str, object]] = field(default_factory=list)


def partition_space_size(n: int) -> int:
    """Size of the contiguous-partition schedule space: ``2**(n-1)``."""
    return 1 << (n - 1) if n > 0 else 0


#: (n, max_partitions) pairs whose truncation has already been warned
#: about.  Every tier-1 autotune run over the same model hits the same
#: cap; repeating the identical warning per run drowns real ones, so it
#: fires once per distinct truncation per process (the drop count is
#: still reported on every run via ``TunedSchedule.partitions_dropped``).
_TRUNCATION_WARNED: set = set()


def reset_truncation_warnings() -> None:
    """Forget which truncations have warned (tests assert the warning)."""
    _TRUNCATION_WARNED.clear()


def contiguous_partitions(n: int, max_partitions: int = 256) -> List[List[List[int]]]:
    """All contiguous partitions of ``range(n)`` (up to ``max_partitions``).

    Fusion regions must respect program order, so the schedule space is the
    2^(n-1) ways of placing region boundaries between consecutive
    statements.  The cap keeps enumeration tractable for big models.

    The kept subset under the cap is deterministic and documented:
    partitions are enumerated by boundary-count layers taken alternately
    from the two ends of the granularity spectrum — fully fused (0
    boundaries) first, fully unfused (n-1 boundaries) second, then 1
    boundary, n-2 boundaries, and so on inward — with lexicographic cut
    positions inside each layer.  Any cap >= 2 therefore keeps *both*
    baseline schedules; a one-ended order (the pre-balanced behaviour,
    coarsest first) silently dropped the unfused fallback exactly on the
    programs where coarse fusion is infeasible, e.g. when
    ``enumerate_schedules`` divides ``max_candidates`` across a split
    axis.  Truncation is *surfaced*, not silent: a :class:`UserWarning`
    is emitted here, and :func:`autotune` reports the drop count in
    :attr:`TunedSchedule.partitions_dropped`.
    """
    partitions: List[List[List[int]]] = []
    boundaries = list(range(1, n))
    truncated = False
    # Boundary-count layers, alternating coarse/fine ends: 0, n-1, 1, n-2…
    layers: List[int] = []
    lo, hi = 0, n - 1
    while lo <= hi:
        layers.append(lo)
        if hi != lo:
            layers.append(hi)
        lo, hi = lo + 1, hi - 1
    for k in layers:
        for cut in itertools.combinations(boundaries, k):
            edges = [0, *cut, n]
            partitions.append(
                [list(range(a, b)) for a, b in zip(edges, edges[1:])]
            )
            if len(partitions) >= max_partitions:
                truncated = True
                break
        if truncated:
            break
    total = partition_space_size(n)
    if (
        truncated
        and total > len(partitions)
        and (n, max_partitions) not in _TRUNCATION_WARNED
    ):
        _TRUNCATION_WARNED.add((n, max_partitions))
        warnings.warn(
            f"contiguous_partitions: kept {len(partitions)} of {total} "
            f"partitions (enumeration cap {max_partitions} — from "
            "max_candidates split across the split axis when called via "
            "enumerate_schedules/autotune); the kept subset is "
            "deterministic (boundary-count layers taken alternately from "
            "the coarse and fine ends, lexicographic cuts — both the "
            "fully-fused and fully-unfused baselines always survive) "
            "but the schedule space is no longer exhaustive",
            stacklevel=2,
        )
    return partitions


def _split_suffix(config: Mapping[str, int]) -> str:
    """Stable schedule-name suffix for one split configuration."""
    if not config:
        return ""
    inner = ",".join(f"{idx}={tiles}" for idx, tiles in sorted(config.items()))
    return f"+split({inner})"


def _dedupe_configs(
    axis: Optional[Sequence[Mapping[str, int]]],
    validate: Callable[[object, object], None] = validate_split_item,
) -> List[Dict[str, int]]:
    """One search axis's configurations, baseline first, duplicates dropped.

    Builds the split axis (``validate_split_item``) and the par axis
    (``validate_par_item``) for every strategy.  The exact no-op factor 1
    is normalized away (the passes no-op it), so ``{'x1': 1}`` collapses
    into the baseline instead of consuming candidate budget on a
    byte-identical duplicate.  Invalid factors (< 1, non-int) raise — the
    same loud rejection ``Schedule.validate``/``SweepPoint.validate`` give
    them — rather than silently dropping that part of the space.
    """
    configs: List[Dict[str, int]] = [{}]
    for config in axis or ():
        for idx, factor in config.items():
            validate(idx, factor)
        frozen = {idx: factor for idx, factor in config.items() if factor > 1}
        if frozen and frozen not in configs:
            configs.append(frozen)
    return configs


def _enumeration_plan(
    n: int,
    max_candidates: int,
    splits: Optional[Sequence[Mapping[str, int]]],
) -> Tuple[List[Dict[str, int]], int, int]:
    """Shared budget arithmetic for the (partition × split-config) space.

    The single source of truth behind both :func:`enumerate_schedules`
    (which enumerates) and :func:`autotune` (which reports the drop count)
    — duplicating the integer division in two places is how the reported
    numbers drift from the enumerated ones.

    Returns
    -------
    tuple
        ``(configs, kept_partitions, partitions_dropped)``: the deduped
        split configurations (unsplit first), how many contiguous
        partitions fit the ``max_candidates`` budget, and how many of the
        full 2^(n-1) space that leaves out.
    """
    configs = _dedupe_configs(splits)
    per_partition = max(1, max_candidates // len(configs))
    space = partition_space_size(n)
    kept = min(per_partition, space)
    return configs, kept, space - kept


def enumerate_schedules(
    program: EinsumProgram,
    max_candidates: int = 64,
    splits: Optional[Sequence[Mapping[str, int]]] = None,
) -> List[Schedule]:
    """Candidate schedules: contiguous fusion partitions × split configs.

    Parameters
    ----------
    program:
        The program whose statements are partitioned.
    max_candidates:
        Cap on the *total* candidate count (partitions × split configs).
    splits:
        Optional split-axis configurations (index variable -> tile count);
        each fusion partition is paired with every config, so the
        autotuner co-optimizes tiling against fusion granularity.  The
        empty config (no splitting) is always included first, and
        duplicate configs are dropped.  ``None`` enumerates fusion only.
    """
    n = len(program.statements)
    configs, kept_partitions, _ = _enumeration_plan(n, max_candidates, splits)
    schedules: List[Schedule] = []
    for i, partition in enumerate(contiguous_partitions(n, kept_partitions)):
        base = f"auto-{i}" if len(partition) not in (1, n) else (
            "auto-fully-fused" if len(partition) == 1 else "auto-unfused"
        )
        for config in configs:
            if len(schedules) >= max_candidates:
                # Only reachable when max_candidates < len(configs): the
                # budget cannot even cover one partition's split variants.
                # Surface it — the module contract is that truncation is
                # never silent.
                warnings.warn(
                    f"enumerate_schedules: candidate cap {max_candidates} "
                    f"cannot cover the {len(configs)} split configuration(s) "
                    "of a single fusion partition; trailing configs were "
                    "dropped (raise max_candidates)",
                    stacklevel=2,
                )
                return schedules
            schedule = fused_groups(
                program, partition, name=base + _split_suffix(config)
            )
            schedule.splits = dict(config)
            schedules.append(schedule)
    return schedules


def autotune(
    program: EinsumProgram,
    binding: Dict[str, object],
    stats: Dict[str, TensorStats],
    candidates: Sequence[Schedule] | None = None,
    *,
    budget: int = 3,
    max_candidates: int = 64,
    session: Session | None = None,
    splits: Optional[Sequence[Mapping[str, int]]] = None,
    strategy: str = "exhaustive",
    cost_model: Optional[object] = None,
    seed: int = 0,
    par_options: Optional[Sequence[Mapping[str, int]]] = None,
    model_name: Optional[str] = None,
) -> TunedSchedule:
    """Pick the best schedule via guided search + simulation.

    Candidate schedules that fail to compile (infeasible streaming under the
    POG) are traced and skipped — an unfused boundary always exists as a
    fallback.

    Every simulation runs through ``session`` (a fresh default one per call
    when omitted), on its machine: build ``Session(machine=...)`` to tune
    for another target.
    Every simulated candidate lands in the session's compile cache, so the
    returned winner's :attr:`TunedSchedule.executable` — and any later
    ``session.compile`` of the tuned schedule — costs no further lowering.
    Guided strategies revisit points across search steps; revisits are
    compile-cache hits, not recompiles.

    ``strategy`` names one of :data:`~repro.core.schedule.search.STRATEGIES`:
    ``"exhaustive"`` (rank the candidates → simulate the top ``budget``),
    ``"beam"``, or ``"evolutionary"`` (local-move search guided by
    ``cost_model``).  Explicit ``candidates`` run the exhaustive strategy;
    without them it enumerates up to ``max_candidates`` schedules.
    ``budget`` caps *successful* simulations.  ``cost_model`` is a
    :class:`~repro.core.heuristic.costmodel.HeuristicCostModel` (default:
    a fresh one; pass one to share its memos across searches, or a
    subclass to observe predictions).  ``seed`` makes stochastic
    strategies reproducible: identical invocations produce identical
    :attr:`TunedSchedule.search_trace` lists.  ``model_name`` is accepted
    for existing callers and ignored.

    Raises :class:`ValueError` before any search work for a ``budget``
    below 1, a ``max_candidates`` below 2 (the cap that keeps both
    baselines) or an empty explicit ``candidates`` list.

    ``splits`` adds a bounded index-splitting axis (ignored when explicit
    ``candidates`` are given) and ``par_options`` a parallelization axis
    (guided strategies only): the search co-optimizes both against fusion
    granularity.  Both are validated for every strategy.  The analytical
    heuristic does not model tiling, so split variants of a partition tie
    on their estimate and the simulation stage is what separates them —
    raise ``budget`` accordingly when sweeping splits.

    Enumeration truncation is surfaced, never silent: when the
    ``max_candidates`` cap drops contiguous partitions, the drop count
    lands in :attr:`TunedSchedule.partitions_dropped` (and
    ``contiguous_partitions`` warns); the kept subset is deterministic and
    always retains the fully-fused and fully-unfused baselines.
    """
    # Lazy import: search imports this module for enumeration.
    from ..heuristic.costmodel import HeuristicCostModel
    from .search import STRATEGIES, SearchSpace, SearchTask

    if strategy not in STRATEGIES:
        raise KeyError(
            f"unknown search strategy {strategy!r}; choose from "
            f"{', '.join(sorted(STRATEGIES))}"
        )
    if budget < 1:
        raise ValueError(f"autotune budget must be an int >= 1, got {budget!r}")
    if max_candidates < 2:
        raise ValueError(
            f"autotune max_candidates must be an int >= 2, got {max_candidates!r}"
        )
    if candidates is not None and not candidates:
        raise ValueError(
            "autotune candidates must name at least one schedule "
            "(pass None to enumerate)"
        )
    if candidates and strategy != "exhaustive":
        raise ValueError(
            f"explicit candidates run the exhaustive strategy, not {strategy!r}"
        )
    task = SearchTask(
        program=program,
        binding=binding,
        stats=stats,
        session=session or Session(),
        cost_model=cost_model or HeuristicCostModel(),
        budget=budget,
        space=SearchSpace(program, split_configs=splits, par_configs=par_options),
        seed=seed,
        max_candidates=max_candidates,
        candidates=list(candidates) if candidates else None,
    )
    return STRATEGIES[strategy](task)
