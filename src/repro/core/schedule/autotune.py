"""Autoscheduling: search the fusion-granularity design space automatically.

The paper leaves autoscheduling as future work ("future work includes
autoscheduling to determine fusion schedules for common sparse ML patterns",
Section 4.2) but ships the two ingredients: a schedule space (contiguous
partitions of the statement list into fusion regions) and a fast analytical
heuristic for pruning (Section 7).  This module composes them:

1. enumerate candidate fusion schedules (all contiguous partitions up to a
   budget, or user-supplied candidates),
2. rank them with the FLOPs/bytes heuristic under a machine roofline,
3. simulate only the top-k survivors and return the measured winner.

This mirrors the paper's design-space-exploration methodology (56
configurations, heuristic pruning of suboptimal ones).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...comal.machines import Machine, RDA_MACHINE
from ...driver.executable import Executable
from ...driver.session import Session
from ...driver.sweeping import sweep_schedules
from ..einsum.ast import EinsumProgram
from ..heuristic.model import FusionHeuristic, TensorStats
from ..heuristic.prune import roofline_score
from .schedule import Schedule, fused_groups
from .split import validate_split_item


@dataclass
class TunedSchedule:
    """Outcome of one autotuning run."""

    best: Schedule
    measured_cycles: float
    candidates_considered: int
    candidates_simulated: int
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
    # Which ``SearchStrategy`` produced this result ("exhaustive" is the
    # classic enumerate-rank-simulate path), how many simulations the
    # search actually spent, and the step-by-step trace of every evaluated
    # schedule (JSON-safe dicts; identical across runs for a fixed seed).
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
    splits: Optional[Sequence[Mapping[str, int]]],
) -> List[Dict[str, int]]:
    """The split-axis configurations, unsplit first, duplicates dropped.

    The exact no-op tile count 1 is normalized away (the split-indices
    pass no-ops it), so ``{'x1': 1}`` collapses into the unsplit baseline
    instead of consuming candidate budget on a byte-identical duplicate.
    Invalid counts (< 1) raise — the same loud rejection
    ``Schedule.validate``/``SweepPoint.validate`` give them — rather than
    silently degrading the search to fusion-only.
    """
    configs: List[Dict[str, int]] = [{}]
    for config in splits or ():
        for idx, tiles in config.items():
            validate_split_item(idx, tiles)
        frozen = {idx: tiles for idx, tiles in config.items() if tiles > 1}
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
    machine: Machine | None = None,
    simulate_top: int = 3,
    max_candidates: int = 64,
    session: Session | None = None,
    splits: Optional[Sequence[Mapping[str, int]]] = None,
    strategy: str = "exhaustive",
    budget: Optional[int] = None,
    cost_model: Optional[object] = None,
    seed: int = 0,
    par_options: Optional[Sequence[Mapping[str, int]]] = None,
    model_name: Optional[str] = None,
    backend: Optional[str] = None,
) -> TunedSchedule:
    """Pick the best schedule via guided search + simulation.

    Candidate schedules that fail to compile (infeasible streaming under the
    POG) are skipped — an unfused boundary always exists as a fallback.

    Compilation goes through ``session`` (a fresh one per call by default):
    every simulated candidate lands in the session's compile cache, so the
    returned winner's :attr:`TunedSchedule.executable` — and any later
    ``session.compile`` of the tuned schedule — costs no further lowering.
    Guided strategies revisit points across search steps; revisits are
    compile-cache hits, not recompiles.

    ``strategy`` picks a registered
    :class:`~repro.core.schedule.search.SearchStrategy`: ``"exhaustive"``
    (enumerate → rank → simulate top-k; the classic path), ``"beam"``, or
    ``"evolutionary"`` (local-move search guided by ``cost_model``).
    ``budget`` caps *successful* simulations — the same convention as
    ``sweep_schedules(limit=...)``; it defaults to ``simulate_top``.
    ``cost_model`` is any
    :class:`~repro.core.heuristic.costmodel.CostModel` (default: the raw
    analytical heuristic; pass a fitted
    :class:`~repro.core.heuristic.costmodel.CalibratedCostModel` to rank
    with per-model corrections).  ``seed`` makes stochastic strategies
    reproducible: identical invocations produce identical
    :attr:`TunedSchedule.search_trace` lists.

    ``splits`` adds a bounded index-splitting axis (ignored when explicit
    ``candidates`` are given) and ``par_options`` a parallelization axis
    (guided strategies only): the search co-optimizes both against fusion
    granularity.  The analytical heuristic does not model tiling, so split
    variants of a partition tie on their estimate and the simulation stage
    is what separates them — raise ``simulate_top``/``budget`` accordingly
    when sweeping splits.

    Enumeration truncation is surfaced, never silent: when the
    ``max_candidates`` cap drops contiguous partitions, the drop count
    lands in :attr:`TunedSchedule.partitions_dropped` (and
    ``contiguous_partitions`` warns); the kept subset is deterministic and
    always retains the fully-fused and fully-unfused baselines.

    ``backend`` selects the execution backend candidate simulations run on
    (``"interp"``/``"columnar"``/``"codegen"`` — all bit-exact, so the
    winner is backend-independent but the search wall time is not); it is
    threaded into the default session and recorded in every
    ``search_trace`` entry.  Incompatible with an explicit ``session``,
    which fixes its own backend.
    """
    if session is None:
        session = Session(machine=machine or RDA_MACHINE, backend=backend)
    elif backend is not None:
        raise ValueError(
            "autotune(backend=...) conflicts with an explicit session; "
            "construct the Session with backend=... instead"
        )
    machine = machine or session.machine
    if candidates:
        # Explicit candidate lists bypass the search space: rank and
        # simulate exactly what the caller supplied (legacy path).
        return _tune_candidates(
            program, binding, stats, list(candidates), machine,
            simulate_top if budget is None else budget, session,
        )
    # Lazy import: search imports this module for the exhaustive strategy.
    from ..heuristic.costmodel import HeuristicCostModel
    from .search import SearchTask, get_strategy

    runner = get_strategy(strategy)
    task = SearchTask(
        program=program,
        binding=binding,
        stats=stats,
        machine=machine,
        session=session,
        cost_model=cost_model or HeuristicCostModel(),
        budget=simulate_top if budget is None else budget,
        seed=seed,
        model_name=model_name,
        splits=splits,
        par_options=par_options,
        max_candidates=max_candidates,
    )
    outcome = runner.run(task)
    winner = session.compile(program, outcome.best)  # cache hit
    winner = _rebind(winner, machine)
    return TunedSchedule(
        best=outcome.best,
        measured_cycles=outcome.measured_cycles,
        candidates_considered=outcome.candidates_considered,
        candidates_simulated=outcome.evaluations,
        ranking=outcome.ranking,
        executable=winner,
        partition_space=outcome.partition_space,
        partitions_dropped=outcome.partitions_dropped,
        strategy=runner.name,
        evaluations=outcome.evaluations,
        search_trace=outcome.trace,
    )


def _tune_candidates(
    program: EinsumProgram,
    binding: Dict[str, object],
    stats: Dict[str, TensorStats],
    candidates: List[Schedule],
    machine: Machine,
    simulate_top: int,
    session: Session,
) -> TunedSchedule:
    """Rank and simulate an explicit candidate list (pre-search semantics)."""
    heuristic = FusionHeuristic(program, stats)
    scored: List[Tuple[float, Schedule]] = []
    for schedule in candidates:
        try:
            estimate = heuristic.estimate(schedule)
        except Exception:
            continue
        scored.append((roofline_score(estimate, machine), schedule))
    scored.sort(key=lambda pair: pair[0])

    # The simulate-top-k stage is an in-process schedule sweep: infeasible
    # candidates are skipped without consuming budget (an unfused boundary
    # always exists as a fallback).
    runs = sweep_schedules(
        session,
        program,
        binding,
        [schedule for _, schedule in scored],
        machine=machine,
        limit=simulate_top,
        skip_errors=True,
    )
    simulated = len(runs)
    ranking: List[Tuple[str, float]] = [(r.schedule.name, r.cycles) for r in runs]
    best_schedule: Optional[Schedule] = None
    best_cycles = float("inf")
    for run in runs:
        if run.cycles < best_cycles:
            best_cycles = run.cycles
            best_schedule = run.schedule
    if best_schedule is None:
        raise RuntimeError("no candidate schedule could be compiled and run")
    winner = _rebind(session.compile(program, best_schedule), machine)
    return TunedSchedule(
        best=best_schedule,
        measured_cycles=best_cycles,
        candidates_considered=len(scored),
        candidates_simulated=simulated,
        ranking=ranking,
        executable=winner,
        strategy="exhaustive",
        evaluations=simulated,
    )


def _rebind(winner: Executable, machine: Machine) -> Executable:
    """Bind a cached executable to the machine the tuning measured on.

    The caller may have paired an explicit machine with a session built
    for a different one; the rebound handle shares the cached compile
    artifacts.
    """
    if winner.machine is machine:
        return winner
    return Executable(
        winner.compiled,
        machine,
        winner.diagnostics,
        winner.fingerprint,
        winner.backend,
        debug_streams=winner.debug_streams,
        sim_cache=winner.sim_cache,
    )
