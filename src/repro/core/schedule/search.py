"""Guided search over the joint schedule space (ROADMAP: "Search, not
enumeration").

The contiguous-partition space alone is 2^(n-1); crossed with loop
orders, parallelization, and index splits it reaches 10^4–10^6 points for
the evaluation models, far past what :func:`~.autotune.enumerate_schedules`
can materialize under its candidate cap.  This module replaces grid
materialization with *local-move* search, in the spirit of
transformation-driven exploration (DaCe's ``SingleStateTransformation``
idiom): a schedule is a :class:`SearchPoint` — region cuts, per-region
order choice, split-config index, par-config index — and its neighbors
are the five elementary moves:

* **merge** two adjacent regions (remove a cut),
* **split** a region at a statement boundary (add a cut),
* **reorder** a region's dataflow (step its valid-order choice),
* **bump** the split configuration,
* **toggle** the parallelization configuration.

The strategies are the three functions in :data:`STRATEGIES`:

* ``exhaustive`` — cost-model rank ``task.candidates`` (the caller's
  explicit list, else the enumerated partition × split-config space) and
  simulate the top ``budget``;
* ``beam`` — cost-model-guided beam search over local moves, then
  simulate the ``budget`` best predicted points;
* ``evolutionary`` — seeded mutation/selection over points
  (``numpy.random.default_rng``), same simulate-top-budget finish.

Every simulation goes through :meth:`Evaluator.measure`, so all three
count, dedup and trace alike.  Everything is deterministic for a fixed
seed: neighbor generation is ordered, ties break on the point key, and
randomness comes only from the seeded generator — identical invocations
produce identical ``search_trace`` lists.  Simulation budget counts
*successful* runs: an infeasible candidate is traced but consumes no
budget.  All compilation goes through one
:class:`~repro.driver.session.Session`, whose machine and backend every
simulation uses, so revisited points and the final winner are
compile-cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...driver.session import Session
from ..einsum.ast import EinsumProgram
from ..fusion.fuse import fuse_region
from ..heuristic.costmodel import HeuristicCostModel
from ..heuristic.model import TensorStats
from .autotune import (
    TunedSchedule,
    _dedupe_configs,
    _enumeration_plan,
    enumerate_schedules,
    partition_space_size,
)
from .schedule import Schedule
from .split import validate_par_item, validate_split_item

#: Dataflow orders considered per region: the compiler's default plus
#: one alternative.
ORDER_LIMIT = 2
#: Points a beam generation keeps.
BEAM_WIDTH = 4
#: Evolutionary population: half survivors, half their mutants.
POPULATION = 16


@dataclass(frozen=True)
class SearchPoint:
    """One point of the joint schedule space, as move-friendly coordinates.

    ``cuts`` are the region boundaries (positions in ``1..n-1``, sorted);
    ``order_choice`` picks one valid dataflow order per region;
    ``split_idx``/``par_idx`` index the task's split/par configuration
    lists (entry 0 is always the empty baseline config).
    """

    cuts: Tuple[int, ...]
    order_choice: Tuple[int, ...]
    split_idx: int = 0
    par_idx: int = 0

    @property
    def key(self) -> Tuple:
        return (self.cuts, self.order_choice, self.split_idx, self.par_idx)


class SearchSpace:
    """Neighbor generation and point→schedule materialization.

    The split and par axes are validated and deduplicated here, once, for
    every strategy: a bad factor raises instead of making its points
    silently unreachable.
    """

    def __init__(
        self,
        program: EinsumProgram,
        split_configs: Optional[Sequence[Mapping[str, int]]] = None,
        par_configs: Optional[Sequence[Mapping[str, int]]] = None,
    ) -> None:
        self.program = program
        self.n = len(program.statements)
        self.split_configs = _dedupe_configs(split_configs, validate_split_item)
        self.par_configs = _dedupe_configs(par_configs, validate_par_item)
        self._orders: Dict[Tuple[int, ...], List[Optional[List[str]]]] = {}

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def regions_from_cuts(self, cuts: Sequence[int]) -> List[List[int]]:
        edges = [0, *sorted(cuts), self.n]
        return [list(range(a, b)) for a, b in zip(edges, edges[1:])]

    def seeds(self) -> List[SearchPoint]:
        """The two always-feasible anchors: fully fused and fully unfused."""
        fused = SearchPoint(cuts=(), order_choice=(0,))
        unfused = SearchPoint(
            cuts=tuple(range(1, self.n)), order_choice=(0,) * self.n
        )
        return [fused, unfused] if self.n > 1 else [fused]

    def region_orders(self, region: Sequence[int]) -> List[Optional[List[str]]]:
        """Valid dataflow orders for one region; entry 0 = default order.

        ``None`` means "let the compiler pick" — always present so every
        region has at least one choice even when order enumeration fails
        (infeasible fusions surface at compile time, not here).
        """
        key = tuple(region)
        cached = self._orders.get(key)
        if cached is None:
            cached = [None]
            try:
                fused = fuse_region(self.program, list(key), name="search-orders")
                # The compiler's default pick is already choice 0;
                # re-listing it would burn simulation budget on a
                # byte-identical compile.
                default = fused.first_order()
                for order in fused.valid_orders(limit=ORDER_LIMIT):
                    order = list(order)
                    if order != default and order not in cached[1:]:
                        cached.append(order)
            except Exception:
                pass
            self._orders[key] = cached
        return cached

    def schedule_for(self, point: SearchPoint) -> Schedule:
        """Materialize the point as a validated, uniquely-named schedule."""
        regions = self.regions_from_cuts(point.cuts)
        name_bits = ["search", "c" + "-".join(map(str, point.cuts)) or "c"]
        if any(point.order_choice):
            name_bits.append("o" + "".join(map(str, point.order_choice)))
        if point.split_idx:
            name_bits.append(f"s{point.split_idx}")
        if point.par_idx:
            name_bits.append(f"p{point.par_idx}")
        schedule = Schedule(name="/".join(name_bits), regions=regions)
        for pos, (region, choice) in enumerate(
            zip(regions, point.order_choice)
        ):
            if choice:
                orders = self.region_orders(region)
                order = orders[min(choice, len(orders) - 1)]
                if order is not None:
                    schedule.orders[pos] = list(order)
        schedule.splits = dict(self.split_configs[point.split_idx])
        schedule.par = dict(self.par_configs[point.par_idx])
        schedule.validate(self.program)
        return schedule

    # ------------------------------------------------------------------
    # Local moves
    # ------------------------------------------------------------------
    def neighbors(self, point: SearchPoint) -> List[Tuple[str, SearchPoint]]:
        """Deterministically-ordered (move, point) pairs one move away."""
        out: List[Tuple[str, SearchPoint]] = []
        cuts = point.cuts
        # Fusion moves re-base order choices to the default (region
        # membership changed; stale per-region choices would be
        # meaningless and nondeterministic).
        for cut in cuts:  # merge two adjacent regions
            new_cuts = tuple(c for c in cuts if c != cut)
            out.append(
                (
                    "merge",
                    SearchPoint(
                        cuts=new_cuts,
                        order_choice=(0,) * (len(new_cuts) + 1),
                        split_idx=point.split_idx,
                        par_idx=point.par_idx,
                    ),
                )
            )
        present = set(cuts)
        for cut in range(1, self.n):  # split a region at a boundary
            if cut in present:
                continue
            new_cuts = tuple(sorted((*cuts, cut)))
            out.append(
                (
                    "split-region",
                    SearchPoint(
                        cuts=new_cuts,
                        order_choice=(0,) * (len(new_cuts) + 1),
                        split_idx=point.split_idx,
                        par_idx=point.par_idx,
                    ),
                )
            )
        regions = self.regions_from_cuts(cuts)
        for pos, region in enumerate(regions):  # step a region's order
            n_orders = len(self.region_orders(region))
            if n_orders <= 1:
                continue
            for step in (1, -1):
                choice = (point.order_choice[pos] + step) % n_orders
                if choice == point.order_choice[pos]:
                    continue
                new_choice = (
                    *point.order_choice[:pos],
                    choice,
                    *point.order_choice[pos + 1:],
                )
                out.append(
                    (
                        "swap-order",
                        SearchPoint(
                            cuts=cuts,
                            order_choice=new_choice,
                            split_idx=point.split_idx,
                            par_idx=point.par_idx,
                        ),
                    )
                )
        for step in (1, -1):  # bump the split configuration
            idx = point.split_idx + step
            if 0 <= idx < len(self.split_configs):
                out.append(
                    (
                        "bump-split",
                        SearchPoint(
                            cuts=cuts,
                            order_choice=point.order_choice,
                            split_idx=idx,
                            par_idx=point.par_idx,
                        ),
                    )
                )
        for step in (1, -1):  # toggle the parallelization configuration
            idx = point.par_idx + step
            if 0 <= idx < len(self.par_configs):
                out.append(
                    (
                        "toggle-par",
                        SearchPoint(
                            cuts=cuts,
                            order_choice=point.order_choice,
                            split_idx=point.split_idx,
                            par_idx=idx,
                        ),
                    )
                )
        return out


@dataclass
class SearchTask:
    """Everything a strategy needs to run one search.

    ``candidates`` (exhaustive only) is the caller's explicit schedule
    list; ``None`` enumerates ``max_candidates`` schedules over ``space``'s
    split axis instead.
    """

    program: EinsumProgram
    binding: Dict[str, object]
    stats: Mapping[str, TensorStats]
    session: Session
    cost_model: HeuristicCostModel
    budget: int
    space: SearchSpace
    seed: int = 0
    max_candidates: int = 64
    candidates: Optional[List[Schedule]] = None


class Evaluator:
    """The one place a search simulates a schedule.

    Deduplicates by schedule content fingerprint, counts only successful
    simulations against the budget, and appends one JSON-safe trace entry
    per *attempted* evaluation (failures included, with the exception
    type as the reason, so a trace replays the search exactly).
    """

    def __init__(self, task: SearchTask) -> None:
        self.task = task
        # Execution backend the session simulates on; recorded per trace
        # entry so saved traces state what produced the cycles.
        self.backend = task.session.backend
        self.trace: List[Dict[str, object]] = []
        self.ranking: List[Tuple[str, float]] = []
        self.evaluations = 0
        self.best: Optional[Schedule] = None
        self.best_cycles = float("inf")
        self._measured: Dict[str, Optional[float]] = {}

    def exhausted(self) -> bool:
        return self.evaluations >= self.task.budget

    def predict(self, schedule: Schedule) -> float:
        return self.task.cost_model.predict(
            self.task.program,
            schedule,
            self.task.stats,
            self.task.session.machine,
        )

    def measure(
        self, schedule: Schedule, move: str, predicted: float
    ) -> Optional[float]:
        """Simulate one schedule; returns cycles or ``None`` on failure."""
        if self.exhausted():
            return None
        fingerprint = schedule.fingerprint()
        if fingerprint in self._measured:  # revisit: free, not re-traced
            return self._measured[fingerprint]
        entry: Dict[str, object] = {
            "step": len(self.trace),
            "move": move,
            "schedule": schedule.name,
            "regions": [list(r) for r in schedule.regions],
            "splits": dict(schedule.splits),
            "par": dict(schedule.par),
            "predicted": float(predicted),
            "backend": self.backend,
        }
        try:
            result = self.task.session.run(
                self.task.program, self.task.binding, schedule
            )
            cycles = float(result.metrics.cycles)
        except Exception as exc:
            self._measured[fingerprint] = None
            entry["status"] = "error"
            entry["error"] = type(exc).__name__
            self.trace.append(entry)
            return None
        self._measured[fingerprint] = cycles
        self.evaluations += 1
        entry["status"] = "ok"
        entry["cycles"] = cycles
        self.trace.append(entry)
        self.ranking.append((schedule.name, cycles))
        if cycles < self.best_cycles:
            self.best_cycles = cycles
            self.best = schedule
        return cycles


def _finish(
    ev: Evaluator, strategy: str, considered: int, dropped: int = 0
) -> TunedSchedule:
    task = ev.task
    if ev.best is None:
        raise RuntimeError(
            "no candidate schedule could be compiled and run within the "
            f"budget of {task.budget} simulation(s)"
        )
    return TunedSchedule(
        best=ev.best,
        measured_cycles=ev.best_cycles,
        candidates_considered=considered,
        ranking=ev.ranking,
        executable=task.session.compile(task.program, ev.best),  # cache hit
        partition_space=partition_space_size(task.space.n),
        partitions_dropped=dropped,
        strategy=strategy,
        evaluations=ev.evaluations,
        search_trace=ev.trace,
    )


Pool = Dict[Tuple, Tuple[float, str, SearchPoint]]


def _simulate_pool(ev: Evaluator, pool: Pool) -> None:
    """Spend the budget on the pool's best predicted points, in order."""
    ordered = sorted(pool.values(), key=lambda item: (item[0], item[2].key))
    for predicted, move, point in ordered:
        if ev.exhausted():
            break
        ev.measure(ev.task.space.schedule_for(point), move, predicted)


def _explore(
    ev: Evaluator,
    select: Callable[[Pool, int], List[Tuple[SearchPoint, str]]],
    rounds: int,
    width: int,
) -> Pool:
    """Shared explore loop from the seeds: expand → score (cheap) → select."""
    space = ev.task.space
    pool: Pool = {}

    def score(point: SearchPoint, move: str) -> None:
        if point.key in pool:
            return
        try:
            predicted = ev.predict(space.schedule_for(point))
        except Exception:
            return  # heuristic can't cost it; unreachable by this search
        pool[point.key] = (predicted, move, point)

    frontier = [(p, "seed") for p in space.seeds()]
    for point, move in frontier:
        score(point, move)
    for _ in range(rounds):
        expanded = False
        for point, _ in frontier:
            for move, neighbor in space.neighbors(point):
                if neighbor.key not in pool:
                    expanded = True
                score(neighbor, move)
        if not expanded:
            break
        frontier = select(pool, width)
    return pool


def _best_predicted(pool: Pool, width: int) -> List[Tuple[SearchPoint, str]]:
    ordered = sorted(pool.values(), key=lambda item: (item[0], item[2].key))
    return [(point, move) for _, move, point in ordered[:width]]


def exhaustive_search(task: SearchTask) -> TunedSchedule:
    """Cost-model rank the candidates, simulate the top ``budget``.

    Candidates are ``task.candidates`` when the caller gave them, else
    the enumerated partition × split-config space (deterministic
    truncation, reported as ``partitions_dropped``).
    """
    candidates, dropped = task.candidates, 0
    if candidates is None:
        splits = task.space.split_configs
        candidates = enumerate_schedules(
            task.program, task.max_candidates, splits=splits
        )
        _, _, dropped = _enumeration_plan(task.space.n, task.max_candidates, splits)
    ev = Evaluator(task)
    scored: List[Tuple[float, int, Schedule]] = []
    for i, schedule in enumerate(candidates):
        try:
            scored.append((ev.predict(schedule), i, schedule))
        except Exception:
            continue
    scored.sort(key=lambda item: item[:2])
    for predicted, _, schedule in scored:
        if ev.exhausted():
            break
        ev.measure(schedule, "enumerate", predicted)
    return _finish(ev, "exhaustive", len(scored), dropped)


def beam_search(task: SearchTask) -> TunedSchedule:
    """Cost-model-guided beam search over local moves.

    Exploration is *cheap* (cost-model calls only): starting from the
    fully-fused and fully-unfused anchors, each generation expands the
    beam's neighbors and keeps the :data:`BEAM_WIDTH` best predicted
    points.  Simulation happens once at the end, spending ``budget``
    successful runs on the pool's best predictions — so a 10x-smaller
    budget than exhaustive enumeration still reaches deep schedules (a
    4-region partition of a 22-statement program is ~12 merges from
    unfused).
    """
    ev = Evaluator(task)
    rounds = task.space.n + 4  # enough merges to cross the whole space
    pool = _explore(ev, _best_predicted, rounds, BEAM_WIDTH)
    _simulate_pool(ev, pool)
    return _finish(ev, "beam", len(pool))


def evolutionary_search(task: SearchTask) -> TunedSchedule:
    """Seeded mutate/select search (``numpy.random.default_rng``).

    The population starts from the two anchors; each generation keeps the
    best-predicted half and refills with mutations of survivors.  All
    randomness flows from ``task.seed``, so traces are reproducible; the
    simulate-top-``budget`` finish matches :func:`beam_search`.
    """
    space = task.space
    ev = Evaluator(task)
    rng = np.random.default_rng(task.seed)

    def mutate(point: SearchPoint) -> Tuple[str, SearchPoint]:
        options = space.neighbors(point)
        if not options:
            return ("seed", point)
        return options[int(rng.integers(len(options)))]

    def select(pool: Pool, width: int) -> List[Tuple[SearchPoint, str]]:
        survivors = _best_predicted(pool, width)
        mutants = [mutate(point) for point, _ in survivors]
        return survivors + [(p, m) for m, p in mutants]

    rounds = max(4, space.n // 2 + 2)
    pool = _explore(ev, select, rounds, POPULATION // 2)
    _simulate_pool(ev, pool)
    return _finish(ev, "evolutionary", len(pool))


#: Search strategy name -> function from a task to its tuned result.
STRATEGIES: Dict[str, Callable[[SearchTask], TunedSchedule]] = {
    "exhaustive": exhaustive_search,
    "beam": beam_search,
    "evolutionary": evolutionary_search,
}
