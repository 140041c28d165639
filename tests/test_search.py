"""Guided-search tests: exhaustive-parity oracle, seeded determinism,
argument validation.

The exhaustive enumerate-rank-simulate path is the *oracle*: at small n
it measures every feasible candidate, so a guided strategy that claims
parity must land within 1% of its winner while simulating at least 10x
fewer candidates.  The oracle runs once per process: these tests and the
scorecard's ``ours-search`` row read the same
:func:`repro.reproduce.search_parity`.  Determinism is property-tested
over seeds (hypothesis): the same seed must reproduce the identical
``search_trace``, and every schedule any seed visits must validate
against the program.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic.costmodel import HeuristicCostModel
from repro.core.heuristic.model import stats_from_binding
from repro.core.schedule.autotune import autotune
from repro.core.schedule.schedule import Schedule
from repro.core.schedule.search import (
    STRATEGIES,
    SearchPoint,
    SearchSpace,
)
from repro.driver.session import Session
from repro.models.sae import build_sae
from repro.reproduce import search_bundles, search_parity


@pytest.fixture(scope="module")
def bundles():
    return search_bundles()


@pytest.fixture(scope="module")
def tuned():
    """Exhaustive + guided results per model, shared across parity tests."""
    return search_parity()


class TestRegistry:
    def test_registered_strategies(self):
        assert {"exhaustive", "beam", "evolutionary"} <= set(STRATEGIES)

    def test_autotune_unknown_strategy_raises(self, bundles):
        bundle = bundles["sae"]
        stats = stats_from_binding(bundle.binding)
        with pytest.raises(KeyError, match="beam"):
            autotune(bundle.program, bundle.binding, stats, strategy="nope")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("axis", ["splits", "par_options"])
@pytest.mark.parametrize("factor", [0, 2.5])
def test_bad_factor_raises_for_every_strategy(bundles, strategy, axis, factor):
    """Both search axes are validated up front, whatever the strategy."""
    bundle = bundles["sae"]
    stats = stats_from_binding(bundle.binding)
    with pytest.raises(ValueError, match="must be an int >= 1"):
        autotune(
            bundle.program, bundle.binding, stats, session=Session(),
            strategy=strategy, budget=1, **{axis: [{"x1": factor}]},
        )


@pytest.mark.parametrize(
    "limits, message",
    [
        (dict(budget=0), "budget must be an int >= 1, got 0"),
        (dict(budget=-1), "budget must be an int >= 1, got -1"),
        (dict(max_candidates=0), "max_candidates must be an int >= 2, got 0"),
        (dict(max_candidates=1), "max_candidates must be an int >= 2, got 1"),
        (dict(candidates=[]), "candidates must name at least one schedule"),
    ],
)
def test_bad_search_limits_raise_before_search(bundles, limits, message):
    """Unusable limits fail up front, not as an empty search's RuntimeError."""
    bundle = bundles["sae"]
    stats = stats_from_binding(bundle.binding)
    session = Session()
    with pytest.raises(ValueError, match=message):
        autotune(bundle.program, bundle.binding, stats, session=session, **limits)
    assert session.cache_info().misses == 0


class TestExplicitCandidates:
    """Explicit candidates run the exhaustive strategy's measuring loop."""

    @pytest.fixture(scope="class")
    def gcn(self, bundles):
        bundle = bundles["gcn"]
        return bundle, stats_from_binding(bundle.binding)

    def test_trace_ok_entries_are_the_ranking(self, gcn):
        bundle, stats = gcn
        tuned = autotune(
            bundle.program, bundle.binding, stats, session=Session(),
            candidates=bundle.schedules(), budget=3,
        )
        ok = [(e["schedule"], e["cycles"]) for e in tuned.search_trace
              if e["status"] == "ok"]
        assert ok == tuned.ranking
        assert {e["move"] for e in tuned.search_trace} == {"enumerate"}
        assert tuned.strategy == "exhaustive"
        assert tuned.partitions_dropped == 0

    def test_ranked_by_cost_model_on_session_machine(self, gcn):
        bundle, stats = gcn
        schedules = bundle.schedules()
        session = Session(hierarchy="fpga-small")
        heuristic = HeuristicCostModel()
        machines = []

        class Reversed(HeuristicCostModel):
            def predict(self, program, schedule, stats, machine):
                machines.append(machine)
                return -heuristic.predict(program, schedule, stats, machine)

        scores = [
            -heuristic.predict(bundle.program, s, stats, session.machine)
            for s in schedules
        ]
        first_pick = schedules[scores.index(min(scores))].name
        tuned = autotune(
            bundle.program, bundle.binding, stats, session=session,
            candidates=schedules, budget=1, cost_model=Reversed(),
        )
        assert [name for name, _ in tuned.ranking] == [first_pick]
        assert machines and all(m is session.machine for m in machines)

    def test_guided_strategy_rejects_candidates(self, gcn):
        bundle, stats = gcn
        with pytest.raises(ValueError, match="exhaustive"):
            autotune(
                bundle.program, bundle.binding, stats,
                candidates=bundle.schedules(), strategy="beam",
            )


class TestExhaustiveParity:
    """The oracle gate: guided winners within 1% of exhaustive, all 4 models."""

    @pytest.mark.parametrize("model", ["gcn", "graphsage", "sae", "gpt3"])
    def test_winner_cycles_within_1pct(self, tuned, model):
        exhaustive, guided = tuned[model]
        for strategy, result in guided.items():
            assert result.measured_cycles <= exhaustive.measured_cycles * 1.01, (
                model,
                strategy,
                result.measured_cycles,
                exhaustive.measured_cycles,
            )

    @pytest.mark.parametrize("model", ["gcn", "graphsage", "sae", "gpt3"])
    def test_guided_simulates_less(self, tuned, model):
        exhaustive, guided = tuned[model]
        for strategy, result in guided.items():
            assert result.evaluations * 10 <= exhaustive.evaluations, (
                model,
                strategy,
                result.evaluations,
                exhaustive.evaluations,
            )

    def test_tuned_schedule_fields(self, tuned):
        exhaustive, guided = tuned["gcn"]
        assert exhaustive.strategy == "exhaustive"
        assert guided["beam"].strategy == "beam"
        assert guided["evolutionary"].strategy == "evolutionary"
        for result in (exhaustive, *guided.values()):
            assert result.evaluations == len(result.ranking)
            assert len(result.search_trace) >= result.evaluations
            assert result.executable is not None

    def test_trace_is_json_safe(self, tuned):
        _, guided = tuned["gcn"]
        text = json.dumps(guided["beam"].search_trace)
        assert json.loads(text) == guided["beam"].search_trace


class TestSeededDeterminism:
    @pytest.fixture(scope="class")
    def sae(self):
        rng = np.random.default_rng(0)
        bundle = build_sae(rng.standard_normal((6, 12)), weight_density=0.5, seed=0)
        return bundle, stats_from_binding(bundle.binding)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_same_seed_identical_trace(self, sae, seed):
        bundle, stats = sae
        runs = [
            autotune(
                bundle.program, bundle.binding, stats,
                session=Session(), strategy="evolutionary", budget=2, seed=seed,
            )
            for _ in range(2)
        ]
        assert runs[0].search_trace == runs[1].search_trace
        assert runs[0].best.name == runs[1].best.name

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_every_visited_schedule_validates(self, sae, seed):
        bundle, stats = sae
        tuned = autotune(
            bundle.program, bundle.binding, stats,
            session=Session(), strategy="evolutionary", budget=3, seed=seed,
        )
        assert tuned.search_trace
        for entry in tuned.search_trace:
            schedule = Schedule(
                name=entry["schedule"],
                regions=[list(r) for r in entry["regions"]],
                splits=dict(entry["splits"]),
                par=dict(entry["par"]),
            )
            schedule.validate(bundle.program)

    def test_beam_same_seed_identical_trace(self, sae):
        bundle, stats = sae
        runs = [
            autotune(
                bundle.program, bundle.binding, stats,
                session=Session(), strategy="beam", budget=3, seed=0,
            )
            for _ in range(2)
        ]
        assert runs[0].search_trace == runs[1].search_trace


class TestSearchSpace:
    @pytest.fixture(scope="class")
    def space(self, bundles):
        return SearchSpace(
            bundles["gcn"].program, split_configs=[{"x1": 4}], par_configs=[{"i": 2}]
        )

    def test_seeds_are_the_two_baselines(self, space):
        seeds = space.seeds()
        assert seeds[0].cuts == ()
        assert seeds[1].cuts == tuple(range(1, space.n))

    def test_neighbors_cover_all_five_moves(self, space):
        point = SearchPoint(cuts=(2,), order_choice=(0, 0))
        moves = {move for move, _ in space.neighbors(point)}
        assert {"merge", "split-region", "bump-split", "toggle-par"} <= moves

    def test_neighbors_are_deterministic(self, space):
        point = SearchPoint(cuts=(1, 3), order_choice=(0, 0, 0))
        first = space.neighbors(point)
        second = space.neighbors(point)
        assert [(m, p.key) for m, p in first] == [(m, p.key) for m, p in second]

    def test_schedules_materialize_and_validate(self, space, bundles):
        program = bundles["gcn"].program
        for _, point in space.neighbors(SearchPoint(cuts=(), order_choice=(0,))):
            space.schedule_for(point).validate(program)

    def test_split_and_par_configs_applied(self, space):
        point = SearchPoint(cuts=(), order_choice=(0,), split_idx=1, par_idx=1)
        schedule = space.schedule_for(point)
        assert schedule.splits == {"x1": 4}
        assert schedule.par == {"i": 2}
