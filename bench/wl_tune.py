"""``tune_search``: guided schedule searches on the default backend."""

from __future__ import annotations

import warnings
from typing import Dict, List

from harness import (
    TOLERANCE,
    Layers,
    Sample,
    Workload,
    data_seed,
    make_session,
    median,
)
from layers import cli_probe, program_classes_probe
from wl_codegen import codegen_loc

#: (model, builder args, simulation budget, strategy).  Graph sizes keep a
#: search under ~1 s; gpt3 is held at one layer because search time
#: explodes with depth (beam, budget 6: 2 s at n_layers=1, 109 s at 2).
TUNE_CLASSES = (
    ("gcn", dict(nodes=64), 8, "beam"),
    ("gcn", dict(nodes=64), 8, "evolutionary"),
    ("graphsage", dict(nodes=64), 8, "beam"),
    ("graphsage", dict(nodes=64), 8, "evolutionary"),
    ("sae", dict(nodes=32), 4, "beam"),
    ("sae", dict(nodes=32), 4, "evolutionary"),
    ("gpt3", dict(seq_len=16, d_model=8, block=4, n_layers=1), 2, "beam"),
)


def traced_session_class(tr):
    """A ``Session`` whose compiles and runs leave spans (traced pass only)."""
    from repro import Session

    class TracedSession(Session):
        def compile_detailed(self, program, schedule=None):
            with tr.span("driver.session.compile_detailed") as sp:
                exe, source = super().compile_detailed(program, schedule)
            sp.args["source"] = source
            return exe, source

        def run(self, program, binding, schedule=None, machine=None):
            exe = self.compile(program, schedule)
            with tr.span("driver.executable.run"):
                return exe(binding, machine=machine)

    return TracedSession


def traced_cost_model(tr):
    """The default cost model with a span around every prediction."""
    from repro.core.heuristic.costmodel import HeuristicCostModel

    class TracedCostModel(HeuristicCostModel):
        def predict(self, *args, **kwargs):
            with tr.span("core.heuristic.predict"):
                return super().predict(*args, **kwargs)

    return TracedCostModel()


class TuneSearch(Workload):
    name = "tune_search"

    def setup(self) -> None:
        from repro.core.heuristic.model import stats_from_binding
        from repro.sweep import SweepPoint, build_bundle

        chosen = TUNE_CLASSES
        if self.quick:
            chosen = tuple(c for c in TUNE_CLASSES if c[0] == "sae")
        self.classes: Dict[str, tuple] = {}
        self.models: Dict[str, tuple] = {}
        for model, args, budget, strategy in chosen:
            if model not in self.models:
                point = SweepPoint.make(
                    model,
                    model_args={**args, "seed": data_seed(self.seed, len(self.models))},
                )
                bundle = build_bundle(point)
                self.models[model] = (point, bundle, stats_from_binding(bundle.binding))
            self.classes[f"{model}.{strategy}"] = (model, budget, strategy)
        self.order = self.request_order(list(self.classes))

    def request(self, cls: str, rnd: int, layers: Layers = None) -> Sample:
        from repro.core.heuristic.costmodel import HeuristicCostModel
        from repro.core.schedule.autotune import autotune

        model, budget, strategy = self.classes[cls]
        _point, bundle, stats = self.models[model]
        tr = self.tr
        traced = layers is not None
        session = make_session(
            "columnar", False,
            session_cls=traced_session_class(tr) if traced else None,
        )
        cost_model = traced_cost_model(tr) if traced else HeuristicCostModel()
        first = len(tr.spans)
        self.calibrate()
        if traced:
            layers.speed = self.speed
        with tr.span("request", request=f"{self.name}/{cls}/{rnd}", cls=cls) as req:
            with tr.span("core.schedule.autotune") as search:
                with warnings.catch_warnings():
                    # Partition-cap truncation warns once per process; it is
                    # reported by the search itself, not news here.
                    warnings.simplefilter("ignore")
                    tuned = autotune(
                        bundle.program,
                        bundle.binding,
                        stats,
                        session=session,
                        strategy=strategy,
                        budget=budget,
                        cost_model=cost_model,
                        seed=self.seed,
                        model_name=model,
                    )
            with tr.span("driver.executable.run"):
                result = tuned.executable(bundle.binding)
            with tr.span("models.verify"):
                err = bundle.max_abs_err(result)
        why = ""
        if not err < TOLERANCE:
            why = f"winner's max |err| {err:.2e} vs the dense reference"
        elif result.metrics.cycles != tuned.measured_cycles:
            why = "winner re-run disagrees with the cycles the search measured"
        if traced:
            info = session.cache_info()
            steps = len(tuned.search_trace)
            layers.add("core.schedule.search.steps", cls, steps)
            layers.add("core.schedule.search.simulations", cls, tuned.evaluations)
            layers.add("core.schedule.search.compiles", cls, info.misses)
            layers.add("core.schedule.search.compile_hits", cls, info.hits)
            layers.add("core.schedule.search.ms_per_step", cls, search.ms / steps)
            mine = tr.spans[first:]
            predicts = [s.ms for s in mine if s.name == "core.heuristic.predict"]
            misses = [
                s.ms
                for s in mine
                if s.name == "driver.session.compile_detailed"
                and s.args.get("source") == "compiled"
            ]
            layers.add("core.heuristic.predict_ms", cls, median(predicts))
            layers.add("driver.session.compile_miss_ms", cls, median(misses))
            # Every child span is a layer and the search's own time is the
            # autotune span's self time, so the layers sum to the request
            # by construction here (see README).
            self.note_layer_sum(cls, sum(s.ms for s in mine if s.parent is req))
        return Sample(
            cls=cls,
            ok=not why,
            ms=req.ms,
            why=why,
            compile_ms=tuned.executable.compiled.compile_seconds * 1e3,
            cycles=tuned.measured_cycles,
            dram_bytes=result.metrics.dram_bytes,
            speed=self.speed,
        )

    def run_round(self, index: int) -> List[Sample]:
        return [self.request(cls, index) for cls in self.order]

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        samples = [self.request(cls, index, layers) for cls in self.order]
        session = make_session("columnar", False)
        program_classes_probe(
            self.tr,
            layers,
            {
                f"{model}.partial": (point, bundle, bundle.schedule("partial"))
                for model, (point, bundle, _stats) in self.models.items()
            },
            lambda cls: session,
        )
        if index == 0:
            cli_probe(self.tr, layers)
        return samples

    def after_window(self) -> Dict[str, float]:
        """Kernel lines codegen would emit for each model's partial schedule."""
        session = make_session("codegen", False)
        total = sum(
            codegen_loc(session.compile(bundle.program, bundle.schedule("partial")))
            for _point, bundle, _stats in self.models.values()
        )
        return {"codegen_loc_total": float(total)}
