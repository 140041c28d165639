"""The three codegen workloads: cold, warm-disk, steady.

They share twelve model classes and one oracle and differ in exactly one
thing, the cache state a request starts from — which is why they are three
workloads and not one blended number.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from harness import (
    TOLERANCE,
    Layers,
    Sample,
    Workload,
    data_seed,
    in_child,
    make_session,
    remove_tree,
    scratch_dir,
)
from layers import cli_probe, build_probe, replay_request, session_probe

SCHEDULES = ("unfused", "partial", "full")

#: Emission-dominated sizes: gpt3 at four layers emits 30-50k lines (about
#: 0.5-0.9 s a request), the graph models a few thousand.
COLD_MODELS = {
    "gcn": dict(nodes=96, density=0.08),
    "graphsage": dict(nodes=96, density=0.08),
    "sae": dict(nodes=48),
    "gpt3": dict(seq_len=32, d_model=8, block=4, n_layers=4),
}

#: Kernel-run-dominated sizes: large vectorised streams (192-node graphs,
#: 128-wide sae) beside blocked gpt3 streams that dispatch to the token tier.
STEADY_CLASSES = (
    ("gcn", dict(nodes=192, density=0.05), "partial"),
    ("graphsage", dict(nodes=192, density=0.05), "partial"),
    ("gcn", dict(nodes=96, density=0.08), "full"),
    ("sae", dict(nodes=128), "partial"),
    ("sae", dict(nodes=128), "full"),
    ("gpt3", dict(seq_len=128, d_model=16, block=8, n_layers=2), "partial"),
    ("gpt3", dict(seq_len=128, d_model=16, block=8, n_layers=2), "full"),
)

#: Bindings a steady class rotates through.  The simulator memo keeps 4 per
#: graph, so with 6 in rotation no request is ever a memo hit.
STEADY_BINDINGS = 6

#: A steady request must be at least this many times slower than a repeated
#: call on the same binding, or it was served by the memo.
MEMO_FACTOR = 20


def codegen_loc(exe) -> int:
    """Emitted kernel lines of an executable compiled under codegen."""
    return sum(region.codegen_loc for region in exe.diagnostics.regions)


def judge(cls, req_ms, source, want_source, err, **fields) -> Sample:
    """A request's verdict: right cache path and right numbers, or failed."""
    why = ""
    if source != want_source:
        why = f"compile came from {source!r}, this workload measures {want_source!r}"
    elif not err < TOLERANCE:
        why = f"max |err| {err:.2e} vs the dense reference"
    return Sample(cls=cls, ok=not why, ms=req_ms, why=why, **fields)


def model_classes(seed: int, models: Dict[str, dict]) -> Dict[str, tuple]:
    """class -> (point, bundle, schedule) for models x the three schedules."""
    from repro.sweep import SweepPoint, build_bundle

    classes = {}
    for index, (model, args) in enumerate(models.items()):
        point = SweepPoint.make(
            model, model_args={**args, "seed": data_seed(seed, index)}
        )
        bundle = build_bundle(point)
        for schedule in SCHEDULES:
            classes[f"{model}.{schedule}"] = (point, bundle, bundle.schedule(schedule))
    return classes


class ColdCodegen(Workload):
    name = "cold.codegen"
    want_source = "compiled"

    def setup(self) -> None:
        models = COLD_MODELS
        if self.quick:
            models = {"sae": COLD_MODELS["sae"]}
        self.classes = model_classes(self.seed, models)
        if self.quick:
            self.classes = {c: self.classes[c] for c in ("sae.partial", "sae.full")}
        self.order = self.request_order(list(self.classes))

    def session(self):
        return make_session("codegen", False)

    def request(self, cls: str, rnd: int) -> Sample:
        from repro.backend.codegen import clear_codegen_caches

        _point, bundle, schedule = self.classes[cls]
        tr = self.tr
        self.calibrate()
        with tr.span("request", request=f"{self.name}/{cls}/{rnd}", cls=cls) as req:
            clear_codegen_caches()
            session = self.session()
            with tr.span("driver.session.compile_detailed") as comp:
                exe, source = session.compile_detailed(bundle.program, schedule)
            with tr.span("driver.executable.first_run") as run:
                result = exe(bundle.binding)
            with tr.span("models.verify"):
                err = bundle.max_abs_err(result)
        self.first_run_ms = run.ms
        return judge(
            cls, req.ms, source, self.want_source, err,
            compile_ms=comp.ms,
            cycles=result.metrics.cycles,
            dram_bytes=result.metrics.dram_bytes,
            loc=codegen_loc(exe),
            speed=self.speed,
        )

    def run_round(self, index: int) -> List[Sample]:
        return [self.request(cls, index) for cls in self.order]

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        samples = []
        for cls in self.order:
            point, bundle, schedule = self.classes[cls]
            samples.append(self.request(cls, index))
            layers.speed = self.speed
            layers.add("backend.first_run_ms.codegen", cls, self.first_run_ms)
            session = self.session()
            build_probe(self.tr, layers, cls, point)
            self.note_layer_sum(
                cls, replay_request(self.tr, layers, cls, bundle, schedule, session)
            )
            session_probe(self.tr, layers, cls, bundle, schedule, session)
        if index == 0:
            cli_probe(self.tr, layers)
        return samples


class WarmDiskCodegen(ColdCodegen):
    """Every request runs in a forked child that has never compiled.

    So does everything else that touches the compiler — filling the warm
    directory, the traced replays — because a parent that had compiled
    would hand its children warmed module state and the "restarted
    process" this workload stands for would no longer be one.
    """

    name = "warm_disk.codegen"
    want_source = "disk"
    rss_children = True

    def setup(self) -> None:
        from repro.sweep import SweepPoint, build_bundle

        super().setup()
        self.sacrificial = build_bundle(
            SweepPoint.make("gcn", model_args={"nodes": 12, "seed": 1})
        )
        self.warm_dir = scratch_dir("warm")
        written = in_child(self._fill)
        if written != len(self.classes):
            raise RuntimeError(f"warm directory holds {written} entries")

    def teardown(self) -> None:
        remove_tree(self.warm_dir)

    def session(self):
        return make_session("codegen", self.warm_dir)

    def _fill(self) -> int:
        """The *write* use of the disk cache: one entry per class."""
        session = self.session()
        for _point, bundle, schedule in self.classes.values():
            session.compile(bundle.program, schedule)
        return len([n for n in os.listdir(self.warm_dir) if n.endswith(".ffc")])

    def _sacrifice(self) -> None:
        """Pay the process's one-time costs outside the measurement.

        A tiny program under another key goes through the compile, the
        disk load and a first run — lazy imports, pickle class resolution,
        pass set-up — as ``benchmarks/bench_serve.py`` does.
        """
        bundle = self.sacrificial
        schedule = bundle.schedule("partial")
        scratch = scratch_dir("sacrifice")
        try:
            make_session("codegen", scratch).compile(bundle.program, schedule)
            exe = make_session("codegen", scratch).compile(bundle.program, schedule)
            exe(bundle.binding)
        finally:
            remove_tree(scratch)

    def _child_request(self, cls: str, rnd: int, traced: bool):
        self._sacrifice()
        self.tr.spans.clear()
        self.tr.enabled = traced
        sample = self.request(cls, rnd)
        layers = Layers()
        total = 0.0
        if traced:
            point, bundle, schedule = self.classes[cls]
            layers.speed = self.speed
            layers.add("backend.first_run_ms.codegen", cls, self.first_run_ms)
            session = self.session()
            build_probe(self.tr, layers, cls, point)
            total = replay_request(
                self.tr, layers, cls, bundle, schedule, session,
                disk_dir=self.warm_dir,
            )
            session_probe(self.tr, layers, cls, bundle, schedule, session)
            layers.speed = 1.0  # merged into the parent's as already scaled
        return sample, self.tr.spans, layers, total

    def run_round(self, index: int) -> List[Sample]:
        return [
            in_child(self._child_request, cls, index, False)[0] for cls in self.order
        ]

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        samples = []
        for cls in self.order:
            sample, spans, found, total = in_child(
                self._child_request, cls, index, True
            )
            samples.append(sample)
            self.tr.spans.extend(spans)
            layers.merge(found)
            self.note_layer_sum(cls, total, sample.speed)
        if index == 0:
            cli_probe(self.tr, layers)
        return samples


class SteadyCodegen(Workload):
    name = "steady.codegen"

    def setup(self) -> None:
        from repro.sweep import SweepPoint, build_bundle

        chosen = STEADY_CLASSES
        if self.quick:
            chosen = tuple(c for c in STEADY_CLASSES if c[0] == "sae")
        self.session = make_session("codegen", False)
        #: class -> (point, bundles, schedule, executable)
        self.classes: Dict[str, Tuple] = {}
        for index, (model, args, granularity) in enumerate(chosen):
            points = [
                SweepPoint.make(
                    model,
                    model_args={
                        **args,
                        "seed": data_seed(self.seed, index * STEADY_BINDINGS + slot),
                    },
                )
                for slot in range(STEADY_BINDINGS)
            ]
            bundles = [build_bundle(point) for point in points]
            schedule = bundles[0].schedule(granularity)
            exe = self.session.compile(bundles[0].program, schedule)
            self.classes[f"{model}.{granularity}"] = (points[0], bundles, schedule, exe)
            # Fill the memo and finish lazy token-tier emission before timing.
            for bundle in bundles:
                exe(bundle.binding)
        self.order = self.request_order(list(self.classes))
        self.turn = {cls: 0 for cls in self.classes}

    def request(self, cls: str, rnd: int, same_binding: bool = False) -> Sample:
        _point, bundles, schedule, _exe = self.classes[cls]
        if not same_binding:
            self.turn[cls] += 1
        bundle = bundles[self.turn[cls] % STEADY_BINDINGS]
        program = bundles[0].program
        tr = self.tr
        with tr.span("request", request=f"{self.name}/{cls}/{rnd}", cls=cls) as req:
            with tr.span("driver.session.compile_detailed") as comp:
                exe, source = self.session.compile_detailed(program, schedule)
            with tr.span("driver.executable.run") as run:
                result = exe(bundle.binding)
            with tr.span("models.verify"):
                err = bundle.max_abs_err(result)
        # Guard: the same call again is a memo hit; the request must not
        # have been one.
        with tr.span("guard.memo_hit") as memo:
            exe(bundle.binding)
        sample = judge(
            cls, req.ms, source, "memory", err,
            compile_ms=comp.ms,
            cycles=result.metrics.cycles,
            dram_bytes=result.metrics.dram_bytes,
            loc=codegen_loc(exe),
            speed=self.speed,
        )
        if sample.ok and run.ms < MEMO_FACTOR * memo.ms:
            sample.ok = False
            sample.why = (
                f"run took {run.ms:.3f} ms, a repeated call {memo.ms:.3f} ms: "
                "served by the simulator memo, not a steady-state run"
            )
        self.current = bundle
        return sample

    def run_round(self, index: int) -> List[Sample]:
        # A round is ~0.3 s: one calibration covers it.
        self.calibrate()
        return [self.request(cls, index) for cls in self.order]

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        samples = []
        columnar = make_session("columnar", False)
        layers.speed = self.calibrate()
        for cls in self.order:
            point, _bundles, schedule, exe = self.classes[cls]
            sample = self.request(cls, index)
            samples.append(sample)
            layers.add("driver.session.memory_hit_ms", cls, sample.compile_ms)
            build_probe(self.tr, layers, cls, point)
            self.note_layer_sum(
                cls,
                replay_request(
                    self.tr, layers, cls, self.current, schedule, self.session,
                    executable=exe,
                ),
            )
            # The same classes on the vectorised interpreter: the other
            # side of the run-time comparison (not part of the layer sum).
            replay_request(
                self.tr, layers, cls, self.current, schedule, columnar,
                executable=columnar.compile(self.current.program, schedule),
            )
        if index == 0:
            cli_probe(self.tr, layers)
        return samples
