"""``sweep_grid``: one 48-point ``run_sweep`` on two workers per round."""

from __future__ import annotations

import os
import time
from typing import Dict, List

from harness import (
    TOLERANCE,
    Layers,
    Sample,
    Workload,
    data_seed,
    in_children,
    make_session,
    remove_tree,
    scratch_dir,
)
from layers import cli_probe, build_probe, replay_request, session_probe
from wl_codegen import COLD_MODELS, SCHEDULES, codegen_loc

WORKERS = 2

#: One set of builder arguments broadcast over the four models, as a sweep
#: spec does it (each model reads the ones it knows).
GRID_ARGS = dict(nodes=96, density=0.08, seq_len=32, d_model=8, block=4, n_layers=4)


def record_fault(record: dict, parent_pid: int) -> str:
    """Why a sweep record does not count as a verified request ('' = it does).

    Besides the oracle, this is the guard against measuring the memo path:
    a grid re-run inline in a process that already ran it finishes in
    0.04 s because every compile is a cache hit and every simulation a
    memo hit.  Such a record carries this process's pid and
    ``compile_cache_hit``, and "runs" in less time than its own compile
    took.
    """
    if record.get("status") != "ok" or not record.get("verified"):
        return f"status {record.get('status')!r}: {record.get('error', 'unverified')}"
    if not record["max_abs_err"] < TOLERANCE:
        return f"max |err| {record['max_abs_err']:.2e} vs the dense reference"
    if record["worker_pid"] == parent_pid:
        return "ran inline in the harness process, not in a sweep worker"
    if record["compile_cache_hit"]:
        return "compile was a worker-session cache hit (caches not cleared)"
    if record["elapsed_seconds"] < record["compile_seconds"]:
        return "finished faster than its own compile: served from caches"
    return ""


class SweepGrid(Workload):
    name = "sweep_grid"
    rss_children = True

    def setup(self) -> None:
        from repro.sweep import SweepSpec

        self.spec = SweepSpec(
            name="bench-grid",
            models=list(COLD_MODELS),
            schedules=list(SCHEDULES),
            machines=["rda", "fpga"],
            hierarchies=["flat", "fpga-small"],
            model_args={**GRID_ARGS, "seed": data_seed(self.seed, 0)},
            backends=["columnar"],
        )
        if self.quick:
            self.spec.models = ["sae"]
            self.spec.schedules = ["partial", "full"]
            self.spec.machines = ["rda"]
            self.spec.hierarchies = ["flat"]
        self.points = {p.point_id: p for p in self.spec.points()}
        self.dir = scratch_dir("sweep")
        self.sweeps = 0

    def teardown(self) -> None:
        remove_tree(self.dir)

    def sweep(self, progress=None):
        from repro.sweep import run_sweep
        from repro.sweep.runner import clear_worker_caches

        # Workers fork from this process: whatever it holds, they hold.
        clear_worker_caches()
        self.sweeps += 1
        before = self.calibrate()
        outcome = run_sweep(
            self.spec,
            store_path=os.path.join(self.dir, f"sweep-{self.sweeps}.jsonl"),
            workers=WORKERS,
            progress=progress,
        )
        # Both cores are the workers' during the sweep; the host's speed is
        # read on either side of it.
        self.speed = (before + self.calibrate()) / 2
        return outcome

    def sample(self, record: dict) -> Sample:
        why = record_fault(record, os.getpid())
        if why:
            return Sample(cls=record["label"], ok=False, ms=0.0, why=why)
        metrics = record["metrics"]
        return Sample(
            cls=record["label"],
            ok=True,
            ms=record["elapsed_seconds"] * 1e3,
            compile_ms=record["compile_seconds"] * 1e3,
            cycles=metrics["cycles"],
            dram_bytes=metrics["dram_bytes"],
            speed=self.speed,
        )

    def run_round(self, index: int) -> List[Sample]:
        outcome = self.sweep()
        return [self.sample(record) for record in outcome.records]

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        from repro.sweep import ResultStore

        arrivals: Dict[str, float] = {}
        with self.tr.span("sweep.run_sweep", request=f"{self.name}/{index}") as root:
            outcome = self.sweep(
                lambda record: arrivals.setdefault(
                    record["point_id"], time.perf_counter()
                )
            )
        samples = [self.sample(record) for record in outcome.records]
        layers.speed = self.speed
        busy = 0.0
        for record, sample in zip(outcome.records, samples):
            if not sample.ok:
                continue
            elapsed = record["elapsed_seconds"]
            busy += elapsed
            end = arrivals[record["point_id"]]
            self.tr.add(
                "request", end - elapsed, end,
                f"{self.name}/{record['label']}/{index}",
                parent=root, pid=record["worker_pid"],
            )
            layers.add("sweep.point_ms_gmean", sample.cls, sample.ms)
            if record["point"]["hierarchy"] == "fpga-small":
                for level in ("sram", "spill"):
                    layers.add(
                        f"comal.hierarchy.{level}_bytes",
                        sample.cls,
                        record["metrics"][f"{level}_bytes"],
                    )
        wall = root.ms / 1e3
        points = len(outcome.records)
        layers.set(
            "sweep.runner.overhead_ms_per_point",
            (wall * WORKERS - busy) / points * 1e3,
        )
        layers.set("sweep.runner.worker_busy_share", busy / (wall * WORKERS))
        layers.set(
            "sweep.compile_cache_hits",
            sum(bool(r.get("compile_cache_hit")) for r in outcome.records),
        )
        layers.set("sweep.retries", outcome.retries)
        pids = {r["worker_pid"] for r in outcome.records if "worker_pid" in r}
        layers.set("sweep.respawns", max(0, len(pids) - WORKERS))

        store = ResultStore.create(
            os.path.join(self.dir, "append-probe.jsonl"), self.spec, force=True
        )
        with store:
            for record in outcome.records:
                with self.tr.span("sweep.store.append") as sp:
                    store.append(record)
                layers.add("sweep.store.append_ms", record["label"], sp.ms)

        # The replays compile, so they run in children: the next round's
        # workers must again fork from a parent that never has.  Two at a
        # time, each taking every second point, because that is how the
        # points ran: two busy processes sharing two cores.
        for spans, found, sums in in_children(
            self._replay_points, [(slot,) for slot in range(WORKERS)]
        ):
            self.tr.spans.extend(spans)
            layers.merge(found)
            for cls, total in sums.items():
                self.note_layer_sum(cls, total)
        if index == 0:
            cli_probe(self.tr, layers)
        return samples

    def _replay_points(self, slot: int):
        from repro.comal.machines import MACHINES
        from repro.driver import PassPipeline
        from repro.sweep import build_bundle

        self.tr.spans.clear()
        self.tr.enabled = True
        layers = Layers(speed=self.speed)
        bundles = {}
        sums = {}
        mine = list(self.points.values())[slot::WORKERS]
        for point in mine:
            cls = point.label()
            if point.model not in bundles:
                bundles[point.model] = build_bundle(point)
                build_probe(self.tr, layers, point.model, point)
            bundle = bundles[point.model]
            schedule = bundle.schedule(point.schedule)
            session = make_session(
                "columnar",
                False,
                machine=MACHINES[point.machine],
                pipeline=PassPipeline.from_names(point.pipeline),
                hierarchy=point.hierarchy,
            )
            sums[cls] = replay_request(self.tr, layers, cls, bundle, schedule, session)
            if point.machine == "rda":
                session_probe(self.tr, layers, cls, bundle, schedule, session)
        # Like a worker, this child traced each model once; spread that
        # over its points.
        build_ms = sum(layers.per_class("frontend.build_bundle_ms").values())
        share = build_ms / len(mine)
        layers.speed = 1.0  # merged into the parent's as already scaled
        return self.tr.spans, layers, {cls: ms + share for cls, ms in sums.items()}

    def after_window(self) -> Dict[str, float]:
        """Kernel lines codegen would emit for the grid's twelve programs."""
        from repro.sweep import build_bundle

        session = make_session("codegen", False)
        bundles = {}
        total = 0
        for point in self.points.values():
            key = (point.model, point.schedule)
            if key in bundles:
                continue
            bundles[key] = bundle = build_bundle(point)
            exe = session.compile(bundle.program, bundle.schedule(point.schedule))
            total += codegen_loc(exe)
        return {"codegen_loc_total": float(total)}
