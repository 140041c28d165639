"""Tests for the parallel experiment-sweep subsystem (repro.sweep)."""

import dataclasses
import json
import os

import pytest

from repro.sweep import (
    ResultStore,
    ResultStoreError,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    SweepSpecError,
    build_bundle,
    bundle_for,
    compatible_datasets,
    render_summary,
    run_point,
    run_sweep,
    summarize,
    write_summary_json,
)
from repro.sweep.runner import clear_worker_caches

SMALL_ARGS = {"nodes": 20, "density": 0.1, "seed": 0}


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        name="t",
        models=["gcn", "sae"],
        schedules=["unfused", "partial", "full"],
        machines=["rda", "fpga"],
        model_args=dict(SMALL_ARGS),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpec:
    def test_grid_expansion_counts(self):
        points = small_spec().points()
        # 2 models x 1 dataset x 3 schedules x 2 machines.
        assert len(points) == 12
        assert {p.model for p in points} == {"gcn", "sae"}
        assert {p.machine for p in points} == {"rda", "fpga"}

    def test_point_ids_unique_and_stable(self):
        points = small_spec().points()
        ids = [p.point_id for p in points]
        assert len(set(ids)) == len(ids)
        assert ids == [p.point_id for p in small_spec().points()]

    def test_incompatible_datasets_are_skipped(self):
        # cora is a graph dataset; imagenet is an SAE dataset: each model
        # only picks up its own.
        spec = small_spec(datasets=["cora", "imagenet"], machines=["rda"])
        points = spec.points()
        assert {(p.model, p.dataset) for p in points} == {
            ("gcn", "cora"),
            ("sae", "imagenet"),
        }

    def test_empty_expansion_raises(self):
        spec = small_spec(models=[])
        with pytest.raises(SweepSpecError, match="zero points"):
            spec.points()

    def test_unmatched_dataset_is_an_error(self):
        # A typo'd (or model-less) dataset must not silently shrink the
        # grid into a complete-looking but partial sweep.
        with pytest.raises(SweepSpecError, match=r"\['dbpl'\] match none"):
            small_spec(models=["gcn"], datasets=["cora", "dbpl"]).points()
        with pytest.raises(SweepSpecError, match="match none"):
            small_spec(models=["gpt3"], datasets=["cora"]).points()

    def test_irrelevant_model_args_do_not_change_point_id(self):
        # 'density' is a graph-builder knob the SAE ignores; a spec
        # broadcasting it across models must not fork the SAE's point ID.
        with_noise = SweepPoint.make("sae", model_args={"nodes": 16, "density": 0.1})
        without = SweepPoint.make("sae", model_args={"nodes": 16})
        assert with_noise.point_id == without.point_id
        assert (
            SweepPoint.make("gcn", model_args={"nodes": 16, "density": 0.1}).point_id
            != SweepPoint.make("gcn", model_args={"nodes": 16}).point_id
        )

    def test_validation(self):
        with pytest.raises(SweepSpecError, match="unknown model"):
            SweepPoint.make("resnet").validate()
        with pytest.raises(SweepSpecError, match="not valid for model"):
            SweepPoint.make("sae", dataset="cora").validate()
        with pytest.raises(SweepSpecError, match="unknown machine"):
            SweepPoint.make("gcn", machine="tpu").validate()
        with pytest.raises(SweepSpecError, match="unknown schedule"):
            SweepPoint.make("gcn", schedule="hyper").validate()

    def test_compatible_datasets(self):
        assert "cora" in compatible_datasets("gcn")
        assert "imagenet" in compatible_datasets("sae")
        assert "imdb" in compatible_datasets("gpt3")
        for model in ("gcn", "graphsage", "sae", "gpt3"):
            assert "synthetic" in compatible_datasets(model)

    def test_labels_distinguish_model_args(self):
        # Report rows and fault-site globs key on the label: distinct point
        # IDs must never share one.
        a = SweepPoint.make("gcn", model_args={"nodes": 24})
        b = SweepPoint.make("gcn", model_args={"nodes": 48})
        assert a.point_id != b.point_id
        assert a.label() != b.label()
        assert "nodes=24" in a.label()

    def test_point_record_roundtrip(self):
        point = SweepPoint.make(
            "gpt3",
            dataset="imdb",
            schedule="full",
            machine="fpga",
            model_args={"block": 4},
            par={"x1": 4},
        )
        clone = SweepPoint.from_record(point.to_record())
        assert clone == point
        assert clone.point_id == point.point_id

    def test_spec_json_roundtrip(self, tmp_path):
        spec = small_spec(extra_points=[SweepPoint.make("gpt3", schedule="full")])
        path = tmp_path / "spec.json"
        spec.save(str(path))
        loaded = SweepSpec.load(str(path))
        assert [p.point_id for p in loaded.points()] == [
            p.point_id for p in spec.points()
        ]

    def test_extra_points_appended_and_deduped(self):
        dup = SweepPoint.make(
            "gcn", schedule="unfused", machine="rda", model_args=SMALL_ARGS
        )
        novel = SweepPoint.make("gpt3", schedule="full", model_args=SMALL_ARGS)
        spec = small_spec(extra_points=[dup, novel])
        points = spec.points()
        assert len(points) == 13  # 12 grid + 1 novel (dup collapses)
        assert points[-1].model == "gpt3"

    def test_point_id_pins(self):
        """Literal ids read before the compile flow was fixed: results
        files written then still resume against the same points."""
        assert SweepPoint.make("gcn").point_id == "3417072089224bde"
        split = SweepPoint.make("gcn", splits={"x1": 8})
        assert split.point_id == "67d3c7abf7902a4b"
        small = SweepPoint.make("gpt3", hierarchy="fpga-small")
        assert small.point_id == "4511d9dcdb0b1c6a"
        codegen = SweepPoint.make("sae", backend="codegen")
        assert codegen.point_id == "8cb264dd7583c6f9"

    def test_record_pins(self):
        """A result record's deterministic fields, byte for byte, for a
        point without and one with the legacy backend label (sha256 of
        the sorted JSON, literal values read before the label stopped
        choosing an execution backend): old stores resume unchanged."""
        import hashlib

        fields = ("type", "status", "point_id", "label", "point", "fingerprints", "metrics")
        pins = {
            SweepPoint.make("gcn", model_args={"nodes": 12}): (
                "a7b9301e1bf72c5f",
                "b1d378637e888680e60976fe7abbe4c66bd6e4cfd7305e3c50ec6b1e6ceb4214",
            ),
            SweepPoint.make("sae", backend="codegen", model_args={"nodes": 12}): (
                "0cc2b6991daa3be7",
                "6729fa4220c85a2de44ec7b42170469d809e658dc844ffb9241ab70cc9e9fbe1",
            ),
        }
        for point, (point_id, digest) in pins.items():
            record = run_point(point)
            assert record["point_id"] == point_id
            text = json.dumps({k: record[k] for k in fields}, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, text

    def test_default_pipeline_records_still_load(self):
        """Records written with the configurable pipeline carry its default
        order, with or without split-indices; both name the fixed flow."""
        record = SweepPoint.make("gcn", splits={"x1": 8}).to_record()
        assert SweepPoint.from_record(record).point_id == "67d3c7abf7902a4b"
        spec = small_spec().to_record()
        spec["pipelines"] = [list(SweepPoint.pipeline)]
        assert SweepSpec.from_record(spec).points() == small_spec().points()

    def test_custom_pipelines_are_rejected(self):
        """A pass ablation is a schedule field or the hierarchy now, and
        the error names the field to set."""
        no_fold = [n for n in SweepPoint.pipeline if n != "fold-masks"]
        with pytest.raises(SweepSpecError, match="fold_masks"):
            SweepPoint.from_record({"model": "gcn", "pipeline": no_fold})
        spec = small_spec().to_record()
        spec["pipelines"] = [list(SweepPoint.pipeline), ["fuse-regions", "lower-region"]]
        with pytest.raises(SweepSpecError, match="hierarchy") as info:
            SweepSpec.from_record(spec)
        for field_name in ("global_rewrite", "splits", "par"):
            assert field_name in str(info.value)

    def test_build_bundle_dataset_variants(self):
        gcn = build_bundle(SweepPoint.make("gcn", dataset="cora"))
        assert gcn.program is not None and gcn.reference is not None
        sae = build_bundle(SweepPoint.make("sae", dataset="imagenet"))
        assert sae.name == "sae"
        gpt3 = build_bundle(
            SweepPoint.make("gpt3", dataset="imdb", model_args={"n_layers": 1})
        )
        assert gpt3.program is not None


class TestStore:
    def test_header_and_records(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        spec = small_spec()
        with ResultStore.create(path, spec) as store:
            store.append({"point_id": "a", "status": "ok", "n": 1})
            store.append({"point_id": "b", "status": "error"})
            store.append({"point_id": "a", "status": "ok", "n": 2})
        store = ResultStore.open(path)
        assert store.spec().name == "t"
        records = store.records()
        assert len(records) == 2  # last-wins per point id
        assert {r["point_id"] for r in records} == {"a", "b"}
        assert next(r for r in records if r["point_id"] == "a")["n"] == 2
        assert store.completed_ids() == {"a"}

    def test_create_refuses_to_clobber(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        ResultStore.create(path, small_spec())
        with pytest.raises(ResultStoreError, match="already exists"):
            ResultStore.create(path, small_spec())
        ResultStore.create(path, small_spec(), force=True)  # explicit force ok

    def test_open_missing(self, tmp_path):
        with pytest.raises(ResultStoreError, match="no results file"):
            ResultStore.open(str(tmp_path / "missing.jsonl"))

    def test_corrupt_interior_line_is_reported_with_location(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "result", "point_id": "a", "status": "ok"}\n')
            fh.write("not json\n")
            fh.write('{"type": "result", "point_id": "b", "status": "ok"}\n')
        with pytest.raises(ResultStoreError, match=":2"):
            ResultStore.open(path).records()

    def test_garbage_file_is_rejected(self, tmp_path):
        # A torn tail is recoverable; a file that was never a results file
        # (corrupt first line) is not, and must not read as an empty sweep.
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "w") as fh:
            fh.write("this is not json\n")
        with pytest.raises(ResultStoreError, match=":1"):
            ResultStore.open(path).records()

    def test_append_after_torn_tail_does_not_merge_records(self, tmp_path):
        # Writing after a crash must terminate the torn line first, or the
        # new record merges into it and bricks every later read.
        path = str(tmp_path / "r.jsonl")
        spec = small_spec(machines=["rda"])
        store = ResultStore.create(path, spec)
        store.append({"point_id": "a", "status": "ok"})
        store.close()
        with open(path, "a") as fh:
            fh.write('{"point_id": "torn", "sta')  # no newline
        store = ResultStore.open(path)
        store.append({"point_id": "b", "status": "ok"})
        store.append({"point_id": "c", "status": "ok"})
        store.close()
        records = ResultStore.open(path).records()
        assert {r["point_id"] for r in records} == {"a", "b", "c"}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        # A crash mid-append leaves a partial last line; resume must read
        # the valid prefix, not hard-fail on the file it exists to recover.
        path = str(tmp_path / "r.jsonl")
        spec = small_spec(machines=["rda"])
        store = ResultStore.create(path, spec)
        store.append(run_point(spec.points()[0]))
        store.close()
        with open(path, "a") as fh:
            fh.write('{"type": "result", "point_id": "torn", "sta')
        store = ResultStore.open(path)
        assert len(store.records()) == 1
        outcome = run_sweep(spec, store_path=path, workers=1, resume=True)
        assert outcome.skipped == 1 and outcome.ran == 5


class TestRunPoint:
    def setup_method(self):
        clear_worker_caches()

    def test_success_record_shape(self):
        record = run_point(
            SweepPoint.make("gcn", schedule="partial", model_args=SMALL_ARGS)
        )
        assert record["status"] == "ok"
        assert record["verified"] is True
        metrics = record["metrics"]
        assert metrics["cycles"] > 0 and metrics["flops"] > 0
        assert 0.0 <= metrics["compute_utilization"] <= 1.0
        assert set(record["fingerprints"]) == {"program", "schedule", "pipeline"}
        # JSON-serializable end to end (the store writes it verbatim).
        json.dumps(record)

    def test_fingerprints_are_the_compile_key(self):
        """Fresh and memory-hit compiles alike: a record's fingerprints
        are the ones the compile key is made of."""
        from repro.sweep.runner import _session_for

        points = [
            SweepPoint.make("gcn", schedule="partial", model_args={**SMALL_ARGS, "seed": s})
            for s in (0, 1)
        ]
        records = [run_point(p) for p in points]
        assert [r["compile_cache_hit"] for r in records] == [False, True]
        for point, record in zip(points, records):
            bundle = bundle_for(point)
            session = _session_for(point.machine, point.hierarchy)
            assert record["fingerprints"] == {
                "program": bundle.program.fingerprint(),
                "schedule": point.schedule_for(bundle).fingerprint(),
                "pipeline": session.pipeline.fingerprint(),
            }

    def test_failure_becomes_error_record(self):
        # The SAE has no C+S rewrite grouping, so schedule 'cs' must fail
        # as a recorded error, not an exception.
        record = run_point(
            SweepPoint.make("sae", schedule="cs", model_args=SMALL_ARGS)
        )
        assert record["status"] == "error"
        assert "cs" in record["error"] or "rewrite" in record["error"]
        json.dumps(record)

    def test_unknown_model_becomes_error_record(self):
        # run_point's contract: never raises, even for points that bypass
        # validation (e.g. rehydrated from an edited record).
        record = run_point(
            SweepPoint.make("resnet", model_args={"nodes": 16})
        )
        assert record["status"] == "error"
        assert "unknown model" in record["error"]
        json.dumps(record)

    def test_verification_failure_is_a_failed_point(self, monkeypatch):
        # A point that executes but disagrees with the dense reference must
        # be retryable (status error), not a silently wrong success.
        point = SweepPoint.make("sae", schedule="full", model_args=SMALL_ARGS)
        bundle = bundle_for(point)
        # Corrupt the oracle of the shared bundle run_point will use;
        # monkeypatch restores it for later tests.
        monkeypatch.setattr(bundle, "reference", bundle.reference + 1.0)
        record = run_point(point)
        assert record["status"] == "error"
        assert record["verified"] is False
        assert "verification failed" in record["error"]
        assert record["metrics"]["cycles"] > 0  # metrics kept for debugging
        assert summarize([record])["points_failed"] == 1

    def test_worker_caches_share_compile_work(self):
        point_a = SweepPoint.make("gcn", schedule="partial", model_args=SMALL_ARGS)
        point_b = SweepPoint.make("gcn", schedule="partial", model_args=SMALL_ARGS)
        first = run_point(point_a)
        second = run_point(point_b)
        assert first["compile_cache_hit"] is False
        assert second["compile_cache_hit"] is True


#: Builder arguments for the staged grids: small gcn plus blocked gpt3.
STAGED_ARGS = {
    "nodes": 20,
    "density": 0.1,
    "seed": 0,
    "seq_len": 16,
    "d_model": 8,
    "block": 4,
    "n_layers": 1,
}

#: A value differing from the SweepPoint defaults, for every field.
FIELD_FLIPS = {
    "model": "sae",
    "dataset": "another",
    "schedule": "full",
    "machine": "fpga",
    "model_args": (("nodes", 21),),
    "par": (("x1", 2),),
    "splits": (("x1", 4),),
    "hierarchy": "fpga-small",
    "backend": "interp",
}


def staged_spec() -> SweepSpec:
    """4 (program, schedule) groups of 4 (machine, hierarchy) points."""
    return SweepSpec(
        name="staged",
        models=["gcn", "gpt3"],
        schedules=["unfused", "full"],
        machines=["rda", "fpga"],
        hierarchies=["flat", "fpga-small"],
        model_args=dict(STAGED_ARGS),
    )


def _functional_view(run):
    """What a functional run holds: signature, transposes, and per region
    its stats (operand reads still pending), port lengths and results."""
    return (
        run.signature,
        run.transposes,
        [
            (
                func.stats,
                func.port_lengths(),
                {
                    name: (t.shape, t.to_dense().tolist())
                    for name, t in func.results.items()
                },
            )
            for func in run.regions
        ],
    )


class TestStagedExecution:
    """A sweep runs each (program, schedule) once per worker and times it
    per machine and hierarchy; the records must not tell the difference."""

    def setup_method(self):
        clear_worker_caches()

    def test_stage_key_covers_every_field_but_the_timing_ones(self):
        base = SweepPoint.make("gcn")
        for f in dataclasses.fields(SweepPoint):
            # A new field needs a flip here; it is in the key by default.
            flipped = dataclasses.replace(base, **{f.name: FIELD_FLIPS[f.name]})
            assert flipped != base, f.name
            same = flipped.stage_key() == base.stage_key()
            assert same == (f.name in ("machine", "hierarchy")), f.name

    @pytest.mark.parametrize(
        "field_name, value", [("machine", "fpga"), ("hierarchy", "fpga-small")]
    )
    def test_timing_fields_leave_the_functional_run_identical(self, field_name, value):
        from repro.sweep.runner import _session_for

        base = SweepPoint.make("gcn", schedule="unfused", model_args=SMALL_ARGS)
        flipped = dataclasses.replace(base, **{field_name: value})
        runs = []
        for point in (base, flipped):
            bundle = bundle_for(point)
            session = _session_for(point.machine, point.hierarchy)
            exe = session.compile(bundle.program, point.schedule_for(bundle))
            runs.append(exe.functional(bundle.binding))
        assert any(f.stats[n].residency for f in runs[0].regions for n in f.stats)
        assert _functional_view(runs[0]) == _functional_view(runs[1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_equal_run_point_on_fresh_caches(self, workers):
        spec = staged_spec()
        outcome = run_sweep(spec, workers=workers)
        assert outcome.ran == 16 and outcome.failed == 0
        if workers == 1:
            assert outcome.functional_runs == 4
        else:
            assert 4 <= outcome.functional_runs < 16
        got = {r["point_id"]: r for r in outcome.records}
        for point in spec.points():
            clear_worker_caches()
            want = run_point(point)
            have = got[point.point_id]
            for key in ("metrics", "max_abs_err", "verified", "fingerprints"):
                assert have[key] == want[key], (point.label(), key)
            assert have["compile_cache_hit"] is False
            assert have["elapsed_seconds"] >= have["compile_seconds"]

    def test_inline_runner_dispatches_group_by_group(self):
        spec = staged_spec()
        spec.machines = ["rda"]
        spec.hierarchies = ["flat", "fpga-small"]
        outcome = run_sweep(spec, workers=1)
        keys = [SweepPoint.from_record(r["point"]).stage_key() for r in outcome.records]
        assert keys[0::2] == keys[1::2]
        assert outcome.functional_runs == 4
        assert "4 functional run(s)" in outcome.describe()

    def test_unhashable_model_argument_is_an_error_record(self):
        # The dispatcher keys groups by stage key before any point runs.
        spec = small_spec(models=["gcn"], schedules=["full"], model_args={"nodes": [20]})
        outcome = run_sweep(spec, workers=2)
        assert outcome.ran == 2 and outcome.failed == 2
        assert all("unhashable" in r["error"] for r in outcome.records)

    def test_stage_cache_is_one_entry_that_clear_empties(self):
        from repro.sweep.runner import _STAGE

        first = SweepPoint.make("gcn", schedule="unfused", model_args=SMALL_ARGS)
        run_point(first)
        assert list(_STAGE) == [first.stage_key()]
        run_point(dataclasses.replace(first, schedule="full"))
        assert len(_STAGE) == 1
        clear_worker_caches()
        assert not _STAGE

    def test_lean_run_keeps_port_lengths_only(self):
        from repro import Session

        point = SweepPoint.make("gcn", schedule="unfused", model_args=SMALL_ARGS)
        bundle = bundle_for(point)
        results = []
        for debug in (True, False):
            session = Session(hierarchy="fpga-small", debug_streams=debug, sim_cache=False)
            exe = session.compile(bundle.program, point.schedule_for(bundle))
            run = exe.functional(bundle.binding)
            assert all(bool(f.streams) == debug for f in run.regions)
            assert all(bool(f.lengths) != debug for f in run.regions)
            results.append((run, exe.time(run), exe(bundle.binding)))
        (full, full_timed, _), (lean, lean_timed, plain) = results
        assert [f.port_lengths() for f in full.regions] == [
            f.lengths for f in lean.regions
        ]
        assert full_timed.metrics == lean_timed.metrics == plain.metrics

    def test_group_lowers_each_region_once_per_worker(self, monkeypatch):
        import repro.driver.pipeline as pipeline
        from repro.sweep.runner import _STORE

        lowerings = []

        def counted(run):
            def lower_region(ctx, region):
                lowerings.append(region.name)
                run(ctx, region)

            return lower_region

        monkeypatch.setattr(
            pipeline,
            "_LOWERING",
            tuple(
                (name, counted(run) if name == "lower-region" else run)
                for name, run in pipeline._LOWERING
            ),
        )
        spec = staged_spec()
        spec.models, spec.schedules = ["gcn"], ["unfused"]
        points = spec.points()
        assert len({p.stage_key() for p in points}) == 1 and len(points) == 4
        records = [run_point(point) for point in points]
        assert all(r["status"] == "ok" for r in records)
        assert not any(r["compile_cache_hit"] for r in records)
        regions = len(points[0].schedule_for(bundle_for(points[0])).regions)
        assert sorted(lowerings) == sorted(set(lowerings)) and len(lowerings) == regions
        assert (_STORE.lowered, _STORE.hits) == (regions, 3 * regions)
        clear_worker_caches()
        assert _STORE._table is None

    def test_signature_mismatch_is_a_miss(self):
        from repro.sweep.runner import _STAGE, _run_point

        point = SweepPoint.make("gcn", schedule="unfused", model_args=SMALL_ARGS)
        want, paid, _ = _run_point(point)
        assert paid == 1
        assert _run_point(dataclasses.replace(point, machine="fpga"))[1] == 0
        run = _STAGE[point.stage_key()]
        _STAGE[point.stage_key()] = dataclasses.replace(run, signature=())
        have, paid, _ = _run_point(point)
        assert paid == 1
        assert have["metrics"] == want["metrics"]


class TestRunner:
    def test_parallel_grid(self, tmp_path):
        """Acceptance: a 12-point grid across 2 models and 2 machines runs
        in parallel worker processes."""
        path = str(tmp_path / "grid.jsonl")
        outcome = run_sweep(small_spec(), store_path=path, workers=3)
        assert outcome.total_points == 12
        assert outcome.ran == 12 and outcome.failed == 0
        pids = {r["worker_pid"] for r in outcome.records}
        assert os.getpid() not in pids, "points must run in worker processes"
        store = ResultStore.open(path)
        assert len(store.records()) == 12
        assert all(r["verified"] for r in store.records())

    def test_resume_skips_completed_points(self, tmp_path):
        path = str(tmp_path / "resume.jsonl")
        spec = small_spec(machines=["rda"])  # 6 points
        store = ResultStore.create(path, spec)
        # Simulate a sweep that died after two points.
        for point in spec.points()[:2]:
            store.append(run_point(point))
        store.close()

        outcome = run_sweep(spec, store_path=path, workers=1, resume=True)
        assert outcome.skipped == 2
        assert outcome.ran == 4
        assert ResultStore.open(path).completed_ids() == {
            p.point_id for p in spec.points()
        }

        # A second resume has nothing left to do.
        again = run_sweep(spec, store_path=path, workers=1, resume=True)
        assert again.ran == 0 and again.skipped == 6

    def test_resume_requires_store_path(self):
        with pytest.raises(ResultStoreError, match="needs store_path"):
            run_sweep(small_spec(), resume=True)

    def test_resume_requires_spec_header(self, tmp_path):
        path = str(tmp_path / "headerless.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "result", "point_id": "a", "status": "ok"}\n')
        with pytest.raises(ResultStoreError, match="no spec header"):
            run_sweep(small_spec(), store_path=path, workers=1, resume=True)

    def test_resume_reruns_failed_points(self, tmp_path):
        path = str(tmp_path / "failed.jsonl")
        spec = small_spec(machines=["rda"])
        store = ResultStore.create(path, spec)
        first = spec.points()[0]
        store.append({"point_id": first.point_id, "status": "error", "error": "boom"})
        store.close()
        outcome = run_sweep(spec, store_path=path, workers=1, resume=True)
        assert outcome.ran == 6  # the failed point is retried
        assert ResultStore.open(path).completed_ids() == {
            p.point_id for p in spec.points()
        }

    def test_inline_runner_without_store(self):
        outcome = SweepRunner(
            small_spec(models=["sae"], machines=["rda"]), workers=1
        ).run()
        assert outcome.ran == 3 and outcome.failed == 0

    def test_progress_callback_sees_every_record(self, tmp_path):
        seen = []
        outcome = run_sweep(
            small_spec(models=["sae"], machines=["rda"]),
            workers=1,
            progress=seen.append,
        )
        assert len(seen) == outcome.ran == 3


class TestResumeSpecGuard:
    def test_spec_fingerprint_stable_and_content_sensitive(self):
        assert small_spec().fingerprint() == small_spec().fingerprint()
        assert (
            small_spec().fingerprint()
            != small_spec(machines=["rda"]).fingerprint()
        )
        # The fingerprint survives a serialization round trip (the resume
        # check compares a live caller spec against a stored header).
        restored = SweepSpec.from_record(small_spec().to_record())
        assert restored.fingerprint() == small_spec().fingerprint()

    def test_spec_required_unless_resuming(self):
        with pytest.raises(ResultStoreError, match="spec is required"):
            run_sweep()

    def test_resume_without_spec_uses_stored_header(self, tmp_path):
        path = str(tmp_path / "res.jsonl")
        spec = small_spec(models=["sae"], machines=["rda"])  # 3 points
        run_sweep(spec, store_path=path, workers=1)
        outcome = run_sweep(store_path=path, workers=1, resume=True)
        assert outcome.ran == 0 and outcome.skipped == 3

    def test_resume_spec_mismatch_raises_naming_both(self, tmp_path):
        path = str(tmp_path / "res.jsonl")
        stored = small_spec(models=["sae"], machines=["rda"])
        run_sweep(stored, store_path=path, workers=1)
        other = small_spec(models=["sae"], machines=["fpga"])
        with pytest.raises(ResultStoreError, match="mismatch") as excinfo:
            run_sweep(other, store_path=path, workers=1, resume=True)
        message = str(excinfo.value)
        assert other.fingerprint()[:16] in message
        assert stored.fingerprint()[:16] in message

    def test_resume_with_equal_spec_still_works(self, tmp_path):
        path = str(tmp_path / "res.jsonl")
        spec = small_spec(models=["sae"], machines=["rda"])
        run_sweep(spec, store_path=path, workers=1)
        # A content-equal (but distinct) spec object passes the check.
        outcome = run_sweep(
            small_spec(models=["sae"], machines=["rda"]),
            store_path=path,
            workers=1,
            resume=True,
        )
        assert outcome.ran == 0 and outcome.skipped == 3


class TestSweepDiskCache:
    def test_cache_dir_populates_and_warm_starts(self, tmp_path):
        from repro.driver import DiskCache
        from repro.sweep.runner import _SESSIONS

        cache_dir = str(tmp_path / "cache")
        spec = small_spec(
            models=["gcn"], machines=["rda"], schedules=["unfused", "partial"]
        )
        try:
            outcome = run_sweep(spec, workers=1, cache_dir=cache_dir)
            assert outcome.failed == 0
            assert DiskCache(cache_dir).info().entries >= 2
            # A cold process (modeled by dropping the per-process session
            # cache) warm-starts its compiles from the disk entries.
            clear_worker_caches()
            again = run_sweep(spec, workers=1, cache_dir=cache_dir)
            assert again.failed == 0
            session = next(iter(_SESSIONS.values()))
            assert session.cache_info().disk_hits >= 2
        finally:
            clear_worker_caches()

    def test_inline_cache_dir_does_not_outlive_the_sweep(self, tmp_path):
        from repro.sweep.runner import _session_for

        cache = tmp_path / "cache"
        spec = small_spec(models=["sae"], machines=["rda"], schedules=["unfused"])
        try:
            assert run_sweep(spec, workers=1, cache_dir=str(cache)).failed == 0
            written = sorted(cache.rglob("*"))
            assert written
            # A session named without a directory has no disk cache, even
            # beside the sweep's sessions still cached in this process.
            assert _session_for("rda", "flat").disk_cache is None
            clear_worker_caches()
            assert _session_for("rda", "flat").disk_cache is None
            point = SweepPoint.make("sae", schedule="partial", model_args=SMALL_ARGS)
            assert run_point(point)["status"] == "ok"
            assert sorted(cache.rglob("*")) == written
        finally:
            clear_worker_caches()


class TestScheduleSweep:
    def test_limit_counts_only_successes(self):
        from repro.core.heuristic.model import stats_from_binding
        from repro.core.schedule.autotune import autotune
        from repro.core.schedule.schedule import Schedule

        bundle = build_bundle(SweepPoint.make("gcn", model_args=SMALL_ARGS))
        bad = Schedule(name="bad", regions=[[0]])  # misses statements
        tuned = autotune(
            bundle.program,
            bundle.binding,
            stats_from_binding(bundle.binding),
            candidates=[bad, *bundle.schedules()],
            budget=2,
        )
        assert tuned.evaluations == 2
        assert tuned.candidates_considered == 3
        assert "bad" not in [name for name, _ in tuned.ranking]
        assert "bad" not in [entry["schedule"] for entry in tuned.search_trace]

    def test_errors_raise_without_skip(self):
        from repro.core.schedule.schedule import Schedule, ScheduleError
        from repro.driver import Session

        bundle = build_bundle(SweepPoint.make("gcn", model_args=SMALL_ARGS))
        session = Session()
        with pytest.raises(ScheduleError):
            for schedule in [Schedule(name="bad", regions=[[0]]), *bundle.schedules()]:
                session.run(bundle.program, bundle.binding, schedule)


class TestReport:
    @pytest.fixture(scope="class")
    def records(self):
        clear_worker_caches()
        spec = small_spec()
        return SweepRunner(spec, workers=1).run().records

    def test_speedups_match_cycles(self, records):
        summary = summarize(records, baseline_schedule="unfused", name="t")
        assert summary["points_ok"] == 12
        assert summary["verified"] is True
        for entry in summary["speedups"]:
            base = entry["cycles"]["unfused"]
            for schedule, speedup in entry["speedup"].items():
                assert speedup == pytest.approx(base / entry["cycles"][schedule])

    @pytest.mark.parametrize("machine", ["rda", "fpga"])
    def test_paper_shape_per_machine(self, records, machine):
        """Partial fusion wins for gcn, full fusion for sae, on each machine."""
        summary = summarize(records, name="t")
        speedup = {
            e["model"]: e["speedup"]
            for e in summary["speedups"]
            if e["machine"] == machine
        }
        assert speedup["gcn"]["partial"] > max(1.0, speedup["gcn"]["full"])
        assert speedup["sae"]["full"] > speedup["sae"]["partial"] > 1.0
        best = summary["best_per_model"]
        assert (best["gcn"]["schedule"], best["sae"]["schedule"]) == ("partial", "full")

    def test_best_per_model_is_minimum(self, records):
        summary = summarize(records, name="t")
        for model, best in summary["best_per_model"].items():
            cycles = [
                r["metrics"]["cycles"]
                for r in records
                if r["point"]["model"] == model
            ]
            assert best["cycles"] == min(cycles)

    def test_failures_are_reported(self, records):
        failing = dict(records[0])
        failing.update(status="error", error="boom", point_id="xyz", label="bad/pt")
        summary = summarize([*records, failing], name="t")
        assert summary["points_failed"] == 1
        assert summary["failures"][0]["error"] == "boom"
        assert "FAILED bad/pt" in render_summary(summary)

    def test_render_contains_tables(self, records):
        text = render_summary(summarize(records, name="t"))
        assert "speedup" in text and "best point" in text
        assert "gcn/synthetic/partial/rda" in text

    def test_groups_split_on_builder_arguments_and_par(self):
        """fig15's 36 points are 12 argument sets x 3 granularities: 12
        speedup groups, each holding its own set's cycles."""
        from repro.reproduce import SPECS

        points = SPECS["fig15"].points()
        records = []
        for n, point in enumerate(points):
            metrics = dict.fromkeys(
                ["compute_utilization", "memory_utilization", "operational_intensity"], 0.0
            )
            metrics.update(cycles=100.0 + n, flops=1, dram_bytes=1)
            records.append(
                {"status": "ok", "point_id": point.point_id, "label": point.label(),
                 "point": point.to_record(), "metrics": metrics,
                 "max_abs_err": 0.0, "verified": True}
            )
        summary = summarize(records, name="fig15")
        assert len(points) == 36 and len(summary["speedups"]) == 12
        cycles = sorted(c for e in summary["speedups"] for c in e["cycles"].values())
        assert cycles == [100.0 + n for n in range(36)]
        assert len({e["model_args"] for e in summary["speedups"]}) == 12
        # par is a group field too.
        par = dataclasses.replace(points[0], par=(("i", 2),))
        records.append(dict(records[0], point=par.to_record(), point_id=par.point_id))
        summary = summarize(records, name="fig15")
        assert len(summary["speedups"]) == 13
        assert "/i=2" in render_summary(summary)

    def test_json_output(self, records, tmp_path):
        summary = summarize(records, name="t")
        json_path = str(tmp_path / "summary.json")
        write_summary_json(summary, json_path)
        with open(json_path) as fh:
            assert json.load(fh)["points_ok"] == 12
