"""One experiment record: every door builds and judges the same SweepPoint.

A ``fuseflow`` CLI invocation, a sweep spec and a ``/v1/*`` serve body all
describe "which experiment" as a :class:`~repro.sweep.spec.SweepPoint`.
These tests pin that the three doors reject a bad ``par`` / ``splits``
value with one message, that a CLI run reports what ``run_point`` of its
point reports, and that the shared bundle cache behaves.
"""

import json
import os
import re
import sys
import threading
from collections import OrderedDict
from dataclasses import replace

import pytest

import repro.cli as cli
from repro.serve import ServeError, parse_request
from repro.sweep import (
    SweepPoint,
    SweepSpec,
    SweepSpecError,
    bundle_for,
    run_point,
)
from repro.sweep.runner import clear_worker_caches

GCN_SMALL = ["--nodes", "24", "--density", "0.1"]
FLAGS = {"par": "--par", "splits": "--split"}


def _cli_door(field, index, text):
    cli.main(["run", "--model", "gcn", *GCN_SMALL, FLAGS[field], f"{index}={text}"])


def _spec_door(field, index, value):
    config = {index: value}
    SweepSpec.from_record(
        {
            "models": ["gcn"],
            "machines": ["rda"],
            "schedules": ["partial"],
            "model_args": {"nodes": 24, "density": 0.1},
            field: config if field == "par" else [config],
        }
    ).points()


def _serve_door(field, index, value):
    body = {"model": "gcn", "model_args": {"nodes": 24}, field: {index: value}}
    parse_request(json.dumps(body).encode(), "simulate")


def _message(field, index, value):
    if field == "par":
        kind, noun = "parallelization", "parallelization factor"
    else:
        kind, noun = "split", "split tile count"
    if not index:
        return f"{kind} index names must be non-empty strings, got ''"
    return f"{noun} for {index!r} must be an int >= 1, got {value!r}"


class TestFactorsValidatedAtEveryDoor:
    @pytest.mark.parametrize("field", ["par", "splits"])
    @pytest.mark.parametrize(
        "index, value", [("x1", 0), ("x9", 0), ("x1", -2), ("", 4)]
    )
    def test_same_message_through_all_three_doors(self, field, index, value):
        message = _message(field, index, value)
        with pytest.raises(SystemExit) as cli_exit:
            _cli_door(field, index, str(value))
        assert str(cli_exit.value) == message
        with pytest.raises(SweepSpecError) as spec_error:
            _spec_door(field, index, value)
        assert str(spec_error.value) == message
        with pytest.raises(ServeError) as serve_error:
            _serve_door(field, index, value)
        assert str(serve_error.value) == message

    @pytest.mark.parametrize("field", ["par", "splits"])
    @pytest.mark.parametrize("value", [True, 2.7, "4"])
    def test_non_int_factors_are_rejected_not_coerced(self, field, value):
        """JSON can say true, 2.7 or "4"; nothing turns them into 1, 2, 4."""
        message = _message(field, "x1", value)
        with pytest.raises(SweepSpecError, match=re.escape(message)):
            _spec_door(field, "x1", value)
        with pytest.raises(ServeError, match=re.escape(message)):
            _serve_door(field, "x1", value)
        # The CLI reads text: anything but an integer literal is a usage error.
        unit = "factor" if field == "par" else "tiles"
        with pytest.raises(SystemExit, match=f"{FLAGS[field]} expects index={unit}"):
            _cli_door(field, "x1", json.dumps(value))

    def test_cli_usage_error_is_not_a_traceback(self):
        with pytest.raises(SystemExit, match=r"--par expects index=factor.*'x1=abc'"):
            _cli_door("par", "x1", "abc")

    def test_one_text_parser_for_all_flags(self):
        assert cli._factors(["x1=4,x7=2", "x9=8"], "--split") == {
            "x1": 4, "x7": 2, "x9": 8,
        }
        assert cli._factors(["none"], "--splits") == {}
        assert cli._factors(["i=2", "j=4"], "--par") == {"i": 2, "j": 4}


class TestCliParity:
    """A CLI run at the defaults reports what ``run_point`` of its point does."""

    @pytest.mark.parametrize(
        "model, extra, cycles, dram_bytes",
        [
            ("gcn", [], 29264, 49296),
            ("gcn", GCN_SMALL, 3794, 9240),
            ("graphsage", [], 29264, 69616),
            ("sae", [], 37348, 102968),
            ("gpt3", [], 1951, 107896),
        ],
    )
    def test_run_matches_run_point(
        self, model, extra, cycles, dram_bytes, capsys, monkeypatch
    ):
        build_point = cli._point
        built = []

        def spy(*args, **kwargs):
            built.append(build_point(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "_point", spy)
        assert cli.main(["run", "--model", model, *extra]) == 0
        out = capsys.readouterr().out
        assert f"cycles     : {cycles}\n" in out
        assert f"dram bytes : {dram_bytes}\n" in out
        (point,) = built
        if not extra:
            # The argparse defaults travel as explicit model arguments.
            assert dict(point.model_args) == {
                "nodes": 120, "density": 0.04, "seq_len": 32, "d_model": 8,
                "block": 8,
            }
        record = run_point(point)
        assert record["status"] == "ok", record.get("error")
        assert f"{record['metrics']['cycles']:.0f}" == str(cycles)
        assert record["metrics"]["dram_bytes"] == dram_bytes


class TestSharedBundles:
    def setup_method(self):
        clear_worker_caches()

    def test_points_share_one_trace(self):
        point = SweepPoint.make("sae", model_args={"nodes": 16})
        bundle = bundle_for(point)
        assert bundle_for(replace(point, schedule="full", machine="fpga")) is bundle
        # Arguments the builder does not read do not fork the trace.
        noisy = SweepPoint.make("sae", model_args={"nodes": 16, "density": 0.5})
        assert bundle_for(noisy) is bundle
        assert bundle_for(SweepPoint.make("sae", model_args={"nodes": 24})) is not bundle
        clear_worker_caches()
        assert bundle_for(point) is not bundle

    def test_concurrent_callers_share_the_incumbent(self):
        """More threads than cores race to trace one model; all of them
        must come back with the one stored bundle."""
        point = SweepPoint.make("sae", model_args={"nodes": 12, "seed": 3})
        count = min(32, (os.cpu_count() or 2) + 2)
        start = threading.Barrier(count)
        got = []

        def trace():
            start.wait(timeout=60)
            got.append(bundle_for(point))

        threads = [threading.Thread(target=trace) for _ in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == count
        assert all(bundle is bundle_for(point) for bundle in got)

    def test_bundle_cache_is_a_bounded_lru(self, monkeypatch):
        """300 distinct bodies leave 256 bundles; a hot one survives."""
        from repro.sweep import spec

        # Stub bundles in a private cache, so no other test can see them.
        monkeypatch.setattr(spec, "_BUNDLES", OrderedDict())
        monkeypatch.setattr(spec, "build_bundle", lambda point: object())

        def point(seed):
            return SweepPoint.make("sae", model_args={"nodes": 12, "seed": seed})

        hot = bundle_for(point(0))
        for seed in range(1, 300):
            bundle_for(point(seed))
            assert bundle_for(point(0)) is hot  # a hit moves it to the end
        assert len(spec._BUNDLES) == 256
        # The least recently used went first: seeds 1..44 are gone.
        seeds = [dict(key[2])["seed"] for key in spec._BUNDLES]
        assert seeds == list(range(45, 300)) + [0]

    def test_schedule_for_applies_par_and_splits(self):
        point = SweepPoint.make(
            "gcn", schedule="unfused", model_args={"nodes": 24, "density": 0.1},
            par={"x1": 2}, splits={"x4": 4},
        )
        bundle = bundle_for(point)
        schedule = point.schedule_for(bundle)
        assert schedule.par == {"x1": 2} and schedule.splits == {"x4": 4}
        assert schedule.regions == bundle.schedule("unfused").regions
        # A fresh schedule each call: mutating one never leaks into the next.
        schedule.par["x1"] = 8
        assert point.schedule_for(bundle).par == {"x1": 2}
