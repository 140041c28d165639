"""Layer probes: time each layer's public functions from outside.

``replay_request`` walks one request's layers in the order the program
walks them — fingerprint, pass pipeline, kernel emission, functional run,
timed engine, verify — calling each layer's public entry point directly
and recording one span per call.  The sum of what it records is compared
with the request's own wall time (``trace.layer_sum_share``): if the two
disagree by more than 10 % the attribution is wrong and the run says so.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Dict, Optional

from harness import (
    ROOT,
    TOLERANCE,
    GuardError,
    Layers,
    Tracer,
    child_env,
    make_session,
    remove_tree,
    scratch_dir,
)


def replay_request(
    tr: Tracer,
    layers: Layers,
    cls: str,
    bundle,
    schedule,
    session,
    *,
    disk_dir: Optional[str] = None,
    executable=None,
) -> float:
    """Replay one class's request layer by layer; returns the summed ms.

    Three shapes of request are replayed.  By default the request compiled
    (fingerprint, pass pipeline, emission) and then ran once on fresh
    graphs.  With ``disk_dir`` its compile was a disk hit: ``get`` takes
    the pipeline's place.  With ``executable`` it was a memory hit on a
    long-lived executable: only fingerprint, run, engine and verify count,
    and they are timed on that executable's own warm graphs (its kernels
    are left alone — ``clear_codegen_caches`` would drop them).

    The pipeline and the emitter are timed in every shape, so their layer
    metrics exist on every workload; they are summed only where the
    request pays them.
    """
    from repro.backend.codegen import (
        artifact_for,
        cached_artifacts,
        clear_codegen_caches,
        codegen_cache_info,
    )
    from repro.comal.engine import run_timed
    from repro.comal.functional import run_functional
    from repro.driver.diskcache import DiskCache, entry_key

    program = bundle.program
    backend = session.cache_key(program, schedule)[3]
    machine = session.machine
    steady = executable is not None
    run_args = dict(backend=backend, debug_streams=False, cache=False)
    total = 0.0
    with tr.span("replay", cls=cls):
        with tr.span("core.einsum.fingerprint") as sp:
            key = session.cache_key(program, schedule)
        layers.add("core.einsum.fingerprint_ms", cls, sp.ms)
        total += sp.ms

        with tr.span("driver.pipeline.run") as piped:
            regions, _decls, diag = session.pipeline.run(program, schedule)
        layers.add("driver.pipeline.run_ms", cls, piped.ms)
        for name, seconds in diag.pass_seconds.items():
            layers.add(f"driver.pass_ms.{name}", cls, seconds * 1e3)
        layers.add("driver.pipeline.regions", cls, len(regions))
        layers.add(
            "driver.pipeline.nodes", cls, sum(r.graph.node_count() for r in regions)
        )
        layers.add("driver.pipeline.order_fallbacks", cls, diag.order_fallbacks())
        if disk_dir is not None:
            dkey = entry_key(*key, machine.hierarchy.describe())
            with tr.span("driver.diskcache.get") as sp:
                entry = DiskCache(disk_dir).get(dkey)
            if entry is None:
                raise GuardError(f"{cls}: no warm entry under the replayed key")
            layers.add("driver.diskcache.get_ms", cls, sp.ms)
            total += sp.ms
            regions = entry["compiled"].regions
        elif steady:
            regions = executable.regions
        else:
            total += piped.ms

        if backend == "codegen":
            if not steady:
                clear_codegen_caches()
            before = codegen_cache_info()
            with tr.span("backend.codegen.prewarm"):
                for region in regions:
                    if artifact_for(region.graph, "columnar").fn is None:
                        artifact_for(region.graph, "token")

        # Chain the regions as execute_compiled does: materialize permuted
        # copies, run, bind the outputs for the regions that follow.  Each
        # region runs three times: first (what a compiling request pays,
        # lazy token-tier emission included), again on the now-warm graph
        # (what a steady request pays), and through the timed engine.
        bind = dict(bundle.binding)
        produced = {}
        first_ms = warm_ms = engine_ms = 0.0
        tokens = 0
        for region in regions:
            graph = region.graph
            for orig, new_name, mode_order in region.transposes:
                if new_name not in bind:
                    bind[new_name] = bind[orig].permuted_copy(mode_order, name=new_name)
            with tr.span(f"backend.first_run.{backend}", region=graph.name) as first:
                run_functional(graph, bind, machine.scratchpad_bytes, **run_args)
            with tr.span(f"backend.run.{backend}", region=graph.name) as warm:
                func = run_functional(graph, bind, machine.scratchpad_bytes, **run_args)
            with tr.span("comal.engine.run_timed", region=graph.name) as timed:
                sim = run_timed(graph, bind, machine, **run_args)
            first_ms += first.ms
            warm_ms += warm.ms
            engine_ms += max(0.0, timed.ms - warm.ms)
            tokens += func.total_tokens()
            bind.update(sim.results)
            produced.update(sim.results)

        emitted = 0.0
        if backend == "codegen":
            emit = {"columnar": 0.0, "token": 0.0}
            pycompile = loc = fallbacks = lazy = 0.0
            for region in regions:
                artifacts = cached_artifacts(region.graph)
                for artifact in artifacts.values():
                    cost = (artifact.emit_seconds + artifact.compile_seconds) * 1e3
                    emit[artifact.tier] += artifact.emit_seconds * 1e3
                    pycompile += artifact.compile_seconds * 1e3
                    loc += artifact.loc
                    fallbacks += 1 if artifact.fn is None else 0
                    # A token kernel beside a columnar one was emitted on
                    # the first run (adaptive dispatch), not at compile.
                    if artifact.tier == "token" and len(artifacts) > 1:
                        lazy += cost
            after = codegen_cache_info()
            layers.add("backend.codegen.emit_ms.columnar", cls, emit["columnar"])
            layers.add("backend.codegen.emit_ms.token", cls, emit["token"])
            layers.add("backend.codegen.pycompile_ms", cls, pycompile)
            layers.add("backend.codegen.loc", cls, loc)
            layers.add("backend.codegen.fallback_regions", cls, fallbacks)
            # Three runs per region above; the request makes one.
            layers.add(
                "backend.codegen.token_dispatches",
                cls,
                (after["token_dispatches"] - before["token_dispatches"]) / 3,
            )
            layers.add(
                "backend.codegen.code_cache_hits",
                cls,
                after["code_hits"] - before["code_hits"],
            )
            emitted = emit["columnar"] + emit["token"] + pycompile
            first_ms -= lazy
        run_ms = warm_ms if steady else first_ms
        layers.add(f"backend.run_ms.{backend}", cls, run_ms)
        if run_ms > 0:
            layers.add(f"backend.ktokens_per_s.{backend}", cls, tokens / run_ms)
        layers.add("comal.functional.tokens", cls, tokens)
        layers.add("comal.engine.timed_ms", cls, engine_ms)
        total += run_ms + engine_ms
        if not steady:
            total += emitted

        with tr.span("models.verify") as sp:
            err = bundle.max_abs_err(SimpleNamespace(tensors=produced))
        if not err < TOLERANCE:
            raise GuardError(f"{cls}: replayed run disagrees with the reference ({err:.2e})")
        layers.add("models.verify_ms", cls, sp.ms)
        total += sp.ms
    return total


def session_probe(tr: Tracer, layers: Layers, cls: str, bundle, schedule, session) -> None:
    """Time ``compile_detailed`` by source, and the disk cache under it.

    Uses sessions configured like ``session`` (backend, machine,
    hierarchy); the disk-hit session reads an entry this probe wrote
    through ``DiskCache.put`` under the key the ``Session`` documents, so a
    wrong key shows up as ``compiled`` and fails the probe.
    """
    from repro.backend.codegen import clear_codegen_caches
    from repro.driver.diskcache import DiskCache, entry_key

    program = bundle.program
    key = session.cache_key(program, schedule)
    backend = key[3]
    options = dict(machine=session.machine, pipeline=session.pipeline)
    root = scratch_dir("probe")
    with tr.span("session_probe", cls=cls):
        clear_codegen_caches()
        fresh = make_session(backend, False, **options)
        with tr.span("driver.session.compile_detailed", source="compiled") as sp:
            exe, source = fresh.compile_detailed(program, schedule)
        _expect(cls, source, "compiled")
        layers.add("driver.session.compile_miss_ms", cls, sp.ms)
        with tr.span("driver.session.compile_detailed", source="memory") as sp:
            _exe, source = fresh.compile_detailed(program, schedule)
        _expect(cls, source, "memory")
        layers.add("driver.session.memory_hit_ms", cls, sp.ms)

        cache = DiskCache(root)
        dkey = entry_key(*key, session.machine.hierarchy.describe())
        entry = {"compiled": exe.compiled, "diagnostics": exe.diagnostics, "meta": {}}
        with tr.span("driver.diskcache.put") as sp:
            stored = cache.put(dkey, entry)
        if not stored:
            raise GuardError(f"{cls}: DiskCache.put refused the entry")
        layers.add("driver.diskcache.put_ms", cls, sp.ms)
        layers.add("driver.diskcache.entry_bytes", cls, os.path.getsize(cache.path_for(dkey)))
        with tr.span("driver.diskcache.get") as sp:
            cache.get(dkey)
        layers.add("driver.diskcache.get_ms", cls, sp.ms)

        clear_codegen_caches()
        warm = make_session(backend, root, **options)
        with tr.span("driver.session.compile_detailed", source="disk") as sp:
            _exe, source = warm.compile_detailed(program, schedule)
        _expect(cls, source, "disk")
        layers.add("driver.session.disk_hit_ms", cls, sp.ms)
    remove_tree(root)


def _expect(cls: str, got: str, want: str) -> None:
    if got != want:
        raise GuardError(f"{cls}: probe expected a {want!r} compile, got {got!r}")


def build_probe(tr: Tracer, layers: Layers, cls: str, point) -> None:
    """``frontend.build_bundle_ms``: trace the model a point describes."""
    from repro.sweep import build_bundle

    with tr.span("frontend.build_bundle", cls=cls) as sp:
        build_bundle(point)
    layers.add("frontend.build_bundle_ms", cls, sp.ms)


def cli_probe(tr: Tracer, layers: Layers) -> None:
    """``cli.import_ms`` / ``cli.run_ms``: subprocess wall of two commands."""
    base = [sys.executable, "-m", "repro.cli"]
    for name, argv in (
        ("cli.import_ms", ["--help"]),
        ("cli.run_ms", ["run", "--model", "gcn", "--fusion", "partial"]),
    ):
        started = time.perf_counter()
        proc = subprocess.run(
            base + argv,
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        ended = time.perf_counter()
        if proc.returncode != 0:
            raise GuardError(f"`fuseflow {' '.join(argv)}` exited {proc.returncode}")
        tr.add(name[:-3], started, ended, "cli")
        layers.set(name, (ended - started) * 1e3)


def program_classes_probe(
    tr: Tracer, layers: Layers, classes: Dict[str, tuple], session_for
) -> Dict[str, float]:
    """Replay + session probe for ``{cls: (point, bundle, schedule)}``.

    Returns class -> summed replay ms (the layer budget of one compile +
    run + verify of that class under ``session_for(cls)``).
    """
    sums = {}
    for cls, (point, bundle, schedule) in classes.items():
        session = session_for(cls)
        build_probe(tr, layers, cls, point)
        sums[cls] = replay_request(tr, layers, cls, bundle, schedule, session)
        session_probe(tr, layers, cls, bundle, schedule, session)
    return sums
