"""Backend subsystem tests: selection, caching, tiers, and errors.

Covers the :mod:`repro.backend` contract end to end:

* the resolution rule (explicit ``backend`` > ``FUSEFLOW_BACKEND`` >
  ``"columnar"``), applied once per Session;
* the compile cache incorporating backend identity — the *same* program
  under another backend must miss a warm cache and yield a distinct
  executable (the regression satellite of PR 6);
* codegen artifact/source caching and its counters;
* out-of-tree primitives the emitter has never heard of, emitted in both
  tiers as a call to the primitive itself;
* generated-kernel exceptions re-raised with node id + region context.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    artifact_for,
    codegen_cache_info,
    resolve_backend_name,
)
from repro.backend.codegen import cached_artifacts, clear_codegen_caches
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.einsum.parser import parse_program
from repro.driver import Session
from repro.ftree import SparseTensor, csr, dense
from repro.sam.graph import SAMGraph
from repro.sam.primitives.base import Primitive
from repro.sam.primitives.scanner import CrdSource, LevelScanner, Root
from repro.sam.primitives.writer import TensorWriter
from repro.sam.token import (
    VAL,
    StreamProtocolError,
    crd,
    done,
    stop,
    streams_equal,
    val,
)
from repro.sweep import build_bundle
from repro.sweep.spec import SweepPoint, SweepSpecError

_PROGRAM = (
    "tensor A(4, 5): csr\n"
    "tensor X(5, 3): dense\n"
    "T(i, j) = A(i, k) * X(k, j)"
)


def _program_and_binding(seed=0):
    program = parse_program(_PROGRAM)
    rng = np.random.default_rng(seed)
    a = rng.random((4, 5)) * (rng.random((4, 5)) < 0.5)
    x = rng.random((5, 3))
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
    }
    return program, binding


@pytest.fixture
def clean_env(monkeypatch):
    """No backend-related environment override."""
    monkeypatch.delenv("FUSEFLOW_BACKEND", raising=False)
    return monkeypatch


# ----------------------------------------------------------------------
# Resolution precedence
# ----------------------------------------------------------------------


class TestResolution:
    def test_default_is_columnar(self, clean_env):
        assert resolve_backend_name() == "columnar"

    def test_env_selects_backend(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        assert resolve_backend_name() == "codegen"

    def test_backend_arg_beats_everything(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        assert resolve_backend_name("interp") == "interp"

    def test_name_is_normalized(self):
        assert resolve_backend_name("  Codegen ") == "codegen"

    @pytest.mark.parametrize("bad", ["fancy", "cpp", "numba"])
    def test_unknown_backend_rejected(self, bad):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name(bad)

    def test_unknown_env_backend_rejected(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "fancy")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name()

    def test_session_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(machine=RDA_MACHINE, backend="fancy")

    def test_sweep_point_validates_backend(self):
        point = SweepPoint.make("gcn", backend="fancy")
        with pytest.raises(SweepSpecError, match="unknown backend"):
            point.validate()
        for name in BACKEND_NAMES:
            SweepPoint.make("gcn", backend=name).validate()

    def test_backend_only_in_fingerprint_when_set(self):
        base = SweepPoint.make("gcn")
        same = SweepPoint.make("gcn", backend="")
        flipped = SweepPoint.make("gcn", backend="codegen")
        assert base.point_id == same.point_id
        assert flipped.point_id != base.point_id
        assert "backend:codegen" in flipped.label()
        assert "backend" not in base.label()


# ----------------------------------------------------------------------
# Compile cache x backend identity (the warm-cache flip regression)
# ----------------------------------------------------------------------


class TestCompileCache:
    def test_backend_flip_misses_warm_cache(self, clean_env, tmp_path):
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, disk_cache=str(tmp_path))
        exe_columnar = session.compile(program)
        assert exe_columnar.backend == "columnar"
        assert session.compile(program) is exe_columnar  # warm hit

        # Flipping the environment backend must miss the warm (disk)
        # cache: a session built after the flip is a codegen session, and
        # the cached columnar entry must not be served to it.
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        flipped = Session(machine=RDA_MACHINE, disk_cache=str(tmp_path))
        exe_codegen, source = flipped.compile_detailed(program)
        assert source == "compiled"
        assert exe_codegen is not exe_columnar
        assert exe_codegen.backend == "codegen"
        assert exe_codegen.diagnostics.backend == "codegen"

        # The first session resolved its backend when it was built; both
        # stay warm under their own identity.
        assert session.compile(program) is exe_columnar
        assert flipped.compile(program) is exe_codegen
        clean_env.delenv("FUSEFLOW_BACKEND")
        warm = Session(machine=RDA_MACHINE, disk_cache=str(tmp_path))
        assert warm.compile_detailed(program)[1] == "disk"

    def test_explicit_session_backend_beats_env(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "interp")
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        assert session.compile(program).backend == "codegen"

    def test_executables_of_all_backends_agree(self, clean_env):
        program, binding = _program_and_binding()
        tensors = {}
        for name in BACKEND_NAMES:
            session = Session(
                machine=RDA_MACHINE, backend=name, sim_cache=False
            )
            exe = session.compile(program)
            assert exe.backend == name
            tensors[name] = exe(binding).tensors["T"].to_dense()
        assert np.array_equal(tensors["columnar"], tensors["interp"])
        assert np.array_equal(tensors["columnar"], tensors["codegen"])


# ----------------------------------------------------------------------
# Codegen artifact + source caches
# ----------------------------------------------------------------------


class TestCodegenCaches:
    def test_artifact_cached_per_graph(self, clean_env):
        clear_codegen_caches()
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        first = artifact_for(graph)
        assert first is artifact_for(graph)
        info = codegen_cache_info()
        assert info["artifact_misses"] >= 1
        assert info["artifact_hits"] >= 2  # prewarm miss, then two hits

    def test_source_cache_dedups_across_graphs(self, clean_env):
        clear_codegen_caches()
        program, _ = _program_and_binding()
        exe_a = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        exe_b = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        art_a = artifact_for(exe_a.regions[0].graph)
        art_b = artifact_for(exe_b.regions[0].graph)
        assert art_a is not art_b  # distinct graphs, distinct artifacts
        assert art_a.source == art_b.source
        assert art_a.sha == art_b.sha
        assert art_b.code_cached  # identical source compiled once
        assert codegen_cache_info()["code_hits"] >= 1

    def test_prewarm_fills_diagnostics(self, clean_env):
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        exe = session.compile(program)
        assert exe.diagnostics.backend == "codegen"
        for region in exe.diagnostics.regions:
            assert region.codegen_loc > 0
            assert region.codegen_seconds >= 0.0
        assert "backend codegen" in exe.diagnostics.describe()


# ----------------------------------------------------------------------
# Out-of-tree primitives: emitted as a call to the primitive itself
# ----------------------------------------------------------------------


class _Doubler(Primitive):
    """A primitive the codegen emitter has never heard of."""

    kind = "doubler2x"
    in_ports = ("a",)

    def process(self, ins, ctx, stats):
        out = []
        for kind, payload in ins["a"]:
            stats.tokens_in += 1
            if kind == VAL:
                out.append(val(payload * 2.0))
                stats.ops += 1
            else:
                out.append((kind, payload))
            stats.tokens_out += 1
        return {"out": out}


def _doubler_graph():
    graph = SAMGraph("exotic")
    src = graph.add(
        CrdSource([val(1.0), val(2.5), stop(0), val(-3.0), done()], "v"),
        node_id="src",
    )
    graph.add(_Doubler(), {"a": graph.port(src)}, node_id="dbl")
    return graph


class TestFallback:
    """Nothing is unemittable: an unknown kind never leaves codegen."""

    def test_unknown_primitive_emits_in_both_tiers(self):
        graph = _doubler_graph()
        for tier, method in (
            ("token", "process"), ("columnar", "process_columnar")
        ):
            artifact = artifact_for(graph, tier)
            assert artifact.fn is not None and artifact.loc > 0
            assert f".{method}({{'a': s0_out}}, _ctx, _st)" in artifact.source
            assert "# -- dbl: doubler2x --" in artifact.source

    def test_fallback_execution_matches_interpreter(self, force_tier):
        reference = run_functional(
            _doubler_graph(), {}, backend="interp", debug_streams=True,
            cache=False,
        )
        for tier in ("token", "columnar"):
            force_tier(tier)
            graph = _doubler_graph()
            via_codegen = run_functional(
                graph, {}, backend="codegen", debug_streams=True, cache=False
            )
            assert cached_artifacts(graph)[tier].runs == 1
            assert set(cached_artifacts(graph)) == {tier}
            assert set(via_codegen.streams) == set(reference.streams)
            for key in reference.streams:
                assert streams_equal(
                    via_codegen.streams[key], reference.streams[key]
                ), (tier, key)
            assert via_codegen.stats == reference.stats, tier


# ----------------------------------------------------------------------
# Generated-kernel exception context
# ----------------------------------------------------------------------


class TestKernelErrors:
    def _scan_graph(self):
        graph = SAMGraph("kerr")
        root = graph.add(Root(), node_id="root")
        graph.add(
            LevelScanner("A", 0),
            {"ref": graph.port(root, "ref")},
            node_id="scan",
        )
        return graph

    def test_missing_tensor_keeps_keyerror_with_context(self):
        graph = self._scan_graph()
        with pytest.raises(KeyError) as excinfo:
            run_functional(graph, {}, backend="codegen", cache=False)
        message = str(excinfo.value)
        assert "tensor 'A' not bound" in message
        assert "codegen kernel, region 'kerr'" in message
        assert "node scan" in message

    def test_protocol_error_keeps_type_and_message(self):
        graph = SAMGraph("badproto")
        graph.add(CrdSource([crd(0)], "s"), node_id="src")  # no done token
        with pytest.raises(StreamProtocolError) as excinfo:
            run_functional(
                graph, {}, backend="codegen", debug_streams=True, cache=False
            )
        message = str(excinfo.value)
        # The interpreter's own diagnostic survives...
        assert "node src" in message
        # ...and the codegen layer appends where it happened.
        assert "codegen kernel, region 'badproto'" in message

    def test_checks_off_matches_interpreter_leniency(self):
        # With debug_streams off the malformed stream flows through, same
        # as the interpreter paths.
        graph = SAMGraph("lenient")
        graph.add(CrdSource([crd(0)], "s"), node_id="src")
        res = run_functional(
            graph, {}, backend="codegen", debug_streams=False, cache=False
        )
        assert len(res.stream("src")) == 1


class TestSharedKernelErrors:
    """Two regions, one code object: errors still name the right region.

    Emission is name-free, so structurally identical regions share the
    code object the *first* one compiled.  Everything an error message
    carries — region, node, tensor — must come from the region that
    raised, never from the one that happened to compile the kernel.
    """

    @staticmethod
    def _scan_graph(region, tensor):
        graph = SAMGraph(region)
        root = graph.add(Root(), node_id="root")
        graph.add(
            LevelScanner(tensor, 0),
            {"ref": graph.port(root, "ref")},
            node_id="scan",
        )
        return graph

    @staticmethod
    def _writer_graph(region, tensor):
        # Two coordinates against one value: a fan-out mismatch the writer
        # reports by name.
        graph = SAMGraph(region)
        crds = graph.add(
            CrdSource([crd(0), crd(1), stop(0), done()], "c"), node_id="crds"
        )
        vals = graph.add(
            CrdSource([val(1.0), stop(0), done()], "v"), node_id="vals"
        )
        graph.add(
            TensorWriter(tensor, (4,), dense(1)),
            {"crd0": graph.port(crds), "val": graph.port(vals)},
            node_id="write",
        )
        return graph

    @pytest.mark.parametrize("tier", ["token", "columnar"])
    def test_unbound_tensor_in_second_region(self, tier, force_tier):
        force_tier(tier)
        clear_codegen_caches()
        first = self._scan_graph("first", "A")
        second = self._scan_graph("second", "B")
        a = SparseTensor.from_dense(np.ones(3), dense(1), "A")
        run_functional(first, {"A": a}, backend="codegen", cache=False)
        with pytest.raises(KeyError) as excinfo:
            run_functional(second, {"A": a}, backend="codegen", cache=False)
        message = str(excinfo.value)
        assert "tensor 'B' not bound" in message
        assert "[codegen kernel, region 'second', node scan]" in message
        assert "first" not in message
        shared = artifact_for(second, tier)
        assert shared.code_cached
        assert shared.sha == artifact_for(first, tier).sha
        assert "'A'" not in shared.source and "'B'" not in shared.source

    @pytest.mark.parametrize("tier", ["token", "columnar"])
    def test_protocol_error_in_second_region(self, tier, force_tier):
        force_tier(tier)
        clear_codegen_caches()
        graphs = {
            name: self._writer_graph(region, name)
            for region, name in (("first", "W"), ("second", "V"))
        }
        for name, region in (("W", "first"), ("V", "second")):
            with pytest.raises(StreamProtocolError) as excinfo:
                run_functional(
                    graphs[name], {}, backend="codegen", cache=False
                )
            message = str(excinfo.value)
            assert f"writer {name}: level 0 crd/val fan-out" in message
            assert f"[codegen kernel, region {region!r}, node write]" in message
        shared = artifact_for(graphs["V"], tier)
        assert shared.code_cached
        assert shared.sha == artifact_for(graphs["W"], tier).sha

    def test_linecache_name_carries_no_region(self, clean_env):
        import linecache

        clear_codegen_caches()
        graph = self._scan_graph("first", "A")  # pins the registration
        artifact = artifact_for(graph)
        filename = f"<fuseflow-codegen {artifact.sha[:12]}>"
        assert artifact.fn.__code__.co_filename == filename
        assert linecache.getline(filename, 1).startswith("def _region_kernel")


class TestSharedKernelErrorsFromDisk(TestSharedKernelErrors):
    """The same contract when no kernel was compiled in this process.

    A warm directory already holds every kernel these tests emit; each
    test then starts as a restarted process would (empty in-memory
    caches) with that directory as its kernel store, so the code objects
    raising the errors were unmarshalled, not compiled — region, node and
    tensor still come from the region that raised, and tracebacks still
    show kernel source lines.
    """

    @pytest.fixture(autouse=True)
    def _kernels_come_from_disk(self, tmp_path, monkeypatch):
        import builtins

        import repro.backend.codegen as cg
        from repro.driver import DiskCache

        store = DiskCache(str(tmp_path))
        real = cg._compile_artifact
        clear_codegen_caches()
        for graph in (self._scan_graph("w", "Z"), self._writer_graph("w", "Z")):
            graph.ensure_validated()
            for tier in ("token", "columnar"):
                real(graph, graph.topological_order(), tier, store)
        assert store.info().kernels == 4
        monkeypatch.setattr(
            cg,
            "_compile_artifact",
            lambda graph, order, tier, _none: real(graph, order, tier, store),
        )
        real_compile = builtins.compile

        def no_kernel_compiles(source, filename, *args, **kwargs):
            assert not str(filename).startswith("<fuseflow-codegen ")
            return real_compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", no_kernel_compiles)
        yield
        info = codegen_cache_info()
        assert info["code_disk_hits"] == info["code_misses"] == 1

    def test_traceback_shows_kernel_source_lines(self, force_tier):
        import traceback

        force_tier("columnar")
        clear_codegen_caches()
        graph = self._scan_graph("second", "B")
        with pytest.raises(KeyError) as excinfo:
            run_functional(graph, {}, backend="codegen", cache=False)
        assert artifact_for(graph, "columnar").origin == "disk"
        text = "".join(traceback.format_exception(excinfo.value.__cause__))
        assert 'File "<fuseflow-codegen ' in text
        assert "_get_tensor(binding, _T0)" in text


# ----------------------------------------------------------------------
# Name-free emission + tier chosen before emission
# ----------------------------------------------------------------------

_GPT3_TWO_LAYERS = {
    "seq_len": 16, "d_model": 8, "block": 4, "n_layers": 2, "seed": 0,
}


@pytest.fixture
def default_tiering(clean_env):
    """Default tier selection over empty codegen caches."""
    clear_codegen_caches()
    return clean_env


class TestKernelSharing:
    def _compile_gpt3(self, **session_args):
        bundle = build_bundle(
            SweepPoint.make("gpt3", model_args=_GPT3_TWO_LAYERS)
        )
        session = Session(
            machine=RDA_MACHINE, backend="codegen", **session_args
        )
        exe, source = session.compile_detailed(
            bundle.program, bundle.schedule("unfused")
        )
        return bundle, exe, source

    def test_identical_layers_compile_once(self, default_tiering):
        _, exe, _ = self._compile_gpt3()
        regions = exe.diagnostics.regions
        shas = {region.codegen_sha for region in regions}
        assert all(shas) and len(shas) * 3 <= len(regions)
        info = codegen_cache_info()
        assert info["code_hits"] * 2 >= len(regions)
        assert info["code_misses"] == len(shas)
        # Shared regions still report the lines *they* emitted and are
        # marked; only compile() was skipped.
        shared = [region for region in regions if region.codegen_cached]
        assert len(shared) == info["code_hits"]
        assert all(region.codegen_loc > 0 for region in shared)
        for region in exe.regions:
            (artifact,) = cached_artifacts(region.graph).values()
            assert artifact.loc == artifact.source.count("\n") > 0
            assert artifact.code_cached == (artifact.compile_seconds == 0)
        summary = exe.diagnostics.codegen_summary()
        assert summary == (
            f"{len(regions)} region(s), {len(shas)} distinct kernel(s), "
            f"{len(shared)} shared, 0 from disk"
        )
        assert f"codegen: {summary}" in exe.diagnostics.describe()
        assert "(shared kernel " in exe.diagnostics.describe()

    def test_declared_blocked_regions_emit_token_only(self, default_tiering):
        bundle, exe, _ = self._compile_gpt3()
        for when in ("compiled", "run"):
            for region in exe.regions:
                assert set(cached_artifacts(region.graph)) == {"token"}, when
            exe(bundle.binding)
        assert {r.codegen_tier for r in exe.diagnostics.regions} == {"token"}
        # Every run was a token-tier decision; none emitted a second tier.
        assert codegen_cache_info()["token_dispatches"] >= len(exe.regions)

    def test_cutoff_zero_still_forces_columnar(
        self, default_tiering, force_tier
    ):
        force_tier("columnar")
        bundle, exe, _ = self._compile_gpt3()
        exe(bundle.binding)
        for region in exe.regions:
            assert set(cached_artifacts(region.graph)) == {"columnar"}
        assert codegen_cache_info()["token_dispatches"] == 0

    def test_explicit_columnar_artifact_for_a_blocked_region(
        self, default_tiering
    ):
        # Profilers and the traced replay name their tier; the decision
        # only governs what compile and run pick for themselves.
        _, exe, _ = self._compile_gpt3()
        graph = exe.regions[0].graph
        columnar = artifact_for(graph, "columnar")
        assert columnar.tier == "columnar" and columnar.fn is not None
        assert set(cached_artifacts(graph)) == {"columnar", "token"}

    def test_short_streams_emit_token_at_first_run_only(self, default_tiering):
        bundle = build_bundle(
            SweepPoint.make("sae", model_args={"nodes": 16, "seed": 0})
        )
        session = Session(machine=RDA_MACHINE, backend="codegen")
        exe = session.compile(bundle.program, bundle.schedule("unfused"))
        # Nothing declared blocked and no binding yet: columnar only.
        for region in exe.regions:
            assert set(cached_artifacts(region.graph)) == {"columnar"}
        exe(bundle.binding)
        tiers = [cached_artifacts(region.graph) for region in exe.regions]
        lazily = [t for t in tiers if "token" in t]
        assert lazily, "no sae region fell under the small-stream cutoff"
        for artifacts in lazily:
            assert artifacts["token"].runs == 1
            assert artifacts["columnar"].runs == 0
        for artifacts in tiers:
            if "token" not in artifacts:
                assert artifacts["columnar"].runs == 1

    def test_disk_hit_shares_kernels_too(self, default_tiering, tmp_path):
        _, cold, source = self._compile_gpt3(disk_cache=str(tmp_path))
        assert source == "compiled"
        cold_info = codegen_cache_info()
        # A restarted process: nothing compiled yet, the entry on disk.
        clear_codegen_caches()
        _, warm, source = self._compile_gpt3(disk_cache=str(tmp_path))
        assert source == "disk"
        info = codegen_cache_info()
        assert info["code_hits"] == cold_info["code_hits"] > 0
        assert info["code_misses"] == cold_info["code_misses"]
        for region in warm.regions:
            assert set(cached_artifacts(region.graph)) == {"token"}
        assert [r.codegen_sha for r in warm.diagnostics.regions] == [
            r.codegen_sha for r in cold.diagnostics.regions
        ]

    def test_disk_hit_loads_kernels_and_says_so(self, default_tiering, tmp_path):
        bundle, _, _ = self._compile_gpt3(disk_cache=str(tmp_path))
        clear_codegen_caches()
        _, warm, source = self._compile_gpt3(disk_cache=str(tmp_path))
        assert source == "disk"
        regions = warm.diagnostics.regions
        shas = {region.codegen_sha for region in regions}
        loaded = [r for r in regions if r.codegen_origin == "disk"]
        info = codegen_cache_info()
        assert len(loaded) == len(shas) == info["code_disk_hits"]
        assert info["code_disk_writes"] == 0
        assert {r.codegen_origin for r in regions} == {"disk", "memory"}
        assert warm.diagnostics.codegen_summary().endswith(
            f"{len(shas)} distinct kernel(s), "
            f"{len(regions) - len(shas)} shared, {len(shas)} from disk"
        )
        assert warm.diagnostics.describe().count(" from disk)") == len(shas)
        for region in warm.regions:
            (artifact,) = cached_artifacts(region.graph).values()
            # Load time is reported as such; only a memory hit reads 0.
            assert (artifact.compile_seconds == 0) == (artifact.origin == "memory")
        assert bundle.max_abs_err(warm(bundle.binding)) < 1e-9

    def test_shared_source_released_with_its_last_graph(self, default_tiering):
        import gc
        import linecache

        # Two regions that differ only in tensor names share one source.
        program = parse_program(
            "tensor A(4, 5): csr\ntensor X(5, 3): dense\n"
            "tensor B(4, 5): csr\ntensor Y(5, 3): dense\n"
            "T(i, j) = A(i, k) * X(k, j)\n"
            "U(i, j) = B(i, k) * Y(k, j)"
        )
        session = Session(machine=RDA_MACHINE, backend="codegen")
        exe = session.compile(program)
        first, second = (region.graph for region in exe.regions)
        sha = artifact_for(first).sha
        assert artifact_for(second).sha == sha
        filename = f"<fuseflow-codegen {sha[:12]}>"
        del exe, session
        gc.collect()
        assert codegen_cache_info()["retained_sources"] == 1
        del first
        gc.collect()
        info = codegen_cache_info()
        assert (info["retained_sources"], info["code_files"]) == (1, 1)
        assert linecache.getline(filename, 1)
        del second
        gc.collect()
        info = codegen_cache_info()
        assert (info["retained_sources"], info["code_files"]) == (0, 0)
        assert not linecache.getline(filename, 1)


# ----------------------------------------------------------------------
# Emission tiers (token vs columnar) and adaptive dispatch
# ----------------------------------------------------------------------


class TestEmissionTiers:
    def test_tiers_cached_independently(self, clean_env):
        from repro.backend.codegen import cached_artifacts

        clear_codegen_caches()
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        col = artifact_for(graph, "columnar")
        tok = artifact_for(graph, "token")
        assert col.tier == "columnar"
        assert tok.tier == "token"
        assert col is not tok
        assert col.sha != tok.sha
        # Stable per (graph, tier): repeated lookups are cache hits.
        assert col is artifact_for(graph, "columnar")
        assert tok is artifact_for(graph, "token")
        assert cached_artifacts(graph) == {"columnar": col, "token": tok}

    def test_unknown_tier_rejected(self, clean_env):
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        with pytest.raises(ValueError, match="unknown codegen tier"):
            artifact_for(exe.regions[0].graph, "simd")

    def test_both_tiers_match_the_interpreter(self, clean_env, force_tier):
        # Forced columnar (cutoff 0 disables the tier decision) and forced
        # token (a cutoff no input reaches) both reproduce the columnar
        # interpreter exactly.
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        want = run_functional(
            graph, binding, backend="columnar", cache=False
        )
        for tier in ("columnar", "token"):
            force_tier(tier)
            clear_codegen_caches()
            have = run_functional(
                graph, binding, backend="codegen", cache=False
            )
            assert cached_artifacts(graph)[tier].runs == 1
            for key in want.streams:
                assert streams_equal(have.streams[key], want.streams[key]), (
                    tier,
                    key,
                )
            for node_id, stats in want.stats.items():
                assert have.stats[node_id].tokens_out == stats.tokens_out, tier

    def test_node_without_columnar_body_is_a_process_columnar_call(
        self, clean_env, monkeypatch, force_tier
    ):
        # Deleting one _cemit_ handler leaves the node emitted as a call
        # to the primitive's own columnar kernel, and the region's kernel
        # bit-exact.
        from repro.backend.codegen import _ColumnarEmitter

        monkeypatch.delattr(_ColumnarEmitter, "_cemit_alu")
        clear_codegen_caches()
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        artifact = artifact_for(graph, "columnar")
        # The other nodes' own objs escapes are guarded ("if ….objs is
        # not None:"); the alu's call is the node's whole block.
        blocks = artifact.source.split("\n\n")
        (alu,) = [block for block in blocks if ": alu(" in block]
        assert ".process_columnar(" in alu and "objs" not in alu
        assert ".to_tokens()" not in artifact.source
        want = run_functional(
            graph, binding, backend="columnar", cache=False
        )
        force_tier("columnar")
        have = run_functional(graph, binding, backend="codegen", cache=False)
        assert cached_artifacts(graph)["columnar"].runs == 1
        for key in want.streams:
            assert streams_equal(have.streams[key], want.streams[key]), key
        assert have.stats == want.stats
        clear_codegen_caches()

    def test_token_source_is_one_process_call_per_node(self, clean_env):
        # The token tier re-expresses no primitive: per node one call to
        # the primitive's own process, and no loop over tokens anywhere.
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        source = artifact_for(graph, "token").source
        assert source.count(".process(") == len(graph.nodes)
        assert "for " not in source and "while " not in source
        assert "process_columnar" not in source

    def test_small_streams_dispatch_to_token_tier(self, clean_env, force_tier):
        force_tier("token")
        clear_codegen_caches()
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        before = codegen_cache_info()["token_dispatches"]
        have = run_functional(graph, binding, backend="codegen", cache=False)
        assert codegen_cache_info()["token_dispatches"] == before + 1
        want = run_functional(
            graph, binding, backend="columnar", cache=False
        )
        for key in want.streams:
            assert streams_equal(have.streams[key], want.streams[key]), key

    def test_probe_flags_blocked_payloads(self):
        from repro.backend.codegen import _probe_size

        # The graph-level probe: names the region reads + source-stream floor.
        probe = (("A",), 3)

        class _T:
            pass

        flat = _T()
        flat.values = np.zeros(7)
        assert _probe_size(probe, {"A": flat}) == (10, False)
        blocked = _T()
        blocked.values = np.zeros((4, 2, 2))
        assert _probe_size(probe, {"A": blocked}) == (19, True)
        # Unbound probe tensors contribute nothing (and do not raise).
        assert _probe_size(probe, {}) == (3, False)


# ----------------------------------------------------------------------
# Bounded linecache registration
# ----------------------------------------------------------------------


class TestLinecacheBounds:
    def test_sources_unregister_when_graph_collected(self, clean_env):
        import gc
        import linecache

        clear_codegen_caches()
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        exe = session.compile(program)
        graph = exe.regions[0].graph
        artifact = artifact_for(graph)
        filename = f"<fuseflow-codegen {artifact.sha[:12]}>"
        assert linecache.getline(filename, 1)  # source is registered
        assert codegen_cache_info()["retained_sources"] >= 1
        # Drop every strong reference to the compiled program (the session
        # compile cache holds the graphs alive) and collect.
        del exe, graph, artifact, session
        gc.collect()
        info = codegen_cache_info()  # drains pending finalizer releases
        assert info["retained_sources"] == 0
        assert info["code_files"] == 0
        assert not linecache.getline(filename, 1)


# ----------------------------------------------------------------------
# Public API docstring audit
# ----------------------------------------------------------------------


class TestDocstrings:
    def test_public_backend_api_is_documented(self):
        """Every public name in repro.backend carries a real docstring."""
        import inspect

        import repro.backend as pkg
        from repro.backend import codegen as cg

        names = [
            (pkg, name) for name in pkg.__all__
        ] + [(cg, name) for name in cg.__all__]
        for module, name in names:
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue  # constants (BACKEND_NAMES)
            doc = inspect.getdoc(obj)
            assert doc and len(doc.split()) >= 3, f"{name} lacks a docstring"
            if inspect.isfunction(obj) and (
                inspect.signature(obj).parameters
            ):
                assert "Parameters" in doc or doc.count("\n") == 0, (
                    f"{name}: numpydoc Parameters section missing"
                )
