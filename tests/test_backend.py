"""Backend subsystem tests: selection, the tier rule, and errors.

Covers the :mod:`repro.backend` contract end to end:

* the resolution rule (explicit ``backend`` > ``FUSEFLOW_BACKEND`` >
  ``"columnar"``), applied once per Session;
* the compile cache incorporating backend identity — the *same* program
  under another backend must miss a warm cache and yield a distinct
  executable;
* ``codegen``'s per-region tier rule: the token tier (``process``) for a
  blocked or short binding, the columnar tier otherwise;
* out-of-tree primitives the executor has never heard of, run under every
  backend;
* errors raised while a region runs keep their type and message under
  every backend.
"""

import numpy as np
import pytest

from repro.backend import BACKEND_NAMES, resolve_backend_name
from repro.comal import functional
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.einsum.parser import parse_program
from repro.driver import Session
from repro.ftree import SparseTensor, csr, dense
from repro.sam.graph import SAMGraph
from repro.sam.primitives.base import Primitive
from repro.sam.primitives.scanner import CrdSource, LevelScanner, Root
from repro.sam.token import (
    VAL,
    StreamProtocolError,
    TokenStream,
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
# Out-of-tree primitives: run as a call to the primitive itself
# ----------------------------------------------------------------------


class _Doubler(Primitive):
    """A primitive the executor has never heard of."""

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
    """An unknown kind runs under every backend, tier rule included."""

    def test_fallback_execution_matches_interpreter(self):
        reference = run_functional(
            _doubler_graph(), {}, backend="interp", debug_streams=True,
            cache=False,
        )
        for backend in BACKEND_NAMES:
            have = run_functional(
                _doubler_graph(), {}, backend=backend, debug_streams=True,
                cache=False,
            )
            assert set(have.streams) == set(reference.streams)
            for key in reference.streams:
                assert streams_equal(
                    have.streams[key], reference.streams[key]
                ), (backend, key)
            assert have.stats == reference.stats, backend


# ----------------------------------------------------------------------
# Errors raised while a region runs
# ----------------------------------------------------------------------


class TestKernelErrors:
    """Every backend runs one loop, so every backend raises alike."""

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
        for backend in BACKEND_NAMES:
            with pytest.raises(KeyError) as excinfo:
                run_functional(
                    self._scan_graph(), {}, backend=backend, cache=False
                )
            assert "tensor 'A' not bound (have [])" in str(excinfo.value)

    def test_protocol_error_keeps_type_and_message(self):
        for backend in BACKEND_NAMES:
            graph = SAMGraph("badproto")
            graph.add(CrdSource([crd(0)], "s"), node_id="src")  # no done token
            with pytest.raises(StreamProtocolError) as excinfo:
                run_functional(
                    graph, {}, backend=backend, debug_streams=True, cache=False
                )
            assert "node src port 'out'" in str(excinfo.value), backend

    def test_checks_off_matches_interpreter_leniency(self):
        # With debug_streams off the malformed stream flows through.
        for backend in BACKEND_NAMES:
            graph = SAMGraph("lenient")
            graph.add(CrdSource([crd(0)], "s"), node_id="src")
            res = run_functional(
                graph, {}, backend=backend, debug_streams=False, cache=False
            )
            assert len(res.stream("src")) == 1, backend


# ----------------------------------------------------------------------
# The tier rule (backend "codegen")
# ----------------------------------------------------------------------

_GPT3 = {"seq_len": 32, "d_model": 16, "block": 4, "n_layers": 1, "seed": 0}


def _ran_columnar(result) -> bool:
    """Which tier a run took, read off its streams' representation."""
    kinds = {isinstance(s, TokenStream) for s in result.streams.values()}
    assert len(kinds) == 1, "a region ran on both tiers"
    return kinds.pop()


def _size(graph, binding):
    probe = functional._probe_spec(graph, graph.topological_order())
    return functional._probe_size(probe, binding)


class TestEmissionTiers:
    def test_both_tiers_match_the_interpreter(self, clean_env):
        # Every backend — token, columnar and the rule choosing between
        # them — reproduces the interpreter's streams and stats exactly.
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE).compile(program)
        graph = exe.regions[0].graph
        want = run_functional(graph, binding, backend="interp", cache=False)
        for backend in BACKEND_NAMES:
            have = run_functional(graph, binding, backend=backend, cache=False)
            for key in want.streams:
                assert streams_equal(have.streams[key], want.streams[key]), (
                    backend,
                    key,
                )
            assert have.stats == want.stats, backend

    def test_small_streams_dispatch_to_token_tier(self, clean_env):
        # Below the cutoff the rule runs the token tier, at or above it
        # the columnar one; interp and columnar ignore the size.
        cutoff = functional.DEFAULT_SMALL_STREAM_CUTOFF
        program = parse_program(
            "tensor A(24, 24): csr\ntensor X(24, 16): dense\n"
            "T(i, j) = A(i, k) * X(k, j)"
        )
        graph = Session(machine=RDA_MACHINE).compile(program).regions[0].graph
        rng = np.random.default_rng(0)
        x = SparseTensor.from_dense(rng.random((24, 16)), dense(2), "X")
        a_dense = rng.random((24, 24))
        a = SparseTensor.from_dense(a_dense, csr(), "A")
        small = _program_and_binding()[1]
        assert _size(graph, small) == (small["A"].values.size + 15, False)
        assert _size(graph, small)[0] < cutoff <= _size(graph, {"A": a, "X": x})[0]
        for binding, columnar in ((small, False), ({"A": a, "X": x}, True)):
            run = run_functional(graph, binding, backend="codegen", cache=False)
            assert _ran_columnar(run) is columnar
            for backend in ("interp", "columnar"):
                run = run_functional(graph, binding, backend=backend, cache=False)
                assert _ran_columnar(run) is (backend == "columnar")

    def test_probe_flags_blocked_payloads(self, clean_env):
        # The graph-level probe: names the region reads + source-stream floor.
        probe = (("A",), 3)

        class _T:
            pass

        flat = _T()
        flat.values = np.zeros(7)
        assert functional._probe_size(probe, {"A": flat}) == (10, False)
        blocked = _T()
        blocked.values = np.zeros((4, 2, 2))
        assert functional._probe_size(probe, {"A": blocked}) == (19, True)
        # Unbound probe tensors contribute nothing (and do not raise).
        assert functional._probe_size(probe, {}) == (3, False)
        # Blocked payloads send a region to the token tier however large
        # it is: gpt3's first region reads blocked weights past the cutoff.
        bundle = build_bundle(SweepPoint.make("gpt3", model_args=_GPT3))
        exe = Session(machine=RDA_MACHINE).compile(
            bundle.program, bundle.schedule("unfused")
        )
        graph = exe.regions[0].graph
        size, is_blocked = _size(graph, bundle.binding)
        assert is_blocked and size >= functional.DEFAULT_SMALL_STREAM_CUTOFF
        run = run_functional(graph, bundle.binding, backend="codegen", cache=False)
        assert not _ran_columnar(run)


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
