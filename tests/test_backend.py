"""Execution-tier tests: the one rule, the legacy ``backend`` inputs, errors.

Covers how a region gets executed, end to end:

* the legacy ``backend`` name of a point is validated and kept in its
  identity, while a ``Session`` accepts any ``backend=`` and ignores it —
  every name compiles to the same cache key and runs the same rule;
* the per-region tier rule: the token tier (``process``) for a region
  that reads a blocked tensor, the columnar tier for every other region,
  and the test-only ``tier=`` override forcing either;
* out-of-tree primitives the executor has never heard of, run on both
  tiers;
* errors raised while a region runs keep their type and message on both
  tiers.
"""

import numpy as np
import pytest

from repro.comal.functional import TIERS, _reads_blocked, run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.einsum.parser import parse_program
from repro.core.schedule.schedule import unfused
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
from repro.sweep.spec import LEGACY_BACKENDS, SweepPoint, SweepSpecError

_PROGRAM = (
    "tensor A(4, 5): csr\n"
    "tensor X(5, 3): dense\n"
    "T(i, j) = A(i, k) * X(k, j)"
)

#: Every way a run may pick its tier: the rule (None) and both overrides.
_TIER_CHOICES = (None, *TIERS)


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


# ----------------------------------------------------------------------
# The legacy backend name
# ----------------------------------------------------------------------


class TestResolution:
    def test_default_is_columnar(self):
        # Whatever backend a session names, a scalar region runs the
        # columnar tier.
        program, binding = _program_and_binding()
        for name in (None, *LEGACY_BACKENDS):
            session = Session(machine=RDA_MACHINE, backend=name, debug_streams=True)
            (region,) = session.compile(program).functional(binding).regions
            assert _ran_columnar(region), name

    @pytest.mark.parametrize("bad", ["fancy", "cpp", "numba"])
    def test_unknown_backend_rejected(self, bad):
        with pytest.raises(SweepSpecError, match="unknown backend"):
            SweepPoint.make("gcn", backend=bad).validate()

    def test_sweep_point_validates_backend(self):
        point = SweepPoint.make("gcn", backend="fancy")
        with pytest.raises(SweepSpecError, match="unknown backend"):
            point.validate()
        for name in LEGACY_BACKENDS:
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
# Compile cache: every legacy name is one session
# ----------------------------------------------------------------------


class TestCompileCache:
    def test_legacy_backend_names_share_one_disk_entry(self, tmp_path):
        program, _ = _program_and_binding()
        keys = set()
        sources = []
        for name in (None, *LEGACY_BACKENDS):
            session = Session(
                machine=RDA_MACHINE, backend=name, disk_cache=str(tmp_path)
            )
            keys.add(session.cache_key(program, unfused(program)))
            sources.append(session.compile_detailed(program)[1])
        assert len(keys) == 1 and next(iter(keys))[3] == "codegen"
        assert sources == ["compiled", "disk", "disk", "disk"]

    def test_executables_of_all_backends_agree(self):
        program, binding = _program_and_binding()
        tensors = {}
        for name in LEGACY_BACKENDS:
            session = Session(machine=RDA_MACHINE, backend=name, sim_cache=False)
            tensors[name] = session.compile(program)(binding).tensors["T"].to_dense()
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
    """An unknown kind runs on both tiers, and under the rule."""

    def test_fallback_execution_matches_interpreter(self):
        reference = run_functional(_doubler_graph(), {}, tier="token", debug_streams=True)
        for tier in _TIER_CHOICES:
            have = run_functional(_doubler_graph(), {}, tier=tier, debug_streams=True)
            assert set(have.streams) == set(reference.streams)
            for key in reference.streams:
                assert streams_equal(
                    have.streams[key], reference.streams[key]
                ), (tier, key)
            assert have.stats == reference.stats, tier


# ----------------------------------------------------------------------
# Errors raised while a region runs
# ----------------------------------------------------------------------


class TestKernelErrors:
    """Both tiers run one loop, so both raise alike."""

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
        for tier in _TIER_CHOICES:
            with pytest.raises(KeyError) as excinfo:
                run_functional(self._scan_graph(), {}, tier=tier)
            assert "tensor 'A' not bound (have [])" in str(excinfo.value)

    def test_protocol_error_keeps_type_and_message(self):
        for tier in _TIER_CHOICES:
            graph = SAMGraph("badproto")
            graph.add(CrdSource([crd(0)], "s"), node_id="src")  # no done token
            with pytest.raises(StreamProtocolError) as excinfo:
                run_functional(graph, {}, tier=tier, debug_streams=True)
            assert "node src port 'out'" in str(excinfo.value), tier

    def test_checks_off_matches_interpreter_leniency(self):
        # With debug_streams off the malformed stream flows through.
        for tier in _TIER_CHOICES:
            graph = SAMGraph("lenient")
            graph.add(CrdSource([crd(0)], "s"), node_id="src")
            res = run_functional(graph, {}, tier=tier, debug_streams=False)
            assert len(res.stream("src")) == 1, tier

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            run_functional(_doubler_graph(), {}, tier="interp")


# ----------------------------------------------------------------------
# The tier rule
# ----------------------------------------------------------------------

_GPT3 = {"seq_len": 32, "d_model": 16, "block": 4, "n_layers": 1, "seed": 0}


def _ran_columnar(result) -> bool:
    """Which tier a run took, read off its streams' representation."""
    kinds = {isinstance(s, TokenStream) for s in result.streams.values()}
    assert len(kinds) == 1, "a region ran on both tiers"
    return kinds.pop()


class TestEmissionTiers:
    def test_both_tiers_match_the_interpreter(self):
        # The token tier, the columnar tier and the rule choosing between
        # them reproduce the same streams and stats exactly.
        program, binding = _program_and_binding()
        graph = Session(machine=RDA_MACHINE).compile(program).regions[0].graph
        want = run_functional(graph, binding, tier="token")
        for tier in _TIER_CHOICES:
            have = run_functional(graph, binding, tier=tier)
            for key in want.streams:
                assert streams_equal(have.streams[key], want.streams[key]), (
                    tier,
                    key,
                )
            assert have.stats == want.stats, tier

    def test_probe_flags_blocked_payloads(self):
        # The rule reads only the payload shape of the tensors a region
        # scans, and an unbound tensor (or one without values) is scalar.
        program, binding = _program_and_binding()
        graph = Session(machine=RDA_MACHINE).compile(program).regions[0].graph
        order = graph.topological_order()
        assert not _reads_blocked(graph, order, binding)
        assert not _reads_blocked(graph, order, {})

        class _Blocked:
            values = np.zeros((4, 2, 2))

        assert _reads_blocked(graph, order, dict(binding, A=_Blocked()))

    @pytest.mark.parametrize("backend", ["columnar", "codegen"])
    def test_tier_rule_pins(self, backend):
        # A region that reads blocked weights (gpt3's first) runs the
        # token tier, a scalar region of any size the columnar tier; the
        # legacy ``backend`` keyword changes neither.
        bundle = build_bundle(SweepPoint.make("gpt3", model_args=_GPT3))
        exe = Session(machine=RDA_MACHINE).compile(
            bundle.program, bundle.schedule("unfused")
        )
        blocked = exe.regions[0].graph
        assert not _ran_columnar(
            run_functional(blocked, bundle.binding, backend=backend)
        )
        program, binding = _program_and_binding()
        graph = Session(machine=RDA_MACHINE).compile(program).regions[0].graph
        assert _ran_columnar(run_functional(graph, binding, backend=backend))
        assert not _ran_columnar(run_functional(graph, binding, tier="token"))


# ----------------------------------------------------------------------
# Public API docstring audit
# ----------------------------------------------------------------------


class TestDocstrings:
    def test_public_backend_api_is_documented(self):
        """Every public name of the codegen shim carries a real docstring."""
        import inspect

        from repro.backend import codegen as cg

        for name in cg.__all__:
            obj = getattr(cg, name)
            doc = inspect.getdoc(obj)
            assert doc and len(doc.split()) >= 3, f"{name} lacks a docstring"
            if inspect.signature(obj).parameters:
                assert "Parameters" in doc or doc.count("\n") == 0, (
                    f"{name}: numpydoc Parameters section missing"
                )
