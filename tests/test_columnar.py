"""Columnar TokenStream unit and property tests.

Covers the structure-of-arrays stream representation itself: lossless
round-tripping against the legacy tuple-list form (hypothesis-generated
streams included), the sequence protocol, vectorized validation, and the
debug/legacy/caching execution switches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comal.functional import run_functional
from repro.sam.graph import SAMGraph
from repro.sam.primitives.base import ExecutionContext, NodeStats
from repro.sam.primitives.joiner import Intersect, Union
from repro.sam.primitives.scanner import CrdSource, Root
from repro.sam.token import (
    CRD,
    DONE,
    EMPTY,
    REF,
    STOP,
    VAL,
    StreamProtocolError,
    TokenStream,
    as_columnar,
    as_token_list,
    check_stream,
    crd,
    done,
    empty,
    pretty,
    ref,
    stop,
    streams_equal,
    val,
)

# ----------------------------------------------------------------------
# Hypothesis strategies: arbitrary well-formed-ish token streams
# ----------------------------------------------------------------------

_payload_token = st.one_of(
    st.integers(0, 1 << 40).map(crd),
    st.integers(0, 1 << 40).map(ref),
    st.floats(allow_nan=False, allow_infinity=False).map(val),
    st.just(empty()),
)
_any_token = st.one_of(_payload_token, st.integers(0, 6).map(stop))

#: A stream body (done appended separately so check_stream can pass).
_stream = st.lists(_any_token, max_size=40).map(lambda body: body + [done()])


class TestRoundtrip:
    @given(_stream)
    @settings(max_examples=200, deadline=None)
    def test_tuple_list_roundtrip_exact(self, stream):
        ts = TokenStream.from_tokens(stream)
        back = ts.to_tokens()
        assert len(back) == len(stream)
        assert back == stream
        assert streams_equal(ts, stream)
        # Payload types survive: coordinates stay ints, values stay floats.
        for orig, rt in zip(stream, back):
            assert orig[0] == rt[0]
            if orig[0] in (CRD, REF, STOP):
                assert isinstance(rt[1], int)
                assert rt[1] == orig[1]

    @given(_stream)
    @settings(max_examples=100, deadline=None)
    def test_double_roundtrip_idempotent(self, stream):
        once = TokenStream.from_tokens(stream)
        twice = TokenStream.from_tokens(once.to_tokens())
        assert streams_equal(once, twice)

    @given(_stream)
    @settings(max_examples=100, deadline=None)
    def test_check_stream_agrees_across_representations(self, stream):
        ts = TokenStream.from_tokens(stream)
        try:
            check_stream(stream)
            legacy_ok = True
        except StreamProtocolError:
            legacy_ok = False
        try:
            check_stream(ts)
            columnar_ok = True
        except StreamProtocolError:
            columnar_ok = False
        assert legacy_ok == columnar_ok

    def test_block_payloads_roundtrip(self):
        block = np.arange(6.0).reshape(2, 3)
        stream = [val(block), val(1.5), stop(0), done()]
        ts = TokenStream.from_tokens(stream)
        assert ts.has_objs()
        back = ts.to_tokens()
        assert np.array_equal(back[0][1], block)
        assert back[1] == (VAL, 1.5)
        assert streams_equal(ts, stream)


class TestSequenceProtocol:
    def setup_method(self):
        self.tokens = [crd(3), ref(7), val(2.5), empty(), stop(1), done()]
        self.ts = TokenStream.from_tokens(self.tokens)

    def test_len_iter_getitem(self):
        assert len(self.ts) == 6
        assert list(self.ts) == self.tokens
        assert self.ts[0] == crd(3)
        assert self.ts[-1] == done()
        assert self.ts[2] == (VAL, 2.5)

    def test_slice_returns_stream(self):
        tail = self.ts[-3:]
        assert isinstance(tail, TokenStream)
        assert list(tail) == self.tokens[-3:]

    def test_equality_both_directions(self):
        assert self.ts == self.tokens
        assert self.ts == TokenStream.from_tokens(self.tokens)
        assert self.ts != self.tokens[:-1]

    def test_pretty_matches_legacy(self):
        assert pretty(self.ts) == pretty(self.tokens)

    def test_gather(self):
        picked = self.ts.gather(np.array([0, 2]))
        assert list(picked) == [crd(3), (VAL, 2.5)]

    def test_concat(self):
        joined = TokenStream.concat([self.ts[:2], self.ts[2:]])
        assert streams_equal(joined, self.ts)

    def test_as_helpers(self):
        assert as_columnar(self.tokens).to_tokens() == self.tokens
        assert as_token_list(self.ts) == self.tokens
        assert as_columnar(self.ts) is self.ts


class TestColumnarCheckStream:
    def test_missing_done(self):
        with pytest.raises(StreamProtocolError, match="does not end with done"):
            check_stream(TokenStream.from_tokens([crd(0), stop(0)]))

    def test_empty(self):
        with pytest.raises(StreamProtocolError, match="empty"):
            check_stream(TokenStream.empty())

    def test_done_not_last(self):
        with pytest.raises(StreamProtocolError, match="position 0 is not last"):
            check_stream(TokenStream.from_tokens([done(), crd(1), done()]))

    def test_empty_tokens_rejected_when_disallowed(self):
        ts = TokenStream.from_tokens([empty(), done()])
        check_stream(ts)
        with pytest.raises(StreamProtocolError, match="unexpected empty token"):
            check_stream(ts, allow_empty_tokens=False)


def _run_source_graph(stream, **kwargs):
    graph = SAMGraph("t")
    graph.add(CrdSource(stream, "s"), node_id="src")
    return run_functional(graph, {}, **kwargs)


class TestExecutorModes:
    def test_columnar_mode_produces_token_streams(self):
        res = _run_source_graph([crd(0), stop(0), done()], backend="columnar")
        assert isinstance(res.stream("src"), TokenStream)

    def test_legacy_mode_produces_lists(self):
        res = _run_source_graph([crd(0), stop(0), done()], backend="interp")
        assert isinstance(res.stream("src"), list)

    def test_debug_streams_flags_protocol_violations(self):
        bad = [crd(0)]  # no done token
        with pytest.raises(StreamProtocolError, match="node src"):
            _run_source_graph(bad, backend="columnar", debug_streams=True)
        # With checks off the malformed stream flows through untouched.
        res = _run_source_graph(bad, backend="columnar", debug_streams=False)
        assert len(res.stream("src")) == 1


class TestSimulationMemo:
    def _graph_and_binding(self):
        from repro.ftree.format import csr
        from repro.ftree.tensor import SparseTensor
        from repro.sam.primitives.scanner import LevelScanner

        tensor = SparseTensor.from_dense(
            np.array([[1.0, 0.0], [0.0, 2.0]]), csr(), "A"
        )
        graph = SAMGraph("memo")
        root = graph.add(Root(), node_id="root")
        graph.add(
            LevelScanner("A", 0),
            {"ref": graph.port(root, "ref")},
            node_id="scan",
        )
        return graph, {"A": tensor}

    def test_identical_binding_hits_memo(self):
        graph, binding = self._graph_and_binding()
        first = run_functional(graph, binding, cache=True)
        second = run_functional(graph, binding, cache=True)
        assert second is first

    def test_cache_off_recomputes(self):
        graph, binding = self._graph_and_binding()
        first = run_functional(graph, binding, cache=False)
        second = run_functional(graph, binding, cache=False)
        assert second is not first

    def test_modes_do_not_share_entries(self):
        graph, binding = self._graph_and_binding()
        col = run_functional(graph, binding, cache=True, backend="columnar")
        leg = run_functional(graph, binding, cache=True, backend="interp")
        assert col is not leg
        assert isinstance(leg.stream("scan", "crd"), list)

    def test_different_tensors_miss(self):
        graph, binding = self._graph_and_binding()
        _, other = self._graph_and_binding()
        first = run_functional(graph, binding, cache=True)
        second = run_functional(graph, other, cache=True)
        assert second is not first

    def test_structural_change_clears_memo(self):
        graph, binding = self._graph_and_binding()
        run_functional(graph, binding, cache=True)
        assert graph.func_cache
        graph.add(Root(), node_id="root2")
        assert graph.func_cache is None


def _both_ways(prim, ins):
    """Run a primitive through both kernels; assert full agreement."""
    ctx_l, ctx_c = ExecutionContext({}), ExecutionContext({})
    stats_l, stats_c = NodeStats(), NodeStats()
    legacy = prim.process(dict(ins), ctx_l, stats_l)
    columnar = prim.process_columnar(
        {k: as_columnar(v) for k, v in ins.items()}, ctx_c, stats_c
    )
    assert set(legacy) == set(columnar)
    for port in legacy:
        assert streams_equal(columnar[port], legacy[port]), port
    for f in ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes"):
        assert getattr(stats_c, f) == getattr(stats_l, f), f
    return legacy, columnar


class TestKernelFallbacks:
    """Blocked/mixed payload shapes that exercise the bridge and loop paths."""

    def test_reduce_blocked_bridges_to_legacy(self):
        from repro.sam.primitives.reduce import Reduce

        b = np.ones((2, 2))
        stream = [val(b), val(2 * b), stop(0), val(3 * b), stop(1), done()]
        legacy, columnar = _both_ways(Reduce(), {"val": stream})
        assert np.array_equal(columnar["val"][0][1], 3 * b)

    def test_vreduce_blocked_with_empty_bridges(self):
        from repro.sam.primitives.reduce import VectorReducer

        b = np.ones((2, 2))
        crd0 = [crd(0), crd(0), stop(1), done()]
        vals = [val(b), empty(), stop(1), done()]
        _both_ways(VectorReducer(1), {"crd0": crd0, "val": vals})

    def test_vreduce_blocked_uniform_accumulates(self):
        from repro.sam.primitives.reduce import VectorReducer

        b = np.arange(4.0).reshape(2, 2)
        crd0 = [crd(1), crd(0), crd(1), stop(1), done()]
        vals = [val(b), val(2 * b), val(3 * b), stop(1), done()]
        legacy, columnar = _both_ways(VectorReducer(1), {"crd0": crd0, "val": vals})
        # keys sorted: 0 -> 2b, 1 -> b + 3b
        assert np.array_equal(columnar["val"][0][1], 2 * b)
        assert np.array_equal(columnar["val"][1][1], 4 * b)

    def test_binary_alu_mixed_block_scalar_loop_path(self):
        from repro.sam.primitives.compute import BinaryALU

        b = np.ones((2, 2))
        a_in = [val(b), val(2.0), stop(0), done()]
        b_in = [val(3.0), val(b), stop(0), done()]
        _both_ways(BinaryALU("mul"), {"a": a_in, "b": b_in})

    def test_binary_alu_blocked_batch_matmul(self):
        from repro.sam.primitives.compute import BinaryALU

        rng = np.random.default_rng(0)
        blocks_a = [rng.random((3, 3)) for _ in range(4)]
        blocks_b = [rng.random((3, 3)) for _ in range(4)]
        a_in = [val(x) for x in blocks_a] + [stop(0), done()]
        b_in = [val(x) for x in blocks_b] + [stop(0), done()]
        for op in ("bmm", "bmt", "add"):
            _both_ways(BinaryALU(op), {"a": a_in, "b": b_in})

    def test_unary_alu_blocked_and_scaled(self):
        from repro.sam.primitives.compute import UnaryALU

        b = np.linspace(-1, 1, 4).reshape(2, 2)
        stream = [val(b), empty(), val(2 * b), stop(0), done()]
        _both_ways(UnaryALU("relu"), {"a": stream})
        _both_ways(UnaryALU("gelu", scale=0.5, offset=1.0), {"a": stream})

    def test_scalar_repeat_block_payload(self):
        from repro.sam.primitives.repeat import ScalarRepeat

        b = np.ones((2, 2))
        base = [val(b), stop(0), done()]
        rep = [crd(0), crd(1), stop(0), crd(2), stop(1), done()]
        legacy, columnar = _both_ways(ScalarRepeat(), {"base": base, "rep": rep})
        assert np.array_equal(columnar["out"][0][1], b)

    def test_crddrop_keeps_empty_val_tokens(self):
        # Union padding: an EMPTY val token is not a zero *value* — the
        # legacy kernel keeps its (crd, EMPTY) pair, and so must we.
        from repro.sam.primitives.reduce import CrdDrop

        crds = [crd(0), crd(1), crd(2), stop(0), done()]
        vals = [val(5.0), empty(), val(0.0), stop(0), done()]
        legacy, columnar = _both_ways(CrdDrop(), {"crd": crds, "val": vals})
        assert legacy["crd"] == [crd(0), crd(1), stop(0), done()]
        assert legacy["val"] == [val(5.0), empty(), stop(0), done()]

    def test_crddrop_blocked_zero_blocks(self):
        from repro.sam.primitives.reduce import CrdDrop

        zero = np.zeros((2, 2))
        b = np.ones((2, 2))
        crds = [crd(0), crd(1), crd(2), stop(0), done()]
        vals = [val(b), val(zero), val(2 * b), stop(0), done()]
        legacy, columnar = _both_ways(CrdDrop(), {"crd": crds, "val": vals})
        assert len(columnar["crd"]) == 4  # zero block dropped

    def test_fiberop_blocked_softmax(self):
        from repro.sam.primitives.fiberops import FiberSoftmax

        rng = np.random.default_rng(1)
        blocks = [rng.random((2, 2)) for _ in range(3)]
        stream = [val(x) for x in blocks] + [stop(0)] + [val(blocks[0]), stop(1), done()]
        _both_ways(FiberSoftmax(), {"val": stream})

    def test_repeat_empty_base_fibers(self):
        from repro.sam.primitives.repeat import Repeat

        base = [ref(4), ref(5), stop(0), done()]
        rep = [crd(0), stop(0), crd(1), crd(2), stop(1), done()]
        legacy, columnar = _both_ways(Repeat(), {"base": base, "rep": rep})
        assert legacy["out"][0] == (REF, 4)


def _join(cls, crd_a, ref_a, crd_b, ref_b, columnar, node="nX"):
    ctx = ExecutionContext({})
    ctx.current_node = node
    stats = NodeStats()
    ins = {"crd_a": crd_a, "ref_a": ref_a, "crd_b": crd_b, "ref_b": ref_b}
    prim = cls()
    if columnar:
        ins = {k: as_columnar(v) for k, v in ins.items()}
        return prim.process_columnar(ins, ctx, stats)
    return prim.process(ins, ctx, stats)


class TestJoinerDiagnostics:
    """Misaligned/mismatched joiner inputs must name the node and position."""

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("cls", [Intersect, Union])
    def test_misaligned_reports_node_and_lengths(self, cls, columnar):
        with pytest.raises(
            StreamProtocolError,
            match=rf"{cls.kind}\(a\) at node nX: .*\(2 vs 1\)",
        ):
            _join(
                cls,
                [crd(0), done()],
                [done()],
                [crd(0), done()],
                [crd(0), done()],
                columnar,
            )

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("cls", [Intersect, Union])
    def test_control_mismatch_reports_position(self, cls, columnar):
        # Side a closes with S1 where side b closes with S0.
        crd_a = [crd(1), stop(1), done()]
        crd_b = [crd(1), stop(0), done()]
        with pytest.raises(
            StreamProtocolError,
            match=rf"{cls.kind} control mismatch at node nX: "
            r"S1 \(crd_a position 1\) vs S0 \(crd_b position 1\)",
        ):
            _join(cls, crd_a, crd_a, crd_b, crd_b, columnar)

    def test_columnar_catches_missing_control(self):
        # Side b is truncated: its control skeleton is a strict prefix.
        crd_a = [crd(1), stop(0), done()]
        crd_b = [crd(1), stop(0)]
        with pytest.raises(
            StreamProtocolError,
            match=r"D at crd_a position 2 has no matching control token on crd_b",
        ):
            _join(Intersect, crd_a, crd_a, crd_b, crd_b, columnar=True)
