"""Unit tests for SAM/SAMML dataflow primitives against hand-derived streams."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ftree import SparseTensor, csr, dcsr, dense, sparse_vector
from repro.sam.primitives import (
    AlignCheck,
    BinaryALU,
    ExecutionContext,
    FiberNorm,
    FiberSoftmax,
    Intersect,
    LevelScanner,
    Locate,
    NodeStats,
    Reduce,
    Repeat,
    Root,
    TensorWriter,
    UnaryALU,
    Union,
    ValArray,
    VectorReducer,
)
from repro.sam.primitives.repeat import ScalarRepeat
from repro.sam.token import (
    CRD,
    DONE,
    EMPTY_TOKEN,
    REF,
    VAL,
    StreamProtocolError,
    TokenStream,
    crd,
    done,
    nest_to_stream,
    pretty,
    ref,
    stop,
    streams_equal,
    val,
)


def process(prim, ins, binding=None):
    ctx = ExecutionContext(binding or {})
    return prim.process(ins, ctx, NodeStats()), ctx


class TestRoot:
    def test_emits_single_ref(self):
        outs, _ = process(Root(), {})
        assert pretty(outs["ref"]) == "0 D"


class TestLevelScanner:
    def setup_method(self):
        # B = [[1, 2, 0], [0, 0, 3]] in CSR (matches the paper's SpMV setup).
        self.b = SparseTensor.from_dense(
            np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]), csr(), "B"
        )

    def test_row_level(self):
        outs, _ = process(
            LevelScanner("B", 0), {"ref": [ref(0), done()]}, {"B": self.b}
        )
        assert pretty(outs["crd"]) == "0 1 S0 D"
        assert pretty(outs["ref"]) == "0 1 S0 D"

    def test_column_level_nests(self):
        outs, _ = process(
            LevelScanner("B", 1),
            {"ref": [ref(0), ref(1), stop(0), done()]},
            {"B": self.b},
        )
        assert pretty(outs["crd"]) == "0 1 S0 2 S1 D"

    def test_empty_fiber_keeps_alignment(self):
        mat = SparseTensor.from_dense(
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]), csr(), "M"
        )
        outs, _ = process(
            LevelScanner("M", 1),
            {"ref": [ref(0), ref(1), ref(2), stop(0), done()]},
            {"M": mat},
        )
        # Row 1 is empty: consecutive separators.
        assert pretty(outs["crd"]) == "0 S0 S0 1 S1 D"

    def test_charges_structure_reads(self):
        ctx = ExecutionContext({"B": self.b})
        stats = NodeStats()
        LevelScanner("B", 1).process(
            {"ref": [ref(0), ref(1), stop(0), done()]}, ctx, stats
        )
        # Recorded as a pending operand read, charged at a capacity.
        assert stats.dram_reads == 0 and len(stats.residency) == 1
        stats.charge(1 << 16)
        assert stats.dram_reads > 0 and stats.residency == ()


_SCAN_FORMATS = {"csr": csr, "dcsr": dcsr, "dense": lambda: dense(2)}


@st.composite
def _scan_case(draw):
    """A 2-D tensor (empty fibers included), one of its levels, and a
    reference stream into that level: any mix of REF / EMPTY / nested STOP
    / DONE tokens, so DONE may arrive while a fiber is open."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    mask = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    array = np.arange(1.0, rows * cols + 1) * np.array(mask)
    fmt = _SCAN_FORMATS[draw(st.sampled_from(sorted(_SCAN_FORMATS)))]()
    tensor = SparseTensor.from_dense(array.reshape(rows, cols), fmt, "T")
    level = draw(st.integers(0, 1))
    parents = 1 if level == 0 else tensor.levels[0].num_children(1)
    # References weigh double, so fibers are re-read.
    refs = [st.integers(0, parents - 1).map(ref)] * 2 if parents else []
    token = st.one_of(
        st.just(EMPTY_TOKEN), st.integers(0, 2).map(stop), st.just(done()), *refs
    )
    tokens = draw(st.lists(token, max_size=16))
    return tensor, level, tokens


def _scan_both(tensor, level, tokens):
    """Run one scanner through ``process`` and ``process_columnar``."""
    scanner = LevelScanner("T", level)
    columns = TokenStream.from_tokens(tokens)
    runs = []
    for method, stream in (
        (scanner.process, tokens),
        (scanner.process_columnar, columns),
    ):
        stats = NodeStats()
        ctx = ExecutionContext({"T": tensor})
        runs.append((method({"ref": stream}, ctx, stats), stats))
    return runs


class TestScannerColumnarMatchesProcess:
    """``LevelScanner.process_columnar`` is the scanner's only vectorized
    copy (every backend's columnar tier calls it): it must reproduce
    ``process`` token for token, stat for stat."""

    @settings(max_examples=200, deadline=None)
    @given(_scan_case())
    def test_streams_and_stats_match(self, case):
        (want, want_stats), (have, have_stats) = _scan_both(*case)
        for port in ("crd", "ref"):
            assert isinstance(have[port], TokenStream)
            assert streams_equal(have[port], want[port]), port
        # tokens_in / tokens_out / dram_reads, and the rest of NodeStats.
        assert have_stats == want_stats

    @settings(max_examples=50, deadline=None)
    @given(_scan_case(), st.sampled_from([crd(0), val(1.5)]), st.integers(0, 12))
    def test_bad_token_kind_raises_the_same_error(self, case, bad, at):
        tensor, level, tokens = case
        tokens = tokens[:at] + [bad] + tokens[at:]
        scanner = LevelScanner("T", level)
        messages = []
        for method, stream in (
            (scanner.process, tokens),
            (scanner.process_columnar, TokenStream.from_tokens(tokens)),
        ):
            with pytest.raises(StreamProtocolError) as excinfo:
                method({"ref": stream}, ExecutionContext({"T": tensor}), NodeStats())
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("scanner got unexpected token kind ")

    def test_dram_reads_charged_both_sides_of_the_scratchpad(self):
        tensor = SparseTensor.from_dense(
            np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]), csr(), "T"
        )
        tokens = [ref(0), ref(1), ref(0), stop(0), done()]
        footprint = tensor.bytes_structure()
        access = 3 * 8 + 4 * (2 + 1 + 2)
        assert access > footprint
        for spad, charged in ((footprint, footprint), (footprint - 1, access)):
            for _out, stats in _scan_both(tensor, 1, tokens):
                assert stats.residency == ((access, footprint),)
                stats.charge(spad)
                assert stats.dram_reads == charged


class TestLocate:
    def test_dense_passthrough(self):
        t = SparseTensor.from_dense(np.eye(3), dense(2), "T")
        outs, _ = process(Locate("T", 0), {"crd": [crd(2), stop(0), done()]}, {"T": t})
        assert outs["ref"][0] == (REF, 2)

    def test_compressed_search(self):
        t = SparseTensor.from_dense(np.array([0.0, 5.0, 0.0]), sparse_vector(), "v")
        outs, _ = process(
            Locate("v", 0), {"crd": [crd(1), crd(2), stop(0), done()]}, {"v": t}
        )
        assert outs["ref"][0] == (REF, 0)
        assert outs["ref"][1] == EMPTY_TOKEN


class TestIntersect:
    def test_basic(self):
        crd_a = nest_to_stream([0, 2, 3], CRD)
        ref_a = nest_to_stream([10, 12, 13], REF)
        crd_b = nest_to_stream([1, 2, 3], CRD)
        ref_b = nest_to_stream([21, 22, 23], REF)
        outs, _ = process(
            Intersect(),
            {"crd_a": crd_a, "ref_a": ref_a, "crd_b": crd_b, "ref_b": ref_b},
        )
        assert pretty(outs["crd"]) == "2 3 S0 D"
        assert pretty(outs["ref_a"]) == "12 13 S0 D"
        assert pretty(outs["ref_b"]) == "22 23 S0 D"

    def test_empty_result_keeps_stops(self):
        crd_a = nest_to_stream([0], CRD)
        crd_b = nest_to_stream([1], CRD)
        outs, _ = process(
            Intersect(),
            {"crd_a": crd_a, "ref_a": crd_a, "crd_b": crd_b, "ref_b": crd_b},
        )
        assert pretty(outs["crd"]) == "S0 D"

    def test_nested_segments(self):
        crd_a = nest_to_stream([[0, 1], [2]], CRD)
        crd_b = nest_to_stream([[1], [2, 3]], CRD)
        outs, _ = process(
            Intersect(),
            {"crd_a": crd_a, "ref_a": crd_a, "crd_b": crd_b, "ref_b": crd_b},
        )
        assert pretty(outs["crd"]) == "1 S0 2 S1 D"

    def test_misaligned_rejected(self):
        with pytest.raises(StreamProtocolError):
            process(
                Intersect(),
                {
                    "crd_a": [crd(0), done()],
                    "ref_a": [done()],
                    "crd_b": [crd(0), done()],
                    "ref_b": [crd(0), done()],
                },
            )


class TestUnion:
    def test_pads_missing_side(self):
        crd_a = nest_to_stream([0, 2], CRD)
        crd_b = nest_to_stream([1, 2], CRD)
        outs, _ = process(
            Union(),
            {"crd_a": crd_a, "ref_a": crd_a, "crd_b": crd_b, "ref_b": crd_b},
        )
        assert pretty(outs["crd"]) == "0 1 2 S0 D"
        assert outs["ref_a"][1] == EMPTY_TOKEN
        assert outs["ref_b"][0] == EMPTY_TOKEN


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 15), max_size=8, unique=True),
    st.lists(st.integers(0, 15), max_size=8, unique=True),
)
def test_intersect_union_algebra(a, b):
    """Intersect = sorted set intersection; union = sorted set union."""
    a, b = sorted(a), sorted(b)
    crd_a = nest_to_stream(a, CRD)
    crd_b = nest_to_stream(b, CRD)
    ins = {"crd_a": crd_a, "ref_a": crd_a, "crd_b": crd_b, "ref_b": crd_b}
    outs, _ = process(Intersect(), dict(ins))
    got = [t[1] for t in outs["crd"] if t[0] == CRD]
    assert got == sorted(set(a) & set(b))
    outs, _ = process(Union(), dict(ins))
    got = [t[1] for t in outs["crd"] if t[0] == CRD]
    assert got == sorted(set(a) | set(b))


class TestRepeat:
    def test_repeats_root_over_crds(self):
        outs, _ = process(
            Repeat(),
            {"base": [ref(7), done()], "rep": nest_to_stream([0, 1, 2], CRD)},
        )
        assert pretty(outs["out"]) == "7 7 7 S0 D"

    def test_advances_per_fiber(self):
        base = nest_to_stream([10, 11], REF)
        rep = nest_to_stream([[0, 1], [2]], CRD)
        outs, _ = process(Repeat(), {"base": base, "rep": rep})
        assert pretty(outs["out"]) == "10 10 S0 11 S1 D"

    def test_empty_base_segment(self):
        # Base has an empty middle segment ("10 S0 S0 11 S1"); a scanner fed
        # from it emits one stop per base stop, raised one level.
        base = nest_to_stream([[10], [], [11]], REF)
        rep = [crd(0), crd(1), stop(1), stop(1), crd(2), stop(2), done()]
        outs, _ = process(Repeat(), {"base": base, "rep": rep})
        assert pretty(outs["out"]) == "10 10 S1 S1 11 S2 D"

    def test_empty_repeated_fiber(self):
        base = nest_to_stream([10, 11], REF)
        rep = nest_to_stream([[], [2]], CRD)
        outs, _ = process(Repeat(), {"base": base, "rep": rep})
        assert pretty(outs["out"]) == "S0 11 S1 D"


class TestScalarRepeat:
    def test_broadcast_deep(self):
        rep = nest_to_stream([[[0], [1]], [[2]]], CRD)
        outs, _ = process(ScalarRepeat(), {"base": [ref(0), done()], "rep": rep})
        assert pretty(outs["out"]) == "0 S0 0 S1 0 S2 D"

    def test_requires_single_payload(self):
        with pytest.raises(StreamProtocolError):
            process(
                ScalarRepeat(),
                {"base": nest_to_stream([1, 2], REF), "rep": [crd(0), done()]},
            )


class TestALUs:
    def test_mul(self):
        a = nest_to_stream([2.0, 3.0], VAL)
        b = nest_to_stream([4.0, 5.0], VAL)
        outs, _ = process(BinaryALU("mul"), {"a": a, "b": b})
        assert [t[1] for t in outs["out"] if t[0] == VAL] == [8.0, 15.0]

    def test_add_with_empty(self):
        a = [val(2.0), EMPTY_TOKEN, stop(0), done()]
        b = [EMPTY_TOKEN, val(3.0), stop(0), done()]
        outs, _ = process(BinaryALU("add"), {"a": a, "b": b})
        assert [t[1] for t in outs["out"] if t[0] == VAL] == [2.0, 3.0]

    def test_bmm_blocks(self):
        blk_a = np.ones((2, 3))
        blk_b = np.ones((3, 2))
        outs, _ = process(
            BinaryALU("bmm"),
            {"a": [val(blk_a), done()], "b": [val(blk_b), done()]},
        )
        np.testing.assert_allclose(outs["out"][0][1], 3 * np.ones((2, 2)))

    def test_bmt_transposes(self):
        blk = np.arange(4.0).reshape(2, 2)
        outs, _ = process(
            BinaryALU("bmt"), {"a": [val(blk), done()], "b": [val(blk), done()]}
        )
        np.testing.assert_allclose(outs["out"][0][1], blk @ blk.T)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            BinaryALU("frobnicate")

    def test_unary_relu(self):
        outs, _ = process(
            UnaryALU("relu"), {"a": nest_to_stream([-1.0, 2.0], VAL)}
        )
        assert [t[1] for t in outs["out"] if t[0] == VAL] == [0.0, 2.0]

    def test_unary_scale(self):
        outs, _ = process(
            UnaryALU("identity", scale=0.5), {"a": nest_to_stream([4.0], VAL)}
        )
        assert outs["out"][0][1] == 2.0

    def test_counts_flops(self):
        stats = NodeStats()
        BinaryALU("mul").process(
            {"a": nest_to_stream([1.0, 2.0], VAL), "b": nest_to_stream([1.0, 2.0], VAL)},
            ExecutionContext(),
            stats,
        )
        assert stats.ops == 2


class TestValArray:
    def test_fetch_and_zero_fill(self):
        t = SparseTensor.from_dense(np.array([5.0, 7.0]), dense(1), "v")
        outs, _ = process(
            ValArray("v"),
            {"ref": [ref(1), EMPTY_TOKEN, stop(0), done()]},
            {"v": t},
        )
        assert [t_[1] for t_ in outs["val"] if t_[0] == VAL] == [7.0, 0.0]

    def test_scratchpad_caps_rereads(self):
        t = SparseTensor.from_dense(np.array([5.0]), dense(1), "v")
        ctx = ExecutionContext({"v": t})
        stats = NodeStats()
        ValArray("v").process(
            {"ref": [ref(0)] * 100 + [stop(0), done()]}, ctx, stats
        )
        # The read is pending until charged at a scratchpad capacity.
        assert stats.residency == ((800, 8),)
        fits, spills = dataclasses.replace(stats), dataclasses.replace(stats)
        fits.charge(1 << 20)
        spills.charge(7)
        assert fits.dram_reads == 8  # footprint, not 800
        assert spills.dram_reads == 800  # does not fit: every access


class TestReduce:
    def test_reduces_inner_fibers(self):
        vals = nest_to_stream([[1.0, 2.0], [3.0]], VAL)
        outs, _ = process(Reduce(), {"val": vals})
        assert pretty(outs["val"]) == "3.0 3.0 S0 D"

    def test_empty_fiber_yields_zero(self):
        vals = nest_to_stream([[1.0], [], [2.0]], VAL)
        outs, _ = process(Reduce(), {"val": vals})
        assert [t[1] for t in outs["val"] if t[0] == VAL] == [1.0, 0.0, 2.0]


class TestVectorReducer:
    def test_order1(self):
        vals = nest_to_stream([[[1.0, 2.0], [3.0]], [[4.0]]], VAL)
        crds = nest_to_stream([[[0, 2], [0]], [[1]]], CRD)
        outs, _ = process(VectorReducer(1), {"crd0": crds, "val": vals})
        assert pretty(outs["crd0"]) == "0 2 S0 1 S1 D"
        assert pretty(outs["val"]) == "4.0 2.0 S0 4.0 S1 D"

    def test_order2(self):
        vals = nest_to_stream([[[[1.0], [2.0]], [[3.0, 4.0]]]], VAL)
        crda = nest_to_stream([[[[0], [1]], [[0, 0]]]], CRD)
        crdb = nest_to_stream([[[[0], [0]], [[0, 1]]]], CRD)
        outs, _ = process(
            VectorReducer(2), {"crd0": crda, "crd1": crdb, "val": vals}
        )
        assert pretty(outs["crd0"]) == "0 1 S1 D"
        assert pretty(outs["crd1"]) == "0 1 S0 0 S2 D"
        assert pretty(outs["val"]) == "4.0 4.0 S0 2.0 S2 D"

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            VectorReducer(0)

    def test_misaligned_rejected(self):
        with pytest.raises(StreamProtocolError):
            process(
                VectorReducer(1),
                {"crd0": [crd(0), done()], "val": [done()]},
            )


def _both_kernels(prim, ins):
    """``prim`` through ``process`` and ``process_columnar``.

    Returns ``((outs, stats), (outs, stats))``; when either side rejects
    the input, asserts that both raise :class:`StreamProtocolError` and
    returns None.
    """
    runs, errors = [], []
    for method, wrap in (
        (prim.process, list),
        (prim.process_columnar, TokenStream.from_tokens),
    ):
        stats = NodeStats()
        try:
            outs = method({p: wrap(t) for p, t in ins.items()}, ExecutionContext({}), stats)
        except StreamProtocolError:
            errors.append(method)
            continue
        runs.append((outs, stats))
    if errors:
        assert len(errors) == 2, f"only {errors[0].__name__} raised"
        return None
    return runs


def _assert_same_run(runs):
    (want, want_stats), (have, have_stats) = runs
    assert set(have) == set(want)
    for port, stream in want.items():
        assert isinstance(have[port], TokenStream)
        assert streams_equal(have[port], stream), port
        # Bit for bit: the sign of a zero sum too.
        payloads = [t[1] if t[1] is not None else 0.0 for t in stream]
        assert np.array_equal(np.signbit(payloads), np.signbit(have[port].data)), port
    assert have_stats == want_stats


#: Scalars whose sums round differently when reassociated, and a -0.0.
_SUMMANDS = st.sampled_from([0.1, 0.2, 0.3, -0.7, 1e16, -1e16, 1.0, -0.0])


def _assert_early_done_rejected(prim, ins):
    """Both kernels reject a done token that is not the stream's last."""
    for method, wrap in (
        (prim.process, list),
        (prim.process_columnar, TokenStream.from_tokens),
    ):
        with pytest.raises(StreamProtocolError, match="done token at position 1 is not last"):
            method({p: wrap(t) for p, t in ins.items()}, ExecutionContext({}), NodeStats())


class TestReduceColumnarMatchesProcess:
    """``Reduce.process_columnar`` sums fibers in vector rounds; it must
    reproduce ``process``, cut streams and signed zeros included."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(_SUMMANDS.map(val), st.just(EMPTY_TOKEN), st.integers(0, 2).map(stop)),
            max_size=40,
        ),
        st.booleans(),
    )
    def test_streams_and_stats_match(self, tokens, ended):
        runs = _both_kernels(Reduce(), {"val": tokens + [done()] * ended})
        _assert_same_run(runs)

    def test_empty_then_negative_zero_sums_to_positive_zero(self):
        tokens = [EMPTY_TOKEN, val(-0.0), stop(0), done()]
        (want, _), (have, _) = _both_kernels(Reduce(), {"val": tokens})
        assert not np.signbit(have["val"].data[0]) and not np.signbit(want["val"][0][1])

    def test_early_done_raises_on_both_kernels(self):
        _assert_early_done_rejected(Reduce(), {"val": [val(1.0), done(), val(2.0), done()]})


@st.composite
def _vreduce_case(draw):
    """An order-1 or -2 vector reduction: aligned ``crd{d}`` / ``val``
    streams with scalar payloads, ``EMPTY`` values,
    stops of every level up to ``order + 1`` (so empty groups and absorbed
    fiber stops), ending in DONE or cut before it."""
    order = draw(st.integers(1, 2))
    value = _SUMMANDS.map(val)
    payload = st.tuples(
        st.lists(st.integers(0, 3), min_size=order, max_size=order),
        st.one_of(value, st.just(EMPTY_TOKEN)) if draw(st.booleans()) else value,
    )
    level = st.integers(0, order + 1)
    steps = draw(st.lists(st.one_of(payload, payload, level), max_size=32))
    ins = {f"crd{d}": [] for d in range(order)}
    ins["val"] = []
    for step in steps:
        if isinstance(step, int):
            for stream in ins.values():
                stream.append(stop(step))
        else:
            for d, c in enumerate(step[0]):
                ins[f"crd{d}"].append(crd(c))
            ins["val"].append(step[1])
    if draw(st.booleans()):
        for stream in ins.values():
            stream.append(done())
    return order, ins


class TestVectorReducerColumnarMatchesProcess:
    """``VectorReducer.process_columnar`` computes every output position
    with array arithmetic; it must reproduce ``process`` token for token,
    bit for bit and stat for stat, and reject what it rejects."""

    @settings(max_examples=300, deadline=None)
    @given(_vreduce_case())
    def test_streams_and_stats_match(self, case):
        order, ins = case
        runs = _both_kernels(VectorReducer(order), ins)
        assert runs is not None
        _assert_same_run(runs)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 2),
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2), _SUMMANDS), min_size=17, max_size=80
        ),
    )
    def test_long_rows_sum_in_stream_order(self, order, rows):
        """Rows of 8+ summands in one group: a pairwise or unstable
        reduction rounds differently from ``process``."""
        ins = {
            "crd0": [crd(c) for c, _, _ in rows] + [stop(order), done()],
            "val": [val(v) for _, _, v in rows] + [stop(order), done()],
        }
        if order == 2:
            ins["crd1"] = [crd(c) for _, c, _ in rows] + [stop(order), done()]
        _assert_same_run(_both_kernels(VectorReducer(order), ins))

    @settings(max_examples=200, deadline=None)
    @given(_vreduce_case(), st.data())
    def test_malformed_input_raises_on_both_sides(self, case, data):
        order, ins = case
        ports = sorted(ins)  # crd0 [, crd1], val
        kind = data.draw(st.sampled_from(["misalign", "inject", "corrupt"]))
        if kind == "misalign":
            port = data.draw(st.sampled_from(ports))
            at = data.draw(st.integers(0, len(ins[port])))
            ins[port].insert(at, crd(0) if port != "val" else val(1.0))
        elif kind == "inject":
            # A coordinate or reference on every port at one position:
            # ``val`` never carries either.
            at = data.draw(st.integers(0, len(ins["val"])))
            bad = data.draw(st.sampled_from([crd(1), ref(1)]))
            for p in ports:
                ins[p].insert(at, bad)
        else:
            # Swap a coordinate for a stop, or a stop for a coordinate or
            # another level; ``process`` reads no coordinate beside DONE.
            stream = ins[data.draw(st.sampled_from(ports[:-1]))]
            where = [i for i, t in enumerate(stream) if t[0] != DONE]
            assume(where)
            at = data.draw(st.sampled_from(where))
            token = stream[at]
            stream[at] = stop(0) if token[0] == CRD else (
                crd(0) if data.draw(st.booleans()) else stop(token[1] + 1)
            )
        assert _both_kernels(VectorReducer(order), ins) is None

    def test_cut_stream_drops_the_open_group(self):
        ins = {"crd0": [crd(1), stop(1), crd(0)], "val": [val(2.0), stop(1), val(3.0)]}
        runs = _both_kernels(VectorReducer(1), ins)
        _assert_same_run(runs)
        assert pretty(runs[1][0]["val"]) == "2.0 S0"

    def test_early_done_raises_on_both_kernels(self):
        _assert_early_done_rejected(
            VectorReducer(1),
            {"crd0": [crd(0), done(), crd(0), done()], "val": [val(1.0), done(), val(2.0), done()]},
        )


@st.composite
def _repeat_case(draw):
    """A base stream and a rep stream one level deeper, built from one
    fibertree (empty fibers on either side included), optionally broken by
    one dropped or inserted token or cut short (down to nothing)."""
    shape = draw(st.integers(0, 2))
    leaf = st.integers(0, 9)
    if shape == 0:
        # A root reference broadcast over one fiber.
        base = [ref(draw(leaf)), done()]
        rep = nest_to_stream(draw(st.lists(leaf, max_size=4)), CRD)
    else:
        nest = draw(
            st.lists(leaf, max_size=4)
            if shape == 1
            else st.lists(st.lists(leaf, max_size=3), max_size=3)
        )

        def deepen(node):
            if isinstance(node, list):
                return [deepen(child) for child in node]
            return draw(st.lists(leaf, max_size=3))

        base = nest_to_stream(nest, REF)
        rep = nest_to_stream(deepen(nest), CRD)
    target = draw(st.sampled_from([base, rep]))
    at = draw(st.integers(0, len(target)))
    damage = draw(st.sampled_from(["none", "none", "drop", "insert", "cut"]))
    if damage == "drop" and at < len(target):
        del target[at]
    elif damage == "insert":
        token = draw(st.sampled_from([crd(5), ref(5), val(5.0), stop(0), stop(1), done()]))
        target.insert(at, token)
    elif damage == "cut":
        del target[at:]
    return {"base": base, "rep": rep}


class TestRepeatColumnarMatchesProcess:
    """``Repeat.process_columnar`` walks fiber boundaries in Python and
    broadcasts with one gather; it must reproduce ``process`` or raise
    the same error class."""

    @settings(max_examples=300, deadline=None)
    @given(_repeat_case())
    def test_streams_and_stats_match(self, ins):
        runs = _both_kernels(Repeat(), ins)
        if runs is not None:
            _assert_same_run(runs)

    def test_empty_base_with_coordinates_raises(self):
        ins = {"base": [], "rep": [crd(1), stop(0), done()]}
        prim = Repeat()
        for method, wrap in (
            (prim.process, list),
            (prim.process_columnar, TokenStream.from_tokens),
        ):
            with pytest.raises(StreamProtocolError, match="base has none current"):
                method({p: wrap(t) for p, t in ins.items()}, ExecutionContext({}), NodeStats())


class TestAlignCheck:
    def test_pass_through(self):
        s = nest_to_stream([0, 1], CRD)
        outs, _ = process(AlignCheck(), {"a": list(s), "b": list(s)})
        assert outs["out"] == s

    def test_mismatch_raises(self):
        with pytest.raises(StreamProtocolError):
            process(
                AlignCheck(),
                {"a": nest_to_stream([0], CRD), "b": nest_to_stream([1], CRD)},
            )


class TestFiberOps:
    def test_softmax_rows(self):
        vals = nest_to_stream([[1.0, 1.0], [2.0]], VAL)
        outs, _ = process(FiberSoftmax(), {"val": vals})
        got = [t[1] for t in outs["out"] if t[0] == VAL]
        assert got[0] == pytest.approx(0.5)
        assert got[2] == pytest.approx(1.0)

    def test_layernorm_zero_mean(self):
        vals = nest_to_stream([[1.0, 3.0]], VAL)
        outs, _ = process(FiberNorm(), {"val": vals})
        got = [t[1] for t in outs["out"] if t[0] == VAL]
        assert sum(got) == pytest.approx(0.0, abs=1e-9)

    def test_softmax_blocks(self):
        blk = np.array([[1.0, 2.0], [3.0, 4.0]])
        vals = nest_to_stream([[blk, blk]], VAL)
        outs, _ = process(FiberSoftmax(), {"val": vals})
        row = np.concatenate([t[1] for t in outs["out"] if t[0] == VAL], axis=1)
        np.testing.assert_allclose(row.sum(axis=1), np.ones(2))


class TestTensorWriter:
    def test_assembles_and_drops_zeros(self):
        writer = TensorWriter("out", (2, 3), csr())
        crd0 = nest_to_stream([0, 1], CRD)
        crd1 = nest_to_stream([[0, 2], [1]], CRD)
        vals = nest_to_stream([[1.0, 0.0], [2.0]], VAL)
        ctx = ExecutionContext()
        writer.process({"crd0": crd0, "crd1": crd1, "val": vals}, ctx, NodeStats())
        out = ctx.results["out"].to_dense()
        expected = np.zeros((2, 3))
        expected[0, 0] = 1.0
        expected[1, 1] = 2.0
        np.testing.assert_allclose(out, expected)
        assert ctx.results["out"].nnz() == 2  # zero was dropped


class TestEmittedPrimitives:
    """The package exports only primitives the compiler emits: every
    concrete export is built by lowering on the golden models at some
    granularity, except ``CrdSource``, the source node of hand-built
    graphs.  A primitive nothing emits is a second kernel pair to keep
    correct for no program."""

    def test_exports_equal_what_lowering_emits(self):
        import repro.sam.primitives as prims
        from repro.driver import Session
        from repro.sweep import build_bundle
        from test_golden_traces import GOLDEN_POINTS, GRANULARITIES

        exported = {
            obj
            for obj in (getattr(prims, name) for name in prims.__all__)
            if isinstance(obj, type) and issubclass(obj, prims.Primitive)
        }
        # Concrete: no exported class derives from it (drops the bases).
        concrete = {
            cls
            for cls in exported
            if not any(other is not cls and issubclass(other, cls) for other in exported)
        }
        emitted = {prims.CrdSource}
        for point in GOLDEN_POINTS.values():
            bundle = build_bundle(point)
            session = Session()
            for granularity in GRANULARITIES:
                exe = session.compile(bundle.program, bundle.schedule(granularity))
                for region in exe.compiled.regions:
                    emitted |= {type(node.prim) for node in region.graph.nodes.values()}
        assert sorted(c.__name__ for c in concrete) == sorted(c.__name__ for c in emitted)
