"""Token protocol and stream helper tests."""

import pytest
from hypothesis import given, strategies as st

from repro.sam.token import (
    CRD,
    DONE,
    STOP,
    VAL,
    StreamProtocolError,
    check_stream,
    crd,
    done,
    nest_to_stream,
    pretty,
    segments,
    stop,
    stream_to_nest,
    val,
)


class TestTokenConstructors:
    def test_crd(self):
        assert crd(3) == (CRD, 3)

    def test_val(self):
        assert val(2.5) == (VAL, 2.5)

    def test_stop_levels(self):
        assert stop(0) == (STOP, 0)
        assert stop(2) == (STOP, 2)

    def test_stop_negative_rejected(self):
        with pytest.raises(ValueError):
            stop(-1)

    def test_done_is_singleton(self):
        assert done() is done()


class TestPretty:
    def test_renders_mixed_stream(self):
        stream = [crd(0), crd(1), stop(0), done()]
        assert pretty(stream) == "0 1 S0 D"


class TestCheckStream:
    def test_accepts_valid(self):
        check_stream([val(1.0), stop(0), done()])

    def test_rejects_empty(self):
        with pytest.raises(StreamProtocolError):
            check_stream([])

    def test_rejects_missing_done(self):
        with pytest.raises(StreamProtocolError):
            check_stream([val(1.0), stop(0)])

    def test_rejects_tokens_after_done(self):
        with pytest.raises(StreamProtocolError):
            check_stream([done(), val(1.0), done()])


class TestNestConversion:
    def test_flat(self):
        assert pretty(nest_to_stream([1, 2])) == "1 2 S0 D"

    def test_two_level(self):
        assert pretty(nest_to_stream([[1, 2], [3]])) == "1 2 S0 3 S1 D"

    def test_three_level(self):
        stream = nest_to_stream([[[1], [2, 3]], [[4]]])
        assert pretty(stream) == "1 S0 2 3 S1 4 S2 D"

    def test_roundtrip_two_level(self):
        nested = [[1, 2], [3], [4, 5, 6]]
        assert stream_to_nest(nest_to_stream(nested), 2) == nested

    def test_roundtrip_with_empty_fiber(self):
        nested = [[1], [], [2]]
        assert stream_to_nest(nest_to_stream(nested), 2) == nested


class TestSegments:
    def test_splits_on_level0(self):
        stream = nest_to_stream([[1, 2], [3]])
        segs = list(segments(stream, 0))
        assert [[t[1] for t in s] for s in segs] == [[1, 2], [3]]


# Hypothesis strategy for nested value lists with fixed depth.
def nested_lists(depth: int):
    leaves = st.integers(min_value=0, max_value=50)
    strategy = st.lists(leaves, min_size=0, max_size=4)
    for _ in range(depth - 1):
        strategy = st.lists(strategy, min_size=1, max_size=4)
    return strategy


@given(nested_lists(2))
def test_roundtrip_depth2_property(nested):
    stream = nest_to_stream(nested)
    check_stream(stream)
    assert stream_to_nest(stream, 2) == nested


@given(nested_lists(3))
def test_roundtrip_depth3_property(nested):
    stream = nest_to_stream(nested)
    check_stream(stream)
    assert stream_to_nest(stream, 3) == nested


@given(nested_lists(2))
def test_stop_levels_bounded_property(nested):
    stream = nest_to_stream(nested)
    max_stop = max((t[1] for t in stream if t[0] == STOP), default=0)
    assert max_stop <= 1
