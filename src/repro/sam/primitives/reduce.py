"""Reduction primitives: scalar reducers and higher-order (vector) reducers.

The scalar :class:`Reduce` sums the values of each innermost fiber, removing
one nesting level.  The :class:`VectorReducer` is the SAMML abstraction that
enables *factored iteration* (Sections 3 and 6 of the paper): it reduces a
non-innermost index by keeping accumulators keyed by the inner output
coordinates, and at each reduction boundary emits coordinate streams plus a
value stream.  Those streams flow to the input iteration of subsequent
operations — the interleaving of iteration and computation that
distinguishes FuseFlow's lowering from prior global-iteration compilers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..token import (
    CRD,
    DONE,
    DONE_TOKEN,
    EMPTY,
    REF,
    STOP,
    VAL,
    Stream,
    StreamProtocolError,
    TokenStream,
    streams_equal,
)
from .base import ExecutionContext, NodeStats, Primitive


def _require_done_last(kinds: np.ndarray, who: str) -> None:
    """Raise when a done token precedes the end of the stream.

    A reducer's accumulator spans the whole stream, so tokens after an
    early done have no well-defined group; both kernels reject them.
    """
    early = np.flatnonzero(kinds[:-1] == DONE)
    if early.size:
        raise StreamProtocolError(
            f"{who}: done token at position {int(early[0])} is not last"
        )


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Left-to-right sums of consecutive segments of ``values``.

    Segment ``s`` is the next ``counts[s]`` elements.  ``process`` adds a
    fiber's values one at a time; numpy's ``reduceat``/``sum`` add pairwise,
    which reassociates and can differ in the last bit.  ``np.add.accumulate``
    is sequential, so a few segments take it one at a time.  Many segments
    add in *rounds* instead: ordered longest first, the segments still
    open at round ``r`` are a prefix, and round ``r`` adds their ``r``-th
    elements in one vector step, so the whole sum costs one pass over
    ``values`` plus one numpy call per round.  Segments with no elements
    sum to 0.0.
    """
    n_segments = len(counts)
    sums = np.zeros(n_segments, dtype=np.float64)
    if not len(values):
        return sums
    starts = np.cumsum(counts) - counts
    if n_segments < 4:
        for s, (lo, c) in enumerate(zip(starts.tolist(), counts.tolist())):
            if c:
                sums[s] = np.add.accumulate(values[lo : lo + c])[-1]
        return sums
    order = np.argsort(-counts, kind="stable")
    n_open = n_segments - np.cumsum(np.bincount(counts))
    cursor = starts[order]
    acc = values[np.minimum(cursor, len(values) - 1)]
    for r in range(1, len(n_open) - 1):
        live = int(n_open[r])
        cursor = cursor[:live] + 1
        acc[:live] += values[cursor]
    sums[order] = acc
    sums[counts == 0] = 0.0
    return sums


def _sorted_rows(group: np.ndarray, keys: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort of payloads by ``(group, keys...)`` and the row starts.

    ``group`` is non-decreasing.  A row is a run of equal ``(group,
    keys...)`` in sorted order.  The columns pack into one int64 key when
    their spans fit, and one stable argsort of it is about twice as fast
    as ``np.lexsort`` of the columns, which remains for keys that would
    overflow.  Stability keeps each row's payloads in stream order, which
    the left-to-right sums rely on.
    """
    n = len(group)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    packed = group
    bound = int(group[-1]) + 1
    for k in keys:
        lo = int(k.min())
        span = int(k.max()) - lo + 1
        bound *= span
        if bound >= 1 << 63:
            packed = None
            break
        packed = packed * span + (k - lo)
    change = np.ones(n, dtype=bool)
    if packed is not None:
        order = np.argsort(packed, kind="stable")
        p = packed[order]
        np.not_equal(p[1:], p[:-1], out=change[1:])
    else:
        order = np.lexsort(tuple(reversed(keys)) + (group,))
        g = group[order]
        np.not_equal(g[1:], g[:-1], out=change[1:])
        for k in keys:
            ks = k[order]
            change[1:] |= ks[1:] != ks[:-1]
    return order, np.nonzero(change)[0]


class Reduce(Primitive):
    """Sum values within each innermost fiber (removes one stop level).

    One value is emitted per closed fiber — zero for empty fibers — keeping
    the output aligned with the surrounding coordinate streams; explicit
    zeros are elided later by the coordinate dropper / tensor writer.
    """

    kind = "reduce"
    in_ports = ("val",)
    out_ports = ("val",)

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        out: Stream = []
        acc: Any = None
        stream = ins["val"]
        stats.tokens_in += len(stream)
        for i, token in enumerate(stream):
            kind = token[0]
            if kind == VAL:
                if acc is None:
                    acc = token[1]
                else:
                    acc = acc + token[1]
                    stats.ops += 1 if not isinstance(acc, np.ndarray) else int(acc.size)
            elif kind == EMPTY:
                if acc is None:
                    acc = 0.0
            elif kind == STOP:
                out.append((VAL, acc if acc is not None else 0.0))
                acc = None
                if token[1] > 0:
                    out.append((STOP, token[1] - 1))
            elif kind == DONE:
                if i != len(stream) - 1:
                    raise StreamProtocolError(
                        f"reduce: done token at position {i} is not last"
                    )
                if acc is not None:
                    out.append((VAL, acc))
                    acc = None
                out.append(DONE_TOKEN)
            else:
                raise StreamProtocolError(f"reduce got unexpected token kind {kind}")
        stats.tokens_out += len(out)
        return {"val": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        ts = ins["val"]
        n = len(ts)
        stats.tokens_in += n
        kinds = ts.kinds
        bad = np.nonzero((kinds == CRD) | (kinds == REF))[0]
        if bad.size:
            raise StreamProtocolError(
                f"reduce got unexpected token kind {int(kinds[bad[0]])}"
            )
        _require_done_last(kinds, "reduce")
        stop_pos = np.nonzero(kinds == STOP)[0]
        stop_levels = ts.data[stop_pos].astype(np.int64)
        n_stops = len(stop_pos)

        val_pos = np.nonzero(kinds == VAL)[0]
        empty_pos = np.nonzero(kinds == EMPTY)[0]
        # Segment of a position = number of stops strictly before it.
        seg_of_val = np.searchsorted(stop_pos, val_pos)
        seg_of_empty = np.searchsorted(stop_pos, empty_pos)
        n_segments = n_stops + 1  # + trailing segment before done
        val_counts = np.bincount(seg_of_val, minlength=n_segments)
        sums = _segment_sums(ts.data[val_pos], val_counts)
        empty_counts = np.bincount(seg_of_empty, minlength=n_segments)

        # FLOPs: one add per VAL accumulated onto a live accumulator.  The
        # accumulator is live from the second VAL on — or from the first VAL
        # when an EMPTY already initialized it to zero.
        has_vals = val_counts > 0
        first_val = np.full(n_segments, n, dtype=np.int64)
        first_val[seg_of_val[::-1]] = val_pos[::-1]
        first_empty = np.full(n_segments, n, dtype=np.int64)
        first_empty[seg_of_empty[::-1]] = empty_pos[::-1]
        early_empty = has_vals & (first_empty < first_val)
        stats.ops += int(
            np.sum(val_counts[has_vals] - 1) + np.count_nonzero(early_empty)
        )
        # ``process`` starts such a sum from the EMPTY's 0.0: adding it
        # last only turns an all -0.0 sum into +0.0, as starting from it does.
        sums[early_empty] += 0.0

        # Output layout: one VAL per stop (+ a shallower stop for levels
        # > 0), then — only when DONE ends the stream, as in ``process`` —
        # a trailing VAL when the last segment saw any payload, and done.
        has_done = bool(n and kinds[-1] == DONE)
        trailing = has_done and bool(has_vals[-1] or empty_counts[-1] > 0)
        deep = stop_levels > 0
        sizes = 1 + deep.astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total = int(offsets[-1]) + trailing + has_done
        out_kinds = np.full(total, VAL, dtype=np.int8)
        out_data = np.zeros(total, dtype=np.float64)
        val_slots = offsets[:-1]
        out_data[val_slots] = sums[:n_stops]
        deep_slots = val_slots[deep] + 1
        out_kinds[deep_slots] = STOP
        out_data[deep_slots] = (stop_levels[deep] - 1).astype(np.float64)
        if trailing:
            out_data[total - 2] = sums[n_stops]
        if has_done:
            out_kinds[total - 1] = DONE
            out_data[total - 1] = 0.0
        out = TokenStream(out_kinds, out_data)
        stats.tokens_out += total
        return {"val": out}


class VectorReducer(Primitive):
    """Higher-order reduction over a non-innermost index variable.

    Reduces an index that has ``order`` output indices nested below it by
    keeping accumulators keyed by the tuple of inner coordinates (a vector
    for order 1, a tensor for order n).

    Inputs: ``crd0`` .. ``crd{order-1}`` coordinate streams — each broadcast
    (coordinate-held) so it aligns 1:1 with ``val`` — plus the ``val``
    stream, whose nesting is ``[...outer][red][inner0 .. inner{order-1}]``.
    Stop levels below ``order`` are fiber boundaries *within* one reduction
    group and are absorbed; a stop of level ``s >= order`` closes the
    reduction fiber: the accumulator flushes as a sorted nested fiber group.

    Outputs: ``crd0`` .. ``crd{order-1}`` at their natural nesting depths
    (``crd_d`` emits one coordinate per distinct length-``d+1`` key prefix)
    plus the reduced ``val`` stream aligned with ``crd{order-1}``.  At a
    flush triggered by input stop ``s``, stream ``crd_d`` closes with
    ``stop(d + s - order)`` and ``val`` with ``stop(s - 1)`` — the reduced
    level disappears from the nesting.
    """

    kind = "vreduce"

    def __init__(self, order: int = 1) -> None:
        if order < 1:
            raise ValueError("vector reducer order must be >= 1")
        self.order = order
        self.in_ports = tuple(f"crd{d}" for d in range(order)) + ("val",)
        self.out_ports = tuple(f"crd{d}" for d in range(order)) + ("val",)

    def describe(self) -> str:
        return f"vreduce(order={self.order})"

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        n = self.order
        val_in = ins["val"]
        crd_ins = [ins[f"crd{d}"] for d in range(n)]
        for d, stream in enumerate(crd_ins):
            if len(stream) != len(val_in):
                raise StreamProtocolError(
                    f"vreduce: crd{d}/val misaligned ({len(stream)} vs {len(val_in)})"
                )
        stats.tokens_in += len(val_in) * (n + 1)

        out_crds: List[Stream] = [[] for _ in range(n)]
        out_val: Stream = []
        acc: Dict[Tuple[int, ...], Any] = {}

        def emit_group() -> None:
            """Emit sorted accumulator contents as nested fibers (no trailing stop)."""
            keys = sorted(acc)
            prev: Tuple[int, ...] | None = None
            for key in keys:
                if prev is not None:
                    common = 0
                    while common < n and prev[common] == key[common]:
                        common += 1
                    # Stream d closes fibers when a level above it changed.
                    for d in range(n):
                        if common <= d - 1:
                            out_crds[d].append((STOP, d - 1 - common))
                    if common <= n - 2:
                        out_val.append((STOP, n - 2 - common))
                for d in range(n):
                    if prev is None or key[: d + 1] != prev[: d + 1]:
                        out_crds[d].append((CRD, key[d]))
                out_val.append((VAL, acc[key]))
                prev = key
            acc.clear()

        def close_group(input_stop_level: int) -> None:
            """Append the flush-closing stops for input stop ``s``."""
            extra = input_stop_level - n
            for d in range(n):
                out_crds[d].append((STOP, d + extra))
            out_val.append((STOP, input_stop_level - 1))

        for pos, tv in enumerate(val_in):
            kv = tv[0]
            if kv == VAL or kv == EMPTY:
                key: List[int] = []
                for d in range(n):
                    tc = crd_ins[d][pos]
                    if tc[0] != CRD:
                        raise StreamProtocolError(
                            f"vreduce: crd{d} token {tc} does not align with value"
                        )
                    key.append(tc[1])
                key_t = tuple(key)
                value = 0.0 if kv == EMPTY else tv[1]
                if key_t in acc:
                    acc[key_t] = acc[key_t] + value
                    stats.ops += int(value.size) if isinstance(value, np.ndarray) else 1
                else:
                    acc[key_t] = value
            elif kv == STOP:
                level = tv[1]
                for d in range(n):
                    tc = crd_ins[d][pos]
                    if tc[0] != STOP or tc[1] != level:
                        raise StreamProtocolError("vreduce: stop tokens disagree")
                if level >= n:
                    emit_group()
                    close_group(level)
                # Stops below the reduction boundary are absorbed.
            elif kv == DONE:
                if pos != len(val_in) - 1:
                    raise StreamProtocolError(
                        f"vreduce: done token at position {pos} is not last"
                    )
                if acc:
                    emit_group()
                    close_group(n)
                for d in range(n):
                    out_crds[d].append(DONE_TOKEN)
                out_val.append(DONE_TOKEN)
            else:
                raise StreamProtocolError(f"vreduce got unexpected token kind {kv}")
        stats.tokens_out += sum(len(s) for s in out_crds) + len(out_val)
        outs: Dict[str, Stream] = {f"crd{d}": out_crds[d] for d in range(n)}
        outs["val"] = out_val
        return outs

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        n_ord = self.order
        val = ins["val"]
        crds = [ins[f"crd{d}"] for d in range(n_ord)]
        for d, s in enumerate(crds):
            if len(s) != len(val):
                raise StreamProtocolError(
                    f"vreduce: crd{d}/val misaligned ({len(s)} vs {len(val)})"
                )
        kinds = val.kinds
        n = len(val)
        is_empty = kinds == EMPTY
        pay_pos = np.nonzero((kinds == VAL) | is_empty)[0]
        stats.tokens_in += n * (n_ord + 1)
        bad = np.nonzero((kinds == CRD) | (kinds == REF))[0]
        if bad.size:
            raise StreamProtocolError(
                f"vreduce got unexpected token kind {int(kinds[bad[0]])}"
            )
        _require_done_last(kinds, "vreduce")
        is_stop = kinds == STOP
        stop_pos = np.nonzero(is_stop)[0]
        for d, s in enumerate(crds):
            ck = s.kinds
            badp = pay_pos[ck[pay_pos] != CRD]
            if badp.size:
                i = int(badp[0])
                raise StreamProtocolError(
                    f"vreduce: crd{d} token {s.token_at(i)} does not align with value"
                )
            bads = (ck[stop_pos] != STOP) | (s.data[stop_pos] != val.data[stop_pos])
            if bads.any():
                raise StreamProtocolError("vreduce: stop tokens disagree")

        # A stop of level >= order closes a reduction group; payload p
        # belongs to the group numbered by the flushes before it.
        is_flush = is_stop & (val.data >= n_ord)
        flush_levels = val.data[is_flush].astype(np.int64)
        n_flush = len(flush_levels)
        group = np.cumsum(is_flush, dtype=np.int64)[pay_pos]
        keys = [c.data[pay_pos].astype(np.int64) for c in crds]
        order, row_starts = _sorted_rows(group, keys)
        n_rows = len(row_starts)
        row_group = group[order[row_starts]]
        row_keys = [k[order[row_starts]] for k in keys]
        counts = np.diff(row_starts, append=len(pay_pos))
        row_sums = _segment_sums(val.data[pay_pos][order], counts)
        stats.ops += len(pay_pos) - n_rows

        # ---- emission: every output position computed at once ----
        # Rows after the last flush form a group only when DONE ends the
        # stream; a cut stream drops them, as ``process`` does.
        has_done = bool(n and kinds[-1] == DONE)
        if not has_done:
            n_rows = int(np.searchsorted(row_group, n_flush))
            row_group = row_group[:n_rows]
            row_keys = [k[:n_rows] for k in row_keys]
        close_levels = flush_levels
        if has_done and n_rows and row_group[-1] == n_flush:
            close_levels = np.append(flush_levels, n_ord)
        n_closes = len(close_levels)
        # common[r]: length of the key prefix row r shares with the row
        # before it in its group; -1 opens a group.
        common = np.full(n_rows, -1, dtype=np.int64)
        if n_rows:
            same = row_group[1:] == row_group[:-1]
            common[1:][same] = 0
            for k in row_keys:
                same &= k[1:] == k[:-1]
                common[1:] += same
        # Group g's rows end where rows of groups <= g end; its close
        # follows them, after the g closes before it.
        group_ends = np.searchsorted(row_group, np.arange(n_closes), side="right")

        outs: Dict[str, TokenStream] = {}
        for d in range(n_ord):
            # Row r emits stop(d - 1 - common) when a level above d changed
            # inside its group, then crd when its first d + 1 keys are new.
            has_stop = (common >= 0) & (common < d)
            has_crd = common <= d
            width = has_stop + has_crd.astype(np.int64)
            ends = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(width, out=ends[1:])
            first = ends[:-1] + row_group
            total = int(ends[-1]) + n_closes + has_done
            out_kinds = np.empty(total, dtype=np.int8)
            out_data = np.empty(total, dtype=np.float64)
            stop_at = first[has_stop]
            out_kinds[stop_at] = STOP
            out_data[stop_at] = (d - 1) - common[has_stop]
            crd_at = (first + has_stop)[has_crd]
            out_kinds[crd_at] = CRD
            out_data[crd_at] = row_keys[d][has_crd]
            close_at = ends[group_ends] + np.arange(n_closes)
            out_kinds[close_at] = STOP
            out_data[close_at] = close_levels + (d - n_ord)
            if has_done:
                out_kinds[-1] = DONE
                out_data[-1] = 0.0
            outs[f"crd{d}"] = TokenStream(out_kinds, out_data)
        # The value stream has the innermost coordinate stream's shape:
        # every row emits, with its sum where crd{order-1} has its key.
        val_kinds = out_kinds.copy()
        val_kinds[crd_at] = VAL
        val_data = out_data.copy()
        val_data[crd_at] = row_sums[:n_rows]
        outs["val"] = TokenStream(val_kinds, val_data)
        stats.tokens_out += sum(len(s) for s in outs.values())
        return outs


class AlignCheck(Primitive):
    """Assert two coordinate streams are identical, passing the first through.

    Inserted where the lowering adopts one intermediate's iteration for
    several structurally aligned operands (e.g., elementwise adds of two
    intermediates produced over the same dense row space).  A mismatch means
    the schedule needed a materialization — failing loudly here turns a
    silent wrong answer into a diagnosable error.
    """

    kind = "aligncheck"
    in_ports = ("a", "b")
    out_ports = ("out",)

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        a, b = ins["a"], ins["b"]
        stats.tokens_in += len(a) + len(b)
        if a != b:
            raise StreamProtocolError(
                "aligned-adopt streams differ; the fusion schedule requires a "
                "materialization boundary between these statements"
            )
        stats.tokens_out += len(a)
        return {"out": list(a)}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        a, b = ins["a"], ins["b"]
        stats.tokens_in += len(a) + len(b)
        if not streams_equal(a, b):
            raise StreamProtocolError(
                "aligned-adopt streams differ; the fusion schedule requires a "
                "materialization boundary between these statements"
            )
        stats.tokens_out += len(a)
        return {"out": a}
