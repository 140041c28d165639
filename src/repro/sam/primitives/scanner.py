"""Input-iteration primitives: root sources, level scanners, and locate.

A *level scanner* traverses one level of a tensor's fibertree.  It receives a
stream of references to fibers in its level and emits, for each reference,
the fiber's coordinates (``crd`` port) and child references (``ref`` port).
Stop tokens from the input are re-emitted one level deeper; every opened
fiber is closed by a stop before the stream terminates, matching the SAM
protocol (Section 2 of the paper).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..token import (
    CRD,
    DONE,
    DONE_TOKEN,
    EMPTY,
    EMPTY_TOKEN,
    REF,
    STOP,
    VAL,
    Stream,
    StreamProtocolError,
    TokenStream,
)
from .base import ExecutionContext, NodeStats, Primitive


class Root(Primitive):
    """Emits the root reference stream ``ref(0) D`` that starts iteration."""

    kind = "root"
    in_ports = ()
    out_ports = ("ref",)

    def process(self, ins, ctx, stats) -> Dict[str, Stream]:
        out: Stream = [(REF, 0), DONE_TOKEN]
        stats.tokens_out += len(out)
        return {"ref": out}

    #: Constant columnar root stream (streams are immutable in flight).
    _COLUMNAR = TokenStream(
        np.array([REF, DONE], dtype=np.int8), np.zeros(2, dtype=np.float64)
    )

    def process_columnar(self, ins, ctx, stats) -> Dict[str, TokenStream]:
        stats.tokens_out += 2
        return {"ref": Root._COLUMNAR}


class LevelScanner(Primitive):
    """Scan one storage level of a named tensor.

    Parameters
    ----------
    tensor_name:
        Name bound to a :class:`~repro.ftree.tensor.SparseTensor` at run time.
    level:
        Storage level index this scanner traverses.

    The tensor structure resides off-chip: a compressed level charges 4
    bytes per pos/crd touch to DRAM.
    """

    kind = "scan"
    in_ports = ("ref",)
    out_ports = ("crd", "ref")

    def __init__(self, tensor_name: str, level: int) -> None:
        self.tensor_name = tensor_name
        self.level = level

    def describe(self) -> str:
        return f"scan({self.tensor_name}.L{self.level})"

    def touches_dram(self) -> bool:
        return True

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        tensor = ctx.tensor(self.tensor_name)
        level = tensor.levels[self.level]
        compressed = level.kind == "compressed"
        crd_out: Stream = []
        ref_out: Stream = []
        open_fiber = False
        access_bytes = 0
        stats.tokens_in += len(ins["ref"])
        for token in ins["ref"]:
            kind, payload = token
            if kind == REF:
                if open_fiber:
                    crd_out.append((STOP, 0))
                    ref_out.append((STOP, 0))
                coords, children = level.fiber(payload)
                for c, child in zip(coords, children):
                    crd_out.append((CRD, c))
                    ref_out.append((REF, child))
                if compressed:
                    # pos pair + one crd entry per nonzero, 4 bytes each.
                    access_bytes += 8 + 4 * len(list(coords))
                open_fiber = True
            elif kind == EMPTY:
                if open_fiber:
                    crd_out.append((STOP, 0))
                    ref_out.append((STOP, 0))
                open_fiber = True
            elif kind == STOP:
                crd_out.append((STOP, payload + 1))
                ref_out.append((STOP, payload + 1))
                open_fiber = False
            elif kind == DONE:
                if open_fiber:
                    crd_out.append((STOP, 0))
                    ref_out.append((STOP, 0))
                crd_out.append(DONE_TOKEN)
                ref_out.append(DONE_TOKEN)
            else:
                raise StreamProtocolError(f"scanner got unexpected token kind {kind}")
        if compressed:
            stats.read_operand(access_bytes, tensor.bytes_structure())
        stats.tokens_out += len(crd_out) + len(ref_out)
        return {"crd": crd_out, "ref": ref_out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        """Columnar scan: a CSR-style expansion with no per-token loop.

        Per-input-token output counts come from shifted-kind masks, their
        cumsum gives each token's output offset, and every fiber's
        coordinates and child references land in one ``repeat``/``arange``
        gather.  Streams, stats and error text match :meth:`process`.
        """
        ref_in = ins["ref"]
        tensor = ctx.tensor(self.tensor_name)
        level = tensor.levels[self.level]
        kinds = ref_in.kinds
        data = ref_in.data
        n = len(kinds)
        stats.tokens_in += n
        is_ref = kinds == REF
        is_stop = kinds == STOP
        is_done = kinds == DONE
        opens = is_ref | (kinds == EMPTY)
        bad = ~(opens | is_stop | is_done)
        if bad.any():
            kind = int(kinds[np.argmax(bad)])
            raise StreamProtocolError(f"scanner got unexpected token kind {kind}")
        # A fiber is open before token t iff the last REF/EMPTY/STOP token
        # strictly before t was a REF or EMPTY (DONE leaves it untouched);
        # REF, EMPTY and DONE close an open fiber with a level-0 stop.
        last = np.where(opens | is_stop, np.arange(n), -1)
        np.maximum.accumulate(last, out=last)
        was_open = np.zeros(n, dtype=bool)
        if n > 1:
            prev = last[:-1]
            seen = prev >= 0
            was_open[1:][seen] = opens[prev[seen]]
        closes = was_open & (opens | is_done)
        refs = data[is_ref].astype(np.int64)
        n_fibers = len(refs)
        if level.kind == "dense":
            starts = refs * level.size
            lens = np.full(n_fibers, level.size, dtype=np.int64)
        else:
            pos, crd = level.arrays()
            starts = pos[refs]
            lens = pos[refs + 1] - starts
        nnz = int(lens.sum())
        counts = closes.astype(np.int64)
        counts[is_ref] += lens
        counts[is_stop] += 1
        counts[is_done] += 1
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[n])
        first = offsets[:-1]
        crd_kinds = np.full(total, CRD, dtype=np.int8)
        ref_kinds = np.full(total, REF, dtype=np.int8)
        crd_data = np.zeros(total, dtype=np.float64)
        ref_data = np.zeros(total, dtype=np.float64)
        for slots, kind in (
            (first[closes], STOP),
            (first[is_stop], STOP),
            (first[is_done] + closes[is_done], DONE),
        ):
            crd_kinds[slots] = kind
            ref_kinds[slots] = kind
        stop_slots = first[is_stop]
        crd_data[stop_slots] = ref_data[stop_slots] = data[is_stop] + 1.0
        if nnz:
            fiber_start = np.zeros(n_fibers, dtype=np.int64)
            np.cumsum(lens[:-1], out=fiber_start[1:])
            within = np.arange(nnz, dtype=np.int64)
            within -= np.repeat(fiber_start, lens)
            slots = np.repeat(first[is_ref] + closes[is_ref], lens) + within
            children = np.repeat(starts, lens) + within
            crd_data[slots] = within if level.kind == "dense" else crd[children]
            ref_data[slots] = children
        if level.kind == "compressed":
            # pos pair per fiber + one crd entry per nonzero, 4 bytes each.
            stats.read_operand(8 * n_fibers + 4 * nnz, tensor.bytes_structure())
        stats.tokens_out += 2 * total
        return {
            "crd": TokenStream(crd_kinds, crd_data),
            "ref": TokenStream(ref_kinds, ref_data),
        }


class Locate(Primitive):
    """Map coordinate tokens to references within one tensor level.

    Used by recompute-style fusion: a consumer's coordinate stream drives a
    producer's outer level.  For dense levels a coordinate *is* the position
    offset; for compressed levels a binary search over each parent fiber is
    modeled (and charged as structure reads).

    The input coordinates address fibers under parent position ``parent``
    (default 0, i.e. the level is the outermost one).
    """

    kind = "locate"
    in_ports = ("crd",)
    out_ports = ("ref",)

    def __init__(self, tensor_name: str, level: int) -> None:
        self.tensor_name = tensor_name
        self.level = level

    def describe(self) -> str:
        return f"locate({self.tensor_name}.L{self.level})"

    def touches_dram(self) -> bool:
        return True

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        tensor = ctx.tensor(self.tensor_name)
        level = tensor.levels[self.level]
        out: Stream = []
        stats.tokens_in += len(ins["crd"])
        for token in ins["crd"]:
            kind, payload = token
            if kind == CRD:
                if level.kind == "dense":
                    out.append((REF, payload))
                else:
                    coords, children = level.fiber(0)
                    found = False
                    for c, child in zip(coords, children):
                        if c == payload:
                            out.append((REF, child))
                            found = True
                            break
                    if not found:
                        out.append(EMPTY_TOKEN)
                    stats.dram_reads += 8
            elif kind in (STOP, DONE, EMPTY):
                out.append(token)
            else:
                raise StreamProtocolError(f"locate got unexpected token kind {kind}")
        stats.tokens_out += len(out)
        return {"ref": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        crd_in = ins["crd"]
        tensor = ctx.tensor(self.tensor_name)
        level = tensor.levels[self.level]
        kinds = crd_in.kinds
        n = len(kinds)
        stats.tokens_in += n
        bad = np.nonzero((kinds == REF) | (kinds == VAL))[0]
        if bad.size:
            raise StreamProtocolError(
                f"locate got unexpected token kind {int(kinds[bad[0]])}"
            )
        is_crd = kinds == CRD
        if level.kind == "dense":
            # A coordinate *is* the position offset: retag CRD -> REF.
            out_kinds = np.where(is_crd, np.int8(REF), kinds)
            return self._finish(out_kinds, crd_in.data, stats)
        coords, children = level.fiber(0)
        carr = np.asarray(coords, dtype=np.int64)
        queries = crd_in.data[is_crd].astype(np.int64)
        idx = np.searchsorted(carr, queries)
        clipped = np.minimum(idx, max(len(carr) - 1, 0))
        found = (
            (carr[clipped] == queries) & (idx < len(carr))
            if len(carr)
            else np.zeros(len(queries), dtype=bool)
        )
        child_base = children[0] if len(carr) else 0
        out_kinds = kinds.copy()
        out_data = crd_in.data.copy()
        crd_pos = np.nonzero(is_crd)[0]
        out_kinds[crd_pos] = np.where(found, np.int8(REF), np.int8(EMPTY))
        out_data[crd_pos] = np.where(found, (child_base + clipped).astype(np.float64), 0.0)
        stats.dram_reads += 8 * len(queries)
        return self._finish(out_kinds, out_data, stats)

    def _finish(self, kinds: np.ndarray, data: np.ndarray, stats: NodeStats) -> Dict[str, TokenStream]:
        out = TokenStream(kinds, data)
        stats.tokens_out += len(out)
        return {"ref": out}


class CrdSource(Primitive):
    """Replay a precomputed stream (used to stitch kernels and in tests)."""

    kind = "source"
    in_ports = ()
    out_ports = ("out",)

    def __init__(self, stream: Stream, label: str = "stream") -> None:
        self.stream = list(stream)
        self.label = label

    def describe(self) -> str:
        return f"source({self.label})"

    def process(self, ins, ctx, stats) -> Dict[str, Stream]:
        stats.tokens_out += len(self.stream)
        return {"out": list(self.stream)}

    def process_columnar(self, ins, ctx, stats) -> Dict[str, TokenStream]:
        cached = getattr(self, "_columnar", None)
        if cached is None:
            cached = TokenStream.from_tokens(self.stream)
            self._columnar = cached
        stats.tokens_out += len(cached)
        return {"out": cached}
