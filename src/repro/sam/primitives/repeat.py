"""Repeaters: broadcast a stream across the coordinates of another.

A repeater re-emits its current *base* token (a reference or value) once per
coordinate of the *rep* (repeat-signal) stream, advancing to the next base
token at each fiber boundary of the rep stream.  The emitted control
structure comes entirely from the rep stream, which is how SAM broadcasts an
operand across index variables it does not itself carry (e.g., repeating
matrix ``X``'s root reference across every row coordinate ``i`` of ``A``
in SpMM, Figure 9 of the paper).
"""

from __future__ import annotations

from typing import Dict, Optional

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
)
from .base import ExecutionContext, NodeStats, Primitive


class Repeat(Primitive):
    """Repeat base tokens per rep-stream coordinate.

    Ports: ``base`` (refs, values, or coordinates to broadcast) and ``rep``
    (a coordinate stream one nesting level deeper that defines the
    repetition structure) in; ``out`` out.

    The two streams are related by construction: the rep stream contains one
    fiber per base payload token, and a rep stop of level ``n + 1`` mirrors a
    base stop of level ``n``.  The repeater walks both streams in lockstep:

    * rep CRD: emit the current base payload;
    * rep STOP(0): emit it and consume one base payload;
    * rep STOP(n >= 1): emit it, consume one base payload if one is current,
      then consume the base's matching STOP(n - 1);
    * rep DONE: emit done (base must be at its done token).

    This disambiguates empty fibers on either side (an empty base segment
    and an empty repeated fiber produce identical rep-token patterns but
    different base cursor states).
    """

    kind = "repeat"
    in_ports = ("base", "rep")
    out_ports = ("out",)

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        base, rep = ins["base"], ins["rep"]
        stats.tokens_in += len(base) + len(rep)
        out: Stream = []
        bi = 0

        def base_kind() -> int:
            return base[bi][0] if bi < len(base) else DONE

        for token in rep:
            kind = token[0]
            if kind == CRD:
                bk = base_kind()
                if bk == STOP or bk == DONE:
                    raise StreamProtocolError(
                        "repeat: rep stream has coordinates but base has none current"
                    )
                out.append(base[bi])
            elif kind == STOP:
                out.append(token)
                bk = base_kind()
                if bk != STOP and bk != DONE:
                    bi += 1  # consume the payload this fiber repeated
                if token[1] >= 1:
                    if base_kind() != STOP:
                        raise StreamProtocolError(
                            f"repeat: rep stop {token[1]} expects a base stop "
                            f"{token[1] - 1}, found {base[bi] if bi < len(base) else 'EOS'}"
                        )
                    if base[bi][1] != token[1] - 1:
                        raise StreamProtocolError(
                            f"repeat: rep stop {token[1]} mismatches base stop "
                            f"{base[bi][1]}"
                        )
                    bi += 1
            elif kind == DONE:
                out.append(DONE_TOKEN)
            else:
                raise StreamProtocolError(
                    f"repeat: unexpected token kind {kind} on rep stream"
                )
        stats.tokens_out += len(out)
        return {"out": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        """Columnar repeat: Python over *fiber boundaries*, numpy over crds.

        The base-cursor walk (which base payload each rep fiber repeats)
        only advances at rep stop tokens, so it runs once per fiber; the
        per-coordinate broadcast — the part that scales with stream size —
        is a single gather.
        """
        base, rep = ins["base"], ins["rep"]
        stats.tokens_in += len(base) + len(rep)
        rk = rep.kinds
        n = len(rk)
        bad = np.nonzero((rk == REF) | (rk == VAL) | (rk == EMPTY))[0]
        if bad.size:
            raise StreamProtocolError(
                f"repeat: unexpected token kind {int(rk[bad[0]])} on rep stream"
            )
        base_kinds = base.kinds.tolist()
        base_data = base.data
        nb = len(base_kinds)
        stop_pos = np.nonzero(rk == STOP)[0]
        stop_levels = rep.data[stop_pos].astype(np.int64).tolist()

        # Cursor walk over fiber boundaries: fiber f repeats base[cursor_f].
        cursors = [0]
        bi = 0
        for lvl in stop_levels:
            bk = base_kinds[bi] if bi < nb else DONE
            if bk != STOP and bk != DONE:
                bi += 1  # consume the payload this fiber repeated
            if lvl >= 1:
                bk = base_kinds[bi] if bi < nb else DONE
                if bk != STOP:
                    found = base.token_at(bi) if bi < nb else "EOS"
                    raise StreamProtocolError(
                        f"repeat: rep stop {lvl} expects a base stop "
                        f"{lvl - 1}, found {found}"
                    )
                if int(base_data[bi]) != lvl - 1:
                    raise StreamProtocolError(
                        f"repeat: rep stop {lvl} mismatches base stop "
                        f"{int(base_data[bi])}"
                    )
                bi += 1
            cursors.append(bi)

        crd_pos = np.nonzero(rk == CRD)[0]
        out_kinds = rk.copy()
        out_data = rep.data.copy()
        out_objs = None
        if crd_pos.size:
            fiber_of_crd = np.searchsorted(stop_pos, crd_pos)
            src = np.asarray(cursors, dtype=np.int64)[fiber_of_crd]
            valid = src < nb
            src_k = np.where(valid, src, 0)
            kinds_at = base.kinds[src_k]
            payload_ok = valid & (kinds_at != STOP) & (kinds_at != DONE)
            if not payload_ok.all():
                raise StreamProtocolError(
                    "repeat: rep stream has coordinates but base has none current"
                )
            out_kinds[crd_pos] = kinds_at
            out_data[crd_pos] = base_data[src_k]
            if base.objs is not None:
                out_objs = np.full(n, None, dtype=object)
                out_objs[crd_pos] = base.objs[src_k]
        out = TokenStream(out_kinds, out_data, out_objs)
        stats.tokens_out += n
        return {"out": out}


class RepeatSigGen(Primitive):
    """Identity view of a coordinate stream used as a repeat signal.

    SAM separates repeat-signal generation from repetition; in this
    implementation the signal *is* the coordinate stream, so the generator is
    a pass-through kept for graph fidelity (it shows up as an explicit node
    in generated graphs, mirroring the paper's diagrams).
    """

    kind = "repsig"
    in_ports = ("crd",)
    out_ports = ("out",)

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        stream = list(ins["crd"])
        stats.tokens_in += len(stream)
        stats.tokens_out += len(stream)
        return {"out": stream}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        stream = ins["crd"]
        stats.tokens_in += len(stream)
        stats.tokens_out += len(stream)
        return {"out": stream}


class ScalarRepeat(Primitive):
    """Broadcast a single payload across every coordinate of a rep stream.

    Used when a rebuilt (recompute-fused) producer pulls an operand that does
    not carry the driver index: the operand's root reference is broadcast to
    every position of the driver's (arbitrarily deeply nested) coordinate
    stream.  Stops and done pass through unchanged.
    """

    kind = "srepeat"
    op_class = "repeat"
    in_ports = ("base", "rep")
    out_ports = ("out",)

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        base, rep = ins["base"], ins["rep"]
        stats.tokens_in += len(base) + len(rep)
        payloads = [t for t in base if t[0] not in (STOP, DONE)]
        if len(payloads) != 1:
            raise StreamProtocolError(
                f"scalar repeat expects exactly one base payload, got {len(payloads)}"
            )
        payload = payloads[0]
        out: Stream = []
        for token in rep:
            kind = token[0]
            if kind == CRD:
                out.append(payload)
            elif kind == STOP or kind == DONE:
                out.append(token)
            else:
                raise StreamProtocolError(
                    f"scalar repeat: unexpected token kind {kind} on rep stream"
                )
        stats.tokens_out += len(out)
        return {"out": out}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        base, rep = ins["base"], ins["rep"]
        stats.tokens_in += len(base) + len(rep)
        bk = base.kinds
        pay_pos = np.nonzero((bk != STOP) & (bk != DONE))[0]
        if len(pay_pos) != 1:
            raise StreamProtocolError(
                f"scalar repeat expects exactly one base payload, got {len(pay_pos)}"
            )
        p = int(pay_pos[0])
        rk = rep.kinds
        n = len(rk)
        bad = np.nonzero((rk != CRD) & (rk != STOP) & (rk != DONE))[0]
        if bad.size:
            raise StreamProtocolError(
                f"scalar repeat: unexpected token kind {int(rk[bad[0]])} on rep stream"
            )
        is_crd = rk == CRD
        out_kinds = np.where(is_crd, bk[p], rk)
        out_data = np.where(is_crd, base.data[p], rep.data)
        out_objs = None
        if base.objs is not None and base.objs[p] is not None:
            out_objs = np.full(n, None, dtype=object)
            fill = np.empty(int(np.count_nonzero(is_crd)), dtype=object)
            fill.fill(base.objs[p])
            out_objs[is_crd] = fill
        out = TokenStream(out_kinds, out_data, out_objs)
        stats.tokens_out += n
        return {"out": out}
