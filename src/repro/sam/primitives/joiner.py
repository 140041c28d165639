"""Stream joiners: intersect and union.

Joiners combine two coordinate streams that iterate the same index variable,
forwarding the payload streams that ride along with each side.  Intersection
keeps only coordinates present on both sides (multiplication); union keeps
all coordinates, emitting EMPTY padding on the side that lacks one
(addition).  Control tokens (stops/done) must agree between the two sides —
the protocol guarantees this when both streams iterate the same fused index.

The columnar kernels reduce the two-pointer merge to sorted-array set
operations: coordinates are keyed by ``segment * C + coord`` (segments are
the runs between control tokens, which the protocol makes identical on both
sides), so one ``np.intersect1d``/``np.union1d`` call joins every fiber of
the stream at once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..token import (
    CRD,
    DONE,
    EMPTY,
    EMPTY_TOKEN,
    STOP,
    Stream,
    StreamProtocolError,
    TokenStream,
    token_str,
)
from .base import ExecutionContext, NodeStats, Primitive


def _require_aligned(stream_a, stream_b, who: str, node: str = "?") -> None:
    if len(stream_a) != len(stream_b):
        raise StreamProtocolError(
            f"{who} at node {node}: crd and companion stream lengths differ "
            f"({len(stream_a)} vs {len(stream_b)})"
        )


def _control_mismatch(
    kind: str, node: str, pos_a: int, pos_b: int, ta, tb
) -> StreamProtocolError:
    return StreamProtocolError(
        f"{kind} control mismatch at node {node}: "
        f"{token_str(ta)} (crd_a position {pos_a}) vs "
        f"{token_str(tb)} (crd_b position {pos_b})"
    )


def _split_segments(
    crd: TokenStream, who: str, node: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Control/payload decomposition of a joiner coordinate stream.

    Returns ``(ctrl_idx, pay_idx, seg_of_payload, coords)``.  Raises when a
    non-CRD payload token rides the coordinate stream.
    """
    kinds = crd.kinds
    ctrl = (kinds == STOP) | (kinds == DONE)
    pay_idx = np.nonzero(~ctrl)[0]
    if pay_idx.size and not np.all(kinds[pay_idx] == CRD):
        bad = pay_idx[kinds[pay_idx] != CRD][0]
        raise StreamProtocolError(
            f"{who} at node {node}: unexpected token kind "
            f"{int(kinds[bad])} at position {int(bad)} of the crd stream"
        )
    ctrl_idx = np.nonzero(ctrl)[0]
    # Segment of a payload = number of control tokens before it.
    seg = np.cumsum(ctrl)[pay_idx]
    return ctrl_idx, pay_idx, seg, crd.data[pay_idx].astype(np.int64)


def _check_controls(
    crd_a: TokenStream,
    crd_b: TokenStream,
    ctrl_a: np.ndarray,
    ctrl_b: np.ndarray,
    kind: str,
    node: str,
) -> None:
    """Both sides must carry the same control skeleton."""
    n = min(len(ctrl_a), len(ctrl_b))
    ka = crd_a.kinds[ctrl_a[:n]]
    kb = crd_b.kinds[ctrl_b[:n]]
    da = crd_a.data[ctrl_a[:n]]
    db = crd_b.data[ctrl_b[:n]]
    bad = np.nonzero((ka != kb) | (da != db))[0]
    if bad.size:
        i = int(bad[0])
        pa, pb = int(ctrl_a[i]), int(ctrl_b[i])
        raise _control_mismatch(
            kind, node, pa, pb, crd_a.token_at(pa), crd_b.token_at(pb)
        )
    if len(ctrl_a) != len(ctrl_b):
        i = n  # first unmatched control on the longer side
        if len(ctrl_a) > len(ctrl_b):
            pa = int(ctrl_a[i])
            raise StreamProtocolError(
                f"{kind} control mismatch at node {node}: "
                f"{token_str(crd_a.token_at(pa))} at crd_a position {pa} "
                "has no matching control token on crd_b"
            )
        pb = int(ctrl_b[i])
        raise StreamProtocolError(
            f"{kind} control mismatch at node {node}: "
            f"{token_str(crd_b.token_at(pb))} at crd_b position {pb} "
            "has no matching control token on crd_a"
        )


def _payload_columns(
    ref: TokenStream, pos: np.ndarray, present: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Kind/data columns of ``ref`` tokens forwarded at ``pos``.

    ``present`` (union only) marks which output slots have a token on this
    side; absent slots become EMPTY padding.
    """
    if present is None:
        return ref.kinds[pos], ref.data[pos]
    n_out = len(present)
    kinds = np.full(n_out, EMPTY, dtype=np.int8)
    data = np.zeros(n_out, dtype=np.float64)
    kinds[present] = ref.kinds[pos]
    data[present] = ref.data[pos]
    return kinds, data


class _Joiner(Primitive):
    """Shared structure of the two-sided coordinate joiners."""

    in_ports = ("crd_a", "ref_a", "crd_b", "ref_b")
    out_ports = ("crd", "ref_a", "ref_b")

    #: True for union (keep all coordinates, pad absent sides).
    keep_all = False

    def process(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, Stream]:
        crd_a, ref_a = ins["crd_a"], ins["ref_a"]
        crd_b, ref_b = ins["crd_b"], ins["ref_b"]
        node = getattr(ctx, "current_node", "?")
        _require_aligned(crd_a, ref_a, f"{self.kind}(a)", node)
        _require_aligned(crd_b, ref_b, f"{self.kind}(b)", node)
        stats.tokens_in += len(crd_a) + len(crd_b) + len(ref_a) + len(ref_b)

        keep_all = self.keep_all
        out_crd: Stream = []
        out_ra: Stream = []
        out_rb: Stream = []
        ia = ib = 0
        while ia < len(crd_a) and ib < len(crd_b):
            ta, tb = crd_a[ia], crd_b[ib]
            ka, kb = ta[0], tb[0]
            if ka == CRD and kb == CRD:
                if ta[1] == tb[1]:
                    out_crd.append(ta)
                    out_ra.append(ref_a[ia])
                    out_rb.append(ref_b[ib])
                    ia += 1
                    ib += 1
                elif ta[1] < tb[1]:
                    if keep_all:
                        out_crd.append(ta)
                        out_ra.append(ref_a[ia])
                        out_rb.append(EMPTY_TOKEN)
                    ia += 1
                else:
                    if keep_all:
                        out_crd.append(tb)
                        out_ra.append(EMPTY_TOKEN)
                        out_rb.append(ref_b[ib])
                    ib += 1
            elif ka == CRD:
                if keep_all:
                    out_crd.append(ta)
                    out_ra.append(ref_a[ia])
                    out_rb.append(EMPTY_TOKEN)
                ia += 1  # drain a until its control token
            elif kb == CRD:
                if keep_all:
                    out_crd.append(tb)
                    out_ra.append(EMPTY_TOKEN)
                    out_rb.append(ref_b[ib])
                ib += 1
            else:
                # Both control: must agree.
                if ta != tb:
                    raise _control_mismatch(self.kind, node, ia, ib, ta, tb)
                out_crd.append(ta)
                out_ra.append(ta)
                out_rb.append(ta)
                ia += 1
                ib += 1
                if ka == DONE:
                    break
        stats.tokens_out += len(out_crd) + len(out_ra) + len(out_rb)
        return {"crd": out_crd, "ref_a": out_ra, "ref_b": out_rb}

    def process_columnar(self, ins, ctx: ExecutionContext, stats: NodeStats) -> Dict[str, TokenStream]:
        crd_a, ref_a = ins["crd_a"], ins["ref_a"]
        crd_b, ref_b = ins["crd_b"], ins["ref_b"]
        node = getattr(ctx, "current_node", "?")
        _require_aligned(crd_a, ref_a, f"{self.kind}(a)", node)
        _require_aligned(crd_b, ref_b, f"{self.kind}(b)", node)
        stats.tokens_in += len(crd_a) + len(crd_b) + len(ref_a) + len(ref_b)

        ctrl_a, pay_a, seg_a, coords_a = _split_segments(
            crd_a, f"{self.kind}(a)", node
        )
        ctrl_b, pay_b, seg_b, coords_b = _split_segments(
            crd_b, f"{self.kind}(b)", node
        )
        _check_controls(crd_a, crd_b, ctrl_a, ctrl_b, self.kind, node)

        # Key every coordinate by (segment, coord); C leaves headroom for a
        # per-segment sentinel used to order control tokens after payloads.
        cmax = 0
        if coords_a.size:
            cmax = int(coords_a.max())
        if coords_b.size:
            cmax = max(cmax, int(coords_b.max()))
        c_span = cmax + 2
        key_a = seg_a * c_span + coords_a
        key_b = seg_b * c_span + coords_b

        if not self.keep_all:
            # Keys are ascending (segments ordered, coords sorted per fiber),
            # so the returned index pairs are already in stream order.
            _, ja, jb = np.intersect1d(
                key_a, key_b, assume_unique=True, return_indices=True
            )
            pos_a = pay_a[ja]
            pos_b = pay_b[jb]
            out_coords = coords_a[ja]
            out_segs = seg_a[ja]
            ka, da = _payload_columns(ref_a, pos_a, None)
            kb, db = _payload_columns(ref_b, pos_b, None)
        else:
            keys = np.union1d(key_a, key_b)
            ia = np.searchsorted(key_a, keys)
            in_a = np.zeros(len(keys), dtype=bool)
            if len(key_a):
                ia_c = np.minimum(ia, len(key_a) - 1)
                in_a = key_a[ia_c] == keys
            ib = np.searchsorted(key_b, keys)
            in_b = np.zeros(len(keys), dtype=bool)
            if len(key_b):
                ib_c = np.minimum(ib, len(key_b) - 1)
                in_b = key_b[ib_c] == keys
            pos_a = pay_a[ia_c[in_a]] if len(key_a) else np.empty(0, dtype=np.int64)
            pos_b = pay_b[ib_c[in_b]] if len(key_b) else np.empty(0, dtype=np.int64)
            out_segs, out_coords = np.divmod(keys, c_span)
            ka, da = _payload_columns(ref_a, pos_a, in_a)
            kb, db = _payload_columns(ref_b, pos_b, in_b)

        # Interleave payload groups with the shared control skeleton: the
        # j-th control token closes segment j, so its sort key is the
        # per-segment sentinel (greater than any coordinate in the segment).
        n_pay = len(out_coords)
        n_ctrl = len(ctrl_a)
        ctrl_keys = np.arange(n_ctrl, dtype=np.int64) * c_span + (c_span - 1)
        pay_keys = out_segs * c_span + out_coords
        order = np.argsort(
            np.concatenate([pay_keys, ctrl_keys]), kind="stable"
        )

        ctrl_kinds = crd_a.kinds[ctrl_a]
        ctrl_data = crd_a.data[ctrl_a]
        crd_kinds = np.concatenate(
            [np.zeros(n_pay, dtype=np.int8), ctrl_kinds]
        )[order]
        crd_data = np.concatenate(
            [out_coords.astype(np.float64), ctrl_data]
        )[order]

        def side(kinds, data):
            return TokenStream(
                np.concatenate([kinds, ctrl_kinds])[order],
                np.concatenate([data, ctrl_data])[order],
            )

        out_crd = TokenStream(crd_kinds, crd_data)
        out_ra = side(ka, da)
        out_rb = side(kb, db)
        stats.tokens_out += len(out_crd) + len(out_ra) + len(out_rb)
        return {"crd": out_crd, "ref_a": out_ra, "ref_b": out_rb}


class Intersect(_Joiner):
    """Two-sided coordinate intersection.

    Ports: ``crd_a``/``ref_a`` and ``crd_b``/``ref_b`` in; ``crd``, ``ref_a``,
    ``ref_b`` out.  The ``ref`` streams are positionally aligned with their
    ``crd`` streams and may carry references *or* values (fused intermediate
    value streams are filtered the same way).
    """

    kind = "intersect"
    keep_all = False


class Union(_Joiner):
    """Two-sided coordinate union with EMPTY padding for absent sides."""

    kind = "union"
    keep_all = True
