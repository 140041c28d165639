"""Stream token protocol of the Sparse Abstract Machine (SAM).

SAM expresses tensors as *streams* of tokens flowing between dataflow
primitives.  A stream transmits one level of a tensor in fibertree form: a
sequence of payload tokens (coordinates, references, or values) punctuated by
*stop* tokens that close fibers and terminated by a single *done* token.

Token encoding
--------------
Tokens are plain tuples ``(kind, payload)`` for speed.  Kinds:

``CRD``
    A coordinate within the current fiber.
``REF``
    A reference (position) into the next tensor level, or into a value array.
``VAL``
    A numeric value (Python float/int or a numpy block for blocked formats;
    blocks live only in tuple-list streams, never in a columnar
    :class:`TokenStream`).
``STOP``
    ``stop(n)`` closes ``n + 1`` nested fibers: ``S0`` ends the current fiber,
    ``S1`` ends the current fiber and its parent, and so on.
``DONE``
    Terminates the stream.  Every well-formed stream ends with exactly one.
``EMPTY``
    A padding token emitted by union joiners for the side that is missing a
    coordinate; value arrays translate it to an explicit zero.

The module also provides helpers to validate streams and to convert between
nested Python lists (fibertree-shaped data) and streams, which the test suite
uses heavily.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

# Token kinds.  Kept as small ints because streams can be long.
CRD = 0
REF = 1
VAL = 2
STOP = 3
DONE = 4
EMPTY = 5

_KIND_NAMES = {CRD: "crd", REF: "ref", VAL: "val", STOP: "S", DONE: "D", EMPTY: "N"}

Token = Tuple[int, Any]
Stream = List[Token]

# Singletons for payload-free tokens.
DONE_TOKEN: Token = (DONE, None)
EMPTY_TOKEN: Token = (EMPTY, None)


def crd(c: int) -> Token:
    """Build a coordinate token."""
    return (CRD, c)


def ref(r: Any) -> Token:
    """Build a reference token (an integer position or an opaque handle)."""
    return (REF, r)


def val(v: Any) -> Token:
    """Build a value token (scalar or numpy block)."""
    return (VAL, v)


def stop(level: int) -> Token:
    """Build a stop token closing ``level + 1`` fibers."""
    if level < 0:
        raise ValueError(f"stop level must be non-negative, got {level}")
    return (STOP, level)


def done() -> Token:
    """Return the stream-terminating done token."""
    return DONE_TOKEN


def empty() -> Token:
    """Return the empty (padding) token."""
    return EMPTY_TOKEN


def is_payload(token: Token) -> bool:
    """Return True for crd/ref/val/empty tokens."""
    kind = token[0]
    return kind == CRD or kind == REF or kind == VAL or kind == EMPTY


def token_str(token: Token) -> str:
    """Render one token compactly, e.g. ``3``, ``S0``, ``D``."""
    kind, payload = token
    if kind == STOP:
        return f"S{payload}"
    if kind == DONE:
        return "D"
    if kind == EMPTY:
        return "N"
    return str(payload)


def pretty(stream: Iterable[Token]) -> str:
    """Render a stream as a single human-readable line."""
    return " ".join(token_str(tok) for tok in stream)


class StreamProtocolError(ValueError):
    """Raised when a stream violates the SAM token protocol."""


def check_stream(stream: Sequence[Token], *, allow_empty_tokens: bool = True) -> None:
    """Validate the SAM protocol invariants for ``stream``.

    Invariants checked:

    * the stream is non-empty and ends with exactly one done token;
    * no token follows the done token;
    * stop levels are non-negative integers;
    * if ``allow_empty_tokens`` is False, no EMPTY tokens appear.

    Accepts both the legacy tuple-list form and :class:`TokenStream`
    (validated columnar-side, without materializing tuples).
    """
    if isinstance(stream, TokenStream):
        _check_columnar(stream, allow_empty_tokens=allow_empty_tokens)
        return
    if not stream:
        raise StreamProtocolError("stream is empty (missing done token)")
    if stream[-1][0] != DONE:
        raise StreamProtocolError(f"stream does not end with done: {pretty(stream[-5:])}")
    for i, token in enumerate(stream):
        kind = token[0]
        if kind == DONE and i != len(stream) - 1:
            raise StreamProtocolError(f"done token at position {i} is not last")
        if kind == STOP and (not isinstance(token[1], int) or token[1] < 0):
            raise StreamProtocolError(f"bad stop level {token[1]!r} at position {i}")
        if kind == EMPTY and not allow_empty_tokens:
            raise StreamProtocolError(f"unexpected empty token at position {i}")


def payload_tokens(stream: Iterable[Token]) -> List[Any]:
    """Return the payloads of all non-control tokens, in order."""
    return [tok[1] for tok in stream if is_payload(tok)]


def segments(stream: Sequence[Token], level: int = 0) -> Iterator[List[Token]]:
    """Split ``stream`` into segments closed by stops of level >= ``level``.

    Each yielded segment contains the payload and lower-level stop tokens
    belonging to one fiber at the requested nesting depth.  The done token is
    not included in any segment; a trailing segment before done is yielded
    even when it was not explicitly closed by a stop.
    """
    current: List[Token] = []
    saw_any = False
    for token in stream:
        kind = token[0]
        if kind == DONE:
            if current or saw_any is False:
                yield current
            return
        saw_any = True
        if kind == STOP and token[1] >= level:
            yield current
            current = []
        else:
            current.append(token)
    raise StreamProtocolError("stream not terminated with done token")


def nest_to_stream(nested: Any, kind: int = VAL) -> Stream:
    """Convert a nested list (fibertree-shaped data) into a token stream.

    Follows the full-closure convention: every fiber (including the
    outermost) is closed by a stop, with consecutive closures merged into a
    single deeper stop.  ``[[a, b], [c]]`` becomes ``a b S0 c S1 D``.
    """
    out: Stream = []

    def emit(node: Any) -> None:
        if not isinstance(node, list):
            out.append((kind, node))
            return
        for child in node:
            emit(child)
        if node and isinstance(node[-1], list):
            # The last child closed itself: deepen its stop (merged closure).
            out[-1] = (STOP, out[-1][1] + 1)
        else:
            # Leaf children or an empty fiber: emit this fiber's own stop.
            out.append((STOP, 0))

    emit(nested)
    out.append(DONE_TOKEN)
    return out


def stream_to_nest(stream: Sequence[Token], depth: int, *, check: bool = True) -> Any:
    """Convert a token stream back into a nested list of ``depth`` levels.

    Inverse of :func:`nest_to_stream` for canonical streams that follow the
    full-closure convention (every fiber, including the outermost, is closed
    by a stop before done).  ``depth`` is the number of nesting levels: a
    flat stream like ``a b S0 D`` has depth 1 and yields ``[a, b]``.

    ``check=False`` skips the protocol validation pre-pass (hot paths that
    already validated the stream, or run with checks gated off).
    """
    if check:
        check_stream(stream)
    # stack[0] is the root fiber; stack[depth-1] the innermost open fiber.
    stack: List[List[Any]] = [[] for _ in range(depth)]
    closed_root = False
    for token in stream:
        kind, payload = token
        if kind == DONE:
            break
        if kind == STOP:
            close = payload + 1
            if close > depth:
                raise StreamProtocolError(
                    f"stop level {payload} too deep for nest depth {depth}"
                )
            for lvl in range(close):
                idx = depth - 1 - lvl
                if idx >= 1:
                    stack[idx - 1].append(stack[idx])
                    stack[idx] = []
                else:
                    closed_root = True
        else:
            if closed_root:
                raise StreamProtocolError("payload token after root closure")
            stack[-1].append(payload)
    if not closed_root:
        # Tolerate streams missing the final closure (fold open fibers up).
        for lvl in range(depth - 1):
            idx = depth - 1 - lvl
            if stack[idx]:
                stack[idx - 1].append(stack[idx])
                stack[idx] = []
    return stack[0]


def count_kind(stream: Iterable[Token], kind: int) -> int:
    """Count tokens of a given kind in a stream."""
    if isinstance(stream, TokenStream):
        return int(np.count_nonzero(stream.kinds == kind))
    return sum(1 for tok in stream if tok[0] == kind)


# ----------------------------------------------------------------------
# Columnar token streams
# ----------------------------------------------------------------------

#: Kinds whose payload is a non-negative/na integral quantity (coordinate,
#: reference position, stop level) reconstructed as a Python int.
_INT_PAYLOAD_KINDS = frozenset((CRD, REF, STOP))

_NUMERIC_TYPES = (int, float, np.integer, np.floating, np.bool_)


#: Why a columnar stream refuses a non-scalar payload.
BLOCKED_ON_TOKEN_TIER = (
    "blocked payloads run on the token tier (process), not in a columnar "
    "stream"
)


class TokenStream:
    """Columnar (structure-of-arrays) representation of a token stream.

    Instead of a ``List[Tuple[int, Any]]`` walked one token at a time, a
    :class:`TokenStream` holds two parallel columns:

    ``kinds``
        ``int8`` array of token kinds (``CRD``/``REF``/``VAL``/...).
    ``data``
        ``float64`` array of numeric payloads — coordinates, reference
        positions, stop levels, and scalar values.  Zero for payload-free
        tokens (done/empty).

    Every payload is a scalar: a region that reads a blocked tensor (numpy
    block payloads) runs the token tier's ``process`` by the tier rule
    (see :mod:`repro.comal.functional`), and :meth:`from_tokens` rejects a
    block.

    The class implements the sequence protocol over logical ``(kind,
    payload)`` tuples, so diagnostic code (``pretty``, error paths, the
    bridge for primitives without a columnar kernel) can treat either
    representation uniformly; vectorized kernels operate on the columns
    directly.

    Conversion to/from the legacy tuple-list form is lossless up to numeric
    type (a coordinate round-trips as an equal Python int; scalar values
    round-trip as equal floats).
    """

    __slots__ = ("kinds", "data")

    def __init__(self, kinds: np.ndarray, data: np.ndarray) -> None:
        self.kinds = kinds
        self.data = data

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TokenStream":
        return cls(np.empty(0, dtype=np.int8), np.empty(0, dtype=np.float64))

    @classmethod
    def from_tokens(cls, tokens: Sequence[Token]) -> "TokenStream":
        """Convert a legacy tuple-list stream to columnar form.

        Raises :class:`StreamProtocolError` on a non-scalar payload.
        """
        if isinstance(tokens, TokenStream):
            return tokens
        n = len(tokens)
        kinds = np.empty(n, dtype=np.int8)
        data = np.zeros(n, dtype=np.float64)
        for i, (kind, payload) in enumerate(tokens):
            kinds[i] = kind
            if payload is None or kind == DONE or kind == EMPTY:
                continue
            if not isinstance(payload, _NUMERIC_TYPES):
                raise StreamProtocolError(
                    f"non-scalar payload at position {i}: {BLOCKED_ON_TOKEN_TIER}"
                )
            data[i] = payload
        return cls(kinds, data)

    @classmethod
    def concat(cls, parts: Sequence["TokenStream"]) -> "TokenStream":
        """Concatenate several columnar streams."""
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.kinds for p in parts]),
            np.concatenate([p.data for p in parts]),
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_tokens(self) -> Stream:
        """Convert back to the legacy tuple-list form."""
        kinds = self.kinds
        data = self.data
        out: Stream = []
        append = out.append
        for i in range(len(kinds)):
            kind = int(kinds[i])
            if kind == DONE:
                append(DONE_TOKEN)
            elif kind == EMPTY:
                append(EMPTY_TOKEN)
            elif kind == VAL:
                append((kind, data[i].item()))
            else:
                append((kind, int(data[i])))
        return out

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def token_at(self, i: int) -> Token:
        kind = int(self.kinds[i])
        if kind == DONE:
            return DONE_TOKEN
        if kind == EMPTY:
            return EMPTY_TOKEN
        if kind == VAL:
            return (kind, self.data[i].item())
        return (kind, int(self.data[i]))

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return TokenStream(self.kinds[index], self.data[index])
        if index < 0:
            index += len(self.kinds)
        return self.token_at(index)

    def __iter__(self) -> Iterator[Token]:
        for i in range(len(self.kinds)):
            yield self.token_at(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenStream):
            return streams_equal(self, other)
        if isinstance(other, (list, tuple)):
            return streams_equal(self, other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TokenStream {pretty(self)}>"

    # ------------------------------------------------------------------
    # Columnar helpers used by vectorized kernels
    # ------------------------------------------------------------------
    def gather(self, index: np.ndarray) -> "TokenStream":
        """Positional gather preserving kinds/payloads (fancy indexing)."""
        return TokenStream(self.kinds[index], self.data[index])


def _check_columnar(stream: "TokenStream", *, allow_empty_tokens: bool = True) -> None:
    """Vectorized protocol validation of a columnar stream."""
    kinds = stream.kinds
    n = len(kinds)
    if n == 0:
        raise StreamProtocolError("stream is empty (missing done token)")
    if kinds[-1] != DONE:
        raise StreamProtocolError(
            f"stream does not end with done: {pretty(stream[-5:])}"
        )
    early_done = np.nonzero(kinds[:-1] == DONE)[0]
    if early_done.size:
        raise StreamProtocolError(
            f"done token at position {int(early_done[0])} is not last"
        )
    stops = kinds == STOP
    if stops.any():
        levels = stream.data[stops]
        bad = (levels < 0) | (levels != np.floor(levels))
        if bad.any():
            pos = int(np.nonzero(stops)[0][np.nonzero(bad)[0][0]])
            raise StreamProtocolError(
                f"bad stop level {stream.data[pos]!r} at position {pos}"
            )
    if not allow_empty_tokens:
        empties = np.nonzero(kinds == EMPTY)[0]
        if empties.size:
            raise StreamProtocolError(
                f"unexpected empty token at position {int(empties[0])}"
            )


def token_equal(a: Token, b: Token) -> bool:
    """Tuple-token equality that tolerates numpy-array payloads."""
    if a[0] != b[0]:
        return False
    pa, pb = a[1], b[1]
    if isinstance(pa, np.ndarray) or isinstance(pb, np.ndarray):
        return (
            isinstance(pa, np.ndarray)
            and isinstance(pb, np.ndarray)
            and pa.shape == pb.shape
            and bool(np.array_equal(pa, pb))
        )
    return bool(pa == pb)


def streams_equal(a: Sequence[Token], b: Sequence[Token]) -> bool:
    """Whole-stream equality across representations (columnar or list).

    Two streams are equal when they have the same length and every logical
    ``(kind, payload)`` token compares equal (numpy block payloads compare
    elementwise).
    """
    if len(a) != len(b):
        return False
    if isinstance(a, TokenStream) and isinstance(b, TokenStream):
        return bool(
            np.array_equal(a.kinds, b.kinds) and np.array_equal(a.data, b.data)
        )
    return all(token_equal(ta, tb) for ta, tb in zip(a, b))


def as_columnar(stream: Sequence[Token]) -> "TokenStream":
    """Coerce either representation to columnar."""
    if isinstance(stream, TokenStream):
        return stream
    return TokenStream.from_tokens(stream)


def as_token_list(stream: Sequence[Token]) -> Stream:
    """Coerce either representation to the legacy tuple-list form."""
    if isinstance(stream, TokenStream):
        return stream.to_tokens()
    return list(stream)
