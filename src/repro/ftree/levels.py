"""Fibertree level structures.

A tensor of order *n* is stored as *n* nested levels (fibers of fibers) plus a
values array — the fibertree representation used by SAM and by sparse tensor
compilers in the TACO lineage.  Each level maps a parent position to the
coordinates and child positions of one fiber.

Two level kinds are supported:

``DenseLevel``
    A fiber at position ``p`` implicitly holds coordinates ``0..N-1`` with
    child positions ``p*N .. p*N+N-1``.
``CompressedLevel``
    CSR-style ``pos``/``crd`` arrays: fiber ``p`` holds the coordinates
    ``crd[pos[p]:pos[p+1]]`` with child positions equal to the crd indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class DenseLevel:
    """Implicit dense level of extent ``size``."""

    size: int

    @property
    def kind(self) -> str:
        return "dense"

    def num_children(self, num_parents: int) -> int:
        """Number of positions exposed to the next level."""
        return num_parents * self.size

    def fiber(self, pos: int) -> Tuple[Sequence[int], Sequence[int]]:
        """Return (coords, child positions) of the fiber at ``pos``."""
        base = pos * self.size
        coords = range(self.size)
        children = range(base, base + self.size)
        return coords, children

    def append_fiber(self, coords: Sequence[int]) -> None:  # pragma: no cover
        raise TypeError("dense levels are implicit; cannot append fibers")


@dataclass
class CompressedLevel:
    """Compressed level with explicit ``pos``/``crd`` arrays."""

    size: int
    pos: List[int] = field(default_factory=lambda: [0])
    crd: List[int] = field(default_factory=list)
    _arrays: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def kind(self) -> str:
        return "compressed"

    def num_children(self, num_parents: int) -> int:
        return len(self.crd)

    def fiber(self, pos: int) -> Tuple[Sequence[int], Sequence[int]]:
        """Return (coords, child positions) of the fiber at ``pos``."""
        start, end = self.pos[pos], self.pos[pos + 1]
        return self.crd[start:end], range(start, end)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached int64 views of ``pos``/``crd`` for vectorized scans.

        The cache is keyed on list lengths, so a level that is still being
        built (:meth:`append_fiber`) never serves a stale view.
        """
        cached = self._arrays
        if (
            cached is None
            or len(cached[0]) != len(self.pos)
            or len(cached[1]) != len(self.crd)
        ):
            cached = self._arrays = (
                np.asarray(self.pos, dtype=np.int64),
                np.asarray(self.crd, dtype=np.int64),
            )
        return cached

    def append_fiber(self, coords: Sequence[int]) -> None:
        """Append one fiber's coordinates (used by level writers)."""
        self.crd.extend(coords)
        self.pos.append(len(self.crd))

    def nnz(self) -> int:
        """Total number of stored coordinates across all fibers."""
        return len(self.crd)


Level = DenseLevel | CompressedLevel
