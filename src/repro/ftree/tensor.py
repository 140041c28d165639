"""The :class:`SparseTensor` fibertree container.

``SparseTensor`` stores an n-order tensor as a chain of levels (dense or
compressed, per its :class:`~repro.ftree.format.Format`) plus a values array.
It supports construction from dense numpy arrays and scipy sparse matrices,
round-trip back to dense, permuted copies (higher-order transpose — the
cycle-breaking fallback of the fusion algorithm), and blocked storage where
values are dense blocks.

Storage always follows the format's ``mode_order``: storage level ``l`` holds
logical mode ``mode_order[l]``.  Coordinates inside the structure are storage
coordinates; :meth:`to_dense` maps them back to logical positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from .format import Format, LevelKind, dense as dense_format
from .levels import CompressedLevel, DenseLevel, Level


@dataclass
class SparseTensor:
    """An n-order tensor in fibertree form.

    Attributes
    ----------
    name:
        Optional identifier used in diagnostics and generated graphs.
    shape:
        Logical shape, one extent per mode (excluding block dims).
    fmt:
        Storage format (level kinds + mode order + optional block shape).
    levels:
        One level structure per storage level.
    values:
        Flat value array; for blocked formats an array of shape
        ``(num_positions, *block_shape)``.
    """

    name: str
    shape: Tuple[int, ...]
    fmt: Format
    levels: List[Level]
    values: np.ndarray

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        array: np.ndarray,
        fmt: Format | None = None,
        name: str = "T",
    ) -> "SparseTensor":
        """Build a tensor from a dense numpy array.

        Zero entries are elided at compressed levels.  For blocked formats the
        array shape must be divisible by the block shape; a block is stored if
        it contains any nonzero.
        """
        array = np.asarray(array, dtype=np.float64)
        if fmt is None:
            fmt = dense_format(array.ndim)
        if fmt.is_blocked:
            return cls._from_dense_blocked(array, fmt, name)
        if array.ndim != fmt.order:
            raise ValueError(
                f"array of rank {array.ndim} does not match format order {fmt.order}"
            )
        # Permute the array so axis l is storage level l.
        storage = np.transpose(array, fmt.mode_order)
        levels: List[Level] = []
        # Positions at the current frontier, each a prefix coordinate tuple.
        prefixes: List[Tuple[int, ...]] = [()]
        for depth, kind in enumerate(fmt.levels):
            extent = storage.shape[depth]
            if kind is LevelKind.DENSE:
                levels.append(DenseLevel(extent))
                prefixes = [p + (c,) for p in prefixes for c in range(extent)]
            else:
                level = CompressedLevel(extent)
                new_prefixes: List[Tuple[int, ...]] = []
                for prefix in prefixes:
                    sub = storage[prefix]
                    # Coordinates along this axis with any nonzero below.
                    if sub.ndim == 0:
                        nz: Sequence[int] = []
                    else:
                        flat = sub.reshape(sub.shape[0], -1)
                        nz = np.nonzero(np.any(flat != 0.0, axis=1))[0].tolist()
                    level.append_fiber(nz)
                    new_prefixes.extend(prefix + (c,) for c in nz)
                levels.append(level)
                prefixes = new_prefixes
        vals = np.array([storage[p] for p in prefixes], dtype=np.float64)
        return cls(name=name, shape=array.shape, fmt=fmt, levels=levels, values=vals)

    @classmethod
    def _from_dense_blocked(
        cls, array: np.ndarray, fmt: Format, name: str
    ) -> "SparseTensor":
        """Build a blocked tensor: outer levels index a grid of dense blocks."""
        block = fmt.block_shape
        if array.ndim != fmt.order:
            raise ValueError(
                f"blocked formats expect rank {fmt.order} arrays, got {array.ndim}"
            )
        if len(block) != array.ndim:
            raise ValueError("block shape must cover every mode")
        for extent, b in zip(array.shape, block):
            if extent % b != 0:
                raise ValueError(f"extent {extent} not divisible by block {b}")
        grid_shape = tuple(e // b for e, b in zip(array.shape, block))
        # Reshape to (g0, b0, g1, b1, ...) then to (g0, g1, ..., b0, b1, ...).
        interleaved_shape: List[int] = []
        for g, b in zip(grid_shape, block):
            interleaved_shape.extend((g, b))
        grid = array.reshape(interleaved_shape)
        n = array.ndim
        perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
        grid = np.transpose(grid, perm)
        # Collapse the block dims into value payloads and recurse as unblocked.
        outer_fmt = Format(fmt.levels, fmt.mode_order)
        storage = np.transpose(grid, list(outer_fmt.mode_order) + list(range(n, 2 * n)))
        levels: List[Level] = []
        prefixes: List[Tuple[int, ...]] = [()]
        for depth, kind in enumerate(outer_fmt.levels):
            extent = storage.shape[depth]
            if kind is LevelKind.DENSE:
                levels.append(DenseLevel(extent))
                prefixes = [p + (c,) for p in prefixes for c in range(extent)]
            else:
                level = CompressedLevel(extent)
                new_prefixes = []
                for prefix in prefixes:
                    sub = storage[prefix]
                    flat = sub.reshape(sub.shape[0], -1)
                    nz = np.nonzero(np.any(flat != 0.0, axis=1))[0].tolist()
                    level.append_fiber(nz)
                    new_prefixes.extend(prefix + (c,) for c in nz)
                levels.append(level)
                prefixes = new_prefixes
        vals = np.array([storage[p] for p in prefixes], dtype=np.float64)
        if vals.size == 0:
            vals = vals.reshape((0,) + block)
        return cls(name=name, shape=array.shape, fmt=fmt, levels=levels, values=vals)

    @classmethod
    def from_scipy(cls, matrix, fmt: Format | None = None, name: str = "T") -> "SparseTensor":
        """Build from a scipy sparse matrix (via dense; fine at repo scale)."""
        return cls.from_dense(np.asarray(matrix.todense()), fmt=fmt, name=name)

    @classmethod
    def from_coords(
        cls,
        shape: Sequence[int],
        fmt: Format,
        coords: dict,
        name: str = "T",
    ) -> "SparseTensor":
        """Build a tensor from a ``{storage-order path: value}`` mapping.

        Used by tensor writers assembling graph outputs from streams.  Paths
        are coordinate tuples in *storage* order (outer level first).  Dense
        levels are filled with implicit zeros/zero blocks where no value is
        stored.
        """
        shape = tuple(shape)
        if fmt.is_blocked:
            storage_shape = tuple(
                shape[m] // fmt.block_shape[m] for m in fmt.mode_order
            )
        else:
            storage_shape = tuple(shape[m] for m in fmt.mode_order)
        paths = sorted(coords)
        levels: List[Level] = []
        groups: List[List[Tuple[int, ...]]] = [paths]
        for depth, kind in enumerate(fmt.levels):
            extent = storage_shape[depth]
            new_groups: List[List[Tuple[int, ...]]] = []
            if kind is LevelKind.DENSE:
                levels.append(DenseLevel(extent))
                for group in groups:
                    by_coord: dict = {}
                    for p in group:
                        by_coord.setdefault(p[depth], []).append(p)
                    for c in range(extent):
                        new_groups.append(by_coord.get(c, []))
            else:
                level = CompressedLevel(extent)
                for group in groups:
                    by_coord = {}
                    for p in group:
                        by_coord.setdefault(p[depth], []).append(p)
                    fiber_coords = sorted(by_coord)
                    level.append_fiber(fiber_coords)
                    new_groups.extend(by_coord[c] for c in fiber_coords)
                levels.append(level)
            groups = new_groups
        zero: Any = (
            np.zeros(fmt.block_shape, dtype=np.float64) if fmt.is_blocked else 0.0
        )
        vals = []
        for group in groups:
            if len(group) > 1:
                raise ValueError(f"duplicate coordinate path {group[0]}")
            vals.append(coords[group[0]] if group else zero)
        if fmt.is_blocked:
            values = (
                np.stack([np.asarray(v, dtype=np.float64) for v in vals])
                if vals
                else np.zeros((0,) + fmt.block_shape)
            )
        else:
            values = np.array(vals, dtype=np.float64)
        return cls(name=name, shape=shape, fmt=fmt, levels=levels, values=values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of logical modes."""
        return len(self.shape)

    @property
    def block_shape(self) -> Tuple[int, ...]:
        return self.fmt.block_shape

    def nnz(self) -> int:
        """Number of stored values (blocks count once)."""
        return int(self.values.shape[0]) if self.values.ndim > 0 else 1

    def density(self) -> float:
        """Stored fraction of the logical value space."""
        total = float(np.prod(self.shape)) or 1.0
        stored = float(self.values.size)
        return stored / total

    def bytes_values(self) -> int:
        """Bytes of value storage."""
        return int(self.values.size * 8)

    def bytes_structure(self) -> int:
        """Bytes of pos/crd structure storage (4 bytes per entry)."""
        total = 0
        for level in self.levels:
            if isinstance(level, CompressedLevel):
                total += 4 * (len(level.pos) + len(level.crd))
        return total

    def bytes_total(self) -> int:
        return self.bytes_values() + self.bytes_structure()

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the logical dense array (blocks re-expanded)."""
        if self.fmt.is_blocked:
            return self._to_dense_blocked()
        storage_shape = tuple(self.shape[m] for m in self.fmt.mode_order)
        out = np.zeros(storage_shape, dtype=np.float64)
        coords = self._all_coords()
        for pos, coord in enumerate(coords):
            out[coord] = self.values[pos]
        inverse = np.argsort(self.fmt.mode_order)
        return np.transpose(out, inverse)

    def _to_dense_blocked(self) -> np.ndarray:
        block = self.fmt.block_shape
        grid_shape = tuple(e // b for e, b in zip(self.shape, block))
        storage_grid = tuple(grid_shape[m] for m in self.fmt.mode_order)
        out = np.zeros(storage_grid + block, dtype=np.float64)
        for pos, coord in enumerate(self._all_coords()):
            out[coord] = self.values[pos]
        n = len(self.shape)
        inverse = list(np.argsort(self.fmt.mode_order)) + list(range(n, 2 * n))
        out = np.transpose(out, inverse)
        # (g0, g1, ..., b0, b1, ...) -> (g0, b0, g1, b1, ...) -> dense.
        perm = []
        for i in range(n):
            perm.extend((i, n + i))
        out = np.transpose(out, perm)
        return out.reshape(self.shape)

    def _all_coords(self) -> List[Tuple[int, ...]]:
        """Enumerate storage coordinates of every stored value, in order."""
        prefixes: List[Tuple[int, ...]] = [()]
        positions: List[int] = [0]
        for level in self.levels:
            new_prefixes: List[Tuple[int, ...]] = []
            new_positions: List[int] = []
            for prefix, pos in zip(prefixes, positions):
                coords, children = level.fiber(pos)
                for c, child in zip(coords, children):
                    new_prefixes.append(prefix + (c,))
                    new_positions.append(child)
            prefixes, positions = new_prefixes, new_positions
        return prefixes

    def permuted_copy(self, new_mode_order: Sequence[int], name: str | None = None) -> "SparseTensor":
        """Materialize a copy stored under a different mode order.

        This is the "higher-order transpose" the fusion algorithm inserts to
        break POG cycles (Section 5, step 4).
        """
        fmt = Format(self.fmt.levels, tuple(new_mode_order), self.fmt.block_shape)
        return SparseTensor.from_dense(
            self.to_dense(), fmt=fmt, name=name or f"{self.name}_perm"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor({self.name!r}, shape={self.shape}, fmt={self.fmt.name()}, "
            f"nnz={self.nnz()})"
        )


def tensor(array: np.ndarray, fmt: Format | None = None, name: str = "T") -> SparseTensor:
    """Convenience alias for :meth:`SparseTensor.from_dense`."""
    return SparseTensor.from_dense(np.asarray(array), fmt=fmt, name=name)
