"""Model bundle: a traced model plus its fusion schedules and reference.

Each model builder returns a :class:`ModelBundle` holding the Einsum
program, the runtime binding, the dense numpy reference output (the
verification oracle, mirroring the paper's dense-PyTorch checks), and the
fusion groups that define the three granularities of Section 8.3 /
Figure 22: unfused, partially fused, fully fused — plus the C+S rewrite
groups for the Section 8.4 comparison when applicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.schedule.schedule import (
    Schedule,
    cs_rewrite,
    fully_fused,
    fused_groups,
    unfused,
)
from ..frontend.api import ModelBuilder

#: Shared functional-correctness tolerance vs the dense numpy reference.
VERIFY_TOLERANCE = 1e-6


@dataclass
class ModelBundle:
    """A traced model ready for compilation and simulation."""

    name: str
    builder: ModelBuilder
    output: str
    reference: np.ndarray
    partial_groups: List[List[int]]
    # Fully fused grouping; None means one single region.
    full_groups: Optional[List[List[int]]] = None
    # Custard+Stardust rewrite grouping (contraction chains only).
    cs_groups: Optional[List[List[int]]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def program(self):
        return self.builder.program

    @property
    def binding(self):
        return self.builder.binding

    def schedule(self, granularity: str) -> Schedule:
        """Build the schedule for 'unfused' | 'partial' | 'full' | 'cs'."""
        if granularity == "unfused":
            return unfused(self.program)
        if granularity == "partial":
            return fused_groups(self.program, self.partial_groups, name="partial")
        if granularity == "full":
            if self.full_groups is None:
                return fully_fused(self.program)
            return fused_groups(self.program, self.full_groups, name="fully-fused")
        if granularity == "cs":
            if self.cs_groups is None:
                raise ValueError(f"{self.name} has no C+S rewrite grouping")
            return cs_rewrite(self.program, self.cs_groups)
        raise ValueError(f"unknown granularity {granularity!r}")

    def schedules(self, granularities: Sequence[str] = ("unfused", "partial", "full")) -> List[Schedule]:
        return [self.schedule(g) for g in granularities]

    def max_abs_err(self, result) -> float:
        """Max absolute error of a run's output vs the dense reference."""
        out = result.tensors[self.output].to_dense()
        return float(np.abs(out - self.reference).max())

    def verify(self, result, tolerance: float = VERIFY_TOLERANCE) -> float:
        """Assert a run matches the dense reference; returns the error.

        The single source of the correctness check that the CLI, the sweep
        subsystem, and the benchmark harness all report.
        """
        err = self.max_abs_err(result)
        if not err < tolerance:
            raise AssertionError(
                f"{self.name}: max |err| {err:.3e} exceeds {tolerance:.0e} "
                "vs dense reference"
            )
        return err

    def executable(self, granularity: str = "partial", session=None):
        """Compile this model at a granularity via the driver Session.

        Returns a callable :class:`~repro.driver.Executable`; pass a
        session to control the machine/hierarchy or share a compile cache,
        otherwise the process-wide default session is used.
        """
        from ..driver.session import default_session

        session = session or default_session()
        return session.compile(self.program, self.schedule(granularity))


def softmax_rows(x: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Row softmax over kept entries (sparse-attention semantics)."""
    if keep is None:
        keep = np.ones_like(x, dtype=bool)
    out = np.zeros_like(x)
    for r in range(x.shape[0]):
        cols = np.nonzero(keep[r])[0]
        if cols.size == 0:
            continue
        row = x[r, cols]
        row = row - row.max()
        e = np.exp(row)
        out[r, cols] = e / e.sum()
    return out


def layernorm_rows(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Row-wise layernorm matching the FiberNorm primitive."""
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def gelu_ref(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GeLU matching the UnaryALU kernel."""
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))
