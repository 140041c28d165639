"""FuseFlow's scheduling language (paper Sections 4.2 and 7).

A :class:`Schedule` captures every knob the paper exposes to users:

* **fusion granularity** — a partition of the program's statements into
  fusion regions (``Fuse{}`` blocks);
* **dataflow ordering** — per-region global orders and per-statement local
  order constraints (added to the POG);
* **parallelization** — per-index-variable parallelization factors;
* **index splitting** — per-index-variable tile counts: the region iterates
  an outer tile index and streams one tile of the split dimension at a
  time, shrinking the resident footprint of cross-region intermediates
  (the knob that turns spill traffic back into on-chip traffic under a
  memory hierarchy — see the ``split-indices`` pass);
* **mask folding** — whether elementwise masking folds into producing
  contractions (SDDMM-style);
* **global rewrite** — the Custard/Stardust-style manual rewrite that merges
  contraction chains into single global-iteration Einsums (Section 8.4
  baseline).

Helpers build the three standard granularities of the evaluation: unfused,
partially fused (caller-specified groups), and fully fused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..einsum.ast import EinsumProgram
from .split import validate_par_item, validate_split_item


class ScheduleError(ValueError):
    """Raised for malformed schedules."""


@dataclass
class Schedule:
    """Complete schedule for compiling one Einsum program."""

    name: str
    regions: List[List[int]]
    # Per-region global dataflow order override (region position -> order).
    orders: Dict[int, List[str]] = field(default_factory=dict)
    # Per-statement local dataflow order constraints (sid -> index order).
    stmt_orders: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    # Index variable -> parallelization factor.
    par: Dict[str, int] = field(default_factory=dict)
    # Index variable -> tile count (index splitting).  Like ``par``, names
    # live in the unified per-region index namespace; an index that no
    # region iterates is skipped by the split-indices pass (with a
    # diagnostic), so one splits dict can broadcast across granularities.
    splits: Dict[str, int] = field(default_factory=dict)
    fold_masks: bool = True
    global_rewrite: bool = False

    def validate(self, program: EinsumProgram) -> None:
        seen: set = set()
        for region in self.regions:
            for sid in region:
                if sid < 0 or sid >= len(program.statements):
                    raise ScheduleError(f"region references unknown statement {sid}")
                if sid in seen:
                    raise ScheduleError(f"statement {sid} appears in two regions")
                seen.add(sid)
        if seen != set(range(len(program.statements))):
            missing = sorted(set(range(len(program.statements))) - seen)
            raise ScheduleError(f"statements {missing} not covered by any region")
        for region in self.regions:
            if region != sorted(region):
                raise ScheduleError(
                    f"region {region} must list statements in program order"
                )
        try:
            for index_var, tiles in self.splits.items():
                validate_split_item(index_var, tiles)
            for index_var, factor in self.par.items():
                validate_par_item(index_var, factor)
        except ValueError as exc:
            raise ScheduleError(str(exc)) from None

    def fingerprint(self) -> str:
        """Stable content hash over every knob the compiler reads.

        Recomputed at each compile, so mutating a schedule in place (e.g.
        assigning ``par``) changes the fingerprint and misses the driver's
        compile cache instead of serving a stale executable.
        """
        parts = [
            f"schedule {self.name}",
            f"regions {self.regions}",
            f"orders {sorted(self.orders.items())}",
            f"stmt_orders {sorted(self.stmt_orders.items())}",
            f"par {sorted(self.par.items())}",
            f"fold_masks {self.fold_masks}",
            f"global_rewrite {self.global_rewrite}",
        ]
        # Appended only when effective so fingerprints never churn on
        # no-ops: pre-splitting schedules and tile-count-1 entries (which
        # the split-indices pass skips) hash identically to unsplit —
        # byte-identical compiles must share one cache entry.
        effective_splits = {k: v for k, v in self.splits.items() if v > 1}
        if effective_splits:
            parts.append(f"splits {sorted(effective_splits.items())}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def describe(self) -> str:
        parts = [f"schedule {self.name}: {len(self.regions)} region(s)"]
        for i, region in enumerate(self.regions):
            extra = f" order={self.orders[i]}" if i in self.orders else ""
            parts.append(f"  region {i}: statements {region}{extra}")
        if self.par:
            parts.append(f"  parallelization: {self.par}")
        if self.splits:
            parts.append(f"  index splits: {self.splits}")
        if self.global_rewrite:
            parts.append("  global-iteration rewrite (C+S style)")
        return "\n".join(parts)


def unfused(program: EinsumProgram, name: str = "unfused") -> Schedule:
    """One region per statement: every intermediate materializes."""
    return Schedule(name=name, regions=[[sid] for sid in range(len(program.statements))])


def fully_fused(program: EinsumProgram, name: str = "fully-fused") -> Schedule:
    """A single region covering the whole program."""
    return Schedule(name=name, regions=[list(range(len(program.statements)))])


def fused_groups(
    program: EinsumProgram,
    groups: Sequence[Sequence[int]],
    name: str = "partially-fused",
) -> Schedule:
    """Partition statements into the given fusion groups."""
    schedule = Schedule(name=name, regions=[sorted(g) for g in groups])
    schedule.validate(program)
    return schedule


def cs_rewrite(
    program: EinsumProgram,
    groups: Sequence[Sequence[int]],
    name: str = "cs-rewrite",
) -> Schedule:
    """Custard+Stardust manual-rewrite baseline: global-iteration fusion.

    Groups should contain only contiguous multiplicative contractions (the
    rewrite merges them into one Einsum); nonlinear operations break fusion
    in prior compilers, so they must sit in their own singleton groups.
    """
    schedule = fused_groups(program, groups, name=name)
    schedule.global_rewrite = True
    schedule.fold_masks = False
    return schedule
