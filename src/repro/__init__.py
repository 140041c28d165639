"""FuseFlow reproduction: fusion-centric compilation of sparse DL to dataflow.

Public API surface:

* :mod:`repro.frontend` — PyTorch-like tracing of sparse models.
* :mod:`repro.core` — the FuseFlow compiler (Einsum IR, cross-expression
  fusion, fusion tables, scheduling, heuristic).
* :mod:`repro.sam` — the SAM/SAMML abstract machine.
* :mod:`repro.ftree` — fibertree sparse tensors and formats.
* :mod:`repro.comal` — the dataflow simulator (timing models, two-level
  memory hierarchy, metrics).
* :mod:`repro.models` / :mod:`repro.data` — the evaluation's model zoo and
  dataset generators.
* :mod:`repro.driver` — the compile driver: :class:`Session` (cached
  compiles), :class:`PassPipeline` (the fixed compile flow, whose every
  ablation is a schedule field or the hierarchy), and :class:`Executable`
  (callable compiled programs with diagnostics).
"""

from . import comal, core, data, driver, ftree, models, sam
from .comal.hierarchy import HIERARCHIES, HierarchySpec, resolve_hierarchy
from .core.einsum.ast import EinsumProgram
from .core.einsum.parser import parse_program
from .core.schedule.schedule import (
    Schedule,
    cs_rewrite,
    fully_fused,
    fused_groups,
    unfused,
)
from .driver import (
    CompileDiagnostics,
    CompiledProgram,
    Executable,
    PassPipeline,
    ProgramResult,
    Session,
    default_session,
)
from .frontend.api import Linear, ModelBuilder
from .ftree import Format, SparseTensor, csr, dcsr, dense, sparse_vector

__version__ = "1.0.0"

__all__ = [
    "EinsumProgram",
    "parse_program",
    "Schedule",
    "unfused",
    "fully_fused",
    "fused_groups",
    "cs_rewrite",
    "ModelBuilder",
    "Linear",
    "SparseTensor",
    "Format",
    "csr",
    "dcsr",
    "dense",
    "sparse_vector",
    "CompiledProgram",
    "ProgramResult",
    "Session",
    "default_session",
    "Executable",
    "PassPipeline",
    "CompileDiagnostics",
    "HIERARCHIES",
    "HierarchySpec",
    "resolve_hierarchy",
]
