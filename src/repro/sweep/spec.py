"""Declarative sweep specifications: grids and points over the design space.

The paper's evaluation is a sweep — many (model × dataset × schedule ×
machine × hierarchy) points simulated under comal to produce each figure.  A
:class:`SweepSpec` captures such an experiment declaratively: cartesian
grids plus explicit extra points, each resolving to a :class:`SweepPoint`
with a stable content-derived identifier.  Point IDs reuse the canonical
fingerprint idiom of the driver (sha256 over a sorted textual rendering of
every field the experiment reads), so a results file written today still
matches the same grid tomorrow and ``sweep resume`` can skip completed
points by ID alone.

A :class:`SweepPoint` is also what a ``fuseflow`` CLI invocation and a
``/v1/*`` serve body build: the one description of "which experiment".
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from ..comal.hierarchy import resolve_hierarchy
from ..comal.machines import MACHINES
from ..core.schedule.schedule import Schedule
from ..core.schedule.split import validate_par_item, validate_split_item
from ..data.registry import GPT3_DATASET, GRAPH_DATASETS, SAE_DATASETS
from ..driver.pipeline import DEFAULT_PASS_ORDER
from ..models.common import ModelBundle

#: Synthetic stand-in "dataset" accepted by every model.
SYNTHETIC = "synthetic"

MODEL_NAMES: Tuple[str, ...] = ("gcn", "graphsage", "sae", "gpt3")
SCHEDULE_NAMES: Tuple[str, ...] = ("unfused", "partial", "full", "cs")


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


def compatible_datasets(model: str) -> List[str]:
    """Dataset names (Table 2 registry + synthetic) valid for ``model``."""
    if model in ("gcn", "graphsage"):
        return [*GRAPH_DATASETS, SYNTHETIC]
    if model == "sae":
        return [*SAE_DATASETS, SYNTHETIC]
    if model == "gpt3":
        return [GPT3_DATASET.name, SYNTHETIC]
    raise SweepSpecError(f"unknown model {model!r}")


#: Names the legacy ``backend`` field of a point or ``/v1/*`` body may
#: carry.  It only labels a point: every name runs the one tier rule.
LEGACY_BACKENDS = ("interp", "columnar", "codegen")


def validate_target(machine: str, hierarchy: str, backend: str) -> None:
    """Raise :class:`SweepSpecError` for an unknown machine, hierarchy or
    legacy backend name (``""`` for none): where any experiment runs."""
    if machine not in MACHINES:
        raise SweepSpecError(
            f"unknown machine {machine!r}; expected one of {sorted(MACHINES)}"
        )
    try:
        resolve_hierarchy(hierarchy)
    except ValueError as exc:
        raise SweepSpecError(str(exc)) from None
    if backend and backend not in LEGACY_BACKENDS:
        raise SweepSpecError(
            f"unknown backend {backend!r}; expected one of "
            f"{LEGACY_BACKENDS} (or '')"
        )


#: The compile flow as point ids render it: every pass, with
#: ``split-indices`` left out of unsplit points so that results files
#: written before the pass existed keep their ids.
_FLOW_ID = str(list(DEFAULT_PASS_ORDER))
_UNSPLIT_FLOW = tuple(n for n in DEFAULT_PASS_ORDER if n != "split-indices")
_UNSPLIT_FLOW_ID = str(list(_UNSPLIT_FLOW))

#: What decides whether each optional pass of the fixed flow does anything.
_PASS_GATES = {
    "fold-masks": "Schedule.fold_masks",
    "merge-contractions": "Schedule.global_rewrite (the 'cs' schedule)",
    "split-indices": "splits",
    "place-memory": "hierarchy ('flat' has no on-chip buffer)",
    "parallelize": "par",
}


def _check_flow(field_name: str, names: Sequence[str]) -> None:
    """Accept a recorded pass list only if it is the fixed compile flow.

    Results and spec files from before the flow was fixed record one; the
    default order (with or without ``split-indices``) still loads.

    Raises
    ------
    SweepSpecError
        For any other list, naming what to ablate with instead.
    """
    if tuple(names) in (DEFAULT_PASS_ORDER, _UNSPLIT_FLOW):
        return
    missing = [name for name in _PASS_GATES if name not in names]
    gates = [f"{name}: {_PASS_GATES[name]}" for name in missing or _PASS_GATES]
    raise SweepSpecError(
        f"{field_name} {list(names)} is not the compile flow "
        f"{list(DEFAULT_PASS_ORDER)}, which is fixed; ablate a pass through "
        f"the field that gates it ({'; '.join(gates)})"
    )


def _freeze_args(args: Optional[Dict[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((args or {}).items()))


@dataclass(frozen=True)
class SweepPoint:
    """One experiment: a model on a dataset under a schedule, on a machine.

    Attributes
    ----------
    model, dataset, schedule, machine:
        The grid coordinates of the experiment.
    pipeline:
        The compile flow's pass names (a constant, not a field: every
        point compiles through the same fixed flow).
    model_args:
        Keyword overrides for the model builder, sorted for hashability.
    par:
        Index-variable parallelization factors applied to the schedule.
    splits:
        Index-variable tile counts (index splitting) applied to the
        schedule; indices a model's regions do not iterate are skipped by
        the ``split-indices`` pass, so one config can broadcast across
        models.
    hierarchy:
        Memory-hierarchy preset name (``"flat"`` reproduces the DRAM-only
        simulator); accepts the ``preset@capacity_bytes`` form so sweeps
        can grid over buffer sizes.
    backend:
        Legacy label (one of :data:`LEGACY_BACKENDS`, or ``""``, the
        default): hashed into the point ID when set and echoed into
        records, so results files written while it chose an execution
        backend resume unchanged.  It changes nothing the point runs.
    """

    model: str
    dataset: str = SYNTHETIC
    schedule: str = "partial"
    machine: str = "rda"
    pipeline: ClassVar[Tuple[str, ...]] = DEFAULT_PASS_ORDER
    model_args: Tuple[Tuple[str, object], ...] = ()
    par: Tuple[Tuple[str, int], ...] = ()
    splits: Tuple[Tuple[str, int], ...] = ()
    hierarchy: str = "flat"
    backend: str = ""

    @classmethod
    def make(
        cls,
        model: str,
        dataset: str = SYNTHETIC,
        schedule: str = "partial",
        machine: str = "rda",
        model_args: Optional[Dict[str, object]] = None,
        par: Optional[Dict[str, int]] = None,
        splits: Optional[Dict[str, int]] = None,
        hierarchy: str = "flat",
        backend: str = "",
    ) -> "SweepPoint":
        """Build a point from plain dict/list arguments.

        The exact no-op tile count 1 is normalized away: the split-indices
        pass no-ops it, so ``splits={'x1': 1}`` must collapse into the
        unsplit baseline (same point ID, no duplicate compile) rather than
        masquerade as a distinct tiled configuration.  Invalid counts
        (0, negatives, bools, floats) are kept so :meth:`validate` rejects
        them.
        """
        normalized = {
            k: v
            for k, v in (splits or {}).items()
            if not (isinstance(v, int) and not isinstance(v, bool) and v == 1)
        }
        return cls(
            model=model,
            dataset=dataset,
            schedule=schedule,
            machine=machine,
            model_args=_freeze_args(model_args),
            par=_freeze_args(par),  # type: ignore[arg-type]
            splits=_freeze_args(normalized),  # type: ignore[arg-type]
            hierarchy=hierarchy,
            backend=backend,
        )

    def validate(self) -> None:
        """Reject unknown models/datasets/schedules/targets and bad factors.

        Raises
        ------
        SweepSpecError
            With the offending field and the valid alternatives.
        """
        if self.model not in MODEL_NAMES:
            raise SweepSpecError(
                f"unknown model {self.model!r}; expected one of {MODEL_NAMES}"
            )
        if self.dataset not in compatible_datasets(self.model):
            raise SweepSpecError(
                f"dataset {self.dataset!r} is not valid for model "
                f"{self.model!r}; valid: {compatible_datasets(self.model)}"
            )
        if self.schedule not in SCHEDULE_NAMES:
            raise SweepSpecError(
                f"unknown schedule {self.schedule!r}; expected one of "
                f"{SCHEDULE_NAMES}"
            )
        validate_target(self.machine, self.hierarchy, self.backend)
        try:
            for index_var, tiles in self.splits:
                validate_split_item(index_var, tiles)
            for index_var, factor in self.par:
                validate_par_item(index_var, factor)
        except ValueError as exc:
            raise SweepSpecError(str(exc)) from None

    def schedule_for(self, bundle: ModelBundle) -> Schedule:
        """The bundle's schedule at this point's granularity, ``par`` and
        ``splits`` applied — what every caller compiles for this point."""
        return replace(
            bundle.schedule(self.schedule),
            par=dict(self.par),
            splits=dict(self.splits),
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash over every field the experiment reads.

        Same idiom as ``EinsumProgram.fingerprint`` / ``Schedule.fingerprint``
        (a sha256 over a canonical textual rendering), and deliberately
        *not* dependent on object identity or field insertion order — the
        ResultStore keys resumability on this.
        """
        # Hash only the builder arguments this model actually reads, so a
        # spec broadcasting e.g. {'nodes', 'density'} across models gives
        # the same ID as one listing only the relevant keys.
        args = _filtered_args(self.model, dict(self.model_args))
        parts = [
            f"model {self.model}",
            f"dataset {self.dataset}",
            f"schedule {self.schedule}",
            f"machine {self.machine}",
            f"pipeline {_FLOW_ID if self.splits else _UNSPLIT_FLOW_ID}",
            f"model_args {sorted(args.items())}",
            f"par {sorted(self.par)}",
        ]
        # Appended only when non-flat so gridding hierarchies never churns
        # the IDs of flat points.
        if self.hierarchy != "flat":
            parts.append(f"hierarchy {self.hierarchy}")
        # Same idiom for the split axis: unsplit points keep their IDs.
        if self.splits:
            parts.append(f"splits {sorted(self.splits)}")
        # And for the legacy backend label: unlabelled points keep their IDs.
        if self.backend:
            parts.append(f"backend {self.backend}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def stage_key(self) -> str:
        """Every field but ``machine`` and ``hierarchy``, rendered (an
        unhashable model argument must not break the dispatcher): points
        with equal keys share one functional run (``docs/sweeps.md``).  A
        field added later lands in the key by default."""
        timing_only = ("machine", "hierarchy")
        return repr(
            [(f.name, getattr(self, f.name)) for f in fields(self) if f.name not in timing_only]
        )

    @property
    def point_id(self) -> str:
        """Short stable identifier used in result files and reports."""
        return self.fingerprint()[:16]

    def label(self) -> str:
        """Human-readable point name for tables and logs.

        Covers everything the point ID hashes (args the model reads,
        parallelization, splits, hierarchy, backend), so two points with
        different IDs never share a label — the sweep report's per-point
        rows and the ``sweep.point`` fault site key on this.
        """
        bits = [self.model, self.dataset, self.schedule, self.machine]
        if self.hierarchy != "flat":
            bits.append(self.hierarchy)
        args = _filtered_args(self.model, dict(self.model_args))
        if args:
            bits.append(",".join(f"{k}={v}" for k, v in sorted(args.items())))
        if self.par:
            bits.append(",".join(f"{k}={v}" for k, v in self.par))
        if self.splits:
            bits.append("split:" + ",".join(f"{k}={v}" for k, v in self.splits))
        if self.backend:
            bits.append(f"backend:{self.backend}")
        return "/".join(bits)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """JSON-safe rendering, inverse of :meth:`from_record`."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "schedule": self.schedule,
            "machine": self.machine,
            "pipeline": list(self.pipeline),
            "model_args": dict(self.model_args),
            "par": dict(self.par),
            "splits": dict(self.splits),
            "hierarchy": self.hierarchy,
            "backend": self.backend,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "SweepPoint":
        """Rebuild a point from :meth:`to_record` output (old files: flat).

        Raises
        ------
        SweepSpecError
            If the record names a ``pipeline`` other than the compile flow.
        """
        _check_flow("pipeline", record.get("pipeline", DEFAULT_PASS_ORDER))
        return cls.make(
            model=record["model"],
            dataset=record.get("dataset", SYNTHETIC),
            schedule=record.get("schedule", "partial"),
            machine=record.get("machine", "rda"),
            model_args=record.get("model_args") or {},
            par=record.get("par") or {},
            splits=record.get("splits") or {},
            hierarchy=record.get("hierarchy", "flat"),
            backend=record.get("backend", ""),
        )


#: Builder keyword arguments each model accepts (others are dropped, so one
#: spec-level ``--nodes 24`` can broadcast across models with different
#: signatures without exploding).
_MODEL_ARG_NAMES: Dict[str, Tuple[str, ...]] = {
    "gcn": ("nodes", "features", "density", "pattern", "hidden", "classes", "seed"),
    "graphsage": ("nodes", "features", "density", "pattern", "hidden", "classes", "seed"),
    "sae": ("nodes", "hidden", "weight_density", "seed"),
    "gpt3": ("seq_len", "d_model", "block", "n_layers", "ffn_mult", "seed"),
}


def _filtered_args(model: str, args: Dict[str, object]) -> Dict[str, object]:
    names = _MODEL_ARG_NAMES.get(model)
    if names is None:
        # Unknown model: keep everything, so fingerprint()/label() stay
        # total functions and validate() (inside run_point's try) reports
        # the bad model as an error record instead of a raised KeyError.
        return dict(args)
    return {k: v for k, v in args.items() if k in names}


def build_bundle(point: SweepPoint) -> ModelBundle:
    """Materialize the model bundle a sweep point describes.

    Deterministic: dataset seeds come from the Table 2 registry and
    synthetic builders take an explicit seed (default 0), so the same point
    always yields the same program, binding, and reference.  Uncached on
    purpose, so every call traces a fresh bundle; shared callers use
    :func:`bundle_for`.
    """
    import numpy as np

    from ..data.registry import graph_dataset, sae_dataset
    from ..models.gcn import build_gcn, gcn_on_synthetic
    from ..models.gpt3 import build_gpt3
    from ..models.graphsage import build_graphsage, graphsage_on_synthetic
    from ..models.sae import build_sae

    point.validate()
    args = _filtered_args(point.model, dict(point.model_args))
    if point.model in ("gcn", "graphsage"):
        if point.dataset == SYNTHETIC:
            builder = gcn_on_synthetic if point.model == "gcn" else graphsage_on_synthetic
            return builder(**args)
        entry, adj, feats = graph_dataset(point.dataset)
        layer_args = {
            k: v for k, v in args.items() if k in ("hidden", "classes")
        }
        builder = build_gcn if point.model == "gcn" else build_graphsage
        return builder(adj, feats, seed=entry.seed, **layer_args)
    if point.model == "sae":
        if point.dataset == SYNTHETIC:
            dim = int(args.pop("nodes", 16))
            seed = int(args.pop("seed", 0))
            rng = np.random.default_rng(seed)
            return build_sae(rng.random((5, dim)), seed=seed, **args)
        entry, x = sae_dataset(point.dataset)
        layer_args = {k: v for k, v in args.items() if k in ("hidden", "weight_density")}
        return build_sae(x, seed=entry.seed, **layer_args)
    # gpt3
    if point.dataset != SYNTHETIC:
        entry = GPT3_DATASET
        args.setdefault("seq_len", entry.sim_nodes)
        args.setdefault("d_model", entry.sim_features)
        args.setdefault("seed", entry.seed)
    return build_gpt3(**args)


# The process's traced models (sweep workers, serve threads), least recently
# used first.  A server sees one key per distinct ``model_args`` body, so the
# cache is bounded like a Session's compile cache (its default
# ``cache_size``); an LRU, because a FIFO evicts the hot bundles.
_BUNDLES: "OrderedDict[Tuple, ModelBundle]" = OrderedDict()
_BUNDLES_LOCK = threading.Lock()
_BUNDLE_ENTRIES = 256


def bundle_for(point: SweepPoint) -> ModelBundle:
    """:func:`build_bundle` once per process, keyed by the model arguments
    the builder reads; when two threads trace one model the first wins."""
    args = _filtered_args(point.model, dict(point.model_args))
    key = (point.model, point.dataset, tuple(args.items()))
    with _BUNDLES_LOCK:
        bundle = _BUNDLES.get(key)
        if bundle is not None:
            _BUNDLES.move_to_end(key)
            return bundle
    bundle = build_bundle(point)
    with _BUNDLES_LOCK:
        bundle = _BUNDLES.setdefault(key, bundle)
        _BUNDLES.move_to_end(key)
        while len(_BUNDLES) > _BUNDLE_ENTRIES:
            _BUNDLES.popitem(last=False)
    return bundle


@dataclass
class SweepSpec:
    """A declarative experiment sweep: cartesian grid + explicit points."""

    name: str = "sweep"
    models: List[str] = field(default_factory=lambda: ["gcn", "sae"])
    # None means "synthetic only"; dataset names are filtered per model.
    datasets: Optional[List[str]] = None
    schedules: List[str] = field(
        default_factory=lambda: ["unfused", "partial", "full"]
    )
    machines: List[str] = field(default_factory=lambda: ["rda", "fpga"])
    # Memory-hierarchy presets; None means flat only.  Accepts the
    # "preset@capacity_bytes" form for buffer-size grids.
    hierarchies: Optional[List[str]] = None
    # Builder keyword overrides broadcast to every grid point (filtered to
    # each model's accepted arguments).
    model_args: Dict[str, object] = field(default_factory=dict)
    # Parallelization factors broadcast to every grid point.
    par: Dict[str, int] = field(default_factory=dict)
    # Index-splitting axis: each entry is one split configuration (index
    # variable -> tile count) gridded against everything else; None means
    # unsplit only.  An empty dict entry is the explicit unsplit baseline,
    # so `splits=[{}, {"x1": 8}]` compares tiled vs untiled point-for-point.
    splits: Optional[List[Dict[str, int]]] = None
    # Legacy backend-label axis (see SweepPoint.backend); None means
    # unlabelled points only.  Every label runs the same tier rule, so it
    # changes point IDs, never metrics.
    backends: Optional[List[str]] = None
    # Explicit extra points appended after the grid.
    extra_points: List[SweepPoint] = field(default_factory=list)
    # The schedule speedups are reported against.
    baseline_schedule: str = "unfused"

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def points(self) -> List[SweepPoint]:
        """Expand the grid (+ extras) into validated, deduplicated points.

        Model-incompatible (model, dataset) pairs are skipped rather than
        rejected, so one grid can mix graph and SAE datasets.
        """
        points: List[SweepPoint] = []
        seen: set = set()
        matched_datasets: set = set()
        hierarchies = self.hierarchies or ["flat"]
        # Falsy (None or []) falls back to unsplit-only, matching the
        # hierarchy and backend axes — an empty split axis must not zero
        # out the whole grid.
        split_axis = self.splits or [{}]
        backend_axis = self.backends or [""]
        for model in self.models:
            datasets = self.datasets if self.datasets is not None else [SYNTHETIC]
            valid = set(compatible_datasets(model))
            for dataset in datasets:
                if dataset not in valid:
                    continue
                matched_datasets.add(dataset)
                for schedule in self.schedules:
                    for machine in self.machines:
                        for hierarchy in hierarchies:
                            for split_config in split_axis:
                                for backend in backend_axis:
                                    point = SweepPoint.make(
                                        model=model,
                                        dataset=dataset,
                                        schedule=schedule,
                                        machine=machine,
                                        model_args=self.model_args,
                                        par=self.par,
                                        splits=split_config,
                                        hierarchy=hierarchy,
                                        backend=backend,
                                    )
                                    point.validate()
                                    if point.point_id not in seen:
                                        seen.add(point.point_id)
                                        points.append(point)
        if self.datasets is not None:
            # A dataset no listed model can use is a typo or a missing
            # model, not cross-model mixing; silently shrinking the grid
            # would make an incomplete sweep look complete.
            unmatched = [d for d in self.datasets if d not in matched_datasets]
            if unmatched:
                raise SweepSpecError(
                    f"dataset(s) {unmatched} match none of the models "
                    f"{self.models}; known datasets per model: "
                    + ", ".join(
                        f"{m}: {compatible_datasets(m)}" for m in self.models
                    )
                )
        for point in self.extra_points:
            point.validate()
            if point.point_id not in seen:
                seen.add(point.point_id)
                points.append(point)
        if not points:
            raise SweepSpecError(
                "sweep spec expands to zero points (check model/dataset "
                "compatibility)"
            )
        return points

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash over the whole spec.

        Same idiom as :meth:`SweepPoint.fingerprint` (sha256 over a
        canonical rendering — here the sorted-keys JSON of
        :meth:`to_record`), so two specs agree iff they describe the same
        experiment.  ``run_sweep(resume=True)`` compares the caller's spec
        against the stored header through this, refusing to silently
        resume a *different* sweep under an old results file.
        """
        rendering = json.dumps(self.to_record(), sort_keys=True)
        return hashlib.sha256(rendering.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """JSON-safe rendering, inverse of :meth:`from_record`."""
        return {
            "name": self.name,
            "models": list(self.models),
            "datasets": None if self.datasets is None else list(self.datasets),
            "schedules": list(self.schedules),
            "machines": list(self.machines),
            "hierarchies": (
                None if self.hierarchies is None else list(self.hierarchies)
            ),
            "model_args": dict(self.model_args),
            "par": dict(self.par),
            "splits": (
                None
                if self.splits is None
                else [dict(config) for config in self.splits]
            ),
            "backends": (
                None if self.backends is None else list(self.backends)
            ),
            "extra_points": [p.to_record() for p in self.extra_points],
            "baseline_schedule": self.baseline_schedule,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_record` output (missing keys default).

        Raises
        ------
        SweepSpecError
            If the record grids over pass lists other than the compile flow
            (specs written before the flow was fixed carry that axis).
        """
        for names in record.get("pipelines") or []:
            _check_flow("pipeline", names)
        return cls(
            name=record.get("name", "sweep"),
            models=list(record.get("models", ["gcn", "sae"])),
            datasets=record.get("datasets"),
            schedules=list(record.get("schedules", ["unfused", "partial", "full"])),
            machines=list(record.get("machines", ["rda", "fpga"])),
            hierarchies=record.get("hierarchies"),
            model_args=dict(record.get("model_args") or {}),
            # Factors are validated by points(), never coerced (2.7 is not 2).
            par=dict(record.get("par") or {}),
            splits=(
                None
                if record.get("splits") is None
                else [dict(config) for config in record["splits"]]
            ),
            backends=record.get("backends"),
            extra_points=[
                SweepPoint.from_record(p) for p in record.get("extra_points", [])
            ],
            baseline_schedule=record.get("baseline_schedule", "unfused"),
        )

    def save(self, path: str) -> None:
        """Write this spec to ``path`` as pretty JSON (for ``--spec``)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_record(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SweepSpec":
        """Read a spec saved by :meth:`save` (or written by hand)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_record(json.load(fh))
