"""Calibrated cost models for guided schedule search.

The analytical :class:`~repro.core.heuristic.model.FusionHeuristic` plus
:func:`~repro.core.heuristic.prune.roofline_score` is fast and monotone
enough to *rank* fusion granularities, but it does not model tiling or
parallelization and its absolute cycle predictions drift per model.  The
repo already accumulates ground truth — sweep ``ResultStore`` JSONL files
and ``sweep report --json`` summaries carry measured cycles next to the
full schedule point — so this module closes the loop:

* :class:`HeuristicCostModel` — the raw analytical predictor, packaged
  behind the same :class:`CostModel` protocol the search strategies use.
* :class:`CalibratedCostModel` — per-model-name linear correction terms
  over log-space features of the analytical estimate, fitted with pure
  numpy least squares (``np.linalg.lstsq``; no new dependencies) from
  recorded sweeps.  Because the raw roofline score is itself feature 0
  and an intercept is included, the fitted model's training error can
  never exceed the raw heuristic's — calibration is monotone improvement
  by construction.

Artifacts are versioned JSON (:data:`COSTMODEL_VERSION`) and bit-stable:
``fit`` → ``save`` → ``load`` → ``save`` produces byte-identical files
(Python's ``json`` round-trips ``float`` shortest-repr exactly and keys
are sorted).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...comal.machines import Machine
from ..einsum.ast import EinsumProgram
from ..schedule.schedule import Schedule
from .model import FusionHeuristic, TensorStats
from .prune import roofline_score

COSTMODEL_VERSION = 1

#: Feature names, in column order.  ``log_score`` first is load-bearing:
#: it makes the raw heuristic a point inside the fitted model's
#: hypothesis space (weights ``[1, 0, …, 0]``), so least squares can
#: only match or beat it on the training records.
FEATURE_NAMES: Tuple[str, ...] = (
    "log_score",
    "log_flops",
    "log_dram_bytes",
    "n_regions",
    "log_split_product",
    "log_par_product",
    "intercept",
)

#: Key under which the cross-model fallback coefficients are stored.
GLOBAL_KEY = "*"


class CostModelError(RuntimeError):
    """Raised for malformed cost-model artifacts or unusable records."""


def _log1p(x: float) -> float:
    return math.log1p(max(0.0, float(x)))


class CostModel:
    """Protocol for search-time cycle predictors.

    ``predict`` returns an *ordering* signal in predicted cycles; the
    search strategies only compare predictions against each other, so any
    strictly monotone transform of true cycles is a valid model.
    """

    def predict(
        self,
        program: EinsumProgram,
        schedule: Schedule,
        stats: Mapping[str, TensorStats],
        machine: Machine,
        model_name: Optional[str] = None,
    ) -> float:
        raise NotImplementedError


class HeuristicCostModel(CostModel):
    """The analytical FLOPs/bytes heuristic behind the CostModel protocol.

    A per-``(program, scratchpad)`` :class:`FusionHeuristic` is cached so
    a search evaluating hundreds of neighbors pays the per-program setup
    once, and per-schedule estimates are memoized by content fingerprint
    (local moves revisit schedules; the heuristic is pure).
    """

    def __init__(self) -> None:
        self._heuristics: Dict[Tuple[int, Optional[int]], FusionHeuristic] = {}
        self._scores: Dict[Tuple[int, Optional[int], str, str], float] = {}

    def features(
        self,
        program: EinsumProgram,
        schedule: Schedule,
        stats: Mapping[str, TensorStats],
        machine: Machine,
    ) -> List[float]:
        """The calibration feature vector (see :data:`FEATURE_NAMES`)."""
        key = (id(program), machine.scratchpad_bytes)
        heuristic = self._heuristics.get(key)
        if heuristic is None:
            heuristic = FusionHeuristic(
                program, dict(stats), scratchpad_bytes=machine.scratchpad_bytes
            )
            self._heuristics[key] = heuristic
        estimate = heuristic.estimate(schedule)
        score = roofline_score(estimate, machine)
        split_product = 1.0
        for tiles in schedule.splits.values():
            if tiles > 1:
                split_product *= tiles
        par_product = 1.0
        for factor in schedule.par.values():
            if factor > 1:
                par_product *= factor
        return [
            _log1p(score),
            _log1p(estimate.flops),
            _log1p(estimate.dram_bytes),
            float(len(schedule.regions)),
            math.log(split_product),
            math.log(par_product),
            1.0,
        ]

    def predict(
        self,
        program: EinsumProgram,
        schedule: Schedule,
        stats: Mapping[str, TensorStats],
        machine: Machine,
        model_name: Optional[str] = None,
    ) -> float:
        key = (
            id(program),
            machine.scratchpad_bytes,
            machine.name,
            schedule.fingerprint(),
        )
        cached = self._scores.get(key)
        if cached is None:
            cached = math.expm1(
                self.features(program, schedule, stats, machine)[0]
            )
            self._scores[key] = cached
        return cached


@dataclass
class FittedTerms:
    """Least-squares correction coefficients for one model name."""

    weights: List[float]
    records: int
    rmse: float
    raw_rmse: float

    def to_record(self) -> Dict[str, object]:
        return {
            "weights": list(self.weights),
            "records": self.records,
            "rmse": self.rmse,
            "raw_rmse": self.raw_rmse,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "FittedTerms":
        return cls(
            weights=[float(w) for w in record["weights"]],
            records=int(record["records"]),
            rmse=float(record["rmse"]),
            raw_rmse=float(record["raw_rmse"]),
        )


@dataclass
class CalibrationRecord:
    """One ground-truth observation: a schedule point and measured cycles."""

    model_name: str
    program: EinsumProgram
    schedule: Schedule
    stats: Mapping[str, TensorStats]
    machine: Machine
    cycles: float


class CalibratedCostModel(CostModel):
    """Per-model linear correction over analytical log-space features.

    ``fit`` solves one least-squares system per distinct model name (plus
    a pooled :data:`GLOBAL_KEY` fallback used for unseen names); target is
    ``log1p(measured cycles)``.  ``predict`` falls back to the raw
    heuristic when nothing was fitted at all.
    """

    def __init__(
        self,
        terms: Optional[Dict[str, FittedTerms]] = None,
        base: Optional[HeuristicCostModel] = None,
    ) -> None:
        self.terms: Dict[str, FittedTerms] = dict(terms or {})
        self.base = base or HeuristicCostModel()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _terms_for(self, model_name: Optional[str]) -> Optional[FittedTerms]:
        if model_name is not None and model_name in self.terms:
            return self.terms[model_name]
        return self.terms.get(GLOBAL_KEY)

    def predict(
        self,
        program: EinsumProgram,
        schedule: Schedule,
        stats: Mapping[str, TensorStats],
        machine: Machine,
        model_name: Optional[str] = None,
    ) -> float:
        terms = self._terms_for(model_name)
        if terms is None:
            return self.base.predict(
                program, schedule, stats, machine, model_name
            )
        features = self.base.features(program, schedule, stats, machine)
        log_cycles = sum(w * f for w, f in zip(terms.weights, features))
        # The roofline score is an optimistic bound on achievable cycles,
        # so the correction must never predict below it: far outside the
        # training distribution (e.g. coarse fusions the sweep never
        # measured because they don't compile) an unclamped linear
        # extrapolation can reach ~0 and trap a guided search on
        # infeasible points.
        log_cycles = min(max(log_cycles, features[0]), 60.0)
        return math.expm1(log_cycles)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, records: Iterable[CalibrationRecord]) -> "CalibratedCostModel":
        """Fit per-model correction terms from ground-truth records.

        Returns ``self`` so ``CalibratedCostModel().fit(...).save(...)``
        chains.  Raises :class:`CostModelError` when no usable record
        survives (an empty fit would silently behave like the raw
        heuristic while claiming to be calibrated).
        """
        rows: Dict[str, List[Tuple[List[float], float]]] = {}
        for record in records:
            if record.cycles is None or record.cycles < 0:
                continue
            features = self.base.features(
                record.program, record.schedule, record.stats, record.machine
            )
            target = _log1p(record.cycles)
            rows.setdefault(record.model_name, []).append((features, target))
            rows.setdefault(GLOBAL_KEY, []).append((features, target))
        if not rows:
            raise CostModelError("no usable calibration records")
        self.terms = {}
        for name in sorted(rows):
            design = np.array([f for f, _ in rows[name]], dtype=float)
            target = np.array([t for _, t in rows[name]], dtype=float)
            weights, *_ = np.linalg.lstsq(design, target, rcond=None)
            fitted = design @ weights
            raw = design[:, 0]  # raw heuristic = log_score as-is
            self.terms[name] = FittedTerms(
                weights=[float(w) for w in weights],
                records=len(target),
                rmse=float(np.sqrt(np.mean((fitted - target) ** 2))),
                raw_rmse=float(np.sqrt(np.mean((raw - target) ** 2))),
            )
        return self

    def fit_from_store(self, path: str) -> "CalibratedCostModel":
        """Fit from a sweep artifact on disk.

        Accepts either a sweep ``ResultStore`` JSONL results file or a
        ``SweepSpec`` JSON file; a spec is *executed in-process* first
        (SweepSpec-driven calibration), so ``fuseflow tune --calibrate
        spec.json`` measures its own ground truth.
        """
        return self.fit(calibration_records(path))

    # ------------------------------------------------------------------
    # Persistence (versioned, bit-stable JSON)
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        return {
            "version": COSTMODEL_VERSION,
            "kind": "calibrated-cost-model",
            "features": list(FEATURE_NAMES),
            "terms": {
                name: terms.to_record() for name, terms in self.terms.items()
            },
        }

    def save(self, path: str) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_record(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibratedCostModel":
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("kind") != "calibrated-cost-model":
            raise CostModelError(f"{path!r} is not a cost-model artifact")
        version = record.get("version")
        if version != COSTMODEL_VERSION:
            raise CostModelError(
                f"{path!r}: cost-model version {version} is not supported "
                f"(this build reads version {COSTMODEL_VERSION})"
            )
        if list(record.get("features", [])) != list(FEATURE_NAMES):
            raise CostModelError(
                f"{path!r}: feature layout {record.get('features')} does "
                f"not match this build's {list(FEATURE_NAMES)}"
            )
        terms = {
            name: FittedTerms.from_record(rec)
            for name, rec in record.get("terms", {}).items()
        }
        return cls(terms=terms)


# ----------------------------------------------------------------------
# Record extraction from sweep artifacts
# ----------------------------------------------------------------------
def _records_from_results(
    results: Sequence[Mapping[str, object]],
) -> List[CalibrationRecord]:
    """Turn sweep result records (with full ``point`` dicts) into
    calibration records, skipping failed or point-less entries."""
    # Sweep imports stay function-local: core.heuristic must not import
    # repro.sweep at module load (sweep imports the driver which imports
    # core — a cycle).
    from ...comal.machines import MACHINES
    from ...sweep.spec import SweepPoint, bundle_for
    from .model import stats_from_binding

    stats_cache: Dict[int, Tuple[object, Mapping[str, TensorStats]]] = {}
    out: List[CalibrationRecord] = []
    for record in results:
        if record.get("status") != "ok":
            continue
        point_rec = record.get("point")
        metrics = record.get("metrics") or {}
        cycles = metrics.get("cycles")
        if not point_rec or cycles is None:
            continue
        point = SweepPoint.from_record(point_rec)
        bundle = bundle_for(point)
        if id(bundle) not in stats_cache:
            # Holding the bundle keeps its id from being reused.
            stats_cache[id(bundle)] = (bundle, stats_from_binding(bundle.binding))
        stats = stats_cache[id(bundle)][1]
        try:
            schedule = point.schedule_for(bundle)
        except Exception:
            continue
        out.append(
            CalibrationRecord(
                model_name=point.model,
                program=bundle.program,
                schedule=schedule,
                stats=stats,
                machine=MACHINES[point.machine].with_hierarchy(point.hierarchy),
                cycles=float(cycles),
            )
        )
    return out


def calibration_records(path: str) -> List[CalibrationRecord]:
    """Ground-truth records from a sweep artifact.

    Three formats are recognized:

    * ResultStore JSONL (``fuseflow sweep run`` output) — read directly;
    * SweepSpec JSON — the sweep is executed in-process and its results
      used (SweepSpec-driven calibration);
    * a summary JSON (``fuseflow sweep report --json``), whose ``results``
      entries carry each ok point's record and metrics.
    """
    from ...sweep.runner import run_sweep
    from ...sweep.spec import SweepSpec
    from ...sweep.store import ResultStore

    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
    if not head:
        raise CostModelError(f"{path!r} is empty")
    if path.endswith(".jsonl"):
        return _records_from_results(ResultStore.open(path).records())
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError:
            # Multi-line JSONL without the extension.
            return _records_from_results(ResultStore.open(path).records())
    if (
        isinstance(payload, dict)
        and "models" in payload
        and "schedules" in payload
    ):
        spec = SweepSpec.from_record(payload)
        outcome = run_sweep(spec, store_path=None, workers=1)
        return _records_from_results(outcome.records)
    if isinstance(payload, dict) and "results" in payload:
        # A summary lists only ok points, without a status field.
        return _records_from_results(
            [dict(r, status="ok") for r in payload["results"]]
        )
    raise CostModelError(
        f"{path!r}: not a ResultStore JSONL, SweepSpec JSON, or sweep "
        "summary JSON"
    )
