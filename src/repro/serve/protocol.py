"""Serve protocol: JSON request bodies -> validated work units.

One request describes one compile (or compile-and-simulate) the same way a
sweep point does — model requests reuse :class:`~repro.sweep.spec.SweepPoint`
verbatim, so anything expressible in a sweep grid is servable, with the
identical validation errors.  Raw einsum programs (the concrete syntax of
:func:`~repro.core.einsum.parser.parse_program`) are accepted for
compile-only requests, which carry no tensor binding to simulate against.

Every request renders to a canonical content key (:meth:`ServeRequest.key`,
the usual sha256-over-canonical-rendering idiom) — the serve front end
deduplicates identical in-flight requests on it, so a thundering herd of
equal requests costs one compile.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from ..core.einsum.ast import EinsumError
from ..core.einsum.parser import parse_program
from ..sweep.spec import (
    _MODEL_ARG_NAMES,
    SYNTHETIC,
    SweepPoint,
    SweepSpecError,
    validate_target,
)

__all__ = ["ServeError", "ServeRequest", "parse_request"]

#: JSON keys a request body may carry; anything else is a loud 400 (a typoed
#: knob silently ignored would serve the wrong experiment).
_ALLOWED_KEYS = frozenset(
    {
        "model",
        "dataset",
        "schedule",
        "machine",
        "hierarchy",
        "backend",
        "model_args",
        "par",
        "splits",
        "program",
        "name",
        "deadline_ms",
    }
)

_PROGRAM_SCHEDULES = ("unfused", "full")

#: Largest value each size-valued ``model_args`` entry may take.  The body's
#: bytes are bounded by the server; without this its *values* are not, and
#: ``{"nodes": 10000000}`` wedges a handler thread building the graph.
#: Checked at the HTTP door only — sweep specs are local files.  A small
#: multiple of what is measured (``bench/`` stays <= nodes=192, seq_len=128,
#: n_layers=4, default feature widths): at every cap at once a fully fused
#: request simulates in ~12 s and ~1.5 GB, against ~1 s / 0.2 GB for the
#: largest measured one.
_MODEL_ARG_CAPS = {
    "nodes": 256,
    "features": 32,
    "hidden": 32,
    "classes": 32,
    "seq_len": 256,
    "d_model": 64,
    "block": 64,
    "n_layers": 8,
    "ffn_mult": 4,
}

#: Largest mean degree (``nodes * density``) of a synthetic graph.  A fused
#: schedule recomputes per two-hop path, so simulation grows with
#: nodes * degree**2 and no per-field cap bounds it: at nodes=128, density
#: 0.4 takes 12x the time and 7x the memory of density 0.1.  The largest
#: measured graph (192 * 0.08) sits just under the bound.
_MAX_GRAPH_DEGREE = 16
#: ``nodes`` when a graph request leaves it out (``gcn_on_synthetic`` and
#: ``graphsage_on_synthetic``).
_DEFAULT_GRAPH_NODES = 200


class ServeError(ValueError):
    """Malformed serve request; the front end maps it to HTTP 400."""


@dataclass(frozen=True)
class ServeRequest:
    """One validated serve work unit (hashable, content-addressed).

    Exactly one of ``point`` (a model request, sweep-point semantics) and
    ``program_text`` (raw einsum source, compile-only) is set.
    """

    action: str  # "compile" | "simulate"
    machine: str
    hierarchy: str
    schedule: str
    point: Optional[SweepPoint] = None
    program_text: Optional[str] = None
    program_name: str = "program"
    #: Client-requested response deadline in milliseconds; the server caps
    #: it at its own ``--deadline``.  Deliberately NOT part of :meth:`key`:
    #: two requests for the same work with different patience still share
    #: one execution.
    deadline_ms: Optional[int] = None

    def key(self) -> str:
        """Canonical content key: sha256 over everything the request reads.

        Two requests share a key iff they would do byte-identical work, so
        the single-flight layer can collapse them onto one execution.
        """
        if self.point is not None:
            parts = {"action": self.action, "point": self.point.to_record()}
        else:
            parts = {
                "action": self.action,
                "program": self.program_text,
                "name": self.program_name,
                "schedule": self.schedule,
                "machine": self.machine,
                "hierarchy": self.hierarchy,
            }
        rendering = json.dumps(parts, sort_keys=True)
        return hashlib.sha256(rendering.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Human-readable request name for logs and responses."""
        if self.point is not None:
            return self.point.label()
        return f"{self.program_name}/{self.schedule}/{self.machine}"


def _require_mapping(data: dict, field: str) -> dict:
    value = data.get(field) or {}
    if not isinstance(value, dict):
        raise ServeError(f"{field!r} must be a JSON object")
    return value


def _check_model_args(model: str, args: dict) -> None:
    """Bound the values of the arguments ``model`` accepts.

    Names the model does not accept are dropped downstream, so they are
    not looked at here either.
    """
    for name in _MODEL_ARG_NAMES.get(model, ()):
        if name not in args:
            continue
        value = args[name]
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if name in _MODEL_ARG_CAPS:
            cap = _MODEL_ARG_CAPS[name]
            ok, want = is_int and 1 <= value <= cap, f"an integer in [1, {cap}]"
        elif name in ("density", "weight_density"):
            ok = (is_int or isinstance(value, float)) and 0 < value <= 1
            want = "a number in (0, 1]"
        elif name == "seed":
            ok, want = is_int, "an integer"
        elif name == "pattern":
            ok, want = isinstance(value, str), "a string"
        else:  # a new model argument has to be bounded on purpose
            raise AssertionError(f"unclassified model argument {name!r}")
        if not ok:
            raise ServeError(
                f"model_args[{name!r}] must be {want}, got {value!r}"
            )
    if "density" in args and "density" in _MODEL_ARG_NAMES.get(model, ()):
        nodes = args.get("nodes", _DEFAULT_GRAPH_NODES)
        if nodes * args["density"] > _MAX_GRAPH_DEGREE:
            raise ServeError(
                f"model_args['density'] must be at most {_MAX_GRAPH_DEGREE} / "
                f"nodes = {_MAX_GRAPH_DEGREE / nodes:g} for {nodes} nodes, "
                f"got {args['density']!r}"
            )


def parse_request(raw: bytes, action: str) -> ServeRequest:
    """Parse and validate one request body; raises :class:`ServeError`.

    Parameters
    ----------
    raw:
        The HTTP request body (JSON).
    action:
        ``"compile"`` or ``"simulate"`` (from the endpoint path).
    """
    if action not in ("compile", "simulate"):
        raise ServeError(f"unknown action {action!r}")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ServeError("request body must be a JSON object")
    unknown = sorted(set(data) - _ALLOWED_KEYS)
    if unknown:
        raise ServeError(
            f"unknown request key(s) {unknown}; valid keys: "
            f"{sorted(_ALLOWED_KEYS)}"
        )
    has_model = bool(data.get("model"))
    has_program = "program" in data
    if has_model == has_program:
        raise ServeError(
            "pass exactly one of 'model' (a registered model name) or "
            "'program' (raw einsum source text)"
        )
    machine = str(data.get("machine", "rda"))
    hierarchy = str(data.get("hierarchy", "flat"))
    backend = str(data.get("backend", ""))
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool) \
                or deadline_ms < 1:
            raise ServeError(
                f"'deadline_ms' must be a positive integer, got {deadline_ms!r}"
            )

    if has_model:
        schedule = str(data.get("schedule", "partial"))
        model = str(data["model"])
        model_args = _require_mapping(data, "model_args")
        _check_model_args(model, model_args)
        point = SweepPoint.make(
            model=model,
            dataset=str(data.get("dataset", SYNTHETIC)),
            schedule=schedule,
            machine=machine,
            model_args=model_args,
            par=_require_mapping(data, "par"),
            splits=_require_mapping(data, "splits"),
            hierarchy=hierarchy,
            backend=backend,
        )
        try:
            point.validate()
        except SweepSpecError as exc:
            raise ServeError(str(exc)) from None
        return ServeRequest(
            action=action,
            machine=machine,
            hierarchy=hierarchy,
            schedule=schedule,
            point=point,
            deadline_ms=deadline_ms,
        )

    # Raw einsum source: compile-only (there is no tensor binding to run).
    if action != "compile":
        raise ServeError(
            "program-text requests are compile-only; POST /v1/compile "
            "(simulate needs a model, which carries its tensor binding)"
        )
    text = data["program"]
    if not isinstance(text, str) or not text.strip():
        raise ServeError("'program' must be non-empty einsum source text")
    schedule = str(data.get("schedule", "unfused"))
    if schedule not in _PROGRAM_SCHEDULES:
        raise ServeError(
            f"program-text requests support schedule in "
            f"{_PROGRAM_SCHEDULES}, got {schedule!r}"
        )
    try:
        validate_target(machine, hierarchy, backend)
    except SweepSpecError as exc:
        raise ServeError(str(exc)) from None
    name = str(data.get("name", "program"))
    try:
        # Parse eagerly so a syntax error is a clean 400 at the door, not
        # a 500 from inside the compile path.
        parse_program(text, name)
    except EinsumError as exc:
        raise ServeError(f"program does not parse: {exc}") from None
    return ServeRequest(
        action=action,
        machine=machine,
        hierarchy=hierarchy,
        schedule=schedule,
        program_text=text,
        program_name=name,
        deadline_ms=deadline_ms,
    )
