"""Backend abstraction: how a lowered fusion region gets executed.

A *backend* turns a lowered SAMML region graph plus a tensor binding into a
:class:`~repro.comal.functional.FunctionalResult`.  Three backends exist:

* ``"interp"`` — the legacy per-token interpreter (tuple-list streams);
* ``"columnar"`` — the vectorized interpreter over
  :class:`~repro.sam.token.TokenStream` columns (the default);
* ``"codegen"`` — the code-generating backend in
  :mod:`repro.backend.codegen`, which emits and compiles one specialized
  Python kernel per region.

All three produce identical streams, statistics, and result tensors — the
interpreter is the executable specification, and
``tests/test_codegen_differential.py`` enforces the equivalence model by
model.  Backend selection threads through :class:`~repro.driver.session.Session`,
:class:`~repro.driver.executable.Executable`, sweeps, and the CLI; the
resolution precedence is implemented by :func:`resolve_backend_name`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("interp", "columnar", "codegen")

_TRUTHY = ("1", "true", "yes", "on")


def _validated(name: str) -> str:
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r} (choose from {', '.join(BACKEND_NAMES)})"
        )
    return name


def default_backend_name() -> str:
    """The environment-default backend name.

    ``FUSEFLOW_BACKEND`` wins when set; otherwise the legacy
    ``FUSEFLOW_LEGACY_STREAMS`` toggle selects between ``"interp"`` and the
    ``"columnar"`` default, exactly as before backends existed.

    Returns
    -------
    str
        One of :data:`BACKEND_NAMES`.
    """
    env = os.environ.get("FUSEFLOW_BACKEND", "")
    if env.strip():
        return _validated(env)
    legacy = os.environ.get("FUSEFLOW_LEGACY_STREAMS", "").lower() in _TRUTHY
    return "interp" if legacy else "columnar"


def resolve_backend_name(
    backend: Optional[str] = None, columnar: Optional[bool] = None
) -> str:
    """Resolve an effective backend name from the layered selectors.

    Precedence, most specific first:

    1. an explicit ``backend`` argument;
    2. an explicit ``columnar`` argument (``True`` -> ``"columnar"``,
       ``False`` -> ``"interp"`` — the pre-backend API, kept so code and
       tests that pin a stream representation keep getting it);
    3. the ``FUSEFLOW_BACKEND`` environment variable;
    4. the ``FUSEFLOW_LEGACY_STREAMS`` environment default.

    Parameters
    ----------
    backend:
        Explicit backend name or ``None``.
    columnar:
        Explicit stream-representation flag or ``None``.

    Returns
    -------
    str
        One of :data:`BACKEND_NAMES`.

    Raises
    ------
    ValueError
        If ``backend`` (or ``FUSEFLOW_BACKEND``) names no known backend.
    """
    if backend is not None:
        return _validated(backend)
    if columnar is not None:
        return "columnar" if columnar else "interp"
    return default_backend_name()


class Backend:
    """Executes lowered region graphs; subclasses define the *how*.

    Attributes
    ----------
    name : str
        The backend's registry name (one of :data:`BACKEND_NAMES`).
    """

    name = "abstract"

    def run(
        self,
        graph: Any,
        binding: Dict[str, Any],
        scratchpad_bytes: int = 1 << 16,
        *,
        debug_streams: Optional[bool] = None,
        cache: Optional[bool] = None,
    ):
        """Execute ``graph`` functionally under this backend.

        Parameters
        ----------
        graph:
            A lowered :class:`~repro.sam.graph.SAMGraph`.
        binding:
            Tensor name -> :class:`~repro.ftree.tensor.SparseTensor`.
        scratchpad_bytes:
            On-chip scratchpad capacity for the DRAM-traffic model.
        debug_streams, cache:
            Per-stream protocol validation and result memoization
            (``None`` = environment defaults).

        Returns
        -------
        FunctionalResult
            Streams, per-node statistics, and materialized tensors —
            identical across backends.
        """
        from ..comal.functional import run_functional

        return run_functional(
            graph,
            binding,
            scratchpad_bytes,
            backend=self.name,
            debug_streams=debug_streams,
            cache=cache,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class InterpreterBackend(Backend):
    """The reference interpreter, in either stream representation.

    Parameters
    ----------
    columnar:
        ``True`` (default) runs the vectorized ``process_columnar``
        kernels over :class:`~repro.sam.token.TokenStream` columns;
        ``False`` runs the legacy per-token ``process`` loops over
        tuple-list streams.
    """

    def __init__(self, columnar: bool = True) -> None:
        self.columnar = bool(columnar)
        self.name = "columnar" if columnar else "interp"

    def describe(self) -> str:
        """One-line human-readable description."""
        rep = "columnar TokenStream" if self.columnar else "legacy tuple-list"
        return f"{self.name}: node-by-node interpreter ({rep} streams)"


_BACKENDS: Dict[str, Backend] = {}


def get_backend(name: Optional[str] = None) -> Backend:
    """The singleton :class:`Backend` registered under ``name``.

    Parameters
    ----------
    name:
        A backend name, or ``None`` for the environment default.

    Returns
    -------
    Backend

    Raises
    ------
    ValueError
        If ``name`` names no known backend.
    """
    resolved = resolve_backend_name(name)
    backend = _BACKENDS.get(resolved)
    if backend is None:
        if resolved == "codegen":
            from .codegen import CodegenBackend

            backend = CodegenBackend()
        else:
            backend = InterpreterBackend(columnar=resolved == "columnar")
        _BACKENDS[resolved] = backend
    return backend
