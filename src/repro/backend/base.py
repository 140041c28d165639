"""Backend names: how a lowered fusion region gets executed.

``"interp"`` is the per-token reference interpreter (tuple-list streams),
``"columnar"`` the vectorized interpreter over
:class:`~repro.sam.token.TokenStream` columns (the default), and
``"codegen"`` the per-region tier rule: each region runs on the token tier
when its binding is blocked or short, and columnar otherwise (see
:func:`repro.comal.functional.run_functional`; the name is historical).
All three run one node loop and produce identical streams, statistics,
and result tensors; ``tests/test_codegen_differential.py`` enforces that
model by model.

The rule: an explicit name wins, else ``FUSEFLOW_BACKEND``, else
``"columnar"``.  A :class:`~repro.driver.session.Session` applies it once,
at construction.
"""

from __future__ import annotations

import os
from typing import Optional

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("interp", "columnar", "codegen")


def _validated(name: str) -> str:
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r} (choose from {', '.join(BACKEND_NAMES)})"
        )
    return name


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """``backend`` if given, else ``FUSEFLOW_BACKEND``, else ``"columnar"``.

    Parameters
    ----------
    backend:
        Explicit backend name or ``None``.

    Returns
    -------
    str
        One of :data:`BACKEND_NAMES`.

    Raises
    ------
    ValueError
        If ``backend`` (or ``FUSEFLOW_BACKEND``) names no known backend.
    """
    if backend is None:
        backend = os.environ.get("FUSEFLOW_BACKEND", "").strip() or "columnar"
    return _validated(backend)
