"""Execution backends for lowered fusion regions.

``repro.backend`` separates *what* a region computes (the SAM token
protocol, defined by the executor in :mod:`repro.comal.functional`) from
*how* it is executed.  :mod:`repro.backend.base` holds the backend names
and the one rule that picks among them; every backend runs through the
same node loop.
"""

from .base import BACKEND_NAMES, resolve_backend_name

__all__ = ["BACKEND_NAMES", "resolve_backend_name"]
