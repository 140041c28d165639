"""Reliability engineering: deterministic fault injection for chaos tests.

See :mod:`repro.reliability.faults` for the model and ``docs/reliability.md``
for the ``FUSEFLOW_FAULTS`` spec grammar and the hardening each consumer
(sweeps, serving, caches) builds on top of these sites.
"""

from .faults import (
    CRASH_EXIT_CODE,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    clear_plan,
    fault_point,
    injected_faults,
    install_plan,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "clear_plan",
    "fault_point",
    "injected_faults",
    "install_plan",
]
