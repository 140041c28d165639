"""What remains of the execution backends: the code generator's shim.

Execution has no backend choice: :func:`repro.comal.functional.run_functional`
picks each region's tier by one rule.  :mod:`repro.backend.codegen` keeps
the names the frozen ``bench/`` imports; delete this package with it at
the bench re-cut.
"""
