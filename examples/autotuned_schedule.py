"""Autoscheduling: search fusion granularities automatically.

The paper exposes fusion granularity as a user schedule and leaves
autoscheduling as future work (Section 4.2); this example composes the
shipped ingredients — the contiguous-partition schedule space and the
analytical FLOPs/bytes heuristic (Section 7) — into a working autotuner,
then inspects the winner with the per-node simulation trace.

Run:  python examples/autotuned_schedule.py
"""

import numpy as np

from repro.comal import RDA_MACHINE, render_report, run_timed
from repro.core.heuristic.model import stats_from_binding
from repro.core.schedule.autotune import autotune
from repro.models.graphsage import graphsage_on_synthetic
from repro.driver import Session

session = Session()

bundle = graphsage_on_synthetic(nodes=60, density=0.06, seed=0)
print(f"model: {bundle.name}, {len(bundle.program.statements)} statements")

stats = stats_from_binding(bundle.binding)
tuned = autotune(
    bundle.program,
    bundle.binding,
    stats,
    candidates=bundle.schedules(),  # unfused / partial / full
    budget=3,
)
print(
    f"\nautotuner: considered {tuned.candidates_considered} candidates, "
    f"simulated {tuned.evaluations}"
)
for name, cycles in tuned.ranking:
    print(f"  {name:14s} {cycles:10.0f} cycles")
print(f"winner: {tuned.best.name} at {tuned.measured_cycles:.0f} cycles")

# Verify the winner and show where its cycles go.
result = session.run(bundle.program, bundle.binding, tuned.best)
out = result.tensors[bundle.output].to_dense()
assert np.abs(out - bundle.reference).max() < 1e-9

executable = session.compile(bundle.program, tuned.best)
print("\nbottleneck report for the winner's first region:")
region = executable.regions[0]
region_result = executable(bundle.binding).region_results[0]
print(render_report(region.graph, region_result, top=8))
