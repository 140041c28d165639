"""Dev harness: compare every backend against interp on the golden models.

The backends are ``columnar`` (every region on the columnar tier) and
``codegen`` (the per-region tier rule); each must reproduce the ``interp``
reference's streams, per-node stats, result tensors and timed cycles
exactly.

Usage: PYTHONPATH=src python scripts/diffcheck.py [model ...]
"""

import sys

import numpy as np

from repro.backend import BACKEND_NAMES
from repro.comal.engine import run_timed
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.driver import Session
from repro.sam.token import streams_equal, as_token_list
from repro.sweep import SweepPoint, build_bundle

POINTS = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

def run_region(g, bind, backend):
    return run_functional(
        g, bind, RDA_MACHINE.scratchpad_bytes, backend=backend, cache=False
    )


def compare(where, label, fl, fc):
    """First difference between the interp result ``fl`` and ``fc``."""
    if set(fl.streams) != set(fc.streams):
        return f"STREAM SET MISMATCH {where} ({label})"
    for key in fl.streams:
        sl, sc = fl.streams[key], fc.streams[key]
        if not streams_equal(sc, sl):
            return (
                f"STREAM MISMATCH {where} {key}\n"
                f"  interp  : {as_token_list(sl)[:20]}\n"
                f"  {label}: {as_token_list(sc)[:20]}"
            )
    for nid in fl.stats:
        a, b = fl.stats[nid], fc.stats[nid]
        for f in ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes"):
            if getattr(a, f) != getattr(b, f):
                return (
                    f"STATS MISMATCH {where} {nid}.{f}: "
                    f"interp {getattr(a, f)} {label} {getattr(b, f)}"
                )
    for name in fl.results:
        if not np.array_equal(fl.results[name].to_dense(), fc.results[name].to_dense()):
            return f"RESULT MISMATCH {where} {name} ({label})"
    return None


def check_model(model):
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    session = Session(machine=RDA_MACHINE)
    labels = list(BACKEND_NAMES)  # interp first: the reference
    for gran in ("unfused", "partial", "full"):
        exe = session.compile(bundle.program, bundle.schedule(gran))
        binds = {label: dict(bundle.binding) for label in labels}
        for region in exe.regions:
            for orig, new_name, mode_order in region.transposes:
                for bind in binds.values():
                    if new_name not in bind:
                        bind[new_name] = bind[orig].permuted_copy(
                            mode_order, name=new_name
                        )
            g = region.graph
            where = f"{model}/{gran}/{g.name}"
            runs = {label: run_region(g, binds[label], label) for label in labels}
            fl = runs["interp"]
            rl = run_timed(g, binds["interp"], RDA_MACHINE, functional=fl)
            for label in labels[1:]:
                problem = compare(where, label, fl, runs[label])
                if problem is None:
                    rc = run_timed(g, binds[label], RDA_MACHINE, functional=runs[label])
                    if abs(rl.cycles - rc.cycles) > 1e-9 * max(rl.cycles, 1.0):
                        problem = (
                            f"CYCLES MISMATCH {where}: interp {rl.cycles} "
                            f"{label} {rc.cycles}"
                        )
                if problem is not None:
                    print(problem)
                    return False
            for label, f in runs.items():
                binds[label].update(f.results)
    print(f"{model}: OK ({', '.join(labels)} agree)")
    return True


if __name__ == "__main__":
    models = sys.argv[1:] or list(POINTS)
    ok = all([check_model(m) for m in models])
    sys.exit(0 if ok else 1)
