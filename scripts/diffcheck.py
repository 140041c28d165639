"""Dev harness: compare interp vs columnar execution on the golden models.

Usage: PYTHONPATH=src python scripts/diffcheck.py [model ...]
"""

import sys

import numpy as np

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


def check_model(model):
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    session = Session(machine=RDA_MACHINE)
    for gran in ("unfused", "partial", "full"):
        exe = session.compile(bundle.program, bundle.schedule(gran))
        bind_l = dict(bundle.binding)
        bind_c = dict(bundle.binding)
        for region in exe.regions:
            for orig, new_name, mode_order in region.transposes:
                for bind in (bind_l, bind_c):
                    if new_name not in bind:
                        bind[new_name] = bind[orig].permuted_copy(
                            mode_order, name=new_name
                        )
            g = region.graph
            fl = run_functional(g, bind_l, RDA_MACHINE.scratchpad_bytes, backend="interp")
            fc = run_functional(g, bind_c, RDA_MACHINE.scratchpad_bytes, backend="columnar")
            assert set(fl.streams) == set(fc.streams), (model, gran, g.name)
            for key in fl.streams:
                sl, sc = fl.streams[key], fc.streams[key]
                if not streams_equal(sc, sl):
                    print(f"STREAM MISMATCH {model}/{gran}/{g.name} {key}")
                    print("  interp  :", as_token_list(sl)[:20])
                    print("  columnar:", as_token_list(sc)[:20])
                    return False
            for nid in fl.stats:
                a, b = fl.stats[nid], fc.stats[nid]
                for f in ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes"):
                    if getattr(a, f) != getattr(b, f):
                        print(
                            f"STATS MISMATCH {model}/{gran}/{g.name} {nid}.{f}: "
                            f"interp {getattr(a, f)} columnar {getattr(b, f)}"
                        )
                        return False
            for name in fl.results:
                tl, tc = fl.results[name], fc.results[name]
                if not np.array_equal(tl.to_dense(), tc.to_dense()):
                    print(f"RESULT MISMATCH {model}/{gran}/{g.name} {name}")
                    return False
            rl = run_timed(g, bind_l, RDA_MACHINE, functional=fl)
            rc = run_timed(g, bind_c, RDA_MACHINE, functional=fc)
            if abs(rl.cycles - rc.cycles) > 1e-9 * max(rl.cycles, 1.0):
                print(f"CYCLES MISMATCH {model}/{gran}/{g.name}: {rl.cycles} vs {rc.cycles}")
                return False
            for bind, f in ((bind_l, fl), (bind_c, fc)):
                bind.update(f.results)
    print(f"{model}: OK")
    return True


if __name__ == "__main__":
    models = sys.argv[1:] or list(POINTS)
    ok = all([check_model(m) for m in models])
    sys.exit(0 if ok else 1)
