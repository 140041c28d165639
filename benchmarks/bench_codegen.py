"""Codegen backend benchmark: generated kernels vs the interpreters.

Measures end-to-end ``Executable.__call__`` wall time (functional + timed
simulation, exactly what sweeps and autotuning pay per point) for every
golden-model configuration under the three execution backends, with the
result memo off so every repetition pays the full functional execution:

``interp``
    Legacy tuple-list streams, per-token Python kernels.
``columnar``
    Vectorized interpreter over columnar ``TokenStream`` columns — the
    default backend and the baseline the codegen gate compares against.
``codegen``
    One specialized, ``compile()``-ed Python kernel per fusion region
    (see :mod:`repro.backend.codegen`): node dispatch, stream plumbing,
    and config lookups are folded away at emit time.  The columnar
    emission tier emits over the numpy columns backing each stream;
    blocked/short regions run the token tier instead (``tier`` and
    ``token_dispatch_regions`` per row).

Region kernels are emitted and compiled at ``Session.compile`` time, so
the per-execution numbers are pure run time; emit + compile cost is
reported separately per row (``codegen_emit_ms``, ``codegen_loc``).

The committed artifact's headline — and the CI gate — is the codegen
speedup over the columnar interpreter on the gpt3 golden configuration's
hot path (fused schedule, rda machine).

Run directly to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/bench_codegen.py --out BENCH_codegen.json

or via pytest (asserts the acceptance floors)::

    PYTHONPATH=src python -m pytest benchmarks/bench_codegen.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(__file__))

from repro.backend.codegen import cached_artifacts, codegen_cache_info
from repro.comal.machines import MACHINES
from repro.driver import Session
from repro.sweep import SweepPoint, build_bundle

#: The canonical golden configurations (tests/golden/*.json).
GOLDEN_POINTS = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

#: Larger configuration where kernel time dominates wall time.
SCALE_POINTS = {
    "gcn": {"nodes": 160, "density": 0.06, "seed": 0},
}

MACHINE_NAME = "rda"
GRANULARITY = "partial"

BACKENDS = ("interp", "columnar", "codegen")


def _time_exec(exe, binding, repeats: int, budget_s: float = 3.0) -> float:
    """Best-of wall seconds for one execution, bounded by a time budget."""
    exe(binding)  # warm-up (imports, lazy caches)
    best = float("inf")
    deadline = time.perf_counter() + budget_s
    for _ in range(repeats):
        t0 = time.perf_counter()
        exe(binding)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        if time.perf_counter() > deadline:
            break
    return best


def run_benchmark(repeats: int = 7) -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    machine = MACHINES[MACHINE_NAME]
    for scale, points in (("golden", GOLDEN_POINTS), ("scale", SCALE_POINTS)):
        for model, model_args in points.items():
            bundle = build_bundle(SweepPoint.make(model, model_args=model_args))
            row: Dict[str, object] = {
                "model": model,
                "scale": scale,
                "machine": MACHINE_NAME,
                "granularity": GRANULARITY,
                "config": dict(model_args),
            }
            tokens = None
            for backend in BACKENDS:
                # The memo is off so every repetition pays the full
                # functional pass; protocol checks off to measure the
                # production configuration.
                session = Session(
                    machine=machine,
                    backend=backend,
                    sim_cache=False,
                    debug_streams=False,
                )
                exe = session.compile(
                    bundle.program, bundle.schedule(GRANULARITY)
                )
                n = repeats if scale == "golden" else max(1, repeats // 2)
                seconds = _time_exec(exe, bundle.binding, n)
                row[f"{backend}_ms"] = round(seconds * 1e3, 4)
                if tokens is None:
                    tokens = exe(bundle.binding).metrics.tokens
                else:
                    assert exe(bundle.binding).metrics.tokens == tokens
                if backend == "codegen":
                    # What was emitted, and which tier ran: blocked and
                    # short regions take the token tier (select_artifact
                    # in repro/backend/codegen.py).
                    loc = emit_ms = regions = 0
                    ran = set()
                    for region in exe.regions:
                        if region.graph is None:
                            continue
                        regions += 1
                        for tier, art in cached_artifacts(region.graph).items():
                            loc += art.loc
                            emit_ms += (
                                art.emit_seconds + art.compile_seconds
                            ) * 1e3
                            if art.runs:
                                ran.add(tier)
                    row["codegen_loc"] = loc
                    row["codegen_emit_ms"] = round(emit_ms, 4)
                    before = codegen_cache_info()["token_dispatches"]
                    exe(bundle.binding)
                    dispatched = (
                        codegen_cache_info()["token_dispatches"] - before
                    )
                    row["tier"] = "+".join(sorted(ran))
                    row["regions"] = regions
                    row["token_dispatch_regions"] = dispatched
            row["tokens"] = tokens
            row["speedup_vs_interp"] = round(
                row["interp_ms"] / row["codegen_ms"], 3
            )
            row["speedup_vs_columnar"] = round(
                row["columnar_ms"] / row["codegen_ms"], 3
            )
            rows.append(row)
    golden = {
        r["model"]: r for r in rows if r["scale"] == "golden"
    }
    gpt3 = golden["gpt3"]
    headline = {
        # The CI gates: generated kernels vs the default columnar
        # interpreter, per golden model (gpt3's hot path kept at >=2x,
        # gcn/graphsage at >=1.0 now that the columnar emission tier
        # vectorizes the scanner expansion).
        "gpt3_codegen_speedup": gpt3["speedup_vs_columnar"],
        "gpt3_columnar_ms": gpt3["columnar_ms"],
        "gpt3_codegen_ms": gpt3["codegen_ms"],
        "gpt3_codegen_loc": gpt3["codegen_loc"],
    }
    for model in ("gcn", "graphsage", "sae"):
        headline[f"{model}_codegen_speedup"] = (
            golden[model]["speedup_vs_columnar"]
        )
    return {
        "name": "codegen_backend",
        "granularity": GRANULARITY,
        "machine": MACHINE_NAME,
        "backends": list(BACKENDS),
        "rows": rows,
        "headline": headline,
    }


def render(payload: Dict[str, object]) -> str:
    lines = [
        f"{'model':10s} {'scale':6s} {'interp ms':>10s} {'columnar ms':>12s} "
        f"{'codegen ms':>11s} {'vs col':>7s} {'vs interp':>10s} "
        f"{'LoC':>6s} {'emit ms':>8s} {'tier':>14s}"
    ]
    for r in payload["rows"]:
        tier = r["tier"]
        if r["token_dispatch_regions"]:
            tier += f" ({r['token_dispatch_regions']}/{r['regions']} tok)"
        lines.append(
            f"{r['model']:10s} {r['scale']:6s} {r['interp_ms']:10.3f} "
            f"{r['columnar_ms']:12.3f} {r['codegen_ms']:11.3f} "
            f"{r['speedup_vs_columnar']:7.2f} {r['speedup_vs_interp']:10.2f} "
            f"{r['codegen_loc']:6d} {r['codegen_emit_ms']:8.2f} {tier:>14s}"
        )
    head = payload["headline"]
    lines.append(
        f"\ngpt3 golden hot path: codegen {head['gpt3_codegen_ms']:.3f} ms vs "
        f"columnar {head['gpt3_columnar_ms']:.3f} ms = "
        f"{head['gpt3_codegen_speedup']:.2f}x "
        f"({head['gpt3_codegen_loc']} emitted LoC)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points (acceptance floors — the CI gate)
# ----------------------------------------------------------------------

import pytest


@pytest.fixture(scope="module")
def payload():
    return run_benchmark(repeats=5)


def test_codegen_speedup_floor(payload):
    """Acceptance: >=2x over the columnar interpreter on the gpt3 hot path."""
    assert payload["headline"]["gpt3_codegen_speedup"] >= 2.0, render(payload)


def test_codegen_beats_interp_everywhere(payload):
    """Generated kernels beat the per-token interpreter they specialize."""
    for row in payload["rows"]:
        assert row["speedup_vs_interp"] > 1.0, render(payload)


def test_codegen_beats_columnar_per_model(payload):
    """Acceptance: the columnar emission tier wins on every model.

    gcn and graphsage flip above 1.0x once scanner expansion is emitted
    as vectorized CSR gathers; sae is timed-engine-dominated (~2 ms wall
    for a ~0.2 ms functional pass) so its floor leaves noise margin.
    """
    head = payload["headline"]
    assert head["gcn_codegen_speedup"] >= 1.0, render(payload)
    assert head["graphsage_codegen_speedup"] >= 1.0, render(payload)
    assert head["sae_codegen_speedup"] >= 0.95, render(payload)
    assert head["gpt3_codegen_speedup"] >= 2.0, render(payload)


def test_every_region_emitted(payload):
    """Every golden-model region has a kernel (codegen_loc counts them)."""
    for row in payload["rows"]:
        assert row["codegen_loc"] > 0, row["model"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_codegen.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    payload = run_benchmark(repeats=args.repeats)
    print(render(payload))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
