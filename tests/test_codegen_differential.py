"""The tier differential of ``tests/test_columnar_differential.py``, wider.

The same checks — the tier rule against the token tier forced onto every
region, streams token for token, per-node statistics, tensors and timed
cycles bit for bit — over two memory hierarchies, lean runs (stream
checks off, streams dropped for port lengths as sweeps and serve run),
regions run by the timed engine itself, whole executions end to end,
compiles loaded from disk, the columnar tier forced onto every region, a
stack of structurally identical layers, and random single-region graphs.
Each comparison runs once: the rule against the token tier end to end at
``partial`` is ``test_end_to_end_metrics_and_traffic_match``, and
``test_token_tier_forced_matches`` adds the other granularities.  A tier
is forced through the ``force_tier`` fixture (``conftest.py``).  The
module's name is historical: ``codegen`` was once the rule's name.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.einsum.parser import parse_program
from repro.core.schedule.schedule import unfused
from repro.driver import Session
from repro.driver.compiled import functional_stage
from repro.ftree import SparseTensor
from repro.sam.token import StreamProtocolError
from test_columnar_differential import (
    BLOCKED_MODELS,
    POINTS,
    assert_regions_match,
    bundle_of,
    check_end_to_end,
    check_regions,
)

GRANULARITIES = ("unfused", "partial")
HIERARCHIES = ("flat", "fpga-small")

_GRID = pytest.mark.parametrize("granularity", GRANULARITIES)
_MODELS = pytest.mark.parametrize("model", sorted(POINTS))
_HIERARCHIES = pytest.mark.parametrize("hierarchy", HIERARCHIES)


@_HIERARCHIES
@_GRID
@_MODELS
def test_streams_stats_and_timing_match(force_tier, model, granularity, hierarchy):
    """The rule, region by region: streams, stats, tensors, cycles."""
    check_regions(force_tier, model, granularity, hierarchy)


@_HIERARCHIES
@_GRID
@_MODELS
def test_streams_stats_and_timing_match_on_token_tier(
    force_tier, model, granularity, hierarchy
):
    """The same, each region run by the timed engine, stream checks off."""
    check_regions(
        force_tier, model, granularity, hierarchy, engine=True, debug_streams=False
    )


@_HIERARCHIES
@_MODELS
def test_end_to_end_metrics_and_traffic_match(force_tier, model, hierarchy):
    """The rule end to end, per-level memory traffic included."""
    check_end_to_end(force_tier, model, "partial", hierarchy)


@_HIERARCHIES
@_MODELS
def test_end_to_end_metrics_and_traffic_match_on_token_tier(force_tier, model, hierarchy):
    """The same on lean runs: no stream checks, port lengths only."""
    check_end_to_end(force_tier, model, "partial", hierarchy, debug_streams=False)


@_MODELS
def test_columnar_tier_forced_matches(force_tier, model):
    """The columnar tier forced onto every region is bit-exact; a region
    that reads a blocked tensor refuses it."""
    if model not in BLOCKED_MODELS:
        check_end_to_end(force_tier, model, "partial", tier="columnar")
        return
    bundle = bundle_of(model)
    exe = Session(machine=RDA_MACHINE).compile(
        bundle.program, bundle.schedule("partial")
    )
    with force_tier("columnar"):
        with pytest.raises(StreamProtocolError, match="blocked payloads"):
            functional_stage(exe.compiled, bundle.binding)


@pytest.mark.parametrize("granularity", ("unfused", "full"))
@_MODELS
def test_token_tier_forced_matches(force_tier, model, granularity):
    """The rule against the token tier at the granularities other than
    ``partial`` (``test_end_to_end_metrics_and_traffic_match`` runs it)."""
    check_end_to_end(force_tier, model, granularity)


@pytest.mark.parametrize("tier", ("token", "columnar"))
@pytest.mark.parametrize("granularity", ("unfused", "partial", "full"))
@_MODELS
def test_disk_loaded_kernels_match_interp(
    force_tier, model, granularity, tier, tmp_path
):
    """What a restarted process unpickles runs as what it compiled.

    A first session fills the directory; a second one is served the
    compiled program from disk, and its regions, run on ``tier``
    (``columnar``: the rule), must reproduce a fresh compile on the token
    tier region by region, with stream checking on.
    """
    bundle = bundle_of(model)
    schedule = bundle.schedule(granularity)
    Session(machine=RDA_MACHINE, disk_cache=str(tmp_path)).compile(
        bundle.program, schedule
    )
    loaded, source = Session(
        machine=RDA_MACHINE, disk_cache=str(tmp_path)
    ).compile_detailed(bundle.program, schedule)
    assert source == "disk"
    check_regions(
        force_tier,
        model,
        granularity,
        tier="token" if tier == "token" else None,
        loaded=loaded,
        debug_streams=True,
    )


def test_shared_kernels_match_every_backend(force_tier):
    """The layers of a stack compute their own results.

    gpt3's decoder blocks are structurally identical regions told apart
    only by the tensors they touch; the rule must stay bit-exact against
    the token tier with stream checking on.
    """
    bundle = bundle_of("gpt3", n_layers=2)
    check_end_to_end(force_tier, "gpt3", "unfused", bundle=bundle)


def test_shared_kernels_match_every_backend_on_token_tier(force_tier):
    bundle = bundle_of("gpt3", n_layers=2)
    check_end_to_end(
        force_tier, "gpt3", "unfused", bundle=bundle, debug_streams=False
    )


# ----------------------------------------------------------------------
# Hypothesis round-trips: random single-region graphs
# ----------------------------------------------------------------------

_UNARY = ("relu", "abs", "exp")


def _single_region_graph(kind, density, unary, seed):
    """Compile one random statement: its one region graph and a binding."""
    if kind == "spmm":
        text = (
            "tensor A(6, 7): csr\ntensor X(7, 4): dense\n"
            "T(i, j) = A(i, k) * X(k, j)"
        )
    elif kind == "add":
        text = (
            "tensor A(6, 7): csr\ntensor B(6, 7): csr\n"
            "T(i, j) = A(i, j) + B(i, j)"
        )
    else:  # unary
        text = f"tensor A(6, 7): csr\nT(i, j) = {unary}(A(i, j))"
    program = parse_program(text)
    rng = np.random.default_rng(seed)
    binding = {}
    for name, decl in program.decls.items():
        data = rng.random(decl.shape)
        if decl.fmt.name() == "csr":
            data = data * (rng.random(decl.shape) < density)
        binding[name] = SparseTensor.from_dense(data, decl.fmt, name)
    exe = Session(machine=RDA_MACHINE).compile(program, unfused(program))
    (region,) = exe.regions
    return region.graph, binding


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["spmm", "add", "unary"]),
    density=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    unary=st.sampled_from(_UNARY),
    seed=st.integers(0, 10_000),
)
def test_random_single_region_round_trip(force_tier, kind, density, unary, seed):
    """Random single-region graphs run bit-exactly on both tiers."""
    graph, binding = _single_region_graph(kind, density, unary, seed)
    with force_tier("token"):
        want = run_functional(graph, binding, RDA_MACHINE.scratchpad_bytes)
    for tier in (None, "columnar"):
        with force_tier(tier):
            have = run_functional(graph, binding, RDA_MACHINE.scratchpad_bytes)
        assert_regions_match(tier, want, have)
