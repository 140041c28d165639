"""Property-based fingerprint stability tests.

The driver's compile cache and the sweep subsystem's point IDs both rest on
one contract: ``EinsumProgram.fingerprint()`` / ``Schedule.fingerprint()``
are pure functions of *content*.  Two objects built differently — different
construction order, different dict insertion order, different process — must
fingerprint identically iff they mean the same thing, and any semantic
mutation must change the hash.  These hypothesis properties pin that
contract down.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.einsum.ast import EinsumProgram
from repro.core.einsum.parser import parse_program
from repro.core.schedule.schedule import Schedule
from repro.driver import DEFAULT_PASS_ORDER, PassPipeline
from repro.ftree import csr, dense
from repro.sweep import SweepPoint

# ----------------------------------------------------------------------
# Schedule fingerprints
# ----------------------------------------------------------------------


def _contiguous_regions(n_statements: int, boundaries: frozenset) -> list:
    edges = [0, *sorted(b for b in boundaries if 0 < b < n_statements), n_statements]
    return [list(range(a, b)) for a, b in zip(edges, edges[1:])]


@st.composite
def schedule_contents(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    boundaries = draw(st.frozensets(st.integers(min_value=1, max_value=5), max_size=5))
    regions = _contiguous_regions(n, boundaries)
    par = draw(
        st.dictionaries(
            st.sampled_from(["i", "j", "k", "x1", "x2"]),
            st.sampled_from([2, 4, 8, 16]),
            max_size=3,
        )
    )
    orders = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=len(regions) - 1),
            st.permutations(["i", "j", "k"]).map(list),
            max_size=len(regions),
        )
    )
    stmt_orders = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=n - 1),
            st.permutations(["i", "j"]).map(tuple),
            max_size=n,
        )
    )
    fold_masks = draw(st.booleans())
    global_rewrite = draw(st.booleans())
    splits = draw(
        st.dictionaries(
            st.sampled_from(["i", "j", "k", "x1", "x2"]),
            st.sampled_from([2, 4, 8, 16]),
            max_size=3,
        )
    )
    return {
        "name": draw(st.sampled_from(["s0", "partial", "tuned"])),
        "regions": regions,
        "par": par,
        "splits": splits,
        "orders": orders,
        "stmt_orders": stmt_orders,
        "fold_masks": fold_masks,
        "global_rewrite": global_rewrite,
    }


def _schedule_from(contents, shuffle_seed=None):
    """Build a Schedule, optionally shuffling every dict's insertion order."""
    par = contents["par"]
    splits = contents["splits"]
    orders = contents["orders"]
    stmt_orders = contents["stmt_orders"]
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)

        def reordered(d):
            keys = list(d)
            rng.shuffle(keys)
            return {k: d[k] for k in keys}

        par, splits, orders, stmt_orders = map(
            reordered, (par, splits, orders, stmt_orders)
        )
    return Schedule(
        name=contents["name"],
        regions=[list(r) for r in contents["regions"]],
        orders=orders,
        stmt_orders=stmt_orders,
        par=par,
        splits=splits,
        fold_masks=contents["fold_masks"],
        global_rewrite=contents["global_rewrite"],
    )


class TestScheduleFingerprint:
    @given(contents=schedule_contents(), seed_a=st.integers(), seed_b=st.integers())
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_is_irrelevant(self, contents, seed_a, seed_b):
        """Equal schedules built in different orders fingerprint equally."""
        a = _schedule_from(contents, shuffle_seed=seed_a)
        b = _schedule_from(contents, shuffle_seed=seed_b)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    @given(contents=schedule_contents(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_semantic_mutation_changes_fingerprint(self, contents, data):
        base = _schedule_from(contents)
        mutated = _schedule_from(contents)
        mutation = data.draw(
            st.sampled_from(
                ["fold_masks", "global_rewrite", "par", "splits", "regions", "name"]
            )
        )
        if mutation == "fold_masks":
            mutated.fold_masks = not mutated.fold_masks
        elif mutation == "global_rewrite":
            mutated.global_rewrite = not mutated.global_rewrite
        elif mutation == "par":
            mutated.par = {**mutated.par, "i": mutated.par.get("i", 1) * 2 + 1}
        elif mutation == "splits":
            mutated.splits = {
                **mutated.splits,
                "i": mutated.splits.get("i", 1) * 2 + 1,
            }
        elif mutation == "regions":
            if len(mutated.regions) > 1:
                # Merge the first two regions: a different fusion decision.
                mutated.regions = [
                    mutated.regions[0] + mutated.regions[1],
                    *mutated.regions[2:],
                ]
            else:
                mutated.regions = [[*mutated.regions[0], len(mutated.regions[0])]]
        elif mutation == "name":
            mutated.name = mutated.name + "'"
        assert base.fingerprint() != mutated.fingerprint(), mutation

    def test_in_place_mutation_misses_cache_key(self):
        """The documented Session-cache property: mutate then re-fingerprint."""
        schedule = Schedule(name="s", regions=[[0], [1]])
        before = schedule.fingerprint()
        schedule.par["k"] = 4
        assert schedule.fingerprint() != before


# ----------------------------------------------------------------------
# Program fingerprints
# ----------------------------------------------------------------------

PROGRAM_TEXT = """tensor A(8, 8): csr
tensor X(8, 4): dense
T(i, j) = A(i, k) * X(k, j)
Y(i, j) = relu(T(i, j))
"""


def _build_program(decl_order, scale=1.0, shape_x=(8, 4), x_fmt=None):
    prog = EinsumProgram("prop")
    decls = {
        "A": ((8, 8), csr()),
        "X": (shape_x, x_fmt or dense(2)),
        "W": ((shape_x[1], 4), dense(2)),
    }
    for name in decl_order:
        shape, fmt = decls[name]
        prog.declare(name, shape, fmt)
    prog.contract("T", ("i", "j"), "mul", [("A", ("i", "k")), ("X", ("k", "j"))])
    prog.unary("Y", ("i", "j"), "relu", ("T", ("i", "j")), scale=scale)
    return prog


class TestProgramFingerprint:
    @given(order=st.permutations(["A", "X", "W"]))
    @settings(max_examples=20, deadline=None)
    def test_declaration_order_is_irrelevant(self, order):
        reference = _build_program(["A", "X", "W"])
        shuffled = _build_program(list(order))
        assert shuffled.fingerprint() == reference.fingerprint()

    def test_reparse_is_stable(self):
        assert (
            parse_program(PROGRAM_TEXT).fingerprint()
            == parse_program(PROGRAM_TEXT).fingerprint()
        )

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_semantic_mutation_changes_fingerprint(self, data):
        base = _build_program(["A", "X", "W"])
        mutation = data.draw(
            st.sampled_from(["shape", "format", "scale", "stmt_order"])
        )
        if mutation == "shape":
            other = _build_program(["A", "X", "W"], shape_x=(8, 6))
        elif mutation == "format":
            other = _build_program(["A", "X", "W"], x_fmt=csr())
        elif mutation == "scale":
            other = _build_program(["A", "X", "W"], scale=2.0)
        else:
            other = _build_program(["A", "X", "W"])
            other.statements[0].order = ("k", "i", "j")
        assert base.fingerprint() != other.fingerprint(), mutation

    def test_statement_permutation_changes_fingerprint(self):
        """Statement position is semantic (dataflow order), so it hashes."""

        def two_relus(first, second):
            prog = EinsumProgram("perm")
            prog.declare("A", (8, 8), csr())
            prog.declare("B", (8, 8), csr())
            for src, dst in (first, second):
                prog.unary(dst, ("i", "j"), "relu", (src, ("i", "j")))
            return prog

        forward = two_relus(("A", "U"), ("B", "V"))
        swapped = two_relus(("B", "V"), ("A", "U"))
        assert forward.fingerprint() != swapped.fingerprint()


# ----------------------------------------------------------------------
# Downstream identities built on the fingerprints
# ----------------------------------------------------------------------


class TestDerivedIdentities:
    def test_pipeline_fingerprint_tracks_order(self):
        default = PassPipeline.default()
        assert (
            default.fingerprint() == PassPipeline.default().fingerprint()
        )
        assert (
            PassPipeline.from_names(DEFAULT_PASS_ORDER).fingerprint()
            == default.fingerprint()
        )
        assert PassPipeline("fpga-small").fingerprint() != default.fingerprint()

    @given(
        model=st.sampled_from(["gcn", "sae"]),
        machine=st.sampled_from(["rda", "fpga"]),
        nodes=st.sampled_from([16, 24, 32]),
    )
    @settings(max_examples=20, deadline=None)
    def test_sweep_point_ids_are_content_derived(self, model, machine, nodes):
        a = SweepPoint.make(model, machine=machine, model_args={"nodes": nodes, "seed": 0})
        b = SweepPoint.make(model, machine=machine, model_args={"seed": 0, "nodes": nodes})
        assert a.point_id == b.point_id
        c = SweepPoint.make(model, machine=machine, model_args={"nodes": nodes + 1, "seed": 0})
        assert a.point_id != c.point_id
