"""Cross-expression fusion algorithm tests (paper Section 5)."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.einsum.parser import parse_program
from repro.core.fusion.fuse import fold_masks, fuse_region, merge_contractions
from repro.core.fusion.pog import OrderConflictError, PartialOrderGraph


class TestPOG:
    def test_constraints_and_order(self):
        pog = PartialOrderGraph()
        pog.add_constraint("i", "j", tag="t1")
        pog.add_constraint("j", "k", tag="t2")
        order = pog.first_order()
        assert order.index("i") < order.index("j") < order.index("k")

    def test_cycle_detection(self):
        pog = PartialOrderGraph()
        pog.add_constraint("i", "j", tag="a")
        pog.add_constraint("j", "i", tag="b")
        assert not pog.is_acyclic()
        assert pog.find_cycle()
        with pytest.raises(OrderConflictError):
            pog.first_order()

    def test_remove_tag_breaks_cycle(self):
        pog = PartialOrderGraph()
        pog.add_constraint("i", "j", tag="a")
        pog.add_constraint("j", "i", tag="b")
        pog.remove_tag("b")
        assert pog.is_acyclic()

    def test_count_orders_free(self):
        pog = PartialOrderGraph()
        for idx in "ijk":
            pog.add_index(idx)
        assert pog.count_orders() == 6

    def test_count_orders_chain(self):
        pog = PartialOrderGraph()
        pog.add_constraint("i", "j", tag="t")
        pog.add_constraint("j", "k", tag="t")
        assert pog.count_orders() == 1

    def test_count_orders_partial(self):
        pog = PartialOrderGraph()
        pog.add_constraint("i", "j", tag="t")
        pog.add_index("k")
        assert pog.count_orders() == 3

    def test_count_matches_enumeration(self):
        pog = PartialOrderGraph()
        pog.add_constraint("a", "b", tag="t")
        pog.add_constraint("c", "d", tag="t")
        assert pog.count_orders() == len(list(pog.all_orders(100)))

    def test_is_valid_order(self):
        pog = PartialOrderGraph()
        pog.add_constraint("i", "j", tag="t")
        assert pog.is_valid_order(["i", "j"])
        assert not pog.is_valid_order(["j", "i"])
        assert not pog.is_valid_order(["i"])


#: One POG edit: ("index", i) | ("edge", i, j, tag) with i < j | ("drop", tag).
#: Edges only run from lower to higher label number, so every POG is a DAG.
_POG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("index"), st.integers(0, 6)),
        st.tuples(
            st.just("edge"), st.integers(0, 5), st.integers(1, 6), st.sampled_from("ab")
        ).filter(lambda op: op[1] < op[2]),
        st.tuples(st.just("drop"), st.sampled_from("ab")),
    ),
    max_size=14,
)


def _replay(ops, labels, pog, nx_graph=None):
    for op in ops:
        if op[0] == "index":
            pog.add_index(labels[op[1]])
            if nx_graph is not None:
                nx_graph.add_node(labels[op[1]])
        elif op[0] == "edge":
            u, v = labels[op[1]], labels[op[2]]
            pog.add_constraint(u, v, tag=op[3])
            if nx_graph is not None:
                if nx_graph.has_edge(u, v):
                    nx_graph[u][v]["tags"].add(op[3])
                else:
                    nx_graph.add_edge(u, v, tags={op[3]})
        else:
            pog.remove_tag(op[1])
            if nx_graph is not None:
                for u, v in list(nx_graph.edges):
                    nx_graph[u][v]["tags"].discard(op[1])
                    if not nx_graph[u][v]["tags"]:
                        nx_graph.remove_edge(u, v)


class TestPOGOrderEnumeration:
    """``all_orders`` keeps networkx's enumeration order: callers take a prefix."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=_POG_OPS,
        labels=st.permutations([f"x{i}" for i in range(7)]),
        limit=st.sampled_from([1, 2, 5, 1000]),
    )
    def test_all_orders_match_networkx(self, ops, labels, limit):
        nx = pytest.importorskip("networkx")
        pog, graph = PartialOrderGraph(), nx.DiGraph()
        _replay(ops, labels, pog, graph)
        assert pog.indices == list(graph.nodes)
        want = itertools.islice(nx.all_topological_sorts(graph), limit)
        assert list(pog.all_orders(limit)) == [list(order) for order in want]

    @settings(max_examples=100, deadline=None)
    @given(edges=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10))
    def test_cycles_match_networkx(self, edges):
        nx = pytest.importorskip("networkx")
        pog, graph = PartialOrderGraph(), nx.DiGraph()
        for u, v in edges:
            if u != v:
                pog.add_constraint(f"x{u}", f"x{v}", tag="t")
                graph.add_edge(f"x{u}", f"x{v}")
        assert pog.is_acyclic() == nx.is_directed_acyclic_graph(graph)
        try:
            want = [(edge[0], edge[1]) for edge in nx.find_cycle(graph)]
        except nx.NetworkXNoCycle:
            want = []
        assert pog.find_cycle() == want

    def test_empty_pog_has_one_empty_order(self):
        assert list(PartialOrderGraph().all_orders()) == [[]]
        assert list(PartialOrderGraph().all_orders(limit=0)) == []

    @staticmethod
    def _region_pog(model, model_args, granularity, region):
        from repro import Session
        from repro.sweep import SweepPoint, build_bundle

        bundle = build_bundle(SweepPoint.make(model, model_args=model_args))
        exe = Session().compile(bundle.program, bundle.schedule(granularity))
        return exe.compiled.regions[region].fused.pog

    def test_gcn_region_orders_are_pinned(self):
        pog = self._region_pog("gcn", {"nodes": 12}, "full", 0)
        assert list(pog.all_orders(limit=4)) == [
            ["x19", "x12", "u0", "x5", "x15", "x20"]
        ]

    def test_gpt3_region_orders_are_pinned(self):
        args = {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1}
        pog = self._region_pog("gpt3", args, "partial", 0)
        assert pog.count_orders() == 6
        assert list(pog.all_orders(limit=4)) == [
            ["x16", "x14", "x17", "x12", "x7"],
            ["x16", "x14", "x17", "x7", "x12"],
            ["x16", "x14", "x12", "x7", "x17"],
            ["x16", "x14", "x12", "x17", "x7"],
        ]


def test_compiles_and_runs_without_networkx():
    """Nothing under ``repro`` needs networkx, ``repro.cli`` included."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro.cli\n"
        "from repro import Session\n"
        "from repro.sweep import SweepPoint, build_bundle\n"
        "args = {'seq_len': 16, 'd_model': 8, 'block': 4, 'n_layers': 1}\n"
        "bundle = build_bundle(SweepPoint.make('gpt3', model_args=args))\n"
        "exe = Session().compile(bundle.program, bundle.schedule('partial'))\n"
        "result = exe(bundle.binding)\n"
        "assert result.metrics.cycles > 0\n"
        "assert bundle.max_abs_err(result) < 1e-6\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


GCN_TEXT = """
tensor A(8, 8): csr
tensor X(8, 4): dense
tensor W(4, 3): dense
T0(i, f) = A(i, k) * X(k, f)
T1(i, h) = T0(i, f2) * W(f2, h)
"""


class TestFuseRegion:
    def test_unifies_producer_consumer(self):
        prog = parse_program(GCN_TEXT)
        fused = fuse_region(prog, [0, 1])
        # T0's access in statement 1 must use the same names as its lhs.
        t0_producer = fused.statements[0]
        consumer = fused.statements[1]
        t0_access = next(a for a in consumer.operands if a.tensor == "T0")
        assert t0_access.indices == t0_producer.lhs.indices

    def test_reduction_renamed_to_u(self):
        prog = parse_program(GCN_TEXT)
        fused = fuse_region(prog, [0, 1])
        reds = fused.statements[0].reduction_indices()
        assert all(r.startswith("u") for r in reds)

    def test_mode_order_constraints(self):
        prog = parse_program(GCN_TEXT)
        fused = fuse_region(prog, [0])
        order = fused.first_order()
        # CSR A: row index before column (reduction) index.
        stmt = fused.statements[0]
        i, f = stmt.lhs.indices
        (u,) = stmt.reduction_indices()
        assert order.index(i) < order.index(u)

    def test_region_outputs(self):
        prog = parse_program(GCN_TEXT)
        fused = fuse_region(prog, [0, 1])
        assert fused.outputs == ["T1"]
        fused0 = fuse_region(prog, [0])
        assert fused0.outputs == ["T0"]

    def test_index_sizes(self):
        prog = parse_program(GCN_TEXT)
        fused = fuse_region(prog, [0, 1])
        sizes = set(fused.index_sizes.values())
        assert {8, 4, 3} <= sizes

    def test_user_order_constrains(self):
        prog = parse_program(GCN_TEXT)
        stmt = prog.statements[0]
        fused = fuse_region(prog, [0], extra_orders={0: ("i", "k", "f")})
        order = fused.first_order()
        names = fused.statements[0].all_indices()
        assert order == [names[0], names[2], names[1]]  # i, u(k), f

    def test_fused_einsum_string(self):
        prog = parse_program(GCN_TEXT)
        fused = fuse_region(prog, [0, 1])
        text = fused.fused_einsum_string()
        assert text.startswith("forall ")
        assert "T0" in text and "T1" in text


class TestViewConflictCloning:
    def test_dual_use_clones_chain(self):
        """A tensor consumed through two incompatible paths gets cloned."""
        prog = parse_program(
            """
tensor A(6, 6): csr
tensor X(6, 4): dense
tensor W(4, 4): dense
H(i, h) = X(i, f) * W(f, h)
AG(i2, h2) = A(i2, k) * H(k, h2)
Y(i3, h3) = AG(i3, h3) + H(i3, h3)
"""
        )
        fused = fuse_region(prog, [0, 1, 2])
        producers = [s.lhs.tensor for s in fused.statements]
        # H must appear twice: original + clone for the conflicting use.
        assert sum(1 for t in producers if t.startswith("H")) == 2
        # No statement may access a tensor diagonally.
        for stmt in fused.statements:
            for acc in [stmt.lhs, *stmt.operands]:
                assert len(set(acc.indices)) == len(acc.indices)

    def test_cycle_resolved_by_transpose(self):
        """Conflicting mode orders of two views force a permuted copy."""
        prog = parse_program(
            """
tensor B(4, 4): csr
tensor C(4, 4): csr
E(i, j) = B(i, k) * C(k, j)
F(i, j2) = E(i, k2) * B(j2, k2)
"""
        )
        # B viewed as (i,k) row-major and as (j2,k2) with k2 innermost; the
        # second view's traversal is discordant with the first fused order.
        fused = fuse_region(prog, [0, 1])
        assert fused.pog.is_acyclic()


class TestFoldMasks:
    def test_sddmm_fold(self):
        prog = parse_program(
            """
tensor Q(4, 3): dense
tensor Kt(5, 3): dense
tensor M(4, 5): csr
P(i, j) = Q(i, k) * Kt(j, k)
S(i, j) = P(i, j) * M(i, j)
"""
        )
        fused = fold_masks(fuse_region(prog, [0, 1]))
        assert len(fused.statements) == 1
        stmt = fused.statements[0]
        assert stmt.lhs.tensor == "S"
        assert len(stmt.operands) == 3
        assert {a.tensor for a in stmt.operands} == {"Q", "Kt", "M"}

    def test_no_fold_when_output(self):
        prog = parse_program(
            """
tensor Q(4, 3): dense
tensor Kt(5, 3): dense
tensor M(4, 5): csr
P(i, j) = Q(i, k) * Kt(j, k)
S(i, j) = P(i, j) * M(i, j)
Z(i, j) = relu(P(i, j))
"""
        )
        fused = fold_masks(fuse_region(prog, [0, 1, 2]))
        # P has two consumers, so it cannot be folded away.
        assert any(s.lhs.tensor == "P" for s in fused.statements)


class TestMergeContractions:
    def test_chain_merges_to_nary(self):
        prog = parse_program(
            """
tensor A(3, 4): csr
tensor B(4, 5): dense
tensor C(5, 2): dense
E(i, j) = A(i, k) * B(k, j)
D(i, l) = E(i, j2) * C(j2, l)
"""
        )
        fused = merge_contractions(fuse_region(prog, [0, 1]))
        assert len(fused.statements) == 1
        assert len(fused.statements[0].operands) == 3
        assert len(fused.statements[0].reduction_indices()) == 2
