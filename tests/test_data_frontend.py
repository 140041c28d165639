"""Dataset generators, registry, BigBird masks, and frontend tracing tests."""

import numpy as np
import pytest

from repro.data.graphs import (
    blockdiag_graph,
    node_features,
    powerlaw_graph,
    synthetic_graph,
    uniform_graph,
    weighted_adjacency,
)
from repro.data.registry import (
    GRAPH_DATASETS,
    SAE_DATASETS,
    graph_dataset,
    sae_dataset,
    table2_rows,
)
from repro.data.text import bigbird_mask, mask_sparsity, token_embeddings
from repro.frontend.api import Linear, ModelBuilder
from repro.ftree import csr
from repro.driver.session import default_session

# One shared session: its compile cache spans this module's tests.
run = default_session().run


class TestGraphGenerators:
    @pytest.mark.parametrize("pattern", ["uniform", "powerlaw", "blockdiag"])
    def test_density_in_range(self, pattern):
        adj = synthetic_graph(100, 0.05, pattern, seed=0)
        density = np.count_nonzero(adj) / adj.size
        assert 0.01 < density < 0.25

    def test_self_loops(self):
        adj = synthetic_graph(20, 0.1, "uniform", seed=1)
        assert np.all(np.diag(adj) > 0)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            synthetic_graph(10, 0.1, "smallworld")

    def test_powerlaw_is_skewed(self):
        rng = np.random.default_rng(0)
        adj = powerlaw_graph(200, 0.05, rng)
        degrees = np.sort(adj.sum(axis=1))[::-1]
        # Top decile holds disproportionate degree mass.
        assert degrees[:20].sum() > 2 * degrees[-20:].sum()

    def test_blockdiag_concentrates_on_diagonal(self):
        rng = np.random.default_rng(0)
        adj = blockdiag_graph(80, 0.08, rng, communities=4)
        size = 20
        in_block = sum(
            np.count_nonzero(adj[c * size : (c + 1) * size, c * size : (c + 1) * size])
            for c in range(4)
        )
        assert in_block > 0.5 * np.count_nonzero(adj)

    def test_weighted_rows_normalized(self):
        rng = np.random.default_rng(0)
        adj = weighted_adjacency(uniform_graph(30, 0.2, rng), rng)
        sums = adj.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_sparse_features(self):
        x = node_features(50, 10, density=0.3, seed=2)
        assert np.count_nonzero(x) < 0.5 * x.size


class TestRegistry:
    def test_graph_dataset_materializes(self):
        entry, adj, feats = graph_dataset("cora")
        assert adj.shape == (entry.sim_nodes, entry.sim_nodes)
        assert feats.shape == (entry.sim_nodes, entry.sim_features)

    def test_all_graph_datasets(self):
        for name in GRAPH_DATASETS:
            entry, adj, _ = graph_dataset(name)
            assert np.count_nonzero(adj) > entry.sim_nodes  # beyond self loops

    def test_sae_dataset(self):
        entry, x = sae_dataset("imagenet")
        assert x.shape[0] == 5  # the paper samples 5 images

    def test_table2_covers_all(self):
        rows = table2_rows()
        assert len(rows) == len(GRAPH_DATASETS) + len(SAE_DATASETS) + 1


class TestBigBird:
    def test_mask_shape_and_blocks(self):
        mask = bigbird_mask(32, 8, seed=0)
        assert mask.shape == (32, 32)
        # Block structure: every 8x8 block is all-ones or all-zeros.
        grid = mask.reshape(4, 8, 4, 8).transpose(0, 2, 1, 3)
        for i in range(4):
            for j in range(4):
                block = grid[i, j]
                assert block.min() == block.max()

    def test_diagonal_window_kept(self):
        mask = bigbird_mask(32, 8, seed=0)
        assert np.all(np.diag(mask) == 1.0)

    def test_sparsity_grows_with_sequence(self):
        small = mask_sparsity(bigbird_mask(32, 8, seed=0))
        large = mask_sparsity(bigbird_mask(128, 8, seed=0))
        assert large > small

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            bigbird_mask(30, 8)

    def test_token_embeddings(self):
        x = token_embeddings(16, 8, seed=1)
        assert x.shape == (16, 8)


class TestFrontend:
    def test_matmul_records_contract(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        w = b.input("W", np.ones((4, 2)))
        y = b.matmul(x, w, label="mm")
        assert y.dims == (3, 2)
        assert b.program.statements[0].kind == "contract"
        assert b.sids("mm") == [0]

    def test_matmul_shape_mismatch_rejected(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        w = b.input("W", np.ones((5, 2)))
        with pytest.raises(ValueError):
            b.matmul(x, w)

    def test_operator_sugar(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        w = b.input("W", np.ones((4, 4)))
        y = x @ w
        z = y + x
        assert b.program.statements[-1].op == "add"
        assert z.dims == (3, 4)

    def test_bias_broadcast(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        bias = b.input("b", np.ones(4))
        y = b.add(x, bias)
        stmt = b.program.statements[0]
        assert stmt.operands[1].indices == (stmt.operands[0].indices[-1],)

    def test_broadcast_mismatch_rejected(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        bad = b.input("b", np.ones(3))
        with pytest.raises(ValueError):
            b.add(x, bad)

    def test_sparse_annotation(self):
        b = ModelBuilder("m")
        rng = np.random.default_rng(0)
        a = (rng.random((4, 4)) < 0.5) * 1.0
        sym = b.input("A", a, csr())
        assert b.program.decls["A"].fmt.name() == "csr"
        assert b.binding["A"].nnz() == np.count_nonzero(a)

    def test_linear_module_traces_two_statements(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        lin = Linear(b, 4, 2, name="fc")
        y = lin(x)
        assert len(b.program.statements) == 2
        assert b.sids("fc_mm") == [0]
        assert b.sids("fc_bias") == [1]

    def test_traced_model_runs(self):
        b = ModelBuilder("m")
        rng = np.random.default_rng(1)
        x_data = rng.random((4, 5))
        x = b.input("X", x_data)
        lin = Linear(b, 5, 3, name="fc", rng=rng)
        y = b.relu(lin(x))
        result = run(b.program, b.binding)
        w = b.binding["fc_w"].to_dense()
        bias = b.binding["fc_b"].to_dense()
        np.testing.assert_allclose(
            result.tensors[y.name].to_dense(),
            np.maximum(x_data @ w + bias, 0),
            atol=1e-12,
        )

    def test_user_order_scheduling(self):
        b = ModelBuilder("m")
        x = b.input("X", np.ones((3, 4)))
        w = b.input("W", np.ones((4, 2)))
        y = b.matmul(x, w, order="ikj")
        assert b.program.statements[0].order is not None
