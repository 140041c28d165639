"""Model zoo integration tests: every model x every fusion granularity.

These mirror the paper's functional verification of the simulator against a
dense reference implementation (Section 8.1).
"""

import numpy as np
import pytest

from repro.models.gcn import build_gcn, gcn_on_synthetic
from repro.models.gpt3 import build_gpt3
from repro.models.graphsage import graphsage_on_synthetic
from repro.models.sae import build_sae
from repro.driver.session import Session

# One shared session: its compile cache spans this module's tests.
run = Session().run

GRANULARITIES = ("unfused", "partial", "full")


def run_and_check(bundle, granularity, atol=1e-9):
    result = run(bundle.program, bundle.binding, bundle.schedule(granularity))
    out = result.tensors[bundle.output].to_dense()
    np.testing.assert_allclose(out, bundle.reference, atol=atol)
    return result


class TestGCN:
    @pytest.fixture(scope="class")
    def bundle(self):
        return gcn_on_synthetic(nodes=40, density=0.08, seed=0)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_correct(self, bundle, granularity):
        run_and_check(bundle, granularity)

    def test_partial_beats_unfused(self, bundle):
        unfused = run_and_check(bundle, "unfused")
        partial = run_and_check(bundle, "partial")
        assert partial.metrics.cycles < unfused.metrics.cycles

    def test_full_fusion_recomputes(self, bundle):
        partial = run_and_check(bundle, "partial")
        full = run_and_check(bundle, "full")
        assert full.metrics.flops > partial.metrics.flops

    def test_cs_rewrite_correct(self, bundle):
        result = run(bundle.program, bundle.binding, bundle.schedule("cs"))
        out = result.tensors[bundle.output].to_dense()
        np.testing.assert_allclose(out, bundle.reference, atol=1e-9)

    @pytest.mark.parametrize("pattern", ["uniform", "powerlaw", "blockdiag"])
    def test_patterns(self, pattern):
        bundle = gcn_on_synthetic(nodes=30, density=0.1, pattern=pattern, seed=1)
        run_and_check(bundle, "partial")


class TestGraphSAGE:
    @pytest.fixture(scope="class")
    def bundle(self):
        return graphsage_on_synthetic(nodes=40, density=0.08, seed=2)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_correct(self, bundle, granularity):
        run_and_check(bundle, granularity)

    def test_partial_best(self, bundle):
        results = {g: run_and_check(bundle, g) for g in GRANULARITIES}
        assert results["partial"].metrics.cycles == min(
            r.metrics.cycles for r in results.values()
        )


class TestSAE:
    @pytest.fixture(scope="class")
    def bundle(self):
        rng = np.random.default_rng(3)
        return build_sae(rng.random((5, 24)), hidden=12, seed=3)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_correct(self, bundle, granularity):
        run_and_check(bundle, granularity)

    def test_full_fusion_wins(self, bundle):
        """SAE streams layer to layer: full fusion has no recompute."""
        results = {g: run_and_check(bundle, g) for g in GRANULARITIES}
        assert results["full"].metrics.cycles == min(
            r.metrics.cycles for r in results.values()
        )
        assert results["full"].metrics.flops == results["unfused"].metrics.flops

    def test_weight_sparsity(self, bundle):
        w1 = bundle.binding["W1"]
        assert abs(w1.density() - 0.5) < 0.1


class TestGPT3:
    @pytest.fixture(scope="class")
    def bundle(self):
        return build_gpt3(seq_len=16, d_model=8, block=4, n_layers=2, seed=4)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_correct(self, bundle, granularity):
        run_and_check(bundle, granularity, atol=1e-8)

    def test_full_fusion_wins(self, bundle):
        """Reshape-bounded fusion has no recompute: full fusion is best."""
        results = {g: run_and_check(bundle, g, atol=1e-8) for g in GRANULARITIES}
        assert results["full"].metrics.cycles <= results["partial"].metrics.cycles
        assert results["partial"].metrics.cycles < results["unfused"].metrics.cycles

    @pytest.mark.parametrize("block", [2, 4, 8])
    def test_block_sizes(self, block):
        bundle = build_gpt3(seq_len=16, d_model=8, block=block, n_layers=1, seed=5)
        run_and_check(bundle, "partial", atol=1e-8)

    def test_mask_sparsity_reported(self):
        # A larger block grid is needed for the BigBird mask to be sparse.
        bundle = build_gpt3(seq_len=64, d_model=4, block=4, n_layers=1, seed=7)
        assert 0.0 < bundle.metadata["mask_sparsity"] < 1.0

    def test_single_decoder(self):
        bundle = build_gpt3(seq_len=8, d_model=4, block=2, n_layers=1, seed=6)
        run_and_check(bundle, "full", atol=1e-8)


class TestModelBundleAPI:
    def test_schedules_list(self):
        bundle = gcn_on_synthetic(nodes=20, density=0.1)
        schedules = bundle.schedules()
        assert [s.name for s in schedules] == ["unfused", "partial", "fully-fused"]

    def test_unknown_granularity_rejected(self):
        bundle = gcn_on_synthetic(nodes=20, density=0.1)
        with pytest.raises(ValueError):
            bundle.schedule("mega")

    def test_sae_has_no_cs_groups(self):
        rng = np.random.default_rng(0)
        bundle = build_sae(rng.random((2, 8)), hidden=4)
        with pytest.raises(ValueError):
            bundle.schedule("cs")

    def test_explicit_adjacency(self):
        adj = np.eye(6)
        feats = np.ones((6, 3))
        bundle = build_gcn(adj, feats, hidden=4, classes=2)
        run_and_check(bundle, "partial")
