"""Every experiment driver's paper claims hold at their declared scale.

Predicates, bands and scales live once, next to the drivers
(:mod:`repro.experiments.claims`).  ``test_claim_holds_at_declared_scale``
runs each claim; the classes after the table checks keep this suite's
figure-level checks, each naming the claims that now state it.
"""

from pathlib import Path

import pytest

import repro
from repro.experiments.registry import REGISTRY
from repro.experiments.results import FigureResult

CLAIM_IDS = [c.claim_id for spec in REGISTRY.values() for c in spec.claims]


@pytest.mark.parametrize("claim_id", CLAIM_IDS)
def test_claim_holds_at_declared_scale(claim_verdict, claim_id):
    verdict = claim_verdict(claim_id)
    assert verdict.status == "pass", (
        f"{claim_id} at {verdict.claim.scale}: measured {verdict.measured()}, "
        f"band {verdict.claim.band}"
    )


class TestClaimsTable:
    def test_every_driver_declares_a_claim(self):
        assert [d for d, spec in REGISTRY.items() if not spec.claims] == []

    def test_claim_ids_are_unique(self):
        assert len(CLAIM_IDS) == len(set(CLAIM_IDS))

    def test_each_id_is_written_once_under_src(self):
        src = "\n".join(
            p.read_text(encoding="utf-8")
            for p in Path(repro.__file__).parent.rglob("*.py")
        )
        counts = {cid: src.count(f'"{cid}"') for cid in CLAIM_IDS}
        assert {cid: n for cid, n in counts.items() if n != 1} == {}

    def test_claims_below_their_scale_are_skipped(self):
        spec = REGISTRY["fig10"]
        quick = [c for c in spec.claims if c.scale == "quick"]
        assert quick
        fig = FigureResult(figure_id="fig10", title="unused")
        for claim in quick:
            verdict = claim.verdict(fig, "tiny")
            assert verdict.status == "skip" and not verdict.failed
            assert verdict.value is None


@pytest.fixture
def holds(claim_verdict):
    def check(*claim_ids):
        failed = [v for v in map(claim_verdict, claim_ids) if v.status != "pass"]
        assert not failed, [f"{v.claim.claim_id}: {v.measured()}" for v in failed]

    return check


class TestConvergenceFigures:
    def test_all_solvers_present(self, holds):
        holds("fig2-atomic-tracks-seq", "fig2-wild-floor", "fig2-time-order")

    def test_atomic_solvers_track_sequential_per_epoch(self, holds):
        holds("fig2-atomic-tracks-seq")

    def test_wild_has_gap_floor(self, holds):
        holds("fig2-wild-floor")

    def test_time_axis_ordering(self, holds):
        holds("fig2-time-order")

    def test_gpu_speedup_in_paper_band(self, holds):
        holds("fig2-titanx-speedup")

    def test_primal_variant_runs(self, holds):
        holds("fig1-seq-converges")


class TestDistributedFigures:
    def test_fig3_slowdown_with_k(self, holds):
        holds("fig3-dual-monotone", "fig3-dual-slowdown")

    def test_fig4_adaptive_wins(self, holds):
        holds("fig4-dual-adaptive-final")

    def test_fig5_gamma_above_one_over_k(self, holds):
        holds("fig5-dual-above-averaging")

    def test_fig6_structure_and_flatness(self, holds):
        holds("fig6-dual-flat")


class TestGpuClusterFigures:
    def test_fig8_tpa_below_scd(self, holds):
        holds("fig8-m4000-speedup")

    def test_fig9_components(self, holds):
        holds("fig9-gpu-dominates", "fig9-no-network-at-k1", "fig9-network-grows")


class TestLargeScale:
    def test_memory_gate(self, holds):
        holds("fig10-memory-gate")

    def test_tpa_fastest(self, holds):
        holds("fig10-tpa-vs-scd-budget")

    def test_wild_floor_on_criteo(self, holds):
        holds("fig10-wild-floor")


class TestHeadline:
    def test_measured_speedups_in_band(self, holds):
        holds(
            "headline-ascd",
            "headline-wild",
            "fig2-m4000-speedup",
            "fig2-titanx-speedup",
            "headline-dist-vs-scd",
            "headline-dist-vs-passcode",
        )


class TestAblations:
    def test_wave_ablation_degrades_at_extremes(self, holds):
        holds("ablation-wave-staleness")

    def test_gpu_write_ablation(self, holds):
        holds("ablation-gpu-write-wild-floor", "ablation-gpu-write-lost-updates")

    def test_aggregation_ablation(self, holds):
        holds("ablation-aggregation-adaptive", "ablation-aggregation-adding-diverges")

    def test_precision_ablation(self, holds):
        holds("ablation-precision-fp64")

    def test_pcie_ablation(self, holds):
        holds("ablation-pcie-pinned")


class TestExtensionExperiments:
    def test_smart_partition_wins(self, holds):
        holds("ext-smart-partition-wins")

    def test_comm_tradeoff_structure(self, holds):
        holds("ext-comm-tradeoff-fast-fabric")

    def test_sigma_sweep_divergence_at_adding(self, holds):
        holds("ext-sigma-sweep-adding-diverges")

    def test_async_vs_sync_shapes(self, holds):
        holds("ext-async-hides-comm", "ext-async-too-stale")

    def test_heterogeneous_proportional_wins(self, holds):
        holds("ext-heterogeneous-proportional")

    def test_glm_gpu_tracks_cpu(self, holds):
        holds("ext-glm-gpu-enet-tpa", "ext-glm-gpu-svm-tpa")
