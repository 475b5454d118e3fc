"""Fig. 10 — large-scale training on the criteo-like dataset (Section V-B).

The paper trains on a 40 GB criteo sample (200 M examples, 75 M features,
all values 1) that does not fit in any single GPU: it is partitioned by
example across 4 Titan X workers.  Three distributed configurations are
compared (K = 4 everywhere, dual formulation):

* distributed SCD with single-thread CPU local solvers;
* distributed SCD with PASSCoDe-Wild (16 threads) local solvers;
* distributed TPA-SCD on Titan X GPUs with adaptive aggregation.

We additionally reproduce the *memory gate*: booking the paper-scale 40 GB
footprint on one simulated Titan X raises ``GpuOutOfMemoryError``, while a
quarter of it fits on each of four devices.

:func:`run_fig10_outofcore` then *defeats* the gate: the same 40 GB
footprint trains on ONE 12 GB Titan X by streaming shard groups through a
device-budgeted :class:`~repro.shards.ShardCache`, with the re-read PCIe
traffic billed into the ledger's ``shard_stream`` phase — and the resulting
weights bit-identical to the resident run.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from ..cluster.partition import shard_aligned_partition
from ..core.distributed import DistributedSCD
from ..core.tpa_scd import TpaScdKernelFactory
from ..gpu.device import GpuDevice
from ..gpu.memory import GpuOutOfMemoryError
from ..gpu.spec import GTX_TITAN_X
from ..obs import Tracer, active_tracer
from ..perf.link import ETHERNET_10G, PCIE3_X16_PINNED
from ..shards import ShardingConfig, ShardStore, pack_dataset
from .claims import TRUE, Claim, at_least, below, final_ratio
from .config import (
    ScaleConfig,
    active_scale,
    async_factory,
    criteo_problem,
    epochs,
    sequential_factory,
    tpa_factory,
)
from .results import CurveSeries, FigureResult

__all__ = ["run_fig10", "run_fig10_outofcore", "CRITEO_PAPER_NBYTES"]

#: the paper's criteo sample occupies ~40 GB in CSR
CRITEO_PAPER_NBYTES = 40 * 2**30

N_WORKERS = 4


def _oom_check(problem, paper) -> dict:
    """Verify the 40 GB sample does not fit on one Titan X but 1/4 does."""
    single = TpaScdKernelFactory(
        GpuDevice(GTX_TITAN_X),
        simulated_dataset_nbytes=CRITEO_PAPER_NBYTES,
    )
    try:
        single.bind_dual(problem.dataset.csr, problem.y, problem.n, problem.lam)
        single_fits = True
    except GpuOutOfMemoryError:
        single_fits = False
    quarter = TpaScdKernelFactory(
        GpuDevice(GTX_TITAN_X),
        simulated_dataset_nbytes=CRITEO_PAPER_NBYTES // N_WORKERS,
    )
    quarter.bind_dual(problem.dataset.csr, problem.y, problem.n, problem.lam)
    return {"single_gpu_fits_40GB": single_fits, "quarter_fits": True}


def run_fig10(scale: ScaleConfig | None = None) -> FigureResult:
    """Fig. 10: gap vs time for the three K=4 distributed configurations."""
    scale = scale or active_scale()
    problem, paper = criteo_problem(scale)
    n_epochs = epochs(40, scale)
    monitor = max(1, n_epochs // 20)

    fig = FigureResult(
        figure_id="fig10",
        title="Large-scale criteo-like training, K=4 workers (dual form)",
        meta={"scale": scale.name, "n_epochs": n_epochs},
    )
    fig.meta.update(_oom_check(problem, paper))

    configs = [
        (
            "SCD (1 thread)",
            DistributedSCD(
                sequential_factory(paper, "dual"),
                "dual",
                n_workers=N_WORKERS,
                aggregation="averaging",
                network=ETHERNET_10G,
                paper_scale=paper,
                seed=5,
            ),
        ),
        (
            "PASSCoDe (16 threads)",
            DistributedSCD(
                async_factory(paper, "dual", write_mode="wild"),
                "dual",
                n_workers=N_WORKERS,
                aggregation="averaging",
                network=ETHERNET_10G,
                paper_scale=paper,
                seed=5,
            ),
        ),
        (
            # the paper's Titan X cluster is 4 GPUs in one machine whose
            # workers aggregate over the PCIe fabric, not Ethernet
            "TPA-SCD (Titan X)",
            DistributedSCD(
                lambda rank: tpa_factory(
                    GTX_TITAN_X, paper, "dual", problem, n_workers=N_WORKERS
                ),
                "dual",
                n_workers=N_WORKERS,
                aggregation="adaptive",
                network=PCIE3_X16_PINNED,
                pcie=PCIE3_X16_PINNED,
                paper_scale=paper,
                seed=5,
            ),
        ),
    ]
    for label, engine in configs:
        res = engine.solve(problem, n_epochs, monitor_every=monitor)
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.sim_times,
                y=res.history.gaps,
                x_name="time(s)",
                y_name="gap",
                meta={"solver": label},
            )
        )
    return fig


def run_fig10_outofcore(scale: ScaleConfig | None = None) -> FigureResult:
    """Fig. 10 out-of-core variant: 40 GB streamed through one 12 GB GPU.

    The criteo-like sample is packed into a rows-axis shard set billed at
    the paper's 40 GB footprint; a single Titan X worker streams the shard
    groups through a device-budgeted LRU cache (prefetch: each epoch's shard
    pass reads during compute, billed double-buffered over the PCIe link
    model) instead of holding the dataset resident.
    The run must finish without :class:`GpuOutOfMemoryError`, evict shards
    along the way, and produce weights bit-identical to the resident run.
    """
    scale = scale or active_scale()
    problem, paper = criteo_problem(scale)
    n_epochs = epochs(40, scale)
    monitor = max(1, n_epochs // 20)

    tracer = active_tracer()
    if not tracer.enabled:
        tracer = Tracer()

    def engine(**kwargs) -> DistributedSCD:
        return DistributedSCD(
            lambda rank: tpa_factory(
                GTX_TITAN_X, paper, "dual", problem, n_workers=1
            ),
            "dual",
            n_workers=1,
            aggregation="adaptive",
            network=PCIE3_X16_PINNED,
            pcie=PCIE3_X16_PINNED,
            paper_scale=paper,
            seed=5,
            **kwargs,
        )

    shard_dir = tempfile.mkdtemp(prefix="repro-fig10-shards-")
    try:
        pack_dataset(problem.dataset, shard_dir, axis="rows", n_shards=8)
        store = ShardStore(shard_dir)
        cfg = ShardingConfig(
            store,
            link=PCIE3_X16_PINNED,
            prefetch=True,
            simulated_total_nbytes=CRITEO_PAPER_NBYTES,
        )
        resident = engine(partitioner=shard_aligned_partition(store)).solve(
            problem, n_epochs, monitor_every=monitor
        )
        streamed = engine(shards=cfg).solve(
            problem, n_epochs, monitor_every=monitor, tracer=tracer
        )
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)

    metrics = tracer.metrics
    fig = FigureResult(
        figure_id="fig10-outofcore",
        title="40 GB criteo-like footprint on one 12 GB Titan X (out-of-core)",
        meta={
            "scale": scale.name,
            "n_epochs": n_epochs,
            "simulated_nbytes": CRITEO_PAPER_NBYTES,
            "device_capacity_gb": GTX_TITAN_X.mem_capacity_gb,
            "bit_identical": bool(
                np.array_equal(resident.weights, streamed.weights)
            ),
            "cache_misses": int(metrics.counter("shards.cache.miss")),
            "cache_hits": int(metrics.counter("shards.cache.hit")),
            "cache_evictions": int(metrics.counter("shards.cache.evict")),
            "shard_stream_s": streamed.ledger.get("shard_stream"),
        },
    )
    fig.add(
        CurveSeries(
            label="TPA-SCD (resident)",
            x=resident.history.sim_times,
            y=resident.history.gaps,
            x_name="time(s)",
            y_name="gap",
            meta={"solver": "resident"},
        )
    )
    fig.add(
        CurveSeries(
            label="TPA-SCD (out-of-core, 40 GB / 12 GB)",
            x=streamed.history.sim_times,
            y=streamed.history.gaps,
            x_name="time(s)",
            y_name="gap",
            meta={"solver": "out-of-core"},
        )
    )
    return fig


# -- claims ------------------------------------------------------------------


def _outofcore_identical(fig: FigureResult) -> bool:
    resident = fig.get("TPA-SCD (resident)")
    streamed = fig.get("TPA-SCD (out-of-core, 40 GB / 12 GB)")
    return fig.meta["bit_identical"] and np.array_equal(resident.y, streamed.y)


def _outofcore_stretch(fig: FigureResult) -> float:
    resident = fig.get("TPA-SCD (resident)")
    streamed = fig.get("TPA-SCD (out-of-core, 40 GB / 12 GB)")
    return streamed.x[-1] / resident.x[-1]


CLAIMS = {
    "fig10": (
        Claim(
            "fig10-memory-gate", "Fig. 10 / §V-B",
            lambda fig: (not fig.meta["single_gpu_fits_40GB"] and fig.meta["quarter_fits"]), TRUE,
            "the 40 GB sample does not fit on one Titan X; a quarter per worker does",
        ),
        Claim(
            "fig10-tpa-vs-scd-budget", "Fig. 10",
            lambda fig: fig.get("SCD (1 thread)").x[-1] / fig.get("TPA-SCD (Titan X)").x[-1],
            at_least(20),
            "same epoch budget, far less time: total time, distributed SCD / distributed TPA-SCD",
        ),
        Claim(
            "fig10-wild-floor", "Fig. 10",
            final_ratio("TPA-SCD (Titan X)", "PASSCoDe (16 threads)"), below(0.1),
            "PASSCoDe's duality gap does not converge to zero (final gap, TPA-SCD / PASSCoDe)",
            scale="quick",
        ),
    ),
    "fig10-outofcore": (
        Claim(
            "fig10-outofcore-bit-identical", "Fig. 10 (out-of-core)", _outofcore_identical, TRUE,
            "streaming shards through one 12 GB GPU trains the same weights and gap trajectory as "
            "the resident run",
        ),
        Claim(
            "fig10-outofcore-streams", "Fig. 10 (out-of-core)",
            lambda fig: fig.meta["cache_misses"], at_least(1),
            "the 40 GB footprint is streamed, not resident (shard cache misses)",
        ),
        Claim(
            "fig10-outofcore-pays-pcie", "Fig. 10 (out-of-core)", _outofcore_stretch, at_least(1),
            "the shard traffic stretches the time axis (total time, out-of-core / resident)",
        ),
    ),
}
