"""The seed scenario matrix pinning the distributed engines' trajectories.

``tests/test_runtime.py`` replays every scenario here against the golden
fingerprints in ``tests/data/runtime_goldens.json``, captured with
``tools/capture_runtime_goldens.py``.  The unified cluster runtime must
reproduce each engine's weights, histories and ledger phase totals
**bitwise** — a refactor proves it changed no numbers by leaving that file
alone, and a deliberate change of arithmetic re-captures it and says which
fields moved.

Scenario coverage:

* each engine (``DistributedSCD``, ``DistributedSvm``) and each
  ``DistributedSCD`` backend (``comm="sync"``, ``"process"``, ``"async"``),
* with and without faults (incl. the stale-buffer path only the simulated
  SCD engine supports),
* with and without out-of-core shards (incl. shard-read faults),
* both formulations, averaging/adaptive aggregation, partial rounds,
  paper-scale PCIe pricing, and GPU (TPA-SCD) local solvers,
* the asynchronous parameter server (it shares the delivery helpers).

Everything is seeded; nothing here depends on wall clock except the fields
deliberately excluded from fingerprints (``wall_time``, and ``sim_time`` /
``ledger`` for the real-process backend).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.cluster.faults import FaultSpec, make_fault_injector
from repro.core import WEBSPAM_PAPER, DistributedSCD
from repro.core.distributed_svm import DistributedSvm
from repro.data import make_webspam_like
from repro.objectives import RidgeProblem
from repro.objectives.svm import SvmProblem
from repro.perf.link import PCIE3_X16_PINNED
from repro.shards import ShardingConfig, ShardStore, pack_dataset
from repro.solvers.scd import SequentialKernelFactory

__all__ = ["SCENARIOS", "run_scenario", "fingerprint"]


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def fingerprint(res, *, modelled_time: bool = True) -> dict:
    """Everything a scenario pins, JSON-serializable and bit-exact.

    Floats round-trip exactly through JSON (``repr`` grammar); arrays are
    pinned by sha256 of their raw bytes.  ``modelled_time=False`` drops the
    wall-clock-dependent fields (the real-process backend's sim_time and
    ledger are real elapsed seconds, not modelled ones).
    """
    records = res.history.records
    fp = {
        "weights": _sha(res.weights),
        "shared": _sha(res.shared),
        "epochs": [r.epoch for r in records],
        "gaps": [r.gap for r in records],
        "objectives": [r.objective for r in records],
        "updates": [r.updates for r in records],
    }
    if modelled_time:
        fp["sim_times"] = [r.sim_time for r in records]
        fp["ledger"] = {k: v for k, v in res.ledger.breakdown().items()}
    gammas = getattr(res, "gammas", None)
    if gammas is not None:
        fp["gammas"] = list(gammas)
    alpha = getattr(res, "alpha", None)
    if alpha is not None:
        fp["alpha"] = _sha(alpha)
    report = getattr(res, "fault_report", None)
    if report is not None:
        fp["fault_note"] = report.note()
        fp["survivors"] = list(report.survivor_counts)
    return fp


# ---------------------------------------------------------------------------
# shared problem builders (seeded -> identical across capture and replay)
# ---------------------------------------------------------------------------
def _ridge() -> RidgeProblem:
    return RidgeProblem(
        make_webspam_like(200, 400, nnz_per_example=12, seed=3), lam=5e-3
    )


def _svm() -> SvmProblem:
    return SvmProblem(
        make_webspam_like(200, 400, nnz_per_example=12, seed=6), lam=1e-2
    )


def _shards(tmp: Path, axis: str, n_shards: int, *, svm: bool = False):
    """Pack the scenario dataset into ``tmp`` and open it as a store."""
    ds = (
        make_webspam_like(200, 400, nnz_per_example=12, seed=6)
        if svm
        else make_webspam_like(200, 400, nnz_per_example=12, seed=3)
    )
    out = tmp / f"{axis}-{n_shards}{'-svm' if svm else ''}"
    if not out.exists():
        pack_dataset(ds, out, axis=axis, n_shards=n_shards)
    return ShardStore(out)


def _gpu_factory(rank: int):
    from repro.core.tpa_scd import TpaScdKernelFactory
    from repro.gpu.device import GpuDevice
    from repro.gpu.spec import GTX_TITAN_X

    return TpaScdKernelFactory(GpuDevice(GTX_TITAN_X), wave_size=2)


def _scd(formulation, k, agg, **kw):
    return DistributedSCD(
        SequentialKernelFactory(), formulation, n_workers=k,
        aggregation=agg, seed=7, **kw,
    )


# ---------------------------------------------------------------------------
# the matrix: name -> callable(tmp_dir) -> (result, modelled_time)
# ---------------------------------------------------------------------------
SCENARIOS: dict = {
    # -- simulated distributed SCD (Algorithms 3/4, Section V) --------------
    "scd-primal-averaging-k3": lambda tmp: (
        _scd("primal", 3, "averaging").solve(_ridge(), 5), True),
    "scd-dual-adaptive-k4": lambda tmp: (
        _scd("dual", 4, "adaptive").solve(_ridge(), 6), True),
    "scd-dual-adding-k2": lambda tmp: (
        _scd("dual", 2, "adding").solve(_ridge(), 3), True),
    "scd-primal-roundfrac": lambda tmp: (
        _scd("primal", 2, "adaptive", round_fraction=0.5).solve(_ridge(), 4),
        True),
    "scd-monitor-every-2": lambda tmp: (
        _scd("dual", 3, "adaptive").solve(_ridge(), 6, monitor_every=2), True),
    "scd-paper-pcie": lambda tmp: (
        _scd("dual", 4, "adaptive", paper_scale=WEBSPAM_PAPER,
             pcie=PCIE3_X16_PINNED).solve(_ridge(), 3), True),
    "scd-gpu-tpa-k2": lambda tmp: (
        DistributedSCD(_gpu_factory, "primal", n_workers=2,
                       aggregation="adaptive", seed=7).solve(_ridge(), 3),
        True),
    # -- faults through the simulated SCD engine ----------------------------
    "scd-dual-chaos": lambda tmp: (
        _scd("dual", 4, "adaptive",
             faults=make_fault_injector("chaos", seed=11)).solve(_ridge(), 8),
        True),
    "scd-dual-stale": lambda tmp: (
        _scd("dual", 4, "adaptive",
             faults=FaultSpec(stale_rate=0.5, seed=3)).solve(_ridge(), 6),
        True),
    "scd-primal-dropout": lambda tmp: (
        _scd("primal", 4, "averaging",
             faults=FaultSpec(dropout_rate=0.3, seed=2)).solve(_ridge(), 6),
        True),
    # -- shards (out-of-core) through the simulated SCD engine --------------
    "scd-dual-shards": lambda tmp: (
        _scd("dual", 2, "adaptive",
             shards=_shards(tmp, "rows", 6)).solve(_ridge(), 5), True),
    "scd-primal-shards": lambda tmp: (
        _scd("primal", 2, "averaging",
             shards=_shards(tmp, "cols", 4)).solve(_ridge(), 4), True),
    "scd-dual-shards-budget-faults": lambda tmp: (
        _scd("dual", 2, "adaptive",
             shards=ShardingConfig(
                 _shards(tmp, "rows", 6), cache_budget_bytes=20_000),
             faults=FaultSpec(drop_rate=0.3, shard_read_failure_rate=0.3,
                              seed=5)).solve(_ridge(), 6), True),
    # -- distributed SVM (CoCoA/SDCA) ---------------------------------------
    "svm-k4": lambda tmp: (
        DistributedSvm(n_workers=4, seed=3).solve(_svm(), 6), True),
    "svm-sigma2": lambda tmp: (
        DistributedSvm(n_workers=4, sigma_prime=2.0, seed=3).solve(_svm(), 5),
        True),
    "svm-chaos": lambda tmp: (
        DistributedSvm(n_workers=4, seed=3,
                       faults=make_fault_injector("chaos", seed=11),
                       ).solve(_svm(), 8), True),
    "svm-shards": lambda tmp: (
        DistributedSvm(n_workers=2, seed=3,
                       shards=_shards(tmp, "rows", 6, svm=True),
                       ).solve(_svm(), 5), True),
    "svm-paper-scale": lambda tmp: (
        DistributedSvm(n_workers=4, seed=3,
                       paper_scale=WEBSPAM_PAPER).solve(_svm(), 3), True),
    # -- real-process backend (wall clock excluded from the fingerprint) ----
    "mp-dual-adaptive-k2": lambda tmp: (
        _mp("dual", 2, "adaptive").solve(_ridge(), 4), False),
    "mp-primal-averaging-k2": lambda tmp: (
        _mp("primal", 2, "averaging").solve(_ridge(), 3), False),
    "mp-dual-dropout": lambda tmp: (
        _mp("dual", 2, "adaptive",
            faults=FaultSpec(dropout_rate=0.4, seed=2)).solve(_ridge(), 4),
        False),
    "mp-dual-drop": lambda tmp: (
        _mp("dual", 2, "adaptive",
            faults=FaultSpec(drop_rate=0.4, seed=2)).solve(_ridge(), 4),
        False),
    "mp-dual-shards": lambda tmp: (
        _mp("dual", 2, "adaptive",
            shards=_shards(tmp, "rows", 6)).solve(_ridge(), 3), False),
    # -- asynchronous parameter server (shares the delivery helpers) --------
    "async-dual-k3": lambda tmp: (
        DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=3, comm="async",
            batch_fraction=0.25, seed=7).solve(_ridge(), 3), True),
}


def _mp(formulation, k, agg, **kw):
    return _scd(formulation, k, agg, comm="process", **kw)


def run_scenario(name: str, tmp: Path) -> dict:
    """Run one scenario and return its fingerprint."""
    res, modelled = SCENARIOS[name](Path(tmp))
    return fingerprint(res, modelled_time=modelled)
