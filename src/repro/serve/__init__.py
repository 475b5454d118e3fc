"""Online serving: versioned snapshots, hot-swap scoring, seeded traffic.

The paper's premise (Section I) is that models must be retrained "as
frequently as possible" on fresh data — which is only useful if serving can
pick the new weights up without downtime.  This package closes the
train-to-serve loop on the repo's modelled clock:

* :mod:`repro.serve.snapshot` — immutable versioned
  :class:`WeightSnapshot`\\ s and the lock-free publish/subscribe
  :class:`SnapshotHub` (atomic reference swap; readers never block writers);
* :mod:`repro.serve.server` — :class:`ModelServer`, a deterministic
  discrete-event scorer with micro-batching, bounded-queue admission
  control with load shedding, and torn-read-free hot swap;
* :mod:`repro.serve.traffic` — seeded open-loop Poisson / bursty arrival
  generators, request sampling, and the :func:`replay` event loop;
* :mod:`repro.serve.demo` — :func:`train_to_serve`, the end-to-end demo
  behind ``repro serve``: train, publish versions mid-traffic, audit every
  response bitwise against the offline ``X @ w`` oracle.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".demo": ("ServeDemoReport", "train_to_serve"),
    ".server": ("ModelServer", "PredictRequest", "PredictResponse", "ServeConfig"),
    ".snapshot": (
        "SnapshotHub",
        "WeightSnapshot",
        "serve_weights",
        "snapshot_from_result",
    ),
    ".traffic": (
        "EpochNote",
        "RequestSource",
        "SwapEvent",
        "bursty_arrivals",
        "poisson_arrivals",
        "replay",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "WeightSnapshot",
    "SnapshotHub",
    "serve_weights",
    "snapshot_from_result",
    "ServeConfig",
    "PredictRequest",
    "PredictResponse",
    "ModelServer",
    "poisson_arrivals",
    "bursty_arrivals",
    "RequestSource",
    "SwapEvent",
    "EpochNote",
    "replay",
    "ServeDemoReport",
    "train_to_serve",
]
