"""Seeded open-loop traffic: Poisson and bursty arrival processes.

"Heavy traffic from millions of users" is an *open-loop* arrival process —
users do not wait for each other's responses — so the generators here
produce arrival timestamps independent of server state, on the modelled
clock.  Everything is derived from one ``numpy`` seed, so a traffic run is
bit-reproducible: the same seed yields the same arrival instants, the same
sampled feature rows, hence the same queueing trajectory, shed decisions and
latency histograms on every machine.  That determinism is what lets the
metric-contract tests pin p50/p99 outputs exactly.

* :func:`poisson_arrivals` — homogeneous Poisson process (i.i.d. exponential
  gaps) at ``rate_hz``;
* :func:`bursty_arrivals` — a two-state modulated Poisson process (calm /
  burst phases with exponential durations), the classic flash-crowd model:
  mean rate is modest but bursts exceed service capacity and exercise the
  admission queue and shed policy;
* :class:`RequestSource` — turns arrival instants into
  :class:`~repro.serve.server.PredictRequest`\\ s by sampling feature rows
  from a bound CSR matrix (provenance kept for oracle audits);
* :func:`replay` — feeds a time-ordered event stream (requests, swaps,
  trainer epoch notes) through a server and drains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..sparse import CsrMatrix
from .server import ModelServer, PredictRequest
from .snapshot import WeightSnapshot

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "RequestSource",
    "SwapEvent",
    "EpochNote",
    "replay",
]

#: stream-derivation markers keeping arrival, burst and row sampling
#: independent of one another for one user-facing seed
_ARRIVALS_KEY = 0x7261FF1C
_PHASES_KEY = 0x62757273
_ROWS_KEY = 0x726F7773


def poisson_arrivals(
    rate_hz: float,
    duration_s: float,
    *,
    seed: int = 0,
    start_s: float = 0.0,
) -> np.ndarray:
    """Arrival instants of a Poisson process over ``[start, start+duration)``.

    Gaps are i.i.d. ``Exp(rate)``; the count is whatever the process yields
    (mean ``rate * duration``), not a fixed quota — open loop, not paced.
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if duration_s < 0:
        raise ValueError("duration_s must be non-negative")
    if duration_s == 0:
        return np.empty(0)
    rng = np.random.default_rng([int(seed), _ARRIVALS_KEY])
    times: list[np.ndarray] = []
    t = 0.0
    # draw in blocks sized to the expected remaining count (plus slack)
    while t < duration_s:
        expect = max(16, int((duration_s - t) * rate_hz * 1.25))
        gaps = rng.exponential(1.0 / rate_hz, size=expect)
        block = t + np.cumsum(gaps)
        times.append(block)
        t = float(block[-1])
    out = np.concatenate(times)
    return start_s + out[out < duration_s]


def bursty_arrivals(
    calm_rate_hz: float,
    burst_rate_hz: float,
    duration_s: float,
    *,
    mean_calm_s: float = 0.1,
    mean_burst_s: float = 0.02,
    seed: int = 0,
    start_s: float = 0.0,
) -> np.ndarray:
    """Two-state modulated Poisson process: calm baseline, hot bursts.

    Phase durations are exponential (``mean_calm_s`` / ``mean_burst_s``);
    within a phase arrivals are Poisson at that phase's rate.  With
    ``burst_rate_hz`` above the server's service capacity this drives queue
    growth and shedding while the long-run average stays sustainable.
    """
    if calm_rate_hz <= 0 or burst_rate_hz <= 0:
        raise ValueError("rates must be positive")
    if mean_calm_s <= 0 or mean_burst_s <= 0:
        raise ValueError("phase durations must be positive")
    phase_rng = np.random.default_rng([int(seed), _PHASES_KEY])
    times: list[np.ndarray] = []
    t = 0.0
    burst = False
    phase_index = 0
    while t < duration_s:
        mean = mean_burst_s if burst else mean_calm_s
        rate = burst_rate_hz if burst else calm_rate_hz
        span = float(phase_rng.exponential(mean))
        end = min(t + span, duration_s)
        if end > t:
            block = poisson_arrivals(
                rate, end - t, seed=seed * 1_000_003 + phase_index, start_s=t
            )
            if block.size:
                times.append(block)
        t = end
        burst = not burst
        phase_index += 1
    if not times:
        return np.empty(0)
    return start_s + np.concatenate(times)


class RequestSource:
    """Samples feature rows from a bound matrix into prediction requests."""

    def __init__(
        self,
        matrix: CsrMatrix,
        *,
        seed: int = 0,
        rows_per_request: int = 1,
    ) -> None:
        if rows_per_request < 1:
            raise ValueError("rows_per_request must be >= 1")
        self.matrix = matrix
        self.rows_per_request = int(rows_per_request)
        self._rng = np.random.default_rng([int(seed), _ROWS_KEY])
        self._next_id = 0

    def requests(self, arrival_times: Sequence[float]) -> list[PredictRequest]:
        """One request per arrival instant, rows sampled with replacement.

        Each request draws its row ids from the seeded stream in turn; the
        rows of all requests are gathered in one ``take_rows`` and each
        request's matrix is a view of its slice, ``indptr`` rebased to 0.
        """
        n, k = self.matrix.shape[0], self.rows_per_request
        arrivals = [float(t) for t in arrival_times]
        row_ids = [self._rng.integers(0, n, size=k) for _ in arrivals]
        if not row_ids:
            return []
        rows = self.matrix.take_rows(np.concatenate(row_ids))
        # request r owns rows r*k .. r*k + k - 1 of the gather
        windows = np.lib.stride_tricks.sliding_window_view(rows.indptr, k + 1)[::k]
        indptr = windows - windows[:, :1]
        bounds = rows.indptr[::k].tolist()
        shape = (k, self.matrix.shape[1])
        out: list[PredictRequest] = []
        for r, (t, ids) in enumerate(zip(arrivals, row_ids)):
            lo, hi = bounds[r], bounds[r + 1]
            out.append(
                PredictRequest(
                    request_id=self._next_id,
                    rows=CsrMatrix(
                        shape, indptr[r], rows.indices[lo:hi], rows.data[lo:hi],
                        check=False,
                    ),
                    arrival_s=t,
                    row_ids=ids,
                )
            )
            self._next_id += 1
        return out


@dataclass(frozen=True)
class SwapEvent:
    """A weight publish reaching the server at a modelled instant."""

    at_s: float
    snapshot: WeightSnapshot
    #: chaos hook: a dropped notification never reaches the server (it keeps
    #: serving the previous version; the hub still knows the truth)
    dropped: bool = False


@dataclass(frozen=True)
class EpochNote:
    """Trainer progress (no weights) reaching the hub at a modelled instant."""

    at_s: float
    epoch: int


def replay(
    server: ModelServer,
    events: Iterable[PredictRequest | SwapEvent | EpochNote],
) -> list:
    """Feed a time-ordered event stream through ``server`` and drain it.

    Events are sorted by timestamp with publishes/notes winning ties against
    arrivals (a swap landing "at the same instant" as a request is visible
    to that request's batch, matching the atomic-reference semantics).
    Dropped swap notifications count into ``serve.swap_dropped`` and are
    otherwise invisible to the server — exactly a lost notification.
    """

    def when(ev) -> tuple[float, int]:
        if isinstance(ev, (SwapEvent, EpochNote)):
            return (ev.at_s, 0)
        return (ev.arrival_s, 1)

    for ev in sorted(events, key=when):
        if isinstance(ev, SwapEvent):
            # the publish itself always lands on the hub (the trainer did
            # produce the version); only the server's notification can drop
            if server.hub is not None:
                server.hub.publish(ev.snapshot)
            if ev.dropped:
                server.tracer.count("serve.swap_dropped")
                continue
            server.apply_swap(ev.snapshot, at=ev.at_s)
        elif isinstance(ev, EpochNote):
            server.note_epoch(ev.epoch, at=ev.at_s)
        else:
            server.submit(ev)
    return server.drain()
