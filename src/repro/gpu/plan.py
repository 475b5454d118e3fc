"""No-op stand-ins for the retired epoch-plan cache.

The two functions below remain only because the benchmark harness
(``benchmarks/e2e/workloads.py``) imports them at load time; nothing in the
package or its tests calls them.  There is no plan cache to clear or count;
the wave loop's geometry check lives in :mod:`repro.gpu.engine`.
"""

from __future__ import annotations

__all__ = ["clear_plan_cache", "plan_cache_stats"]


def clear_plan_cache() -> None:
    """No-op: there is no plan cache."""


def plan_cache_stats() -> dict[str, int]:
    """All zero: there is no plan cache."""
    return {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
