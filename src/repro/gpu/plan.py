"""Kernel geometry check for Algorithm 2's wave loop.

The two no-op stubs below remain only because the benchmark harness
(``benchmarks/e2e/workloads.py``) imports them at load time; nothing in the
package or its tests calls them.  There is no plan cache to clear or count.
"""

from __future__ import annotations

__all__ = ["check_geometry", "clear_plan_cache", "plan_cache_stats"]


def check_geometry(wave_size: int, n_threads: int) -> None:
    """Reject a kernel geometry Algorithm 2 cannot run: an empty wave, or a
    thread block whose tree reduction does not halve down to one lane."""
    if wave_size < 1:
        raise ValueError("wave_size must be >= 1")
    if n_threads < 1 or (n_threads & (n_threads - 1)) != 0:
        raise ValueError("n_threads must be a positive power of two")


def clear_plan_cache() -> None:
    """No-op: there is no plan cache."""


def plan_cache_stats() -> dict[str, int]:
    """All zero: there is no plan cache."""
    return {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
