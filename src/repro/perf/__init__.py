"""Shared performance-model primitives: links, ledgers, timing protocol.

These price the paper's *modelled* time axes.  Measured wall-clock
performance of this codebase lives in ``benchmarks/e2e`` and its committed
``BENCH_PR*.json`` record.
"""

from .ledger import COMPONENTS, FAULT_COMPONENTS, PAPER_COMPONENTS, TimeLedger
from .link import (
    ETHERNET_10G,
    ETHERNET_100G,
    PCIE3_X16_PAGEABLE,
    PCIE3_X16_PINNED,
    Link,
)
from .timing import EpochWorkload, LocalTiming

__all__ = [
    "COMPONENTS",
    "FAULT_COMPONENTS",
    "PAPER_COMPONENTS",
    "TimeLedger",
    "Link",
    "ETHERNET_10G",
    "ETHERNET_100G",
    "PCIE3_X16_PINNED",
    "PCIE3_X16_PAGEABLE",
    "EpochWorkload",
    "LocalTiming",
]
