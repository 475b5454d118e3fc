"""Zero-dependency observability: hierarchical spans + a metrics registry.

The paper's headline evidence is timing decompositions — Fig. 9's
four-phase breakdown, PCIe/compute overlap, per-epoch wall-clock — and this
package makes the same decompositions inspectable *inside* a run:

* :class:`Tracer` produces nested spans (context-manager + decorator API)
  carrying both wall-clock and *modelled* seconds, attributed per ledger
  component, so a span tree rolls up to exactly the
  :class:`~repro.perf.ledger.TimeLedger` the engines report;
* :class:`MetricsRegistry` collects counters / gauges / histograms
  (epochs, atomic-add conflicts, lost writes, retries, straggler waits,
  bytes moved per collective);
* :mod:`repro.obs.export` renders Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto), a flat metrics dump, and an ASCII flame
  summary for the CLI.

A :class:`NullTracer` fast path keeps the overhead off by default: every
instrumented hot loop calls through no-op methods unless a real tracer is
installed (explicitly via ``solve(..., tracer=...)`` or ambiently via
:func:`use_tracer`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".metrics": ("Histogram", "MetricsRegistry"),
    ".tracer": (
        "NULL_SPAN",
        "NULL_TRACER",
        "NullTracer",
        "Span",
        "Tracer",
        "active_tracer",
        "resolve_tracer",
        "traced",
        "use_tracer",
    ),
    ".export": (
        "chrome_trace",
        "flame_summary",
        "metrics_json",
        "validate_chrome_trace",
        "write_chrome_trace",
        "write_metrics_json",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "active_tracer",
    "resolve_tracer",
    "use_tracer",
    "traced",
    "MetricsRegistry",
    "Histogram",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_json",
    "write_metrics_json",
    "flame_summary",
    "validate_chrome_trace",
]
