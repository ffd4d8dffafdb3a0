"""Analysis utilities: error metrics, distributions, capacity.

The paper evaluates channel quality with the Wagner-Fischer edit distance
between sent and received bit sequences (Section 5) and reports latency
distributions as CDFs (Figure 4).  This package implements both, plus
channel-capacity estimates, run-manifest summaries and SVG charts.
Detectability through performance counters (Section 7) is measured
online, by the detectors in :mod:`repro.telemetry.detectors`.
"""

from repro._lazy import lazy_exports

# Bound eagerly because the submodule has the same name: importing
# repro.analysis.edit_distance sets this package's attribute to the
# module, and __getattr__ is consulted only for names that are unset.
from repro.analysis.edit_distance import edit_distance

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "edit_distance": ("edit_distance",),
        "ber": (
            "BitErrorReport",
            "align_by_preamble",
            "bit_error_rate",
            "evaluate_transmission",
        ),
        "cdf": ("empirical_cdf", "histogram", "summarize_latencies"),
        "capacity": (
            "binary_symmetric_capacity",
            "confusion_matrix",
            "effective_rate_kbps",
            "symbol_capacity",
        ),
        "run_summary": ("manifest_table", "summarize_manifest"),
        "svg": ("Chart", "ber_chart", "cdf_chart", "trace_chart"),
    },
)
