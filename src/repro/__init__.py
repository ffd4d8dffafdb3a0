"""Reproduction of *Abusing Cache Line Dirty States to Leak Information in
Commercial Processors* (Cui & Cheng, HPCA 2022).

The package provides, on top of a cycle-level SMT + write-back cache
simulator:

* the paper's **WB covert channel** (binary and multi-bit symbol encoding),
* the baseline channels it compares against (LRU, Prime+Probe,
  Flush+Reload, Flush+Flush),
* the defenses of Section 8 (PLcache, way partitioning, random fill,
  randomized mapping, write-through),
* the side-channel scenarios of Section 9, and
* one experiment module per table/figure of the evaluation
  (:mod:`repro.experiments`).

Quick start::

    from repro import quick_channel_run

    result = quick_channel_run(message_bits=64, period_cycles=5500, d=1)
    print(result.bit_error_rate, result.rate_kbps)

See ``examples/quickstart.py`` for the full tour.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "common": ("CPU_FREQUENCY_HZ", "cycles_to_kbps", "kbps_to_period_cycles"),
        "cache": (
            "CacheHierarchy",
            "LatencyModel",
            "XeonE5_2650Config",
            "make_tiny_hierarchy",
            "make_xeon_hierarchy",
        ),
        "channels.wb": (
            "ChannelRunResult",
            "WBChannelConfig",
            "quick_channel_run",
            "run_wb_channel",
        ),
        "experiments": ("ExperimentResult", "RunProfile"),
        "runner": ("RunManifest", "run_experiments"),
    },
)
__all__.append("__version__")
