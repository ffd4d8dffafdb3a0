"""Noise processes: cache polluters and benign co-runner workloads.

Two distinct roles from the paper:

* Section 6 / Figure 9 — *noise cache lines*: a third process whose loads
  (or, rarely, stores) land in the channel's target set.  The WB channel
  shrugs off noise loads while the LRU and Prime+Probe channels decode
  them as false bits; :class:`TargetSetNoiseProgram` injects exactly this.
* Section 7 / Table 6 — a *benign co-runner* (the paper uses g++) whose
  ordinary cache pressure the WB sender is compared against for
  stealthiness; :class:`CompilerLikeWorkload` synthesises that pressure.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "models": ("NoiseConfig", "TargetSetNoiseProgram"),
        "workloads": (
            "CompilerLikeWorkload",
            "PointerChaseWorkload",
            "StreamingWorkload",
        ),
    },
)
