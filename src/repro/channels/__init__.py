"""Covert-channel implementations.

:mod:`repro.channels.wb` is the paper's contribution; the sibling modules
implement the channels it compares against in Sections 6-7 (LRU channel,
Prime+Probe), all running on the same simulated SMT core so that stability
and stealthiness comparisons are apples to apples.  Every channel frames
its message, scores it and reports it the same way
(:mod:`repro.channels.results`: :class:`ChannelFraming`,
:func:`score_run`, :class:`ChannelRunResult`).  The paper's Table 1
classification of every channel it discusses is data in
:mod:`repro.channels.taxonomy`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "encoding": ("BinaryDirtyCodec", "MultiBitDirtyCodec", "SymbolCodec"),
        "threshold": ("ThresholdDecoder",),
        "testbench": ("ChannelTestbench", "TestbenchConfig"),
        "results": ("ChannelRunResult",),
        "coding": ("HammingCode",),
        "lru_channel": ("LRUChannelConfig", "run_lru_channel"),
        "prime_probe": ("PrimeProbeConfig", "run_prime_probe_channel"),
        "taxonomy": (
            "KNOWN_CHANNELS",
            "ChannelProfile",
            "TimingClass",
            "channels_by_class",
        ),
    },
)
