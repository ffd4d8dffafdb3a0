"""The WB (write-back) covert channel — the paper's core contribution.

* :mod:`~repro.channels.wb.sender` — Algorithm 1: encode a symbol by
  dirtying ``d`` lines of the target set.
* :mod:`~repro.channels.wb.receiver` — Algorithm 2: decode by timing a
  pointer-chased replacement-set traversal, alternating two replacement
  sets so each decode also re-initialises the target set.
* :mod:`~repro.channels.wb.calibration` — offline latency probing used for
  Figure 4 and for threshold calibration.
* :mod:`~repro.channels.wb.protocol` — Algorithm 3: the paced covert
  channel protocol, returning a :class:`ChannelRunResult`.  Its config,
  like the L2 and cross-core ones, inherits the shared message framing
  and scoring of :mod:`repro.channels.results`.
* :mod:`~repro.channels.wb.framing` — self-identifying frames (sync word,
  sequence number, CRC over FEC) with a resynchronising scanner.
* :mod:`~repro.channels.wb.robust` — the self-healing stack: framing +
  online threshold recalibration + ACK/retransmission, built for the
  :mod:`repro.faults` regime.
* :mod:`~repro.channels.wb.l2` — the channel one level down, on the L2,
  with the same receiver program.
* :mod:`~repro.channels.wb.cross_core` — the channel across cores of a
  :class:`~repro.coherence.CoherentHierarchy`, signalling through MESI
  downgrade write-backs instead of replacement evictions, with the same
  sender program.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "sender": ("WBSenderProgram",),
        "receiver": ("WBReceiverProgram",),
        "calibration": ("calibrate_decoder", "measure_latency_distributions"),
        "framing": (
            "DEFAULT_SYNC",
            "FrameConfig",
            "FrameScanResult",
            "encode_frame",
            "encode_payload",
            "scan_frames",
        ),
        "cross_core": (
            "CrossCoreTransmission",
            "CrossCoreWBChannelConfig",
            "calibrate_cross_core",
            "run_cross_core_wb_channel",
            "transmit_cross_core_schedule",
        ),
        "l2": (
            "L2WBChannelConfig",
            "make_l2_channel_hierarchy",
            "run_l2_wb_channel",
        ),
        "protocol": (
            "ChannelRunResult",
            "TransmissionTrace",
            "WBChannelConfig",
            "quick_channel_run",
            "resolve_channel_decoder",
            "run_wb_channel",
            "transmit_symbol_schedule",
        ),
        "robust": ("RobustProtocolConfig", "RobustRunResult", "run_robust_wb_channel"),
    },
)
