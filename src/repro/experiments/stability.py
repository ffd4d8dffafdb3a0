"""Section 6 / Figure 9 — stability of WB vs LRU vs Prime+Probe under noise.

A third process loads "noise lines" into the channels' target set.  For
identity-based channels (LRU, Prime+Probe) every noise load evicts a
primed line and decodes as a false bit; the WB channel keys on the dirty
*state*, which clean noise loads do not change.  Noise *stores* do perturb
the WB channel — the paper concedes this and argues conflicting stores
are rare; the experiment includes that column too.
"""

from __future__ import annotations

import functools
import statistics
from typing import List

from repro.channels.encoding import BinaryDirtyCodec
from repro.channels.lru_channel import LRUChannelConfig, run_lru_channel
from repro.channels.prime_probe import PrimeProbeConfig, run_prime_probe_channel
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.channels.wb import calibrate_decoder
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile

EXPERIMENT_ID = "stability"

PERIOD = 5500
TARGET_SET = 21
NOISE_TID = 7

#: Mean cycles between noise touches; one per ~2 symbol windows.
NOISE_INTERVAL = 2 * PERIOD


def run(
    *, profile: ProfileLike = None, seed: int = 0
) -> ExperimentResult:
    """Reproduce the Figure 9 stability comparison."""
    profile = resolve_profile(profile)
    messages = profile.count(quick=4, full=24)
    message_bits = profile.count(quick=64, full=128)

    rows: List[List[object]] = []
    scenarios = (
        ("no noise", 0.0, False),
        ("noise loads", 0.0, True),
        ("noise loads+stores (10%)", 0.10, True),
    )
    for label, store_fraction, noisy in scenarios:
        wb = _wb_noise_ber(messages, message_bits, seed, store_fraction, noisy)
        lru = _baseline_noise_ber(
            "lru", messages, message_bits, seed, store_fraction, noisy
        )
        pp = _baseline_noise_ber(
            "pp", messages, message_bits, seed, store_fraction, noisy
        )
        rows.append([label, f"{wb:.2%}", f"{lru:.2%}", f"{pp:.2%}"])

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Channel BER with a noise process touching the target set",
        paper_reference="Section 6 / Figure 9",
        columns=["scenario", "WB (d=3)", "LRU", "Prime+Probe"],
        rows=rows,
        params={
            "messages_per_point": messages,
            "message_bits": message_bits,
            "period": PERIOD,
            "noise_interval_cycles": NOISE_INTERVAL,
            "seed": seed,
        },
        notes=(
            "Clean noise loads devastate the LRU and Prime+Probe channels "
            "(every load is a false eviction) while the WB channel's BER "
            "barely moves; only noise *stores* — which create dirty lines — "
            "reach it, matching Figure 9's analysis."
        ),
    )


# ----------------------------------------------------------------------
# Noisy runners.  The noise is a TargetSetNoiseProgram on a third
# hardware thread, registered after the channel's sender and receiver.
# ----------------------------------------------------------------------

def _add_noise_thread(bench: ChannelTestbench, duration: int,
                      store_fraction: float, seed: int) -> None:
    from repro.mem.sets import build_set_conflicting_lines
    from repro.noise.models import NoiseConfig, TargetSetNoiseProgram

    noise_space = bench.new_space(pid=NOISE_TID)
    lines = build_set_conflicting_lines(
        noise_space, bench.l1_layout, TARGET_SET, 2
    )
    program = TargetSetNoiseProgram(
        lines=lines,
        config=NoiseConfig(
            mean_interval_cycles=NOISE_INTERVAL,
            store_fraction=store_fraction,
            duration_cycles=duration,
        ),
        seed=seed,
    )
    bench.add_thread(NOISE_TID, noise_space, program, name="noise")


def _wb_noise_ber(messages: int, message_bits: int, seed: int,
                  store_fraction: float, noisy: bool) -> float:
    """WB channel BER with an optional noise thread.

    This arm keeps its own run loop rather than going through
    :func:`~repro.channels.wb.protocol.transmit_symbol_schedule`: it
    draws its replacement sets from the bench's ``"sets"`` stream, not
    the protocol's ``"replacement-sets"``, so rerouting it would change
    this experiment's numbers.
    """
    from repro.analysis.ber import evaluate_transmission
    from repro.channels.wb.receiver import WBReceiverProgram
    from repro.channels.wb.sender import WBSenderProgram
    from repro.common.bits import random_bits
    from repro.common.rng import derive_rng, ensure_rng
    from repro.mem.pointer_chase import PointerChaseList
    from repro.mem.sets import build_replacement_set, build_set_conflicting_lines

    codec = BinaryDirtyCodec(d_on=3)
    decoder = calibrate_decoder(codec.levels, repetitions=40, seed=seed)
    preamble = [1, 0] * 8
    bers: List[float] = []
    for index in range(messages):
        run_seed = seed * 977 + index
        bench = ChannelTestbench(TestbenchConfig(seed=run_seed))
        layout = bench.l1_layout
        rng = ensure_rng(run_seed)
        message = preamble + random_bits(message_bits - len(preamble),
                                         derive_rng(rng, "msg"))
        schedule = codec.encode_message(message)
        sender_space = bench.new_space(pid=0)
        receiver_space = bench.new_space(pid=1)
        sender_lines = build_set_conflicting_lines(
            sender_space, layout, TARGET_SET, codec.max_dirty_lines
        )
        set_rng = derive_rng(bench.rng, "sets")
        chase_a = PointerChaseList.from_lines(
            build_replacement_set(receiver_space, layout, TARGET_SET, 10, set_rng),
            rng=set_rng,
        )
        chase_b = PointerChaseList.from_lines(
            build_replacement_set(receiver_space, layout, TARGET_SET, 10, set_rng),
            rng=set_rng,
        )
        start = 30000
        sender = WBSenderProgram(
            lines=sender_lines, schedule=schedule, period=PERIOD, start_time=start
        )
        receiver = WBReceiverProgram(
            chase_a=chase_a,
            chase_b=chase_b,
            period=PERIOD,
            start_time=start,
            num_samples=len(schedule) + 4,
            phase=derive_rng(bench.rng, "phase").random(),
        )
        bench.add_thread(0, sender_space, sender, name="wb-sender")
        bench.add_thread(1, receiver_space, receiver, name="wb-receiver")
        if noisy:
            duration = start + (len(schedule) + 6) * PERIOD
            _add_noise_thread(bench, duration, store_fraction, run_seed)
        bench.run()
        levels = decoder.classify_many(receiver.latencies())
        received = codec.decode_message(levels)
        report = evaluate_transmission(message, received, len(preamble), 4)
        bers.append(report.ber)
    return statistics.fmean(bers)


def _baseline_noise_ber(which: str, messages: int, message_bits: int, seed: int,
                        store_fraction: float, noisy: bool) -> float:
    """LRU / Prime+Probe BER, with a noise thread on the noisy arms.

    A noisy arm sends its own message, drawn from the ``"msg"`` stream
    (the quiet arm's runner draws from ``"message"``).
    """
    from repro.common.bits import random_bits
    from repro.common.rng import derive_rng, ensure_rng

    if which == "lru":
        config_cls, runner = LRUChannelConfig, run_lru_channel
    else:
        config_cls, runner = PrimeProbeConfig, run_prime_probe_channel
    bers: List[float] = []
    for index in range(messages):
        run_seed = seed * 971 + index
        config = config_cls(
            period_cycles=PERIOD,
            message_bits=message_bits,
            seed=run_seed,
            target_set=TARGET_SET,
        )
        extra_threads = None
        if noisy:
            preamble = list(config.preamble)
            config.message = preamble + random_bits(
                message_bits - len(preamble),
                derive_rng(ensure_rng(run_seed), "msg"),
            )
            extra_threads = functools.partial(
                _add_noise_thread,
                duration=config.start_time + (message_bits + 6) * PERIOD,
                store_fraction=store_fraction,
                seed=run_seed,
            )
        bers.append(runner(config, extra_threads=extra_threads).bit_error_rate)
    return statistics.fmean(bers)
