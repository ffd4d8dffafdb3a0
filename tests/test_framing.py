"""Frame format and scanner recovery (repro.channels.wb.framing)."""

import pytest

from repro.channels.coding import crc_bits
from repro.channels.wb.framing import (
    DEFAULT_SYNC,
    FrameConfig,
    encode_frame,
    encode_payload,
    scan_frames,
)
from repro.common.bits import int_to_bits, random_bits
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import ensure_rng


def payload_for(seq: int, width: int = 8):
    return int_to_bits((seq * 37 + 11) % 256, width)


class TestFrameConfig:
    def test_default_geometry(self):
        config = FrameConfig()
        # seq(4) + payload(8) + CRC(8) = 20 data bits -> 5 Hamming(7,4)
        # blocks = 35 code bits, plus the 8-bit sync word.
        assert config.body_data_bits == 20
        assert config.body_code_bits == 35
        assert config.frame_bits == 43
        assert config.max_frames == 16
        assert config.max_payload_bits == 128
        assert config.overhead() == pytest.approx(43 / 8)

    def test_sync_is_barker7_padded(self):
        assert DEFAULT_SYNC == (1, 1, 1, 0, 0, 1, 0, 0)

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ConfigurationError):
            FrameConfig(payload_bits=0)
        with pytest.raises(ConfigurationError):
            FrameConfig(seq_bits=0)
        with pytest.raises(ConfigurationError):
            FrameConfig(crc_width=0)

    def test_rejects_bad_sync_tolerance(self):
        with pytest.raises(ConfigurationError):
            FrameConfig(sync_tolerance=len(DEFAULT_SYNC))
        with pytest.raises(ConfigurationError):
            FrameConfig(sync_tolerance=-1)

    def test_rejects_body_not_whole_fec_blocks(self):
        # 4 + 7 + 8 = 19 bits does not divide into 4-bit Hamming blocks.
        with pytest.raises(ConfigurationError):
            FrameConfig(payload_bits=7)


class TestEncode:
    def test_frame_bit_budget(self):
        config = FrameConfig()
        frame = encode_frame(config, 3, payload_for(3))
        assert len(frame) == config.frame_bits
        assert frame[: len(config.sync)] == list(config.sync)

    def test_seq_out_of_range(self):
        config = FrameConfig()
        with pytest.raises(ProtocolError):
            encode_frame(config, config.max_frames, payload_for(0))
        with pytest.raises(ProtocolError):
            encode_frame(config, -1, payload_for(0))

    def test_wrong_payload_width(self):
        with pytest.raises(ProtocolError):
            encode_frame(FrameConfig(), 0, [1, 0, 1])

    def test_payload_split_and_padding(self):
        config = FrameConfig()
        payload = random_bits(20, ensure_rng(5))  # 2.5 frames -> 3 frames
        frames = encode_payload(config, payload)
        assert len(frames) == 3
        assert all(len(frame) == config.frame_bits for frame in frames)
        result = scan_frames(config, [bit for frame in frames for bit in frame])
        assert sorted(result.payloads) == [0, 1, 2]
        reassembled = (
            result.payloads[0] + result.payloads[1] + result.payloads[2]
        )
        # The trailing frame is zero-padded to a whole payload.
        assert reassembled == list(payload) + [0] * 4

    def test_empty_and_oversized_payloads_rejected(self):
        config = FrameConfig()
        with pytest.raises(ProtocolError):
            encode_payload(config, [])
        with pytest.raises(ProtocolError):
            encode_payload(config, [0] * (config.max_payload_bits + 1))


class TestScanner:
    def test_clean_round_trip(self):
        config = FrameConfig()
        stream = []
        sent = {}
        for seq in range(8):
            sent[seq] = payload_for(seq)
            stream += encode_frame(config, seq, sent[seq])
        result = scan_frames(config, stream)
        assert result.recovered == 8
        assert result.crc_failures == 0
        assert result.resync_bits == 0
        assert result.duplicates == 0
        assert {seq: list(bits) for seq, bits in result.payloads.items()} == sent

    def test_single_bit_flip_in_sync_is_tolerated(self):
        config = FrameConfig()
        frame = encode_frame(config, 2, payload_for(2))
        frame[0] ^= 1  # inside the sync word
        result = scan_frames(config, frame)
        assert result.payloads == {2: payload_for(2)}

    def test_single_bit_flip_in_body_is_fec_corrected(self):
        config = FrameConfig()
        frame = encode_frame(config, 2, payload_for(2))
        frame[len(config.sync) + 3] ^= 1  # one flip in one Hamming block
        result = scan_frames(config, frame)
        assert result.payloads == {2: payload_for(2)}
        assert result.crc_failures == 0

    def test_bit_deletion_resyncs_at_next_frame(self):
        config = FrameConfig()
        frames = [encode_frame(config, seq, payload_for(seq)) for seq in range(4)]
        stream = [bit for frame in frames for bit in frame]
        del stream[config.frame_bits + 5]  # slip inside frame 1
        result = scan_frames(config, stream)
        recovered = set(result.payloads)
        # Frame 1 is the casualty; everything before and after survives.
        assert 0 in recovered
        assert {2, 3} <= recovered
        assert result.resync_bits > 0

    def test_bit_insertion_resyncs_at_next_frame(self):
        config = FrameConfig()
        frames = [encode_frame(config, seq, payload_for(seq)) for seq in range(4)]
        stream = [bit for frame in frames for bit in frame]
        stream.insert(config.frame_bits + 9, 1)
        result = scan_frames(config, stream)
        assert 0 in result.payloads
        assert {2, 3} <= set(result.payloads)

    def test_duplicates_deduplicate_first_copy_wins(self):
        config = FrameConfig()
        frame = encode_frame(config, 5, payload_for(5))
        result = scan_frames(config, frame + frame + frame)
        assert result.payloads == {5: payload_for(5)}
        assert result.duplicates == 2

    def test_garbage_prefix_costs_only_resync_bits(self):
        config = FrameConfig()
        frame = encode_frame(config, 1, payload_for(1))
        noise = random_bits(29, ensure_rng(9))
        result = scan_frames(config, list(noise) + frame)
        assert result.payloads.get(1) == payload_for(1)
        assert result.scanned_bits == 29 + config.frame_bits


class TestCrc:
    def test_crc_round_trip(self):
        bits = random_bits(20, ensure_rng(1))
        checksum = crc_bits(bits)
        assert len(checksum) == 8
        # Message + remainder divides evenly: the receiver's zero residue.
        assert crc_bits(bits + checksum) == [0] * 8

    def test_crc_detects_any_single_bit_flip(self):
        bits = list(random_bits(20, ensure_rng(2)))
        checksum = crc_bits(bits)
        for position in range(len(bits)):
            corrupted = list(bits)
            corrupted[position] ^= 1
            assert crc_bits(corrupted) != checksum

    def test_crc_detects_burst_errors_up_to_width(self):
        bits = list(random_bits(32, ensure_rng(3)))
        checksum = crc_bits(bits)
        for start in range(len(bits) - 8):
            corrupted = list(bits)
            for offset in range(8):  # any burst <= CRC width is caught
                corrupted[start + offset] ^= 1
            assert crc_bits(corrupted) != checksum

    def test_crc_validation(self):
        with pytest.raises(ConfigurationError):
            crc_bits([1, 0], width=0)
        with pytest.raises(ConfigurationError):
            crc_bits([1, 0], width=8, poly=0x100)
        with pytest.raises(ProtocolError):
            crc_bits([1, 2])
