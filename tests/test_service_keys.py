"""Cache-key canonicalisation: stability, sensitivity, the pinned digest."""

import hashlib

import pytest

from repro.common import canonical_json
from repro.common.canonical import canonical_digest
from repro.experiments.base import SCHEMA_VERSION
from repro.experiments.profiles import RunProfile
from repro.service.keys import KEY_SCHEMA_VERSION, cache_key, key_material


class TestCacheKey:
    def test_key_is_sha256_hex(self):
        key = cache_key("fig6", profile="quick", seed=3)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_key_is_stable_across_calls(self):
        first = cache_key("fig6", profile="quick", seed=3)
        second = cache_key("fig6", profile=RunProfile("quick", reduced=True),
                           seed=3)
        assert first == second

    def test_every_input_perturbs_the_key(self):
        base = cache_key("fig6", profile="quick", seed=0)
        assert cache_key("fig7", profile="quick", seed=0) != base
        assert cache_key("fig6", profile="full", seed=0) != base
        assert cache_key("fig6", profile="quick", seed=1) != base
        assert cache_key(
            "fig6", profile="quick", seed=0,
            entry_point="tests.fake_experiments:well_behaved",
        ) != base

    def test_engine_knob_perturbs_the_key(self):
        # Engines produce bit-identical results, but the profile is part
        # of the declared key material — keys stay conservative.
        reference = RunProfile("quick", reduced=True, engine="reference")
        fast = RunProfile("quick", reduced=True, engine="fast")
        assert (cache_key("fig6", profile=reference)
                != cache_key("fig6", profile=fast))

    def test_stored_key_is_pinned(self):
        # A stored blob is found only under the key it was written with:
        # any change to the key material or its digest strands every
        # blob in every store.
        assert cache_key("fig6", profile="quick", seed=0) == (
            "3933013ae59d8f32534f52eea567a4b4103dcdc5ee443603c07cba485eff1e9d"
        )
        assert key_material("fig6", profile="quick", seed=0)["wb_config"] is None

    def test_material_carries_both_schema_versions(self):
        material = key_material("fig6", profile="quick", seed=0)
        assert material["key_schema_version"] == KEY_SCHEMA_VERSION
        assert material["result_schema_version"] == SCHEMA_VERSION
        # The material must canonicalise under the strict version check.
        canonical_json(material, require_version=True)


class TestCanonicalDigest:
    @pytest.mark.parametrize("payload", [
        {"b": [1, {"c": None, "a": [True, False]}], "a": {"z": {}, "y": []}},
        {"rate_kbps": 1375.0, "ber": 0.04166666666666666, "tiny": 1e-300},
        {"name": "Zürich ☃ 日本", "emoji": "🔑", "escape": "\u0000\n"},
    ], ids=["nested", "float", "non_ascii"])
    def test_digest_is_hashlib_sha256_of_the_canonical_bytes(self, payload):
        # The built-in SHA-256 module must give hashlib's digest, or every
        # stored key would move.
        expected = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        assert canonical_digest(payload) == expected
