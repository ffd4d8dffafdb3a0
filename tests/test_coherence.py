"""The MESI coherence subsystem: protocol semantics, invariants, parity.

Three layers of assurance:

* unit tests pin every protocol transition (E on cold fill, S on
  sharing, M on store, downgrade write-backs on remote access) and the
  latencies the cross-core channel depends on;
* a seeded property fuzz drives random multi-core access streams and
  re-checks the MESI invariants (single M/E holder, dirty implies M,
  L2 inclusion) after **every** step, over 2- and 4-core topologies on
  both engines;
* a differential parity section extends the ``test_engine_parity``
  contract to coherent hierarchies: the fast engine must reproduce the
  reference engine access for access.
"""

import random

import dataclasses
import pytest

from repro.cache.configs import HierarchyParams, make_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.coherence import (
    CoherentHierarchy,
    Directory,
    MESIState,
    make_coherent_hierarchy,
)
from repro.common.errors import ConfigurationError, SimulationError

SEED = 4321
LINE = 64


def tiny_coherent(cores=2, engine="reference", seed=SEED):
    params = dataclasses.replace(HierarchyParams.tiny(), cores=cores)
    return params.build(rng=random.Random(seed), engine=engine)


def xeon_coherent(cores=2, engine="reference", seed=SEED):
    return HierarchyParams.xeon(cores=cores).build(
        rng=random.Random(seed), engine=engine
    )


class TestDirectory:
    def test_cold_directory_is_empty(self):
        directory = Directory(LINE)
        assert len(directory) == 0
        assert directory.state(0, 0x1000) is None
        assert directory.holders(0x1000) == []

    def test_sub_line_addresses_alias_to_one_entry(self):
        directory = Directory(LINE)
        directory.set_state(0, 0x1000, MESIState.MODIFIED)
        assert directory.state(0, 0x103F) is MESIState.MODIFIED
        assert directory.holders(0x1020) == [0]

    def test_exclusive_grant_with_other_holders_raises(self):
        directory = Directory(LINE)
        directory.set_state(0, 0x1000, MESIState.SHARED)
        with pytest.raises(SimulationError):
            directory.set_state(1, 0x1000, MESIState.MODIFIED)

    def test_clear_is_idempotent_and_drops_empty_entries(self):
        directory = Directory(LINE)
        directory.set_state(0, 0x1000, MESIState.EXCLUSIVE)
        directory.clear(0, 0x1000)
        directory.clear(0, 0x1000)
        assert len(directory) == 0

    def test_check_rejects_multiple_exclusive_holders(self):
        directory = Directory(LINE)
        # Bypass set_state's guard to plant an illegal configuration.
        directory._entries[0x1000] = {
            0: MESIState.MODIFIED,
            1: MESIState.SHARED,
        }
        with pytest.raises(SimulationError):
            directory.check()

    def test_line_size_must_be_power_of_two(self):
        with pytest.raises(SimulationError):
            Directory(48)


class TestProtocolTransitions:
    def test_cold_load_fills_exclusive(self):
        h = xeon_coherent()
        trace = h.load(0x4000, owner=0)
        assert trace.hit_level == 99  # memory
        assert h.directory.state(0, 0x4000) is MESIState.EXCLUSIVE
        h.check_invariants()

    def test_store_makes_modified_and_dirty(self):
        h = xeon_coherent()
        h.load(0x4000, owner=0)
        h.store(0x4000, owner=0)
        assert h.directory.state(0, 0x4000) is MESIState.MODIFIED
        assert h.l1_of(0).is_dirty(0x4000)
        h.check_invariants()

    def test_second_reader_shares(self):
        h = xeon_coherent()
        h.load(0x4000, owner=0)
        h.load(0x4000, owner=1)
        assert h.directory.state(0, 0x4000) is MESIState.SHARED
        assert h.directory.state(1, 0x4000) is MESIState.SHARED
        assert h.coherence.downgrades_e_to_s == 1
        h.check_invariants()

    def test_remote_read_of_modified_line_downgrades_with_writeback(self):
        """The cross-core timing signal: M -> S costs a write-back."""
        h = xeon_coherent()
        h.load(0x4000, owner=0)
        h.store(0x4000, owner=0)
        wb_before = h.stats.level(1, 0).writebacks
        trace = h.load(0x4000, owner=1)
        assert h.coherence.downgrades_m_to_s == 1
        assert h.coherence.coherence_writebacks == 1
        # L2 hit (11) + downgrade write-back (11) + jitter in [0, 1].
        assert 22 <= trace.latency <= 23
        assert trace.hit_level == 2
        # Both copies now Shared, neither dirty; the L2 holds the data.
        assert h.directory.state(0, 0x4000) is MESIState.SHARED
        assert h.directory.state(1, 0x4000) is MESIState.SHARED
        assert not h.l1_of(0).is_dirty(0x4000)
        assert h.shared[0].is_dirty(0x4000)
        # The drained copy is accounted to the core that held it dirty.
        assert h.stats.level(1, 0).writebacks == wb_before + 1
        h.check_invariants()

    def test_clean_remote_read_is_cheap(self):
        """A line the sender never dirtied decodes as a fast (re)load."""
        h = xeon_coherent()
        h.load(0x4000, owner=0)
        h.load(0x4000, owner=1)
        trace = h.load(0x4000, owner=1)
        assert trace.hit_level == 1
        assert trace.latency <= 6

    def test_remote_write_invalidates_modified_line(self):
        h = xeon_coherent()
        h.load(0x4000, owner=0)
        h.store(0x4000, owner=0)
        h.store(0x4000, owner=1)
        assert h.directory.state(0, 0x4000) is None
        assert h.directory.state(1, 0x4000) is MESIState.MODIFIED
        assert h.coherence.downgrades_m_to_i == 1
        assert h.coherence.invalidations == 1
        assert not h.l1_of(0).probe(0x4000)
        h.check_invariants()

    def test_store_upgrade_invalidates_sharers_without_writeback(self):
        h = xeon_coherent()
        h.load(0x4000, owner=0)
        h.load(0x4000, owner=1)
        wb_before = h.coherence.coherence_writebacks
        h.store(0x4000, owner=0)
        assert h.directory.state(0, 0x4000) is MESIState.MODIFIED
        assert h.directory.state(1, 0x4000) is None
        assert h.coherence.upgrades_s_to_m == 1
        # Clean S copies are dropped silently: no data to drain.
        assert h.coherence.coherence_writebacks == wb_before
        h.check_invariants()

    def test_owner_maps_to_core_modulo(self):
        h = xeon_coherent(cores=2)
        assert h.core_of(None) == 0
        assert h.core_of(0) == 0
        assert h.core_of(1) == 1
        assert h.core_of(2) == 0
        assert h.core_of(5) == 1

    def test_l1_capacity_eviction_of_modified_writes_back(self):
        h = tiny_coherent()  # 2-way L1, 4 sets: 3 same-set lines evict
        step = LINE * 4  # stride of one L1 set wrap
        addresses = [0x8000 + i * step for i in range(3)]
        h.load(addresses[0], owner=0)
        h.store(addresses[0], owner=0)
        h.load(addresses[1], owner=0)
        h.load(addresses[2], owner=0)  # evicts the dirty line
        assert h.directory.state(0, addresses[0]) is None
        assert h.shared[0].is_dirty(addresses[0])
        h.check_invariants()


class TestBuilderAndConfig:
    def test_cores_1_builds_the_historic_hierarchy(self):
        h = HierarchyParams.xeon().build(rng=random.Random(SEED))
        assert isinstance(h, CacheHierarchy)
        assert not isinstance(h, CoherentHierarchy)

    def test_cores_2_builds_a_coherent_hierarchy(self):
        h = xeon_coherent(cores=2)
        assert isinstance(h, CoherentHierarchy)
        assert h.num_cores == 2
        assert len(h.l1s) == 2
        assert h.l1 is h.l1s[0]
        assert [level.name for level in h.levels[1:]] == ["L2", "LLC"]

    def test_cores_1_serialisation_is_unchanged(self):
        """The key-stability contract: no ``cores`` key at cores=1."""
        assert "cores" not in HierarchyParams.xeon().to_dict()
        assert "cores" not in HierarchyParams.tiny().to_dict()

    def test_multicore_serialisation_round_trips(self):
        params = HierarchyParams.xeon(cores=4)
        data = params.to_dict()
        assert data["cores"] == 4
        assert HierarchyParams.from_dict(data) == params

    def test_cores_default_on_from_dict_is_1(self):
        data = HierarchyParams.xeon().to_dict()
        assert HierarchyParams.from_dict(data).cores == 1

    def test_invalid_core_counts_raise(self):
        with pytest.raises(ConfigurationError):
            HierarchyParams.xeon(cores=0)
        with pytest.raises(ConfigurationError):
            make_coherent_hierarchy(
                cores=1,
                levels=HierarchyParams.tiny().levels,
                line_size=64,
            )

    def test_multicore_needs_a_shared_level(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(
                HierarchyParams.tiny(),
                levels=HierarchyParams.tiny().levels[:1],
                cores=2,
            )

    def test_per_core_l1s_use_distinct_rng_streams(self):
        h = xeon_coherent(cores=2)
        names = [l1.name for l1 in h.l1s]
        assert names == ["L1D-c0", "L1D-c1"]


def random_stream(rng, cores, length, lines):
    """A seeded multi-core access stream over a bounded line pool."""
    pool = [0x10000 + index * LINE for index in range(lines)]
    for _ in range(length):
        yield (
            rng.choice(pool),
            rng.random() < 0.35,
            rng.randrange(cores),
        )


class TestMESIInvariantFuzz:
    """Satellite (b): invariants hold after every step of random streams."""

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("cores", [2, 4])
    def test_tiny_hierarchy_fuzz(self, cores, engine):
        """Small caches: constant evictions, back-invalidations, sharing."""
        h = tiny_coherent(cores=cores, engine=engine)
        rng = random.Random(SEED + cores)
        for address, write, owner in random_stream(rng, cores, 1500, 96):
            h.access(address, write=write, owner=owner)
            h.check_invariants()
        assert h.coherence.coherence_writebacks > 0
        assert h.coherence.back_invalidations > 0

    @pytest.mark.parametrize("cores", [2, 4])
    def test_xeon_hierarchy_fuzz(self, cores):
        """Paper geometry: sharing-heavy stream."""
        h = xeon_coherent(cores=cores)
        rng = random.Random(SEED * cores)
        for address, write, owner in random_stream(rng, cores, 800, 48):
            h.access(address, write=write, owner=owner)
            h.check_invariants()
        assert h.coherence.downgrades_m_to_s > 0
        assert h.coherence.upgrades_s_to_m > 0


class TestCoherentEngineParity:
    """The fast engine must replicate the reference engine under MESI."""

    @pytest.mark.parametrize("cores", [2, 4])
    def test_random_stream_parity(self, cores):
        reference = tiny_coherent(cores=cores, engine="reference")
        fast = tiny_coherent(cores=cores, engine="fast")
        rng = random.Random(SEED)
        stream = list(random_stream(rng, cores, 2000, 96))
        for address, write, owner in stream:
            trace_ref = reference.access(address, write=write, owner=owner)
            trace_fast = fast.access(address, write=write, owner=owner)
            assert (
                trace_ref.hit_level,
                trace_ref.latency,
                trace_ref.l1_victim_dirty,
            ) == (
                trace_fast.hit_level,
                trace_fast.latency,
                trace_fast.l1_victim_dirty,
            )
        assert reference.stats.snapshot() == fast.stats.snapshot()
        assert (
            reference.coherence.snapshot() == fast.coherence.snapshot()
        )
        assert reference.directory.snapshot() == fast.directory.snapshot()
        for cache_ref, cache_fast in zip(
            list(reference.l1s) + reference.shared,
            list(fast.l1s) + fast.shared,
        ):
            for set_ref, set_fast in zip(cache_ref.sets, cache_fast.sets):
                assert set_ref.way_states() == set_fast.way_states()

    def test_xeon_parity_smoke(self):
        reference = xeon_coherent(engine="reference")
        fast = xeon_coherent(engine="fast")
        rng = random.Random(SEED + 7)
        for address, write, owner in random_stream(rng, 2, 600, 32):
            trace_ref = reference.access(address, write=write, owner=owner)
            trace_fast = fast.access(address, write=write, owner=owner)
            assert trace_ref.latency == trace_fast.latency
        assert reference.stats.snapshot() == fast.stats.snapshot()
