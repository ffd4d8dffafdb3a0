"""Generated scenario specs round-trip, keep their key and compile or fail typed.

The strategies walk the same dataclass fields and resolved type hints as
the spec codec (:mod:`repro.common.records`): every field of every node is
drawn by its type, with bounded ints, short tuples and, for the string
fields a spec checks, each class's allowed values.  A field with a
default may be left out, so the drawn object also exercises the
defaults.  Draws that a node's ``__post_init__`` rejects are discarded.
"""

import dataclasses
import json
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, ReproError
from repro.common.records import Number, Record
from repro.defenses.evaluation import available_defenses
from repro.replacement import available_policies
from repro.scenario.compile import compile_scenario
from repro.scenario.spec import (
    _PARAMS_TYPES,
    SCENARIO_KINDS,
    SCENARIO_SCHEMA_VERSION,
    ScenarioSpec,
    scenario_key,
)

INTS = st.integers(min_value=-1, max_value=64)
FLOATS = st.floats(min_value=0.0, max_value=1.0)
SUSPECTS = st.sampled_from(("benign", "wb", "lru"))

#: Fields drawn from their class's allowed values (or a tighter range)
#: instead of from their type alone, keyed by (class, field).
FIELDS = {
    ("CodecSpec", "kind"): st.sampled_from(("binary", "multibit")),
    ("CodecSpec", "level_map"): st.none() | st.dictionaries(
        st.sampled_from(("0", "1", "2", "3")), INTS, max_size=4
    ),
    ("SenderSpec", "kind"): st.just("wb_paced_store"),
    ("ReceiverSpec", "kind"): st.just("wb_probe"),
    ("CoRunnerSpec", "kind"): st.just("periodic_prober"),
    ("ChannelSpec", "level"): st.sampled_from(("l1", "l2")),
    ("DetectorSpec", "kind"): st.sampled_from(("miss_rate", "writeback_burst")),
    ("OnlineDetectionParams", "suspects"): st.lists(
        SUSPECTS, min_size=1, max_size=3
    ).map(tuple),
    ("ClosedLoopParams", "suspects"): st.lists(
        SUSPECTS, min_size=1, max_size=3
    ).map(tuple),
    ("ClosedLoopParams", "fusion_k"): st.integers(min_value=1, max_value=3),
    ("ClosedLoopParams", "defense"): st.sampled_from(
        ("write_through", "partition")
    ),
    ("DefenseEvalParams", "defenses"): st.none() | st.lists(
        st.sampled_from(available_defenses()), min_size=1, max_size=3
    ).map(tuple),
    ("LevelParams", "size_bytes"): st.sampled_from(
        (-1, 0, 96, 512, 4096, 32768, 262144)
    ),
    ("LevelParams", "ways"): st.integers(min_value=-1, max_value=17),
    ("LevelParams", "policy"): st.sampled_from(available_policies()),
    ("LevelParams", "write_policy"): st.sampled_from(
        ("write-back", "write-through")
    ),
    ("LevelParams", "allocation_policy"): st.sampled_from(
        ("write-allocate", "no-write-allocate")
    ),
    ("HierarchyParams", "line_size"): st.sampled_from((0, 48, 64)),
    ("HierarchyParams", "cores"): st.integers(min_value=0, max_value=4),
    ("ScenarioSpec", "name"): st.text(min_size=1, max_size=8),
    ("ScenarioSpec", "schema_version"): st.just(SCENARIO_SCHEMA_VERSION),
}


def _for_hint(hint, where):
    """A strategy for one field's value, from its type hint."""
    if where in FIELDS:
        return FIELDS[where]
    if hint == Number:
        return st.integers(min_value=0, max_value=1) | FLOATS
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        (inner,) = (arg for arg in args if arg is not type(None))
        return st.none() | _for_hint(inner, where)
    if origin is tuple:
        return st.lists(_for_hint(args[0], where), min_size=1, max_size=3).map(
            tuple
        )
    if issubclass(hint, Record):
        return records(hint)
    return {int: INTS, float: FLOATS, bool: st.booleans(), str: st.text(max_size=8)}[
        hint
    ]


def _construct(cls, kwargs):
    try:
        return cls(**kwargs)
    except ConfigurationError:
        return None


def records(cls, **overrides):
    """Instances of ``cls``; a field with a default may be left out."""
    hints = typing.get_type_hints(cls)
    required, optional = {}, {}
    for field in dataclasses.fields(cls):
        if field.name in overrides:
            strategy = overrides[field.name]
        else:
            strategy = _for_hint(hints[field.name], (cls.__name__, field.name))
        has_default = (
            field.default is not dataclasses.MISSING
            or field.default_factory is not dataclasses.MISSING
        )
        (optional if has_default else required)[field.name] = strategy
    return (
        st.fixed_dictionaries(required, optional=optional)
        .map(lambda kwargs: _construct(cls, kwargs))
        .filter(lambda record: record is not None)
    )


def _shuffled(data, rng):
    """``data`` with the keys of every object in a shuffled order."""
    if isinstance(data, dict):
        keys = list(data)
        rng.shuffle(keys)
        return {key: _shuffled(data[key], rng) for key in keys}
    if isinstance(data, list):
        return [_shuffled(item, rng) for item in data]
    return data


#: One spec strategy per scenario kind.
SPECS = {
    kind: records(
        ScenarioSpec, kind=st.just(kind), params=records(_PARAMS_TYPES[kind])
    )
    for kind in SCENARIO_KINDS
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_generated_spec_round_trips_keeps_its_key_and_compiles(kind, data):
    spec = data.draw(SPECS[kind])
    assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    shuffled = _shuffled(spec.to_dict(), random.Random(data.draw(st.integers())))
    reread = ScenarioSpec.from_dict(json.loads(json.dumps(shuffled)))
    assert scenario_key(reread) == scenario_key(spec)

    try:
        compile_scenario(spec, "quick", 0)
    except ReproError:
        pass
