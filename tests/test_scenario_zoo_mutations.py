"""Every one-field mutation of the committed zoo parses or fails typed.

For each spec in ``scenarios/*.json``, each path below the root (objects,
lists and scalars alike) and each value in :data:`VALUES`, the mutated
spec must either survive ``ScenarioSpec.from_dict`` → ``validate()`` →
``to_json()`` or raise a :class:`~repro.common.errors.ReproError`.  An
untyped error here is what ``POST /jobs`` answers with a 500 instead of
a 400.

Only the standard library is imported here, so the test also runs as a
plain function call on an interpreter without pytest::

    python -c "import sys; sys.path[:0] = ['src', '.'];
    from tests.test_scenario_zoo_mutations import
    test_every_zoo_mutation_is_valid_or_a_typed_error as t; t()"
"""

import copy
import json
import pathlib
import traceback

from repro.common.errors import ReproError
from repro.scenario.spec import ScenarioSpec

ZOO = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

#: What each path is set to in turn: wrong types, edge numbers and
#: strings a JSON body can carry.
VALUES = (
    None, "x", "", -1, 0, 1, 3, 2.5, -0.5, 1e12, 10**12, [], {}, True,
    False, [1], {"a": 1}, "nan", float("inf"),
)


def _paths(node, prefix=()):
    """Every path below ``node``: object keys and list indexes."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(spec, path, value):
    data = copy.deepcopy(spec)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def test_every_zoo_mutation_is_valid_or_a_typed_error():
    specs = {
        path.name: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(ZOO.glob("*.json"))
        if path.name != "KEYS.json"
    }
    assert len(specs) >= 13
    cases = 0
    escapes = []
    for name, spec in specs.items():
        for path in _paths(spec):
            for value in VALUES:
                cases += 1
                try:
                    scenario = ScenarioSpec.from_dict(
                        _mutated(spec, path, value)
                    )
                    scenario.validate()
                    scenario.to_json()
                except ReproError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected below
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    escapes.append(
                        f"{name} {list(path)} = {value!r}: "
                        f"{type(exc).__name__} at "
                        f"{pathlib.Path(where.filename).name}:{where.lineno}"
                    )
    assert cases > 10_000
    assert not escapes, f"{len(escapes)} untyped errors:\n" + "\n".join(
        escapes[:20]
    )
