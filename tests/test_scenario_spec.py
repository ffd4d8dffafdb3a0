"""ScenarioSpec serialisation, hashing and zoo-drift contracts."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cache.configs import HierarchyParams
from repro.common.errors import ConfigurationError
from repro.scenario import (
    SCENARIO_SCHEMA_VERSION,
    ScenarioSpec,
    expand_campaign,
    library_spec,
    scenario_key,
    verify_zoo,
    zoo_keys,
    zoo_specs,
)
from repro.scenario.compile import compile_scenario
from repro.scenario.spec import (
    BerSweepParams,
    ChannelSpec,
    CodecSpec,
    DefenseEvalParams,
)
from repro.scenario.zoo import campaign_ts_sweep_spec, load_spec_file

REPO_ROOT = Path(__file__).resolve().parent.parent
ZOO_DIR = REPO_ROOT / "scenarios"

ALL_SPECS = sorted(zoo_specs().items())


class TestRoundTrip:
    @pytest.mark.parametrize("name,spec", ALL_SPECS, ids=[n for n, _ in ALL_SPECS])
    def test_compact_json_round_trips(self, name, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("name,spec", ALL_SPECS, ids=[n for n, _ in ALL_SPECS])
    def test_pretty_json_round_trips(self, name, spec):
        assert ScenarioSpec.from_json(spec.to_json(indent=2)) == spec

    @pytest.mark.parametrize("name,spec", ALL_SPECS, ids=[n for n, _ in ALL_SPECS])
    def test_round_trip_preserves_key(self, name, spec):
        assert scenario_key(ScenarioSpec.from_json(spec.to_json())) == scenario_key(spec)

    def test_key_independent_of_formatting(self):
        spec = library_spec("fig6")
        assert ScenarioSpec.from_json(spec.to_json(indent=2)) == ScenarioSpec.from_json(
            spec.to_json()
        )


class TestKeyStability:
    """Canonical hashes are pinned by the committed scenarios/KEYS.json."""

    def test_keys_match_committed_pin_file(self):
        pinned = json.loads((ZOO_DIR / "KEYS.json").read_text(encoding="utf-8"))
        assert pinned == zoo_keys(zoo_specs())

    def test_key_changes_when_spec_changes(self):
        spec = library_spec("fig6")
        bumped = dataclasses.replace(
            spec, params=dataclasses.replace(spec.params, seed_stride=1)
        )
        assert scenario_key(bumped) != scenario_key(spec)


class TestZooDrift:
    def test_committed_zoo_verifies(self):
        specs = verify_zoo(str(ZOO_DIR))
        assert len(specs) >= 8

    def test_zoo_covers_every_library_spec(self):
        committed = {p.stem for p in ZOO_DIR.glob("*.json")} - {"KEYS"}
        for experiment_id in (
            "fig6", "fig7", "fig8", "extension_l2",
            "fault_tolerance", "online_detection", "defenses",
        ):
            assert experiment_id in committed


class TestStrictness:
    def test_unknown_top_level_field_rejected(self):
        data = library_spec("fig7").to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            ScenarioSpec.from_dict(data)

    def test_unknown_nested_field_rejected(self):
        data = library_spec("fig7").to_dict()
        data["channel"]["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            ScenarioSpec.from_dict(data)

    def test_unknown_params_field_rejected(self):
        data = library_spec("fig6").to_dict()
        data["params"]["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            ScenarioSpec.from_dict(data)

    def test_missing_schema_version_rejected(self):
        data = library_spec("fig7").to_dict()
        del data["schema_version"]
        with pytest.raises(ConfigurationError, match="schema_version"):
            ScenarioSpec.from_dict(data)

    def test_stale_schema_version_rejected(self):
        data = library_spec("fig7").to_dict()
        data["schema_version"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="schema_version"):
            ScenarioSpec.from_dict(data)

    def test_unknown_kind_rejected(self):
        data = library_spec("fig7").to_dict()
        data["kind"] = "wb_mystery"
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            ScenarioSpec.from_dict(data)

    def test_params_type_must_match_kind(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x",
                kind="wb_trace",
                params=BerSweepParams(periods=(1000,)),
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_bad_codec_fails_validate(self):
        spec = dataclasses.replace(
            library_spec("fig7"), channel=ChannelSpec(codec=CodecSpec(kind="morse"))
        )
        with pytest.raises(ConfigurationError):
            spec.validate()


class TestDefenseSubset:
    def test_a_subset_evaluates_only_its_defenses(self, monkeypatch):
        from repro.defenses import evaluation

        evaluated = []

        def stub(name, seeds):
            evaluated.append(name)
            return name

        monkeypatch.setattr(evaluation, "evaluate_defense", stub)
        spec = dataclasses.replace(
            library_spec("defenses"),
            params=DefenseEvalParams(defenses=("plcache", "partitioned")),
        )
        measurement = compile_scenario(spec, "quick", 0).measure()
        assert evaluated == ["partitioned", "plcache"]
        assert measurement.reports == ("partitioned", "plcache")


class TestDefenseEvalFields:
    @pytest.mark.parametrize(
        "change",
        [{"hierarchy": HierarchyParams.xeon()}, {"channel": ChannelSpec(target_set=5)}],
        ids=["hierarchy", "channel"],
    )
    def test_unread_field_off_its_default_rejected(self, change):
        # defense_eval reads neither field; the committed spec (validated
        # on load) holds both defaults.
        committed = load_spec_file(ZOO_DIR / "defenses.json")
        with pytest.raises(ConfigurationError, match="defense_eval builds its own"):
            dataclasses.replace(committed, **change).validate()


class TestCampaignExpansion:
    def test_expands_one_child_per_period(self):
        campaign = campaign_ts_sweep_spec()
        children = expand_campaign(campaign)
        assert len(children) == len(campaign.params.periods)
        for child, period in zip(children, campaign.params.periods):
            assert child.params.periods == (period,)
            assert child.name == f"{campaign.name}--ts{period}"
            # Each child is a complete spec with its own content address.
            assert scenario_key(child) != scenario_key(campaign)

    def test_single_period_sweep_is_its_own_campaign(self):
        campaign = campaign_ts_sweep_spec()
        single = dataclasses.replace(
            campaign, params=dataclasses.replace(campaign.params, periods=(5500,))
        )
        assert expand_campaign(single) == [single]

    def test_non_sweep_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="wb_ber_sweep"):
            expand_campaign(library_spec("fig7"))
