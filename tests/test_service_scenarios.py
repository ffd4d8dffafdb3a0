"""Declarative scenario jobs over the service, and the error envelope."""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cache.configs import HierarchyParams
from repro.experiments.base import ExperimentResult
from repro.scenario import ScenarioSpec, run_scenario
from repro.scenario.spec import (
    BerSweepParams,
    ChannelSpec,
    CodecSpec,
    Counts,
    CrossCoreParams,
    SCENARIO_SCHEMA_VERSION,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServiceApp, make_server
from repro.service.scheduler import JobSpec
from repro.service.store import ResultStore


RANDOM_L1_TRACE = (
    Path(__file__).resolve().parent.parent / "scenarios" / "random-l1-trace.json"
)


def tiny_sweep_spec() -> ScenarioSpec:
    """A scenario cheap enough to compute inside an HTTP test."""
    return ScenarioSpec(
        name="http-tiny-sweep",
        kind="wb_ber_sweep",
        title="One-period smoke sweep",
        channel=ChannelSpec(codec=CodecSpec(kind="binary", d_on=2)),
        params=BerSweepParams(
            periods=(11000,),
            messages=Counts(1, 2),
            message_bits=Counts(16, 32),
            calibration_repetitions=Counts(5, 10),
        ),
    )


def tiny_cross_core_spec() -> ScenarioSpec:
    """A 2-core coherence scenario cheap enough for an HTTP test."""
    return ScenarioSpec(
        name="http-cross-core",
        kind="cross_core_wb",
        title="Cross-core smoke transmission",
        channel=ChannelSpec(codec=CodecSpec(kind="binary", d_on=4)),
        hierarchy=HierarchyParams.xeon(cores=2),
        params=CrossCoreParams(
            messages=Counts(1, 1),
            message_bits=Counts(20, 24),
            calibration_repetitions=Counts(8, 10),
            benign_periods=Counts(24, 32),
        ),
    )


@pytest.fixture
def service(tmp_path):
    store = ResultStore(tmp_path / "store")
    app = ServiceApp(store, workers=2, queue_depth=8)
    with app:
        server = make_server(app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield ServiceClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()


class TestScenarioJobs:
    def test_inline_scenario_runs_and_serves_result(self, service):
        spec = tiny_sweep_spec()
        job = service.submit_scenario(spec, profile="quick", wait=True)
        assert job["state"] == "done"
        assert job["experiment_id"] == "scenario:http-tiny-sweep"
        assert job["scenario"] == {"name": "http-tiny-sweep", "kind": "wb_ber_sweep"}
        served = service.result(str(job["result_key"]))
        assert isinstance(served, ExperimentResult)
        direct = run_scenario(spec, profile="quick", seed=0)
        assert served.to_json() == direct.to_json()

    def test_identical_scenario_resubmission_hits_the_store(self, service):
        spec_dict = tiny_sweep_spec().to_dict()
        first = service.submit_scenario(spec_dict, profile="quick", wait=True)
        computations = service.healthz()["scheduler"]["computations"]
        # Same content, different dict ordering: the canonical key must
        # still collide, so the resubmission is a store hit.
        reordered = dict(reversed(list(spec_dict.items())))
        second = service.submit_scenario(reordered, profile="quick", wait=True)
        assert second["state"] == "done"
        assert second["source"] == "store"
        assert second["result_key"] == first["result_key"]
        assert service.healthz()["scheduler"]["computations"] == computations

    def test_inline_cross_core_scenario_round_trips(self, service):
        """POST /jobs with a multi-core topology decodes across cores."""
        spec = tiny_cross_core_spec()
        job = service.submit_scenario(spec, profile="quick", wait=True)
        assert job["state"] == "done"
        assert job["experiment_id"] == "scenario:http-cross-core"
        assert job["scenario"] == {
            "name": "http-cross-core",
            "kind": "cross_core_wb",
        }
        served = service.result(str(job["result_key"]))
        assert isinstance(served, ExperimentResult)
        assert served.params["all_payloads_intact"] is True
        assert served.params["cores"] == 2
        assert served.params["coherence"]["coherence_writebacks"] > 0

    def test_cores_1_key_schema_is_unchanged(self):
        """An explicit cores=1 hierarchy serialises without a ``cores``
        key, so every pre-coherence job key stays stable."""
        spec_dict = tiny_sweep_spec().to_dict()
        explicit = ScenarioSpec.from_dict(spec_dict)
        assert explicit.hierarchy is None
        single = HierarchyParams.xeon()
        assert "cores" not in single.to_dict()
        assert (
            JobSpec.create(profile="quick", scenario=tiny_sweep_spec()).key
            == JobSpec.create(profile="quick", scenario=explicit).key
        )

    def test_scenario_and_experiment_keys_never_collide(self):
        spec = tiny_sweep_spec()
        scenario_job = JobSpec.create(profile="quick", scenario=spec)
        plain_job = JobSpec.create(
            scenario_job.experiment_id, profile="quick"
        )
        assert scenario_job.key != plain_job.key

    def test_different_seeds_get_different_keys(self):
        spec = tiny_sweep_spec()
        assert (
            JobSpec.create(profile="quick", scenario=spec, seed=0).key
            != JobSpec.create(profile="quick", scenario=spec, seed=1).key
        )


class TestErrorEnvelope:
    def test_malformed_scenario_is_400_bad_request(self, service):
        payload = tiny_sweep_spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ServiceError) as excinfo:
            service.submit_scenario(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "surprise" in str(excinfo.value)

    def test_stale_schema_version_is_400_bad_request(self, service):
        payload = tiny_sweep_spec().to_dict()
        payload["schema_version"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ServiceError) as excinfo:
            service.submit_scenario(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_scenario_plus_experiment_id_is_400(self, service):
        body = {
            "experiment_id": "fig6",
            "scenario": tiny_sweep_spec().to_dict(),
        }
        with pytest.raises(ServiceError) as excinfo:
            service._json("POST", "/jobs", body, ok=(200, 202))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "l1",
        [
            # Geometry fine, but tree-PLRU needs a power-of-two way count.
            {"ways": 6, "size_bytes": 24576, "policy": "tree-plru"},
            {"size_bytes": 1000},  # not sets * ways * line_size
            {"ways": 0},
            {"size_bytes": "32768"},
        ],
        ids=["six-way-tree-plru", "size-1000", "zero-ways", "string-size"],
    )
    def test_unbuildable_hierarchy_is_400_before_queueing(self, service, l1):
        payload = json.loads(RANDOM_L1_TRACE.read_text(encoding="utf-8"))
        payload["hierarchy"]["levels"][0].update(l1)
        computations = service.healthz()["scheduler"]["computations"]
        with pytest.raises(ServiceError) as excinfo:
            service.submit_scenario(payload, profile="quick", wait=True)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert service.healthz()["scheduler"]["computations"] == computations

    @pytest.mark.parametrize(
        "level, edit",
        [
            (None, {"line_size": "x"}),
            (None, {"line_size": None}),
            (None, {"cores": "two"}),
            (None, {"cores": 2.5}),
            # Just over the caps, and cheap to build even so.
            (0, {"ways": 128, "size_bytes": 128 * 32 * 64, "policy": "lru"}),
            (2, {"size_bytes": (1 << 17) * 16 * 64}),
            (None, {"cores": 65}),
        ],
        ids=[
            "string-line-size", "null-line-size", "string-cores",
            "fractional-cores", "128-way-l1d", "llc-2^17-sets", "65-cores",
        ],
    )
    def test_malformed_or_oversized_hierarchy_is_400(self, service, level, edit):
        payload = json.loads(RANDOM_L1_TRACE.read_text(encoding="utf-8"))
        hierarchy = payload["hierarchy"]
        (hierarchy if level is None else hierarchy["levels"][level]).update(edit)
        computations = service.healthz()["scheduler"]["computations"]
        with pytest.raises(ServiceError) as excinfo:
            service.submit_scenario(payload, profile="quick", wait=True)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert service.healthz()["scheduler"]["computations"] == computations

    @pytest.mark.parametrize(
        "scenario, path, value",
        [
            ("random-l1-trace", ("scenario", "channel", "target_set"), "x"),
            ("random-l1-trace", ("scenario", "channel", "target_set"), 2.7),
            ("random-l1-trace", ("scenario", "schema_version"), "x"),
            ("random-l1-trace", ("scenario", "params", "period"), "fast"),
            ("random-l1-trace", ("scenario", "channel", "codec", "d_on"), [1]),
            (
                "random-l1-trace",
                ("scenario", "channel", "codec", "level_map"),
                {"x": 3},
            ),
            (
                "random-l1-trace",
                ("scenario", "channel", "sender", "ensure_resident"),
                "false",
            ),
            (
                "fault_tolerance",
                ("scenario", "params", "fault", "drop_rate"),
                "often",
            ),
            ("random-l1-trace", ("profile",), {"name": "quick", "engine": "fast"}),
            ("random-l1-trace", ("wait",), "soon"),
            ("random-l1-trace", ("timeout",), True),
        ],
        ids=[
            "string-target-set", "fractional-target-set",
            "string-schema-version", "string-period", "list-d-on",
            "non-numeric-level-map-symbol", "string-ensure-resident",
            "string-fault-rate", "profile-without-reduced", "string-wait",
            "boolean-timeout",
        ],
    )
    def test_malformed_field_is_400_before_queueing(
        self, service, scenario, path, value
    ):
        spec_file = RANDOM_L1_TRACE.parent / f"{scenario}.json"
        spec = json.loads(spec_file.read_text(encoding="utf-8"))
        body = {"scenario": spec, "profile": "quick", "wait": True}
        parent = body
        for name in path[:-1]:
            parent = parent[name]
        parent[path[-1]] = value
        computations = service.healthz()["scheduler"]["computations"]
        with pytest.raises(ServiceError) as excinfo:
            service._json("POST", "/jobs", body, ok=(200, 202))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert service.healthz()["scheduler"]["computations"] == computations

    def test_unknown_experiment_is_400_bad_request(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("not-a-thing")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_unknown_job_is_404_not_found(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.job("job-999999")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_unknown_route_is_404_not_found(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._json("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_missing_result_is_404_not_found(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.result_bytes("0" * 64)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_envelope_shape_on_the_wire(self, service):
        request = urllib.request.Request(
            service.base_url + "/jobs",
            data=b"not json",
            method="POST",
            headers={"Content-Length": "8"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            body = json.loads(error.read().decode("utf-8"))
        assert set(body) == {"error"}
        assert set(body["error"]) == {"code", "message"}
        assert body["error"]["code"] == "bad_request"
