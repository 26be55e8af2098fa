"""The operational wire surface: trace/logs/profile ops, health routes, SLO stats."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.federation import DirectoryServer, PodServer
from repro.observability.logs import LogRecorder
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


@pytest.fixture(scope="module")
def workload():
    return distributed_workload(peers=3, documents=6, seed=7, invalid_rate=0.0)


@pytest.fixture
def handle(workload):
    server = ValidationServer(runtime_workers=2, metrics_port=0)
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as running:
        yield running


@pytest.fixture
def client(handle):
    with ServiceClient(handle.host, handle.port) as connected:
        yield connected


def _get_json(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestCapabilities:
    def test_ping_advertises_observability(self, client):
        limits = client.ping()["limits"]
        assert limits["logs"] is True
        assert limits["profile"] is True
        assert limits["health"] is True  # metrics_port=0 exports health too

    def test_health_capability_tracks_exporter(self, workload):
        server = ValidationServer(runtime_workers=2)
        server.preload_design(
            "d", workload.kernel, workload.typing, workload.initial_documents
        )
        with ServiceHandle(server).start() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                limits = client.ping()["limits"]
        assert limits["health"] is False  # no exporter, no /healthz


class TestEventOps:
    def test_logs_carry_the_publication_story(self, client, workload):
        payload = tree_to_xml(workload.initial_documents["f1"])
        client.publish("d", "f1", payload, trace_id="trace-9")
        result = client.logs(trace_id="trace-9")
        assert result["component"] == "server"
        names = [event["name"] for event in result["events"]]
        assert "runtime.publish" in names
        assert "op" in names
        assert all(event["trace"] == "trace-9" for event in result["events"])
        assert client.trace("trace-9")["events"] == result["events"]

    def test_trace_keeps_traced_events_and_logs_keeps_all(self, client, workload):
        payload = tree_to_xml(workload.initial_documents["f1"])
        client.publish("d", "f1", payload)
        client.publish("d", "f1", payload, trace_id="trace-7")
        traced = client.trace()["events"]
        logged = client.logs()["events"]
        assert traced and all(event.get("trace") for event in traced)
        assert any("trace" not in event for event in logged)
        assert [event for event in logged if "trace" in event] == traced

    def test_trace_works_under_a_warning_floor(self, workload):
        server = ValidationServer(runtime_workers=2, logger=LogRecorder(level="warning"))
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        payload = tree_to_xml(workload.initial_documents["f1"])
        with ServiceHandle(server).start() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.publish("d", "f1", payload)
                client.publish("d", "f1", payload, trace_id="trace-w")
                names = [event["name"] for event in client.trace("trace-w")["events"]]
                retained = client.logs(level="debug")["events"]
                default_view = client.logs()["events"]
        assert "op" in names and "runtime.publish" in names
        # Below the floor only traced events were kept, and the default
        # logs view stays at the floor.
        assert all("trace" in event for event in retained if event["level"] == "info")
        assert all(event["level"] in ("warning", "error") for event in default_view)

    def test_limit_zero_is_empty_and_negative_is_rejected(self, client):
        client.ping()
        client.ping()
        for op in (client.trace, client.logs):
            assert op(limit=0)["events"] == []
            with pytest.raises(ServiceError) as caught:
                op(limit=-1)
            assert caught.value.code == "bad-request"

    def test_level_floor_and_validation(self, client):
        client.ping()
        infos = client.logs(level="warning")["events"]
        assert all(event["level"] in ("warning", "error") for event in infos)
        with pytest.raises(ServiceError) as caught:
            client.logs(level="loud")
        assert caught.value.code == "bad-request"

    def test_failed_op_is_logged_at_warning(self, client):
        with pytest.raises(ServiceError):
            client.publish("nope", "f1", "<r/>", trace_id="trace-err")
        events = client.logs(trace_id="trace-err", level="warning")["events"]
        assert any(
            event["name"] == "op.error" and event["code"] == "unknown-design"
            for event in events
        )


class TestProfileOp:
    def test_live_profile_returns_collapsed_stacks(self, client):
        started = client.profile("start", hz=300)
        assert started["started"] is True and started["running"] is True
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if client.profile("status")["samples"] >= 10:
                break
            time.sleep(0.02)
        fetched = client.profile("fetch")
        stopped = client.profile("stop")
        assert stopped["stopped"] is True and stopped["running"] is False
        assert fetched["collapsed"], "a live server must yield non-empty stacks"
        for line in fetched["collapsed"].splitlines():
            stack, _space, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_bad_action_is_typed(self, client):
        with pytest.raises(ServiceError) as caught:
            client.profile("explode")
        assert caught.value.code == "bad-request"
        with pytest.raises(ServiceError) as caught:
            client.profile("start", hz=-1)
        assert caught.value.code == "bad-request"


class TestHealthEndpoints:
    def test_server_healthz_and_readyz(self, handle, client):
        client.ping()  # ensure the op loop is live
        base = f"http://{handle.host}:{handle.server.metrics_port}"
        status, payload = _get_json(f"{base}/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload = _get_json(f"{base}/readyz")
        assert status == 200 and payload["ready"] is True
        assert payload["checks"] == {
            "accepting": True, "admission_queue": True, "runtime_lock": True,
        }

    def test_readyz_flips_under_induced_overload(self, workload):
        # max_queue_depth=0 makes the admission check deterministically
        # fail (0 pending is not < 0): the server is alive but must not be
        # routed to.
        server = ValidationServer(runtime_workers=2, metrics_port=0, max_queue_depth=0)
        server.preload_design(
            "d", workload.kernel, workload.typing, workload.initial_documents
        )
        with ServiceHandle(server).start() as handle:
            base = f"http://{handle.host}:{server.metrics_port}"
            status, _payload = _get_json(f"{base}/healthz")
            assert status == 200  # alive...
            status, payload = _get_json(f"{base}/readyz")
            assert status == 503  # ...but not ready
            assert payload["checks"]["admission_queue"] is False

    def test_pod_and_directory_health(self, workload):
        directory = DirectoryServer(runtime_workers=1, metrics_port=0)
        with ServiceHandle(directory).start() as dir_handle:
            pod = PodServer(
                runtime_workers=1,
                metrics_port=0,
                pod_id="pod-0",
                directory_host=dir_handle.host,
                directory_port=dir_handle.port,
                lease_interval=0.2,
            )
            with ServiceHandle(pod).start() as pod_handle:
                pod_base = f"http://{pod_handle.host}:{pod.metrics_port}"
                status, payload = _get_json(f"{pod_base}/readyz")
                assert status == 200 and payload["checks"]["lease_fresh"] is True
                dir_base = f"http://{dir_handle.host}:{directory.metrics_port}"
                status, payload = _get_json(f"{dir_base}/readyz")
                assert status == 200
                assert payload["checks"]["federation_leases"] is True
            # The pod is gone: once its lease expires the directory stops
            # reporting federation readiness.
            directory._lease_clock = lambda base=directory._lease_clock: base() + 3600
            status, payload = _get_json(f"{dir_base}/readyz")
            assert status == 503
            assert payload["checks"]["federation_leases"] is False

    def test_standalone_pod_lease_is_vacuously_fresh(self):
        pod = PodServer(runtime_workers=1, pod_id="solo")
        assert pod.lease_fresh() is True
        assert pod._readiness_checks()["lease_fresh"] is True


class TestSloStats:
    def test_stats_embed_slo_and_readiness(self, client, workload):
        payload = tree_to_xml(workload.initial_documents["f1"])
        client.publish("d", "f1", payload)
        stats = client.stats()
        slo = stats["slo"]
        assert "publish" in slo["latency"]
        assert set(slo["burn_rates"]) == {"60s", "300s"}
        assert stats["readiness"]["ready"] is True

    def test_scrape_carries_slo_gauges(self, handle, client):
        client.ping()
        url = f"http://{handle.host}:{handle.server.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as response:
            text = response.read().decode("utf-8")
        assert 'repro_slo_latency_target_ms{op="publish"}' in text
        assert 'repro_slo_error_burn_rate{window="60s"}' in text
        assert "repro_slo_error_budget_ratio" in text
