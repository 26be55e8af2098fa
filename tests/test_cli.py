"""Tests for the ``repro-design`` command-line interface."""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main

FIGURE3_DTD = """
<!ELEMENT eurostat (averages, nationalIndex*)>
<!ELEMENT averages (Good, index+)+>
<!ELEMENT nationalIndex (country, Good, (index | value, year))>
<!ELEMENT index (value, year)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT Good (#PCDATA)>
<!ELEMENT value (#PCDATA)>
<!ELEMENT year (#PCDATA)>
"""


@pytest.fixture
def schema_file(tmp_path: Path) -> Path:
    path = tmp_path / "eurostat.dtd"
    path.write_text(FIGURE3_DTD, encoding="utf-8")
    return path


class TestTopDown:
    def test_perfect_typing_is_reported(self, schema_file, capsys):
        exit_code = main(
            ["topdown", "--schema", str(schema_file), "--kernel", "eurostat(averages(f0) f1 f2)"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "perfect typing exists: True" in output
        assert "nationalIndex*" in output

    def test_design_without_local_typing_returns_nonzero(self, tmp_path, capsys):
        path = tmp_path / "schema.txt"
        path.write_text("s -> a, b* | d", encoding="utf-8")
        exit_code = main(["topdown", "--schema", str(path), "--kernel", "s(a f1)"])
        assert exit_code == 1
        assert "local typing exists:   False" in capsys.readouterr().out

    def test_json_report(self, schema_file, capsys):
        exit_code = main(
            ["topdown", "--schema", str(schema_file), "--kernel",
             "eurostat(averages(f0) f1 f2)", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert report["design"] == "topdown"
        assert report["perfect_typing_exists"] is True
        assert set(report["perfect_typing"]) == {"f0", "f1", "f2"}


class TestBottomUp:
    def test_consistency_report(self, tmp_path, capsys):
        first = tmp_path / "t1.txt"
        first.write_text("s1 -> b", encoding="utf-8")
        second = tmp_path / "t2.txt"
        second.write_text("s2 -> c", encoding="utf-8")
        exit_code = main(
            [
                "bottomup",
                "--kernel",
                "s0(a(f1) a(f2))",
                "--type",
                f"f1={first}",
                "--type",
                f"f2={second}",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cons[EDTD]: yes" in output
        assert "cons[DTD]: no" in output

    def test_consistent_design_prints_the_global_type(self, tmp_path, capsys):
        local = tmp_path / "t1.txt"
        local.write_text("s1 -> b*", encoding="utf-8")
        exit_code = main(["bottomup", "--kernel", "s0(a f1 c)", "--type", f"f1={local}"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "typeT(τn) as a DTD:" in output

    def test_missing_types_is_an_error(self, capsys):
        assert main(["bottomup", "--kernel", "s0(f1)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_type_assignment(self, capsys):
        assert main(["bottomup", "--kernel", "s0(f1)", "--type", "nonsense"]) == 2

    def test_json_report(self, tmp_path, capsys):
        first = tmp_path / "t1.txt"
        first.write_text("s1 -> b", encoding="utf-8")
        second = tmp_path / "t2.txt"
        second.write_text("s2 -> c", encoding="utf-8")
        exit_code = main(
            ["bottomup", "--kernel", "s0(a(f1) a(f2))", "--type", f"f1={first}",
             "--type", f"f2={second}", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert report["design"] == "bottomup"
        assert report["consistency"]["EDTD"]["consistent"] is True
        assert report["consistency"]["DTD"]["consistent"] is False
        assert report["consistency"]["DTD"]["type_size"] is None


class TestValidate:
    def test_valid_xml_document(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text(
            "<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat>",
            encoding="utf-8",
        )
        assert main(["validate", "--schema", str(schema_file), "--document", str(document)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_term_document(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.term"
        document.write_text("eurostat(nationalIndex(country))", encoding="utf-8")
        assert main(["validate", "--schema", str(schema_file), "--document", str(document)]) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_missing_file_is_reported(self, schema_file, capsys):
        assert main(["validate", "--schema", str(schema_file), "--document", "missing.xml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_valid_document(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text(
            "<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat>",
            encoding="utf-8",
        )
        code = main(
            ["validate", "--schema", str(schema_file), "--document", str(document),
             "--stream", "--chunk-bytes", "16"]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_stream_invalid_document(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<eurostat><nationalIndex/></eurostat>", encoding="utf-8")
        code = main(
            ["validate", "--schema", str(schema_file), "--document", str(document), "--stream"]
        )
        assert code == 1
        assert "invalid" in capsys.readouterr().out

    def test_stream_malformed_document_is_a_typed_error(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<eurostat><averages>", encoding="utf-8")
        code = main(
            ["validate", "--schema", str(schema_file), "--document", str(document), "--stream"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_refuses_term_notation(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.term"
        document.write_text("eurostat(averages)", encoding="utf-8")
        code = main(
            ["validate", "--schema", str(schema_file), "--document", str(document), "--stream"]
        )
        assert code == 2
        assert "not XML" in capsys.readouterr().err

    def test_json_verdicts(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text(
            "<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat>",
            encoding="utf-8",
        )
        assert main(
            ["validate", "--schema", str(schema_file), "--document", str(document), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"valid": True, "mode": "tree", "error": None}
        bad = tmp_path / "bad.term"
        bad.write_text("eurostat(nationalIndex(country))", encoding="utf-8")
        assert main(
            ["validate", "--schema", str(schema_file), "--document", str(bad), "--json"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert report["error"]

    def test_json_stream_verdict(self, schema_file, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<eurostat><nationalIndex/></eurostat>", encoding="utf-8")
        code = main(
            ["validate", "--schema", str(schema_file), "--document", str(document),
             "--stream", "--json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"valid": False, "mode": "stream", "error": None}


class TestBenchStream:
    def test_json_comparison(self, capsys):
        code = main(
            ["bench-stream", "--peers", "2", "--documents", "6", "--rounds", "1", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["publications"] == 10
        assert report["tree_ms"] > 0 and report["stream_ms"] > 0
        assert "speedup" in report and "stream_peak_kib" in report

    def test_summary_output(self, capsys):
        code = main(["bench-stream", "--peers", "2", "--documents", "4", "--rounds", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "streaming path:" in output and "speedup:" in output


class TestDistributed:
    def test_summary_output(self, capsys):
        exit_code = main(["distributed", "--peers", "3", "--documents", "9", "--workers", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "serial" in output and "runtime" in output
        assert "verdicts agree across strategies: True" in output

    def test_json_output_is_machine_readable(self, capsys):
        exit_code = main(
            ["distributed", "--peers", "3", "--documents", "9", "--workers", "2", "--json"]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["peers"] == 3 and report["verdicts_agree"] is True
        strategies = {outcome["strategy"] for outcome in report["outcomes"]}
        assert strategies == {"serial", "runtime"}
        for outcome in report["outcomes"]:
            assert outcome["rounds"] == 7
            assert len(outcome["verdicts"]) == 7


class TestServe:
    def test_serve_round_trip_and_graceful_shutdown(self, tmp_path):
        from repro.service.client import ServiceClient

        port_file = tmp_path / "svc.port"
        outcome: dict = {}

        def run():
            outcome["code"] = main(
                [
                    "serve",
                    "--port",
                    "0",
                    "--port-file",
                    str(port_file),
                    "--preload-peers",
                    "3",
                    "--shutdown-after",
                    "30",
                    "--json",
                ]
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not port_file.exists() and time.time() < deadline:
            time.sleep(0.02)
        port = int(port_file.read_text(encoding="utf-8"))
        with ServiceClient("127.0.0.1", port) as client:
            assert client.ping()["designs"] == ["workload"]
            assert client.revalidate("workload")["valid"] is True
            assert client.shutdown() == {"stopping": True}
        thread.join(15)
        assert not thread.is_alive()
        assert outcome["code"] == 0

    def test_serve_sigint_shuts_down_gracefully(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        port_file = tmp_path / "svc.port"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(port_file), "--preload-peers", "2"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 20
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert port_file.exists()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=20) == 0
            assert "validation service stopped" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()


class TestBenchServe:
    def test_bench_serve_json_report(self, capsys):
        exit_code = main(
            [
                "bench-serve",
                "--peers",
                "3",
                "--documents",
                "9",
                "--clients",
                "2",
                "--invalid-rate",
                "0",
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["publications"] == 21  # 7 rounds x 3 peers
        assert report["errors"] == 0
        assert report["final_valid"] is True
        assert report["throughput_per_s"] > 0

    def test_bench_serve_open_loop_summary(self, capsys):
        exit_code = main(
            [
                "bench-serve",
                "--peers",
                "2",
                "--documents",
                "4",
                "--mode",
                "open",
                "--rate",
                "2000",
                "--invalid-rate",
                "0",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "open-loop:" in output and "publications" in output


class TestStats:
    def test_stats_flag_prints_cache_report(self, schema_file, capsys):
        exit_code = main(
            [
                "topdown",
                "--schema",
                str(schema_file),
                "--kernel",
                "eurostat(averages(f0) f1 f2)",
                "--stats",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine cache:" in output
        assert "hit rate" in output

    def test_stats_flag_off_by_default(self, schema_file, capsys):
        main(["topdown", "--schema", str(schema_file), "--kernel", "eurostat(averages(f0) f1 f2)"])
        assert "engine cache:" not in capsys.readouterr().out


class TestFederationCLI:
    def test_directory_and_pod_round_trip(self, tmp_path):
        """Boot a directory and a pod via their subcommands, join them."""
        from repro.service.client import ServiceClient

        dir_port_file = tmp_path / "dir.port"
        pod_port_file = tmp_path / "pod.port"
        codes: dict = {}

        def wait_for(path):
            deadline = time.time() + 10
            while not path.exists() and time.time() < deadline:
                time.sleep(0.02)
            return int(path.read_text(encoding="utf-8"))

        def run_directory():
            codes["directory"] = main(
                ["directory", "--port", "0", "--port-file", str(dir_port_file),
                 "--shutdown-after", "30", "--json"]
            )

        dir_thread = threading.Thread(target=run_directory, daemon=True)
        dir_thread.start()
        dir_port = wait_for(dir_port_file)

        def run_pod():
            codes["pod"] = main(
                ["pod", "--port", "0", "--port-file", str(pod_port_file),
                 "--pod-id", "pod-cli", "--directory", f"127.0.0.1:{dir_port}",
                 "--shutdown-after", "30", "--json"]
            )

        pod_thread = threading.Thread(target=run_pod, daemon=True)
        pod_thread.start()
        pod_port = wait_for(pod_port_file)
        try:
            with ServiceClient("127.0.0.1", dir_port) as dir_client:
                membership = None
                deadline = time.time() + 10
                while time.time() < deadline:
                    # The pod joins on start; poll until the join lands.
                    if dir_client.lease_renew("pod-cli").get("pod") == "pod-cli":
                        membership = True
                        break
                assert membership
        finally:
            with ServiceClient("127.0.0.1", pod_port) as client:
                client.shutdown()
            with ServiceClient("127.0.0.1", dir_port) as client:
                client.shutdown()
        pod_thread.join(15)
        dir_thread.join(15)
        assert not pod_thread.is_alive() and not dir_thread.is_alive()
        assert codes == {"directory": 0, "pod": 0}

    def test_pod_rejects_unparsable_directory_endpoint(self, capsys):
        assert main(["pod", "--pod-id", "p", "--directory", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_federate_thread_spawn_differential(self, capsys):
        exit_code = main(
            ["federate", "--pods", "2", "--spawn", "thread", "--peers", "4",
             "--documents", "10", "--seed", "3", "--invalid-rate", "0.3", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert report["pods"] == 2
        assert report["verdict_mismatches"] == 0
        assert report["digests_match"] is True
        assert report["acks_match"] is True
        assert report["global_verdict"]["complete"] is True
        assert report["clean_shutdown"] is True


class TestObservabilityCLI:
    @pytest.fixture
    def live_server(self):
        from repro.service.server import ServiceHandle, ValidationServer
        from repro.workloads.synthetic import distributed_workload

        workload = distributed_workload(peers=2, documents=2, seed=3, invalid_rate=0.0)
        server = ValidationServer(runtime_workers=2)
        server.preload_design(
            "workload", workload.kernel, workload.typing, workload.initial_documents
        )
        with ServiceHandle(server).start() as handle:
            yield handle, workload

    def test_stats_watch_survives_server_shutdown(self, live_server, capsys):
        """``stats --watch`` on a server that goes away exits 0 with a
        final "server gone" line -- an operator tailing a restarting
        service must not be handed a stack trace."""
        handle, _workload = live_server
        endpoint = f"{handle.host}:{handle.port}"
        outcome: dict = {}

        def run():
            outcome["code"] = main(["stats", endpoint, "--watch", "0.1"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.4)  # let at least one snapshot print
        handle.close()
        thread.join(15)
        assert not thread.is_alive(), "watch mode hung across server shutdown"
        assert outcome["code"] == 0
        out = capsys.readouterr().out
        assert "counters:" in out  # at least one live snapshot rendered
        assert out.rstrip().endswith("server gone")

    def test_stats_without_watch_still_raises_on_dead_server(self, live_server):
        handle, _workload = live_server
        endpoint = f"{handle.host}:{handle.port}"
        handle.close()
        assert main(["stats", endpoint]) == 2  # typed ReproError exit

    @pytest.mark.parametrize("verb", ["logs", "trace"])
    def test_logs_filters_by_trace_id(self, live_server, capsys, verb):
        from repro.service.client import ServiceClient
        from repro.trees.xml_io import tree_to_xml

        handle, workload = live_server
        function = next(iter(workload.initial_documents))
        payload = tree_to_xml(workload.initial_documents[function])
        with ServiceClient(handle.host, handle.port) as client:
            client.publish("workload", function, payload, trace_id="cli-trace")
        exit_code = main([verb, f"{handle.host}:{handle.port}", "--id", "cli-trace"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "runtime.publish" in out
        assert "[server" in out
        assert "took" in out  # the op event's duration

    def test_logs_json_and_empty_trace_is_nonzero(self, live_server, capsys):
        handle, _workload = live_server
        exit_code = main(
            ["logs", f"{handle.host}:{handle.port}", "--id", "no-such-trace", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert report == {"trace": "no-such-trace", "events": []}

    def test_profile_worked_example_prints_collapsed_stacks(self, live_server, capsys):
        handle, _workload = live_server
        exit_code = main(
            ["profile", f"{handle.host}:{handle.port}", "--duration", "0.5",
             "--hz", "300"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "# samples=" in captured.err
        for line in captured.out.splitlines():
            stack, _space, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_slo_summary_reports_green_posture(self, live_server, capsys):
        from repro.service.client import ServiceClient
        from repro.trees.xml_io import tree_to_xml

        handle, workload = live_server
        function = next(iter(workload.initial_documents))
        payload = tree_to_xml(workload.initial_documents[function])
        with ServiceClient(handle.host, handle.port) as client:
            client.publish("workload", function, payload)
        exit_code = main(["slo", f"{handle.host}:{handle.port}"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "burn" in out and "publish" in out

    def test_slo_json_carries_burn_rates(self, live_server, capsys):
        handle, _workload = live_server
        exit_code = main(["slo", f"{handle.host}:{handle.port}", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert set(report["burn_rates"]) == {"60s", "300s"}
        assert report["ok"] is True
