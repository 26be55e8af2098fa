"""The user-facing surface of the distributed runtime: api + CLI."""

from __future__ import annotations

from repro.api import DesignSession
from repro.cli import main


class TestRunWorkload:
    def test_report_shape_and_agreement(self):
        report = DesignSession.run_workload(peers=4, documents=12, seed=5)
        assert report.peers == 4
        assert report.documents == 12
        assert report.verdicts_agree
        strategies = [outcome.strategy for outcome in report.outcomes]
        assert strategies == ["serial", "runtime"]
        assert report.outcome("runtime").documents_validated <= report.outcome(
            "serial"
        ).documents_validated

    def test_centralized_strategy_opt_in(self):
        report = DesignSession.run_workload(
            peers=3, documents=9, strategies=("serial", "centralized")
        )
        assert report.outcome("centralized").bytes_shipped > report.outcome("serial").bytes_shipped


class TestCliDistributed:
    def test_subcommand_prints_summary(self, capsys):
        exit_code = main(
            ["distributed", "--peers", "4", "--documents", "12", "--shards", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "serial" in output and "runtime" in output
        assert "verdicts agree across strategies: True" in output

    def test_serial_only_flag(self, capsys):
        exit_code = main(
            ["distributed", "--peers", "3", "--documents", "6", "--serial-only"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "runtime" not in output.splitlines()[2]

    def test_centralized_flag(self, capsys):
        exit_code = main(
            ["distributed", "--peers", "3", "--documents", "6", "--centralized"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "centralized" in output
