"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_throughput_defaults(self):
        args = build_parser().parse_args(["throughput"])
        assert args.testbed == "iota"
        assert args.batch_size == 1
        assert args.transport == "pushpull"

    def test_bad_transport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["throughput", "--transport", "smoke"])


class TestCommands:
    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "throughput", "table3", "figure3"):
            assert name in out

    def test_experiments_run_table1(self, capsys):
        assert main(["experiments", "run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "01CREAT" in out
        assert "06UNLNK" in out

    def test_experiments_run_table2(self, capsys):
        assert main(["experiments", "run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "AWS" in out and "Iota" in out
        assert "1,366" in out

    def test_experiments_run_unknown(self, capsys):
        assert main(["experiments", "run", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_throughput_custom_knobs(self, capsys):
        code = main([
            "throughput", "--testbed", "aws", "--duration", "5",
            "--batch-size", "32", "--cache-size", "256",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AWS" in out
        assert "monitor throughput" in out

    def test_throughput_unknown_testbed(self):
        with pytest.raises(SystemExit):
            main(["throughput", "--testbed", "mars"])

    def test_figure3(self, capsys):
        assert main(["figure3", "--days", "8", "--base-files", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Aurora" in out

    def test_changelog_demo(self, capsys):
        assert main(["changelog-demo"]) == 0
        out = capsys.readouterr().out
        assert "01CREAT" in out
        assert "08RENME" in out
        assert "MDT0" in out

    def test_changelog_demo_multi_mds(self, capsys):
        assert main(["changelog-demo", "--num-mds", "2"]) == 0
        assert "ChangeLog" in capsys.readouterr().out

    def test_rules_validate_ok(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "# notify\n"
            "WHEN created OF *.csv UNDER /in ON dev\n"
            "THEN email ON dev WITH to=pi@lab\n"
        )
        assert main(["rules", str(rules)]) == 0
        out = capsys.readouterr().out
        assert "1 rule(s) OK" in out
        assert "notify" in out

    def test_rules_validate_bad_file(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("WHEN created OF * UNDER /d ON a\nTHEN teleport ON a\n")
        assert main(["rules", str(rules)]) == 1
        assert "invalid rules file" in capsys.readouterr().err

    def test_rules_missing_file(self, capsys, tmp_path):
        assert main(["rules", str(tmp_path / "nope.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_metrics_demo(self, capsys):
        assert main(["metrics-demo", "--events", "120", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        for stage in ("collect", "aggregate", "publish", "deliver"):
            assert stage in out
        for column in ("p50", "p95", "p99"):
            assert column in out

    def test_metrics_demo_prometheus(self, capsys):
        code = main(["metrics-demo", "--events", "60", "--prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_pipeline_collect_bucket" in out
        assert "# TYPE" in out

    def test_metrics_demo_sampling_off(self, capsys):
        code = main(["metrics-demo", "--events", "60", "--sample-rate", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tracing disabled" in out

    def test_health_demo(self, capsys):
        code = main(["health-demo", "--num-mds", "2", "--events", "25"])
        assert code == 0
        out = capsys.readouterr().out
        tree, snapshot = out.split("== registry snapshot ==")
        for service in (
            "shard0", "collector.mds0", "collector.mds1", "consumer.demo",
        ):
            assert f"{service} " in tree
        assert tree.count("running  restarts=0") == 4
        assert "shard0.events_stored" in snapshot

    def test_cluster_demo(self, capsys):
        code = main([
            "cluster-demo", "--shards", "3", "--num-mds", "2",
            "--events", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out
        assert "shard crashed" in out
        assert "none lost" in out
        assert "merged cluster stats" in out
        for shard in ("shard0", "shard1", "shard2"):
            assert shard in out

    def test_gateway_demo_defaults(self):
        args = build_parser().parse_args(["gateway-demo"])
        assert args.shards == 2
        assert args.transport == "inproc"
        assert args.clients == 10
        assert args.events == 100

    def test_gateway_demo(self, capsys):
        code = main([
            "gateway-demo", "--shards", "2", "--num-mds", "2",
            "--clients", "3", "--events", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gateway at http://" in out
        assert "returned 30 created events" in out
        assert "bogus token -> HTTP 401" in out
        assert "lost=0" in out
        assert "bob's stream (other subtree): 0 events" in out
        assert "gateway counters" in out
