"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli.main import build_parser, main
from repro.engine.supervisor import SweepJournal
from repro.net.io import load_net


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_rejects_unknown_technology():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--technology", "cmos3", "generate-net", "x.json"])


def test_generate_net_writes_valid_file(tmp_path, capsys):
    path = tmp_path / "net.json"
    assert main(["generate-net", str(path), "--seed", "5"]) == 0
    net = load_net(path)
    assert net.num_segments >= 4
    captured = capsys.readouterr()
    assert "wrote" in captured.out


def test_generate_net_fixed_segments(tmp_path):
    path = tmp_path / "net.json"
    assert main(["generate-net", str(path), "--seed", "5", "--segments", "6"]) == 0
    assert load_net(path).num_segments == 6


def test_insert_rip_runs_and_reports(tmp_path, capsys):
    path = tmp_path / "net.json"
    main(["generate-net", str(path), "--seed", "8"])
    code = main(["insert", str(path), "--target-factor", "1.3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "repeaters" in captured.out
    assert "met" in captured.out


def test_insert_dp_scheme(tmp_path, capsys):
    path = tmp_path / "net.json"
    main(["generate-net", str(path), "--seed", "8"])
    code = main(["insert", str(path), "--target-factor", "1.3", "--scheme", "dp",
                 "--dp-granularity", "40"])
    captured = capsys.readouterr()
    assert code == 0
    assert "DP runtime" in captured.out


@pytest.mark.parametrize(
    "granularity, fragment",
    [("inf", "finite positive granularity"), ("1", "library of 391 widths")],
)
def test_insert_dp_rejects_bad_granularity(tmp_path, capsys, granularity, fragment):
    path = tmp_path / "net.json"
    main(["generate-net", str(path), "--seed", "8"])
    capsys.readouterr()
    code = main(["insert", str(path), "--scheme", "dp", "--dp-granularity", granularity])
    captured = capsys.readouterr()
    assert code == 2
    assert fragment in captured.err
    assert captured.out == ""


def test_insert_with_explicit_target(tmp_path, capsys):
    path = tmp_path / "net.json"
    main(["generate-net", str(path), "--seed", "8"])
    code = main(["insert", str(path), "--target-ns", "5.0"])
    assert code == 0


def test_evaluate_reports_metrics(tmp_path, capsys):
    path = tmp_path / "net.json"
    main(["generate-net", str(path), "--seed", "8"])
    code = main([
        "evaluate", str(path),
        "--repeater", "2000:80",
        "--repeater", "4000:40",
        "--target-ns", "2.0",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "total width 120.0u" in captured.out


def test_evaluate_rejects_malformed_repeater(tmp_path, capsys):
    path = tmp_path / "net.json"
    main(["generate-net", str(path), "--seed", "8"])
    assert main(["evaluate", str(path), "--repeater", "oops"]) == 2


def test_experiment_table1_small(tmp_path, capsys):
    csv_path = tmp_path / "t1.csv"
    code = main([
        "experiment", "table1",
        "--nets", "1", "--targets", "3", "--csv", str(csv_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "dMax" in captured.out
    assert csv_path.exists()
    assert "Net" in csv_path.read_text()


def test_experiment_figure7_small(capsys):
    code = main(["experiment", "figure7", "--nets", "1", "--targets", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Figure 7" in captured.out


def test_sweep_single_technology(tmp_path, capsys):
    json_path = tmp_path / "records.json"
    code = main([
        "sweep", "--nets", "1", "--targets", "2",
        "--methods", "rip", "--json", str(json_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "designed 2 (net, target, method) records" in captured.out
    payload = json.loads(json_path.read_text())
    assert payload["failures"] == []
    records = payload["records"]
    assert len(records) == 2
    assert all(record["technology"] == "cmos180" for record in records)


def test_sweep_json_carries_window_cache_counters(tmp_path, capsys):
    """A restart on the same --cache-dir answers dp-g40 from the baseline
    memo's file; the JSON's counters show it and the records repeat."""
    payloads = []
    for run in ("cold", "warm"):
        json_path = tmp_path / f"{run}.json"
        assert main([
            "sweep", "--nets", "1", "--targets", "3", "--methods", "dp-g40",
            "--cache-dir", str(tmp_path / "cache"), "--json", str(json_path),
        ]) == 0
        payloads.append(json.loads(json_path.read_text()))
    capsys.readouterr()
    cold, warm = payloads
    assert (cold["window_cache"]["disk_misses"], cold["window_cache"]["disk_hits"]) == (1, 0)
    assert (warm["window_cache"]["disk_misses"], warm["window_cache"]["disk_hits"]) == (0, 1)
    assert warm["records"] == cold["records"]  # runtime_seconds replayed too


def test_sweep_multiple_technologies(tmp_path, capsys):
    json_path = tmp_path / "records.json"
    code = main([
        "sweep", "--nets", "1", "--targets", "2", "--methods", "rip",
        "--tech", "cmos180", "--tech", "cmos90", "--json", str(json_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "[cmos180]" in captured.out
    assert "[cmos90]" in captured.out
    payload = json.loads(json_path.read_text())
    assert payload["failures"] == []
    records = payload["records"]
    assert sorted({record["technology"] for record in records}) == ["cmos180", "cmos90"]
    assert len(records) == 4


def test_sweep_htree_population(tmp_path, capsys):
    json_path = tmp_path / "records.json"
    code = main([
        "sweep", "--population", "htree", "--nets", "2", "--targets", "3",
        "--htree-levels", "2", "--methods", "tree-g40", "--json", str(json_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert any(line.strip().startswith("[tree]") for line in captured.out.splitlines())
    payload = json.loads(json_path.read_text())
    assert payload["failures"] == []
    assert len(payload["records"]) == 6
    assert {record["method"] for record in payload["records"]} == {"tree-g40"}

    code = main(["sweep", "--population", "htree", "--tech", "cmos90"])
    assert code == 2
    assert "does not batch multiple --tech nodes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "methods, fragment",
    [
        ("dp-g1", "library of 391 widths"),
        ("tree-g1e400", "finite positive granularity"),
        ("dp-gx", "malformed method"),
        ("rip,rip", "duplicate methods"),
    ],
)
def test_sweep_rejects_bad_methods_before_designing(capsys, methods, fragment):
    assert main(["sweep", "--nets", "1", "--targets", "2", "--methods", methods]) == 2
    assert fragment in capsys.readouterr().err


def test_sweep_rejects_unknown_technology():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--tech", "cmos3"])


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache"]) == 2
    assert "cache directory" in capsys.readouterr().err


def test_cache_reports_and_gcs_tiers(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert (
        main(
            [
                "sweep",
                "--nets",
                "2",
                "--targets",
                "3",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "protocol store" in out
    assert "DP memo entries" in out
    assert "REFINE records" in out

    frontiers_before = len(list((cache_dir / "wincache").glob("frontier-*.json")))
    assert frontiers_before > 1
    assert (
        main(
            [
                "cache",
                "--cache-dir",
                str(cache_dir),
                "--gc",
                "--max-frontier-files",
                "1",
                "--max-refine-files",
                "1",
            ]
        )
        == 0
    )
    assert "gc: evicted" in capsys.readouterr().out
    assert len(list((cache_dir / "wincache").glob("frontier-*.json"))) == 1
    assert len(list((cache_dir / "wincache").glob("refine-*.json"))) <= 1


def test_cache_gc_keeps_the_newest_sweep_journals(tmp_path, capsys, monkeypatch):
    """Every sweep identity writes its own journal; ``--gc`` keeps the
    newest ``SweepJournal.MAX_FILES`` of them, by mtime."""
    cache_dir = tmp_path / "cache"
    assert (
        main(
            [
                "sweep",
                "--nets",
                "1",
                "--targets",
                "2",
                "--methods",
                "dp-g40",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    journal_dir = cache_dir / "journal"
    (live,) = journal_dir.glob("sweep-*.journal")
    for age, name in ((100, "old"), (200, "older"), (300, "oldest")):
        stale = journal_dir / f"sweep-{name}.journal"
        stale.write_text("{}\n", encoding="utf-8")
        os.utime(stale, (live.stat().st_mtime - age,) * 2)
    capsys.readouterr()

    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    listing = capsys.readouterr().out
    assert "sweep journals" in listing and "4 files" in listing

    monkeypatch.setattr(SweepJournal, "MAX_FILES", 2)
    assert main(["cache", "--cache-dir", str(cache_dir), "--gc"]) == 0
    assert "2 sweep journals (budget 2)" in capsys.readouterr().out
    assert sorted(path.name for path in journal_dir.glob("sweep-*.journal")) == sorted(
        [live.name, "sweep-old.journal"]
    )


def test_sweep_exit_codes_reflect_failures(tmp_path, capsys, monkeypatch):
    """A failed net turns the sweep exit code nonzero (unless suppressed)."""
    from repro.engine import design as design_module

    class PoisonedRip(design_module.Rip):
        def prepare(self, net):
            raise ValueError("poisoned by test")

    monkeypatch.setattr(design_module, "Rip", PoisonedRip)
    json_path = tmp_path / "records.json"
    args = [
        "sweep", "--nets", "1", "--targets", "2",
        "--methods", "rip", "--json", str(json_path),
    ]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert "FAILED [crashed]" in captured.out
    assert "exiting 3" in captured.err

    payload = json.loads(json_path.read_text())
    assert payload["records"] == []
    (failure,) = payload["failures"]
    assert failure["failure_kind"] == "crashed"
    assert "poisoned by test" in failure["error"]
    assert failure["technology"] == "cmos180"

    assert main(args + ["--keep-going-exit-zero"]) == 0
    captured = capsys.readouterr()
    assert "FAILED [crashed]" in captured.out
    assert "exiting 3" not in captured.err


def test_serve_parser_accepts_service_flags():
    parser = build_parser()
    args = parser.parse_args(
        [
            "serve", "--port", "0", "--max-tenants", "4",
            "--max-queue", "16",
        ]
    )
    assert args.command == "serve"
    assert args.port == 0
    assert args.max_tenants == 4
    # Batches form while the engine is busy; there is no window to set.
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--batch-window-ms", "5"])
