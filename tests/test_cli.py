"""Command line tests: subcommand wiring, exit codes, config-file
defaults, environment endpoint override, and the full four-step flow."""

import datetime
import json
import shutil
import subprocess
import sys

import pytest

from nftfolio import ingest
from nftfolio.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from nftfolio.model import PriceSeries, TokenRef, dump_json, load_dataset, serialize_dataset
from nftfolio.replay import generate_fixture, load_fixture
from nftfolio.returns import time_weighted_return

FAST_CRAWL = ["--qps", "500", "--delay", "0.002", "--timeout", "5"]


def write_dataset(path, dataset):
    path.write_text(serialize_dataset(dataset), encoding="utf-8")
    return str(path)


def series_of(token, name, points):
    ts, ps = zip(*points)
    return PriceSeries(TokenRef(token, name), ts, ps)


@pytest.fixture
def crawled(server_factory, tmp_path):
    """A completed crawl of the seed-42 fixture: (dataset path, fixture)."""
    fx = generate_fixture(42)
    server = server_factory(fx)
    rc = main(
        ["crawl", "--endpoint", server.base_url, "--workdir", str(tmp_path / "work")]
        + FAST_CRAWL
    )
    assert rc == EXIT_OK
    return tmp_path / "work" / "dataset.json", fx


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frogs"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_crawl_without_endpoint(self, capsys, monkeypatch):
        monkeypatch.delenv("PIPELINE_ENDPOINT", raising=False)
        assert main(["crawl"]) == EXIT_USAGE
        assert "PIPELINE_ENDPOINT" in capsys.readouterr().err

    def test_optimize_requires_series_choice(self, tmp_path):
        path = write_dataset(tmp_path / "d.json", {})
        assert main(["optimize", "--dataset", path]) == EXIT_USAGE

    def test_report_requires_an_input(self, capsys):
        assert main(["report"]) == EXIT_USAGE
        assert "--portfolio" in capsys.readouterr().err

    def test_replay_requires_fixture_or_seed(self, capsys):
        assert main(["replay"]) == EXIT_USAGE


class TestOutOfRangeValues:
    """A value the stage's config rejects is a usage error: one ``error:``
    line and exit 2, before any stage work."""

    def required_args(self, command, tmp_path, monkeypatch):
        if command == "crawl":
            monkeypatch.delenv("PIPELINE_ENDPOINT", raising=False)
            monkeypatch.setattr(ingest, "run_crawl", lambda *a, **k: pytest.fail("crawl ran"))
            return ["--endpoint", "http://127.0.0.1:1", "--workdir", str(tmp_path / "w")]
        if command == "optimize":
            dataset = {
                "S": [
                    series_of("a1", "S", [(86400, 1.0), (172800, 2.0), (259200, 1.5)]),
                    series_of("b1", "S", [(86400, 3.0), (172800, 2.0), (259200, 2.5)]),
                ]
            }
            path = write_dataset(tmp_path / "d.json", dataset)
            return ["--all", "--dataset", path, "--out", str(tmp_path / "p.json")]
        return []

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--top", "0"],
            ["optimize", "--grid-period", "0"],
            ["crawl", "--qps", "0"],
            ["crawl", "--concurrency", "0"],
            ["crawl", "--collections", "0"],
            ["crawl", "--timeout", "0"],
            ["crawl", "--delay", "-1"],
            ["crawl", "--activity-page-size", "0"],
            ["replay", "--seed", "1", "--trades-min", "5", "--trades-max", "2"],
            ["replay", "--seed", "1", "--collections", "-1"],
            ["replay", "--seed", "1", "--tokens-per-collection", "-2"],
        ],
        ids=" ".join,
    )
    def test_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        rc = main(argv + self.required_args(argv[0], tmp_path, monkeypatch))
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_config_value_is_usage_error(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top": 0}))
        argv = ["optimize", "--config", str(cfg)]
        rc = main(argv + self.required_args("optimize", tmp_path, monkeypatch))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.json").exists()


class TestCrawlCommand:
    def test_crawl_writes_dataset_and_prints_path(self, server_factory, tmp_path, capsys):
        server = server_factory(generate_fixture(42, n_collections=1))
        rc = main(
            ["crawl", "--endpoint", server.base_url, "--workdir", str(tmp_path / "w")]
            + FAST_CRAWL
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("dataset.json")
        assert load_dataset(printed)

    def test_env_endpoint_beats_flag(self, server_factory, tmp_path, monkeypatch):
        server = server_factory(generate_fixture(42, n_collections=1))
        monkeypatch.setenv("PIPELINE_ENDPOINT", server.base_url)
        rc = main(
            ["crawl", "--endpoint", "http://127.0.0.1:1", "--workdir", str(tmp_path / "w")]
            + FAST_CRAWL
        )
        assert rc == EXIT_OK

    def test_token_budget_stops_early_with_note(self, server_factory, tmp_path, capsys):
        server = server_factory(generate_fixture(42))
        rc = main(
            ["crawl", "--endpoint", server.base_url, "--workdir", str(tmp_path / "w"),
             "--max-tokens", "1"] + FAST_CRAWL
        )
        assert rc == EXIT_OK
        assert "stopped early" in capsys.readouterr().out

    def test_user_agent_defaults_to_crawl_config(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(ingest, "run_crawl", lambda config, *a, **k: seen.append(config))
        common = ["crawl", "--endpoint", "http://127.0.0.1:1", "--workdir", str(tmp_path)]
        assert main(common) == EXIT_OK
        assert main(common + ["--user-agent", "probe/1.0"]) == EXIT_OK
        assert [c.user_agent for c in seen] == [ingest.DEFAULT_USER_AGENT, "probe/1.0"]

    def test_unreachable_endpoint_is_domain_error(self, tmp_path, capsys):
        rc = main(
            ["crawl", "--endpoint", "http://127.0.0.1:1", "--workdir", str(tmp_path / "w"),
             "--timeout", "1"]
        )
        assert rc == EXIT_DOMAIN
        assert "error:" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_totals_match_library_route(self, crawled, tmp_path):
        dataset_path, _ = crawled
        out = tmp_path / "returns.json"
        rc = main(["analyze", "--dataset", str(dataset_path), "--out", str(out)])
        assert rc == EXIT_OK
        records = json.loads(out.read_text())
        dataset = load_dataset(dataset_path)
        want = {
            (s.token.series_name, s.token.token): time_weighted_return(s)
            for entries in dataset.values()
            for s in entries
            if len(s) >= 2
        }
        got = {(r["series_name"], r["token"]): r for r in records}
        assert set(got) == set(want)
        for key, summary in want.items():
            assert got[key]["total_return"] == summary.total_return
            assert got[key]["interval_count"] == summary.interval_count

    def test_cutoff_is_epoch_seconds_inclusive(self, tmp_path):
        # 1711065600 is 2024-03-22T00:00:00Z
        cutoff = 1711065600
        utc = datetime.datetime(2024, 3, 22, tzinfo=datetime.timezone.utc)
        assert int(utc.timestamp()) == cutoff
        dataset = {
            "S": [
                series_of(
                    "tok1", "S",
                    [(cutoff - 1, 1.0), (cutoff, 2.0), (cutoff + 1, 8.0)],
                )
            ]
        }
        path = write_dataset(tmp_path / "d.json", dataset)
        out = tmp_path / "returns.json"
        rc = main(["analyze", "--dataset", path, "--cutoff", str(cutoff), "--out", str(out)])
        assert rc == EXIT_OK
        (record,) = json.loads(out.read_text())
        # only the 1.0 -> 2.0 trade survives the cutoff: one interval of
        # one second, so the compounded total is exactly 1.0
        assert record["interval_count"] == 1
        assert record["total_return"] == 1.0

    def test_min_trades_filters_tokens(self, tmp_path):
        dataset = {
            "S": [
                series_of("busy1", "S", [(10, 1.0), (20, 2.0), (30, 3.0)]),
                series_of("quiet1", "S", [(10, 1.0), (20, 2.0)]),
            ]
        }
        path = write_dataset(tmp_path / "d.json", dataset)
        out = tmp_path / "returns.json"
        rc = main(["analyze", "--dataset", path, "--min-trades", "3", "--out", str(out)])
        assert rc == EXIT_OK
        records = json.loads(out.read_text())
        assert [r["token"] for r in records] == ["busy1"]

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_min_trades_below_two_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "returns.json"
        rc = main(["analyze", "--dataset", str(tmp_path / "absent.json"),
                   "--min-trades", value, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "--min-trades" in capsys.readouterr().err
        assert not out.exists()

    def test_min_trades_below_two_from_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_trades": 1}))
        rc = main(["analyze", "--config", str(cfg), "--dataset", str(tmp_path / "absent.json")])
        assert rc == EXIT_USAGE

    def test_invalid_dataset_is_domain_error(self, tmp_path, capsys):
        bad = {
            "S": [
                series_of("dup1", "S", [(10, 1.0), (20, 2.0)]),
                series_of("dup1", "S", [(30, 1.0), (40, 2.0)]),
            ]
        }
        path = write_dataset(tmp_path / "d.json", bad)
        rc = main(["analyze", "--dataset", path, "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_DOMAIN
        assert "invalid" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_all_series_records_shape(self, crawled, tmp_path):
        dataset_path, fx = crawled
        out = tmp_path / "portfolio.json"
        rc = main(["optimize", "--dataset", str(dataset_path), "--all", "--out", str(out)])
        assert rc == EXIT_OK
        records = json.loads(out.read_text())
        names = {c.ref.collection_name for c in fx.collections}
        assert {r["series_name"] for r in records} <= names
        assert records  # at least one series optimizes on this fixture
        for rec in records:
            assert len(rec["assets"]) == len(rec["weights"])
            assert sum(rec["weights"]) == pytest.approx(1.0, abs=1e-9)
            assert min(rec["weights"]) >= 0.0
            assert rec["risk_free_rate"] == 0.0

    def test_single_series_selection(self, crawled, tmp_path):
        dataset_path, fx = crawled
        name = fx.collections[0].ref.collection_name
        out = tmp_path / "portfolio.json"
        rc = main(
            ["optimize", "--dataset", str(dataset_path), "--series", name, "--out", str(out)]
        )
        assert rc == EXIT_OK
        records = json.loads(out.read_text())
        assert [r["series_name"] for r in records] == [name]

    def test_unknown_series_is_domain_error(self, crawled, tmp_path, capsys):
        dataset_path, _ = crawled
        rc = main(
            ["optimize", "--dataset", str(dataset_path), "--series", "NoSuchSeries",
             "--out", str(tmp_path / "p.json")]
        )
        assert rc == EXIT_DOMAIN
        assert "NoSuchSeries" in capsys.readouterr().err

    def test_nothing_to_optimize_is_domain_error(self, tmp_path, capsys):
        # a single token per series can never form a covariance estimate
        dataset = {"S": [series_of("loner1", "S", [(10, 1.0), (86500 * 4, 2.0)])]}
        path = write_dataset(tmp_path / "d.json", dataset)
        rc = main(["optimize", "--dataset", path, "--all", "--out", str(tmp_path / "p.json")])
        assert rc == EXIT_DOMAIN
        assert "insufficient data" in capsys.readouterr().err

    def test_top_limits_assets(self, crawled, tmp_path):
        dataset_path, fx = crawled
        name = fx.collections[0].ref.collection_name
        out = tmp_path / "portfolio.json"
        rc = main(
            ["optimize", "--dataset", str(dataset_path), "--series", name,
             "--top", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        (record,) = json.loads(out.read_text())
        assert len(record["assets"]) == 2


class TestReportCommand:
    def portfolio_file(self, tmp_path):
        path = tmp_path / "portfolio.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "series_name": "Froganas",
                        "assets": ["tokA1", "tokB2"],
                        "weights": [0.8817, 0.1183],
                        "sharpe": 1.5,
                        "risk_free_rate": 0.0,
                    }
                ]
            )
        )
        return str(path)

    def returns_file(self, tmp_path):
        path = tmp_path / "returns.json"
        path.write_text(
            json.dumps(
                [
                    {"token": "tokA1", "series_name": "S", "total_return": 0.5,
                     "interval_count": 3},
                    {"token": "tokB2", "series_name": "S", "total_return": 1.5,
                     "interval_count": 8},
                ]
            )
        )
        return str(path)

    def test_portfolio_csv_to_stdout(self, tmp_path, capsys):
        rc = main(["report", "--portfolio", self.portfolio_file(tmp_path), "--format", "csv"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Series Name,Token ID,Weight"
        assert "Froganas,tokA1,0.8817" in out

    def test_both_sections_to_file(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(
            ["report", "--portfolio", self.portfolio_file(tmp_path),
             "--returns", self.returns_file(tmp_path), "--out", str(out)]
        )
        assert rc == EXIT_OK
        text = out.read_text()
        assert "Series Name | Token ID" in text
        assert "Total Return" in text
        assert text.index("0.8817") < text.index("1.5000")

    def test_malformed_portfolio_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "portfolio.json"
        bad.write_text('[{"series_name": "S"}]')
        rc = main(["report", "--portfolio", str(bad)])
        assert rc == EXIT_DOMAIN
        assert "element 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("[{", "not valid JSON"),
            ('{"token": "tokA1"}', "top level is not a list"),
            ('[{"token": "tokA1", "series_name": "S", "total_return": 0.5}]',
             "element 0 malformed"),
        ],
    )
    def test_malformed_returns_is_domain_error(self, tmp_path, capsys, text, detail):
        bad = tmp_path / "returns.json"
        bad.write_text(text)
        rc = main(["report", "--returns", str(bad)])
        assert rc == EXIT_DOMAIN
        assert f"error: returns file {bad}: {detail}" in capsys.readouterr().err


class TestReplayCommand:
    def test_seed_to_fixture_file(self, tmp_path, capsys):
        out = tmp_path / "fx.json"
        rc = main(["replay", "--seed", "7", "--out", str(out)])
        assert rc == EXIT_OK
        fixture = load_fixture(out)
        assert fixture.to_json_obj() == generate_fixture(7).to_json_obj()

    def test_generation_params_forwarded(self, tmp_path):
        out = tmp_path / "fx.json"
        rc = main(
            ["replay", "--seed", "7", "--collections", "2", "--tokens-per-collection", "6",
             "--trades-min", "3", "--trades-max", "4", "--out", str(out)]
        )
        assert rc == EXIT_OK
        fixture = load_fixture(out)
        assert len(fixture.collections) == 2
        assert all(len(c.tokens) == 6 for c in fixture.collections)

    def test_fixture_summary_line(self, tmp_path, capsys):
        out = tmp_path / "fx.json"
        main(["replay", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        rc = main(["replay", "--fixture", str(out)])
        assert rc == EXIT_OK
        assert "seed=7 collections=3 tokens=12" in capsys.readouterr().out


class TestCanonicalOutput:
    def test_every_json_output_is_canonical(self, server_factory, tmp_path):
        """Each JSON file a stage writes is byte-identical to ``dump_json``
        of its own contents."""
        fixture_path = tmp_path / "fx.json"
        work = tmp_path / "work"
        returns_path, portfolio_path = tmp_path / "returns.json", tmp_path / "portfolio.json"
        assert main(["replay", "--seed", "42", "--out", str(fixture_path)]) == EXIT_OK
        server = server_factory(load_fixture(fixture_path))
        rc = main(
            ["crawl", "--endpoint", server.base_url, "--workdir", str(work),
             "--cookie-persistence"] + FAST_CRAWL
        )
        assert rc == EXIT_OK
        dataset_path = str(work / "dataset.json")
        assert main(["analyze", "--dataset", dataset_path, "--out", str(returns_path)]) == EXIT_OK
        rc = main(["optimize", "--dataset", dataset_path, "--all", "--out", str(portfolio_path)])
        assert rc == EXIT_OK
        for path in (fixture_path, work / "cookies.json", work / "dataset.json",
                     returns_path, portfolio_path):
            text = path.read_text(encoding="utf-8")
            assert text == dump_json(json.loads(text)), path


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dataset = {
            "S": [
                series_of("busy1", "S", [(10, 1.0), (20, 2.0), (30, 3.0)]),
                series_of("quiet1", "S", [(10, 1.0), (20, 2.0)]),
            ]
        }
        path = write_dataset(tmp_path / "d.json", dataset)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_trades": 3, "out": "custom.json", "qps": 9}))
        rc = main(["analyze", "--config", str(cfg), "--dataset", path])
        assert rc == EXIT_OK
        records = json.loads((tmp_path / "custom.json").read_text())
        assert [r["token"] for r in records] == ["busy1"]

    def test_explicit_flag_beats_config(self, tmp_path):
        dataset = {
            "S": [
                series_of("busy1", "S", [(10, 1.0), (20, 2.0), (30, 3.0)]),
                series_of("quiet1", "S", [(10, 1.0), (20, 2.0)]),
            ]
        }
        path = write_dataset(tmp_path / "d.json", dataset)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_trades": 3}))
        out = tmp_path / "r.json"
        rc = main(
            ["analyze", "--config", str(cfg), "--dataset", path,
             "--min-trades", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        records = json.loads(out.read_text())
        assert {r["token"] for r in records} == {"busy1", "quiet1"}

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["analyze", "--config", str(tmp_path / "absent.json"), "--dataset", "x"])
        assert rc == EXIT_USAGE
        assert "unreadable config" in capsys.readouterr().err

    def test_non_object_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc = main(["analyze", "--config", str(cfg), "--dataset", "x"])
        assert rc == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err


class TestInstalledEntryPoints:
    def test_console_script_help(self):
        exe = shutil.which("pipeline")
        assert exe, "console script 'pipeline' not on PATH"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0
        assert "crawl" in proc.stdout and "replay" in proc.stdout

    def test_stage_imports_leave_out_scipy_and_http_server(self, tmp_path):
        # Each stage runs in a fresh interpreter and reports which heavy
        # modules it loaded: http.server is for replay alone, requests for
        # crawl, and no stage needs numpy or scipy, not even a solve.
        # analyze, optimize and report need only the standard library.
        heavy = ("http.server", "numpy", "requests", "scipy")
        prices = {
            "a": (1.0, 1.2, 1.1, 1.5, 1.4, 1.9),
            "b": (2.0, 2.1, 2.5, 2.2, 2.6, 2.9),
            "c": (5.0, 4.8, 5.5, 5.9, 5.7, 6.4),
        }
        dataset = {
            "S": [
                series_of(tok, "S", [(86400 * (d + 1), p) for d, p in enumerate(ps)])
                for tok, ps in prices.items()
            ]
        }
        data = write_dataset(tmp_path / "d.json", dataset)
        returns, portfolio = str(tmp_path / "r.json"), str(tmp_path / "p.json")

        def loaded(code):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; {code}; "
                 f"print(sorted(m for m in {heavy!r} if m in sys.modules))"],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip().splitlines()[-1]

        def stage(*argv):
            return loaded(f"from nftfolio.cli import main; assert main({list(argv)!r}) == 0")

        assert loaded("import nftfolio.cli, nftfolio.ingest") == "['requests']"
        assert loaded("import nftfolio.optimize") == "[]"
        assert stage("analyze", "--dataset", data, "--out", returns) == "[]"
        assert stage("optimize", "--dataset", data, "--all", "--out", portfolio) == "[]"
        assert json.loads((tmp_path / "p.json").read_text())[0]["assets"]
        assert stage("report", "--portfolio", portfolio, "--returns", returns,
                     "--out", str(tmp_path / "report.txt")) == "[]"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nftfolio", "--help"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0
