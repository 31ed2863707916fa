"""Acceptance suite: eleven checks covering the return engine, the
optimizer, crawl pagination/pacing/resume, sale filtering, report bytes
and the end-to-end command flow.  Each check prints one PASS/FAIL line
(visible with ``pytest -s`` or in captured output).
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import threading
import time

import numpy as np
import pytest

from conftest import fast_config, random_series
from nftfolio.cli import EXIT_OK, main
from nftfolio.ingest import CrawlConfig, MarketClient, fetch_trade_history, run_crawl
from nftfolio.model import (
    PortfolioAllocation,
    PriceSeries,
    TokenRef,
    TradeEvent,
    load_dataset,
    validate_dataset,
)
from nftfolio.optimize import (
    OptimizerConfig,
    max_sharpe_weights,
)
from nftfolio.replay import generate_fixture
from nftfolio.report import render_portfolio_table
from nftfolio.returns import interval_adjusted_returns, time_weighted_return
from test_ingest import expected_dataset, manual_fixture, sale
from test_optimize import grid_sharpe_oracle, moments_of
from test_returns import oracle_total_return, series_of


def criterion(num, label):
    """Emit one `[PASS]`/`[FAIL]` line per acceptance check."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {num:02d} {label}")
                raise
            print(f"[PASS] {num:02d} {label}")
            return result

        return wrapper

    return decorate


@criterion(1, "return engine matches a high-precision oracle on 1000 series")
def test_01_return_engine_oracle():
    rng = random.Random(10_001)
    started = time.monotonic()
    for i in range(1000):
        s = random_series(rng, length=rng.randint(2, 200), token=f"T{i}x")
        got = time_weighted_return(s).total_return
        want = oracle_total_return(s)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(2, "return identities: dt=1 reduction, flat series, composition, scale")
def test_02_return_identities():
    rng = random.Random(10_002)

    # one-second intervals reduce the compounded form to the simple return
    for _ in range(200):
        p0 = rng.uniform(1e-6, 1e6)
        p1 = p0 * rng.uniform(0.2, 5.0)
        s = series_of([(100, p0), (101, p1)])
        (adj,) = interval_adjusted_returns(s)
        assert adj.adjusted_return == (p1 - p0) / p0  # bitwise

    # constant prices compound to exactly zero
    for _ in range(20):
        t0 = rng.randint(1, 10**9)
        price = rng.uniform(1e-6, 1e6)
        n = rng.randint(2, 40)
        s = series_of([(t0 + 977 * k, price) for k in range(n)])
        assert time_weighted_return(s).total_return == 0.0

    # splitting a series at any point composes multiplicatively
    for i in range(100):
        s = random_series(rng, length=rng.randint(3, 30), token=f"C{i}x")
        total = time_weighted_return(s).total_return
        obs = s.observations()
        for cut in range(1, len(obs) - 1):
            left = series_of(obs[: cut + 1])
            right = series_of(obs[cut:])
            combined = (1 + time_weighted_return(left).total_return) * (
                1 + time_weighted_return(right).total_return
            ) - 1
            assert combined == pytest.approx(total, rel=1e-12, abs=1e-15)

    # price units cancel out
    for i in range(30):
        s = random_series(rng, length=rng.randint(2, 50), token=f"U{i}x")
        base = time_weighted_return(s).total_return
        for c in (1e-6, 1.0, 1e6):
            scaled = PriceSeries(
                s.token, s.timestamps, tuple(c * p for p in s.prices)
            )
            assert time_weighted_return(scaled).total_return == pytest.approx(
                base, rel=1e-12, abs=1e-15
            )


@criterion(3, "solver matches closed-form tangency on 100 diagonal instances")
def test_03_solver_vs_closed_form():
    rng = np.random.default_rng(10_003)
    config = OptimizerConfig()
    started = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        mu = rng.uniform(0.01, 0.3, size=n)
        var = rng.uniform(0.001, 0.05, size=n)
        closed = mu / var
        closed = closed / closed.sum()
        alloc = max_sharpe_weights(moments_of(mu, np.diag(var)), config)
        assert np.asarray(alloc.weights) == pytest.approx(closed, abs=1e-6)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"closed-form sweep took {elapsed:.1f}s"


@criterion(4, "solver beats the 0.01-grid oracle on 50 random PSD instances")
def test_04_solver_vs_grid_oracle():
    rng = np.random.default_rng(10_004)
    config = OptimizerConfig()
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.05 * np.eye(3)
        mu = rng.uniform(0.01, 0.3, size=3)
        m = moments_of(mu, cov)
        alloc = max_sharpe_weights(m, config)
        _, grid_best = grid_sharpe_oracle(m, resolution=0.01)
        assert alloc.sharpe >= grid_best - 1e-6


@criterion(5, "every solve is feasible; i.i.d. assets split evenly; permutation equivariance")
def test_05_feasibility_and_symmetry():
    rng = np.random.default_rng(10_005)
    config = OptimizerConfig()
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        cov = a @ a.T + 0.05 * np.eye(n)
        mu = rng.uniform(0.01, 0.3, size=n)
        alloc = max_sharpe_weights(moments_of(mu, cov), config)
        assert abs(sum(alloc.weights) - 1.0) <= 1e-9
        assert min(alloc.weights) >= -1e-12

        perm = rng.permutation(n)
        alloc_p = max_sharpe_weights(moments_of(mu[perm], cov[np.ix_(perm, perm)]), config)
        unshuffled = np.empty(n)
        unshuffled[perm] = alloc_p.weights
        assert np.asarray(alloc.weights) == pytest.approx(unshuffled, abs=1e-9)

    iid = max_sharpe_weights(moments_of([0.1, 0.1], np.diag([0.04, 0.04])), config)
    assert iid.weights == pytest.approx([0.5, 0.5], abs=1e-6)


@criterion(6, "1234 trades paginate as exactly 4 requests at offsets 0/500/1000/1500")
def test_06_pagination_exactness(server_factory):
    trades = [sale(1_700_000_000 + 61 * i, 1.0 + (i % 11) * 0.125) for i in range(1234)]
    fx = manual_fixture({"PageTok1": trades})
    server = server_factory(fx)
    config = fast_config(server.base_url)
    series = fetch_trade_history(
        MarketClient(config), config, TokenRef("PageTok1", "ManualSeries")
    )
    assert len(series) == 1234
    offsets = [
        int(r.query["offset"])
        for r in server.request_log()
        if r.path == "/tokens/PageTok1/activities"
    ]
    assert offsets == [0, 500, 1000, 1500]


@criterion(7, "default pacing keeps a 10-second window at or under 21 requests")
def test_07_rate_limiting(server_factory, tmp_path):
    fx = generate_fixture(99, n_collections=3, tokens_per_collection=10)
    server = server_factory(fx)
    config = CrawlConfig(endpoint_base=server.base_url)  # stock pacing: 2 qps, 0.4 s delay
    stop = threading.Event()
    timer = threading.Timer(10.0, stop.set)
    timer.start()
    try:
        outcome = run_crawl(config, tmp_path / "paced", stop_event=stop)
    finally:
        timer.cancel()
    assert outcome is None, "fixture too small: crawl finished before the window closed"
    starts = sorted(r.timestamp for r in server.request_log())
    assert len(starts) >= 15
    in_window = [t for t in starts if t - starts[0] < 10.0]
    assert len(in_window) <= 21
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert min(gaps) >= 0.4 - 0.01


@criterion(8, "interrupting at three budgets then resuming reproduces the exact bytes, three seeds")
def test_08_resume_equivalence(server_factory, tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    for seed in (1, 2, 3):
        server = server_factory(generate_fixture(seed))
        config = fast_config(server.base_url, max_concurrent_per_host=1)
        clean = run_crawl(config, tmp_path / f"s{seed}-clean")
        clean_hash = digest(clean)
        for budget in (1, 2, 3):
            workdir = tmp_path / f"s{seed}-b{budget}"
            assert run_crawl(config, workdir, stop_after_tokens=budget) is None
            resumed = run_crawl(config, workdir)
            assert digest(resumed) == clean_hash, f"seed {seed} budget {budget} diverged"


@criterion(9, "datasets contain only buyNow-derived observations")
def test_09_buynow_purity(server_factory, tmp_path):
    fixtures = [generate_fixture(seed) for seed in (11, 12, 13)]
    fixtures.append(
        manual_fixture(
            {
                "OnlyBids1": [TradeEvent("bid", 10, 1.0), TradeEvent("list", 20, 2.0)],
                "MixTok1": [
                    sale(10, 1.0),
                    TradeEvent("list", 15, 99.0),
                    sale(30, 2.0),
                    TradeEvent("cancelBid", 40, 77.0),
                ],
            }
        )
    )
    for i, fx in enumerate(fixtures):
        server = server_factory(fx)
        out = run_crawl(fast_config(server.base_url), tmp_path / f"pure{i}")
        dataset = load_dataset(out)
        assert validate_dataset(dataset) == []
        assert dataset == expected_dataset(fx)
        sale_pairs = {
            coll.ref.collection_name: {
                tok: {(e.block_time, e.price) for e in events if e.event_type == "buyNow"}
                for tok, events in coll.trades.items()
            }
            for coll in fx.collections
        }
        for name, entries in dataset.items():
            for series in entries:
                allowed = sale_pairs[name][series.token.token]
                for point in series.observations():
                    assert point in allowed, f"non-sale observation {point}"
    manual = load_dataset(tmp_path / "pure3" / "dataset.json")
    assert manual["ManualSeries"][0].observations() == []  # bids/listings only
    assert manual["ManualSeries"][1].observations() == [(10, 1.0), (30, 2.0)]


@criterion(10, "portfolio CSV reproduces the hand-built allocation byte-exactly")
def test_10_report_golden():
    alloc = PortfolioAllocation(
        assets=(
            TokenRef("J6zsrDqZkkRg4hkCTGHJ5UcwpbnZjhbHbVzFRhhjBn2g", "Froganas"),
            TokenRef("5K9Mwj6aMMZc1JatB4Mquq94oBywm4BLJyUzfzaub3w7y", "Froganas"),
        ),
        weights=(0.8817, 0.1183),
        sharpe=1.25,
    )
    assert sum(alloc.weights) == 1.0  # exact in binary floating point
    got = render_portfolio_table(alloc, fmt="csv")
    want = (
        "Series Name,Token ID,Weight\n"
        "Froganas,J6zsrDqZkkRg4hkCTGHJ5UcwpbnZjhbHbVzFRhhjBn2g,0.8817\n"
        "Froganas,5K9Mwj6aMMZc1JatB4Mquq94oBywm4BLJyUzfzaub3w7y,0.1183\n"
    )
    assert got == want


@criterion(11, "crawl/analyze/optimize/report runs twice with byte-identical outputs")
def test_11_end_to_end_determinism(server_factory, tmp_path):
    started = time.monotonic()
    fast = ["--qps", "500", "--delay", "0.002", "--timeout", "5"]

    def run_flow(run_dir):
        server = server_factory(generate_fixture(42))
        run_dir.mkdir()
        dataset = run_dir / "dataset.json"
        returns = run_dir / "returns.json"
        portfolio = run_dir / "portfolio.json"
        report = run_dir / "report.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(
                ["crawl", "--endpoint", server.base_url, "--workdir", str(run_dir / "work"),
                 "--out", str(dataset)] + fast
            ) == EXIT_OK
            assert main(
                ["analyze", "--dataset", str(dataset), "--out", str(returns)]
            ) == EXIT_OK
            assert main(
                ["optimize", "--dataset", str(dataset), "--all", "--out", str(portfolio)]
            ) == EXIT_OK
            assert main(
                ["report", "--portfolio", str(portfolio), "--returns", str(returns),
                 "--format", "csv", "--out", str(report)]
            ) == EXIT_OK
        return [dataset.read_bytes(), returns.read_bytes(),
                portfolio.read_bytes(), report.read_bytes()]

    first = run_flow(tmp_path / "run-a")
    second = run_flow(tmp_path / "run-b")
    assert first == second
    for blob in first:
        assert blob  # every stage produced output
    records = json.loads(first[2].decode())
    for rec in records:
        assert abs(sum(rec["weights"]) - 1.0) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"end-to-end flow took {elapsed:.1f}s"
