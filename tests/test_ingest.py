"""Crawler tests against the replay server: pacing, retry state machine,
pagination termination, resume from the result store (after cooperative
stops and hard kills), and dataset determinism."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import nftfolio
from conftest import fast_config
from nftfolio.ingest import (
    CrawlConfig,
    CrawlError,
    CrawlStopped,
    FetchReset,
    FetchStatusError,
    FetchTimeout,
    MarketClient,
    PageState,
    RateLimiter,
    TokenFetchError,
    discover_collections,
    enumerate_tokens,
    fetch_trade_history,
    run_crawl,
)
from nftfolio.ingest import _ResultStore
from nftfolio.model import (
    CollectionRef,
    PriceSeries,
    SchemaError,
    TokenRef,
    TradeEvent,
    load_dataset,
    validate_dataset,
)
from nftfolio.replay import (
    EMPTY_BODY,
    HTTP_403,
    HTTP_429,
    HTTP_503,
    RESET,
    TIMEOUT,
    FaultRule,
    Fixture,
    FixtureCollection,
    generate_fixture,
)
from nftfolio.returns import clean_series


def manual_fixture(trades_by_token, name="ManualSeries", volume=1_000_000.0):
    ref = CollectionRef("ManualColl1", name, volume, "IntId1")
    return Fixture(
        seed=0,
        collections=[
            FixtureCollection(ref=ref, tokens=list(trades_by_token), trades=dict(trades_by_token))
        ],
    )


def sale(t, price):
    return TradeEvent("buyNow", t, price)


def requests_to(server, path):
    return [r for r in server.request_log() if r.path == path]


def stored_series(workdir, series, tokens):
    """The tokens among ``tokens`` whose series the workdir's result store
    holds, i.e. the tokens a resume would skip."""
    store = _ResultStore(Path(workdir) / "results.jsonl")
    try:
        return {tok for tok in tokens if store.has_series(series, tok)}
    finally:
        store.close()


def expected_dataset(fixture, exclude=()):
    """What a complete crawl of the fixture must produce, derived directly
    from the fixture contents (sales only, cleaned)."""
    out = {}
    for coll in fixture.collections:
        entries = []
        for tok in coll.tokens:
            if tok in exclude:
                continue
            sales = [e for e in coll.trades[tok] if e.event_type == "buyNow"]
            raw = PriceSeries(
                TokenRef(tok, coll.ref.collection_name),
                tuple(e.block_time for e in sales),
                tuple(e.price for e in sales),
            )
            entries.append(clean_series(raw))
        out[coll.ref.collection_name] = entries
    return out


class ScriptedClient:
    """Stand-in client with a scripted response list; exceptions raise."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []
        self.rotations = 0

    def get(self, path, params=None):
        self.calls.append((path, dict(params or {})))
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def rotate_proxy(self):
        self.rotations += 1


class TestRateLimiter:
    def test_ten_requests_span_at_least_3_6_seconds(self):
        limiter = RateLimiter(qps_limit=1000.0, download_delay_seconds=0.4, max_concurrent=4)
        start = time.monotonic()
        for _ in range(10):
            with limiter.slot():
                pass
        assert time.monotonic() - start >= 3.6

    def test_qps_bound_dominates_when_tighter(self):
        # qps 5 means 0.2 s start-to-start even though the delay is 0.05
        limiter = RateLimiter(qps_limit=5.0, download_delay_seconds=0.05, max_concurrent=4)
        start = time.monotonic()
        for _ in range(4):
            with limiter.slot():
                pass
        assert time.monotonic() - start >= 0.6

    def test_in_flight_cap(self):
        limiter = RateLimiter(qps_limit=10_000.0, download_delay_seconds=0.0, max_concurrent=2)
        active = 0
        peak = 0
        lock = threading.Lock()

        def worker():
            nonlocal active, peak
            with limiter.slot():
                with lock:
                    active += 1
                    peak = max(peak, active)
                time.sleep(0.05)
                with lock:
                    active -= 1

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak <= 2

    def test_threaded_starts_keep_spacing(self):
        limiter = RateLimiter(qps_limit=1000.0, download_delay_seconds=0.05, max_concurrent=4)
        starts = []
        lock = threading.Lock()

        def worker():
            limiter.acquire_slot()
            with lock:
                starts.append(time.monotonic())
            limiter.release_slot()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        starts.sort()
        assert starts[-1] - starts[0] >= 7 * 0.05 - 0.01

    def test_drain_waits_for_next_start_slot(self):
        limiter = RateLimiter(qps_limit=1000.0, download_delay_seconds=0.2, max_concurrent=2)
        start = time.monotonic()
        limiter.drain()  # no slot taken yet: nothing to wait for
        assert time.monotonic() - start < 0.1
        with limiter.slot():
            first = time.monotonic()
        limiter.drain()
        assert time.monotonic() - first >= 0.2 - 0.01


class TestCrawlConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CrawlConfig(endpoint_base="")
        with pytest.raises(ValueError):
            CrawlConfig(endpoint_base="http://x", qps_limit=0)
        with pytest.raises(ValueError):
            CrawlConfig(endpoint_base="http://x", download_delay_seconds=-0.1)
        with pytest.raises(ValueError):
            CrawlConfig(endpoint_base="http://x", max_concurrent_per_host=0)

    def test_proxies_coerced_to_tuple(self):
        config = CrawlConfig(endpoint_base="http://x", proxies=["a", "b"])
        assert config.proxies == ("a", "b")


class TestMarketClient:
    def test_get_returns_body(self, server_factory):
        server = server_factory(generate_fixture(42))
        client = MarketClient(fast_config(server.base_url))
        body = client.get("/collections", {"offset": 0, "limit": 50})
        assert '"collection_id":"' in body

    def test_non_200_raises_status_error(self, server_factory):
        server = server_factory(generate_fixture(42))
        client = MarketClient(fast_config(server.base_url))
        with pytest.raises(FetchStatusError) as info:
            client.get("/frogs")
        assert info.value.status == 404

    def test_timeout_maps_to_fetch_timeout(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", TIMEOUT))
        server = server_factory(fx, fault_timeout_seconds=1.0)
        client = MarketClient(fast_config(server.base_url, request_timeout_seconds=0.3))
        with pytest.raises(FetchTimeout):
            client.get("/collections")

    def test_reset_maps_to_fetch_reset(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", RESET))
        server = server_factory(fx)
        client = MarketClient(fast_config(server.base_url))
        with pytest.raises(FetchReset):
            client.get("/collections")

    def test_proxy_rotation_round_robin(self, server_factory):
        server = server_factory(generate_fixture(42))
        client = MarketClient(fast_config(server.base_url, proxies=("proxy-a", "proxy-b")))
        assert client.current_proxy == "proxy-a"
        client.get("/collections")
        client.rotate_proxy()
        client.get("/collections")
        client.rotate_proxy()  # wraps back around
        client.get("/collections")
        identities = [r.proxy_identity for r in server.request_log()]
        assert identities == ["proxy-a", "proxy-b", "proxy-a"]

    def test_no_proxy_header_without_pool(self, server_factory):
        server = server_factory(generate_fixture(42))
        client = MarketClient(fast_config(server.base_url))
        client.rotate_proxy()  # no-op without a pool
        client.get("/collections")
        assert server.request_log()[0].proxy_identity is None

    def test_cookie_save_and_reload(self, server_factory, tmp_path):
        server = server_factory(generate_fixture(42))
        first = MarketClient(fast_config(server.base_url))
        first.get("/collections")
        jar_path = tmp_path / "cookies.json"
        first.save_cookies(jar_path)
        jar = json.loads(jar_path.read_text())
        assert jar.get("replay_session") == "s42"

        second = MarketClient(fast_config(server.base_url))
        second.load_cookies(jar_path)
        second.get("/collections")
        assert "replay_session=s42" in (server.request_log()[-1].cookie or "")

    def test_load_missing_cookie_file_is_noop(self, tmp_path):
        client = MarketClient(fast_config("http://127.0.0.1:9"))
        client.load_cookies(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", ["[1]", "{not json"])
    def test_load_malformed_cookie_file_is_schema_error(self, tmp_path, text):
        jar_path = tmp_path / "cookies.json"
        jar_path.write_text(text)
        client = MarketClient(fast_config("http://127.0.0.1:9"))
        with pytest.raises(SchemaError, match=r"cookie file .*cookies\.json: "):
            client.load_cookies(jar_path)


class TestDiscoverCollections:
    def test_refs_ranked_by_volume(self, server_factory):
        fx = generate_fixture(42, n_collections=4)
        server = server_factory(fx)
        config = fast_config(server.base_url)
        refs = discover_collections(MarketClient(config), config)
        volumes = [r.volume for r in refs]
        assert volumes == sorted(volumes, reverse=True)
        assert {r.collection_id for r in refs} == {
            c.ref.collection_id for c in fx.collections
        }

    def test_request_carries_ranking_params(self, server_factory):
        server = server_factory(generate_fixture(42))
        config = fast_config(server.base_url, collection_limit=25)
        discover_collections(MarketClient(config), config)
        query = server.request_log()[0].query
        assert query == {"sort_by": "volume", "offset": "0", "limit": "25", "sort_order": "desc"}

    def test_403_rotates_proxy_and_retries(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", HTTP_403))
        server = server_factory(fx)
        config = fast_config(server.base_url, proxies=("proxy-a", "proxy-b"))
        refs = discover_collections(MarketClient(config), config)
        assert len(refs) == 3
        identities = [r.proxy_identity for r in server.request_log()]
        assert identities == ["proxy-a", "proxy-b"]

    def test_second_403_is_fatal(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", HTTP_403, occurrence=0))
        fx.fault_schedule.append(FaultRule("/collections", HTTP_403, occurrence=1))
        server = server_factory(fx)
        config = fast_config(server.base_url, proxies=("proxy-a", "proxy-b"))
        with pytest.raises(CrawlError, match="discovery failed"):
            discover_collections(MarketClient(config), config)

    def test_timeout_retries_once_then_succeeds(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", TIMEOUT))
        server = server_factory(fx, fault_timeout_seconds=1.0)
        config = fast_config(server.base_url, request_timeout_seconds=0.3)
        refs = discover_collections(MarketClient(config), config)
        assert len(refs) == 3
        assert len(server.request_log()) == 2

    def test_connection_drop_is_fatal(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", RESET))
        server = server_factory(fx)
        config = fast_config(server.base_url)
        with pytest.raises(CrawlError, match="connection dropped"):
            discover_collections(MarketClient(config), config)

    @pytest.mark.parametrize("fault", [HTTP_429, HTTP_503])
    def test_throttle_status_is_fatal_without_retry(self, server_factory, fault):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections?", fault))
        server = server_factory(fx)
        config = fast_config(server.base_url)
        with pytest.raises(CrawlError, match="discovery failed"):
            discover_collections(MarketClient(config), config)
        assert len(server.request_log()) == 1


class TestEnumerateTokens:
    def collection_of(self, fx):
        return fx.collections[0].ref

    def test_walks_pages_until_empty(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=120,
                              trades_per_token_range=(0, 0))
        server = server_factory(fx)
        config = fast_config(server.base_url, page_size_tokens=50)
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_EMPTY
        assert [t.token for t in result.tokens] == fx.collections[0].tokens
        cid = fx.collections[0].ref.collection_id
        pages = [int(r.query["page"]) for r in requests_to(server, f"/collections/{cid}/tokens")]
        # 120 tokens at 50 per page: three full-or-partial pages plus the
        # empty page that reveals the end of the listing
        assert pages == [0, 1, 2, 3]

    def test_timeout_ends_listing_with_partial_tokens(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=120,
                              trades_per_token_range=(0, 0))
        fx.fault_schedule.append(FaultRule("page=2&", TIMEOUT))
        server = server_factory(fx, fault_timeout_seconds=1.0)
        config = fast_config(server.base_url, page_size_tokens=50,
                             request_timeout_seconds=0.3)
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_TIMEOUT
        assert [t.token for t in result.tokens] == fx.collections[0].tokens[:100]

    def test_reset_ends_listing_as_stale(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=120,
                              trades_per_token_range=(0, 0))
        fx.fault_schedule.append(FaultRule("page=1&", RESET))
        server = server_factory(fx)
        config = fast_config(server.base_url, page_size_tokens=50)
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_STALE
        assert len(result.tokens) == 50

    def test_403_rotates_and_retries_page(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=4,
                              trades_per_token_range=(0, 0))
        fx.fault_schedule.append(FaultRule("page=0&", HTTP_403))
        server = server_factory(fx)
        config = fast_config(server.base_url, proxies=("proxy-a", "proxy-b"))
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_EMPTY
        assert len(result.tokens) == 4
        cid = fx.collections[0].ref.collection_id
        token_requests = requests_to(server, f"/collections/{cid}/tokens")
        assert [r.proxy_identity for r in token_requests[:2]] == ["proxy-a", "proxy-b"]

    def test_second_403_intercepts_listing(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=120,
                              trades_per_token_range=(0, 0))
        fx.fault_schedule.append(FaultRule("page=1&", HTTP_403, occurrence=0))
        fx.fault_schedule.append(FaultRule("page=1&", HTTP_403, occurrence=1))
        server = server_factory(fx)
        config = fast_config(server.base_url, page_size_tokens=50)
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_INTERCEPTED
        assert len(result.tokens) == 50

    def test_429_backs_off_and_retries_once(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=4,
                              trades_per_token_range=(0, 0))
        fx.fault_schedule.append(FaultRule("page=0&", HTTP_429))
        server = server_factory(fx)
        config = fast_config(server.base_url, proxies=("proxy-a", "proxy-b"))
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_EMPTY
        assert [t.token for t in result.tokens] == fx.collections[0].tokens
        cid = fx.collections[0].ref.collection_id
        token_requests = requests_to(server, f"/collections/{cid}/tokens")
        assert [int(r.query["page"]) for r in token_requests] == [0, 0, 1]
        # backing off is not rotating: every request keeps the first identity
        assert {r.proxy_identity for r in token_requests} == {"proxy-a"}

    def test_second_429_intercepts_listing(self, server_factory):
        fx = generate_fixture(5, n_collections=1, tokens_per_collection=4,
                              trades_per_token_range=(0, 0))
        fx.fault_schedule.append(FaultRule("page=0&", HTTP_429, occurrence=0))
        fx.fault_schedule.append(FaultRule("page=0&", HTTP_503, occurrence=1))
        server = server_factory(fx)
        config = fast_config(server.base_url)
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_INTERCEPTED
        assert result.tokens == []
        assert len(server.request_log()) == 2

    def test_empty_body_listing_page_is_stale(self, server_factory):
        # a 0-byte 200 is a dropped body, not the end of the listing
        fx = generate_fixture(42, n_collections=1, tokens_per_collection=6)
        fx.fault_schedule.append(FaultRule("tokens?page=1&", EMPTY_BODY))
        server = server_factory(fx)
        config = fast_config(server.base_url, page_size_tokens=2)
        result = enumerate_tokens(MarketClient(config), config, self.collection_of(fx))
        assert result.state is PageState.DONE_STALE
        assert [t.token for t in result.tokens] == fx.collections[0].tokens[:2]
        assert len(server.request_log()) == 2

    def test_unexpected_status_is_fatal(self):
        config = CrawlConfig(endpoint_base="http://x")
        collection = CollectionRef("Coll1", "S", 1.0, None)
        client = ScriptedClient([FetchStatusError(500, "u")])
        with pytest.raises(CrawlError):
            enumerate_tokens(client, config, collection)


class TestFetchTradeHistory:
    def token_ref(self, fx):
        tok = fx.collections[0].tokens[0]
        return TokenRef(tok, fx.collections[0].ref.collection_name)

    def test_1234_trades_take_exactly_four_requests(self, server_factory):
        trades = [sale(1000 + i, 1.0 + (i % 7) * 0.25) for i in range(1234)]
        fx = manual_fixture({"BigTok1": trades})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 1234
        offsets = [int(r.query["offset"]) for r in requests_to(server, "/tokens/BigTok1/activities")]
        assert offsets == [0, 500, 1000, 1500]

    def test_exact_page_multiple_needs_one_extra_request(self, server_factory):
        trades = [sale(1000 + i, 2.0) for i in range(1000)]
        fx = manual_fixture({"EvenTok1": trades})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 1000
        offsets = [int(r.query["offset"]) for r in requests_to(server, "/tokens/EvenTok1/activities")]
        assert offsets == [0, 500, 1000]

    def test_zero_trades_take_one_request(self, server_factory):
        fx = manual_fixture({"EmptyTok1": []})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 0
        assert len(requests_to(server, "/tokens/EmptyTok1/activities")) == 1

    def test_short_page_does_not_end_pagination_early(self, server_factory):
        # 7 trades fit in one page; termination must still come from the
        # following no-sales page, not from the page being short
        fx = manual_fixture({"TinyTok1": [sale(10 * i + 10, 1.0 + i) for i in range(7)]})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 7
        assert len(requests_to(server, "/tokens/TinyTok1/activities")) == 2

    def test_keeps_only_sales(self, server_factory):
        events = [
            sale(10, 1.0),
            TradeEvent("list", 20, 9.9),
            TradeEvent("bid", 25, 8.8),
            sale(30, 2.0),
            TradeEvent("delist", 40, 7.7),
        ]
        fx = manual_fixture({"MixTok1": events})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert series.timestamps == (10, 30)
        assert series.prices == (1.0, 2.0)

    def test_only_non_sale_events_yield_empty_series(self, server_factory):
        events = [TradeEvent("list", 10, 1.0), TradeEvent("bid", 20, 2.0)]
        fx = manual_fixture({"ListTok1": events})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 0

    def test_series_comes_back_cleaned(self, server_factory):
        events = [sale(10, 1.0), sale(10, 2.0), sale(20, 3.0)]
        fx = manual_fixture({"DupTok1": events})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert series.timestamps == (10, 20)
        assert series.prices == (2.0, 3.0)

    @pytest.mark.parametrize("fault", [RESET, HTTP_429, HTTP_503])
    def test_one_reset_retries_then_succeeds(self, server_factory, fault):
        fx = manual_fixture({"FlakyTok1": [sale(10 * i + 5, 1.0 + i) for i in range(6)]})
        fx.fault_schedule.append(FaultRule("offset=0", fault))
        server = server_factory(fx)
        config = fast_config(server.base_url)
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 6
        assert len(requests_to(server, "/tokens/FlakyTok1/activities")) == 3

    def test_two_failures_on_a_page_raise_token_fetch_error(self, server_factory):
        fx = manual_fixture({"DeadTok1": [sale(10, 1.0)]})
        fx.fault_schedule.append(FaultRule("offset=0", RESET, occurrence=0))
        fx.fault_schedule.append(FaultRule("offset=0", RESET, occurrence=1))
        server = server_factory(fx)
        config = fast_config(server.base_url)
        with pytest.raises(TokenFetchError) as info:
            fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert info.value.token == "DeadTok1"
        assert info.value.next_offset == 0

    def test_403_rotates_proxy_between_attempts(self, server_factory):
        fx = manual_fixture({"AuthTok1": [sale(10 * i + 5, 2.0) for i in range(3)]})
        fx.fault_schedule.append(FaultRule("offset=0", HTTP_403))
        server = server_factory(fx)
        config = fast_config(server.base_url, proxies=("proxy-a", "proxy-b"))
        series = fetch_trade_history(MarketClient(config), config, self.token_ref(fx))
        assert len(series) == 3
        log = requests_to(server, "/tokens/AuthTok1/activities")
        assert [r.proxy_identity for r in log[:2]] == ["proxy-a", "proxy-b"]

    def test_preset_stop_event_aborts(self, server_factory):
        fx = manual_fixture({"StopTok1": [sale(10, 1.0)]})
        server = server_factory(fx)
        config = fast_config(server.base_url)
        stop = threading.Event()
        stop.set()
        with pytest.raises(CrawlStopped):
            fetch_trade_history(MarketClient(config), config, self.token_ref(fx), stop_event=stop)
        assert len(server.request_log()) == 0


class TestPersistence:
    def test_result_store_keeps_last_append(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = _ResultStore(path)
        store.append_order("S", ["a1", "b2"], PageState.DONE_EMPTY)
        store.append_series("S", "a1", [10, 20], [1.0, 2.0])
        store.append_series("S", "a1", [10, 20, 30], [1.0, 2.0, 3.0])
        store.close()
        reloaded = _ResultStore(path)
        assert reloaded.get_order("S") == ["a1", "b2"]
        assert reloaded.get_series("S", "a1") == ([10, 20, 30], [1.0, 2.0, 3.0])
        assert not reloaded.has_series("S", "b2")
        reloaded.close()

    def test_result_store_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"kind":"order","series":"S","tokens":["a1"]}\nnot json\n')
        with pytest.raises(SchemaError, match="line 2"):
            _ResultStore(path)

    def test_result_store_drops_torn_final_record(self, tmp_path):
        path = tmp_path / "results.jsonl"
        order = '{"kind":"order","series":"S","tokens":["a1"]}\n'
        path.write_text(order + '{"kind":"series","series":"S","tok')
        store = _ResultStore(path)
        assert store.get_order("S") == ["a1"]
        assert path.read_text() == order
        store.append_series("S", "a1", [10, 20], [1.0, 2.0])
        store.close()
        reloaded = _ResultStore(path)
        assert reloaded.get_series("S", "a1") == ([10, 20], [1.0, 2.0])
        reloaded.close()


class TestRunCrawl:
    def test_malformed_cookie_file_fails_before_the_store_opens(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        (work / "cookies.json").write_text("[1]")
        config = fast_config("http://127.0.0.1:9", cookie_persistence=True)
        with pytest.raises(SchemaError, match="top level is not a JSON object"):
            run_crawl(config, work)
        assert not (work / "results.jsonl").exists()
        assert (work / "cookies.json").read_text() == "[1]"

    def test_full_crawl_matches_fixture_contents(self, server_factory, tmp_path):
        fx = generate_fixture(42)
        server = server_factory(fx)
        out = run_crawl(fast_config(server.base_url), tmp_path / "work")
        assert out is not None
        dataset = load_dataset(out)
        assert validate_dataset(dataset) == []
        assert dataset == expected_dataset(fx)
        for c in fx.collections:
            assert stored_series(tmp_path / "work", c.ref.collection_name, c.tokens) == set(c.tokens)
        assert not (tmp_path / "work" / "collections.json").exists()
        assert not (tmp_path / "work" / "checkpoint.json").exists()

    def test_two_runs_byte_identical(self, server_factory, tmp_path):
        fx = generate_fixture(42)
        out_a = run_crawl(
            fast_config(server_factory(fx).base_url, max_concurrent_per_host=1),
            tmp_path / "a",
        )
        out_b = run_crawl(
            fast_config(server_factory(fx).base_url, max_concurrent_per_host=3),
            tmp_path / "b",
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_interrupted_crawl_resumes_byte_identical(self, server_factory, tmp_path):
        fx = generate_fixture(42)
        server = server_factory(fx)
        config = fast_config(server.base_url, max_concurrent_per_host=1)
        partial = run_crawl(config, tmp_path / "resumed", stop_after_tokens=2)
        assert partial is None
        stored = sum(
            len(stored_series(tmp_path / "resumed", c.ref.collection_name, c.tokens))
            for c in fx.collections
        )
        # the budget may overshoot by futures already in flight, but the
        # stop lands within the first collection (4 tokens)
        assert 2 <= stored <= 4

        resumed = run_crawl(config, tmp_path / "resumed")
        clean = run_crawl(config, tmp_path / "fresh")
        assert resumed is not None
        assert resumed.read_bytes() == clean.read_bytes()

    def test_torn_store_record_resumes_byte_identical(self, server_factory, tmp_path):
        fx = generate_fixture(42)
        server = server_factory(fx)
        config = fast_config(server.base_url, max_concurrent_per_host=1)
        assert run_crawl(config, tmp_path / "torn", stop_after_tokens=2) is None
        store_path = tmp_path / "torn" / "results.jsonl"
        last = store_path.read_text().splitlines()[-1]
        with store_path.open("a") as handle:
            handle.write(last[: len(last) // 2])  # an append cut short

        resumed = run_crawl(config, tmp_path / "torn")
        clean = run_crawl(config, tmp_path / "fresh")
        assert resumed is not None
        assert resumed.read_bytes() == clean.read_bytes()
        for line in store_path.read_text().splitlines():
            json.loads(line)

    @pytest.mark.parametrize("schedule", [
        [],
        [FaultRule("tokens?page=0", HTTP_403), FaultRule("activities?offset=0", RESET, 1)],
    ], ids=["clean", "faults"])
    def test_killed_crawl_resumes_byte_identical(self, server_factory, tmp_path, schedule):
        # One collection of three tokens is 9 requests: discovery, two
        # listing pages and two activity pages per token, plus one retry per
        # recoverable fault.  For each k a crawl process is killed once its
        # server has logged its k-th request, which may fall between a
        # failure and its retry; the 0.05 s start-to-start gap leaves the
        # poll time to land the kill before request k + 1.  Each k gets a
        # fresh server, since the fault counters live in the server.
        clean_server = server_factory(generate_fixture(3, n_collections=1, tokens_per_collection=3))
        clean = run_crawl(fast_config(clean_server.base_url), tmp_path / "clean").read_bytes()
        fx = generate_fixture(3, n_collections=1, tokens_per_collection=3)
        fx.fault_schedule.extend(schedule)
        server = server_factory(fx)
        config = fast_config(server.base_url, max_concurrent_per_host=1)
        assert run_crawl(config, tmp_path / "fresh").read_bytes() == clean
        total = len(server.request_log())
        assert total == 9 + len(schedule)
        env = dict(os.environ, PYTHONPATH=str(Path(nftfolio.__file__).parents[1]))
        for k in range(1, total + 1):
            workdir = tmp_path / f"killed-{k}"
            server = server_factory(fx)
            config = fast_config(server.base_url, max_concurrent_per_host=1)
            proc = subprocess.Popen(
                [sys.executable, "-m", "nftfolio", "crawl", "--endpoint", server.base_url,
                 "--workdir", str(workdir), "--qps", "1000", "--delay", "0.05",
                 "--concurrency", "1"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.monotonic() + 30
                while len(server.request_log()) < k:
                    assert proc.poll() is None, f"crawl exited before request {k}"
                    assert time.monotonic() < deadline, f"no request {k} within 30 s"
                    time.sleep(0.001)
            finally:
                proc.kill()  # SIGKILL
                proc.wait(timeout=30)
            resumed = run_crawl(config, workdir)
            assert resumed.read_bytes() == clean, f"kill after request {k}"

    def test_pacing_holds_across_consecutive_crawls(self, server_factory, tmp_path):
        fx = generate_fixture(7, n_collections=1, tokens_per_collection=3)
        server = server_factory(fx)
        config = CrawlConfig(endpoint_base=server.base_url)  # stock pacing
        assert run_crawl(config, tmp_path / "work", stop_after_tokens=1) is None
        assert run_crawl(config, tmp_path / "work") is not None
        starts = sorted(r.timestamp for r in server.request_log())
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert min(gaps) >= 0.4 - 0.01

    def test_completed_crawl_rerun_only_rediscovers(self, server_factory, tmp_path):
        fx = generate_fixture(42)
        server = server_factory(fx)
        config = fast_config(server.base_url)
        first = run_crawl(config, tmp_path / "work")
        before = len(server.request_log())
        second = run_crawl(config, tmp_path / "work")
        after = len(server.request_log())
        assert after - before == 1  # collection discovery only
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("faults", [
        [RESET], [TIMEOUT], [HTTP_429, HTTP_503], [HTTP_403, HTTP_403], [EMPTY_BODY],
    ], ids=["reset", "timeout", "429-503", "403-403", "empty-body"])
    def test_truncated_listing_heals_on_next_run(self, server_factory, tmp_path, faults):
        # Listing page 1 of 3 fails for good, so the first run keeps the two
        # tokens of page 0 and exits with a dataset; the collection stays
        # open, and the next run enumerates it again and completes it.
        def fixture():
            return generate_fixture(42, n_collections=1, tokens_per_collection=6)

        fx = fixture()
        for occurrence, fault in enumerate(faults):
            fx.fault_schedule.append(FaultRule("tokens?page=1&", fault, occurrence))
        server = server_factory(fx, fault_timeout_seconds=1.0)
        config = fast_config(server.base_url, page_size_tokens=2, request_timeout_seconds=0.3)
        work = tmp_path / "work"
        first = load_dataset(run_crawl(config, work))
        name = fx.collections[0].ref.collection_name
        assert [s.token.token for s in first[name]] == fx.collections[0].tokens[:2]

        clean_server = server_factory(fixture())
        clean = run_crawl(fast_config(clean_server.base_url, page_size_tokens=2), tmp_path / "clean")
        assert run_crawl(config, work).read_bytes() == clean.read_bytes()
        before = len(server.request_log())
        run_crawl(config, work)
        assert len(server.request_log()) - before == 1  # discovery only

    def test_order_without_end_state_is_enumerated_again_once(self, server_factory, tmp_path):
        # A store written before the listing's end state was recorded: its
        # collections count as unfinished, which costs one re-enumeration.
        fx = generate_fixture(42, n_collections=1)
        server = server_factory(fx)
        config = fast_config(server.base_url)
        work = tmp_path / "work"
        first = run_crawl(config, work).read_bytes()
        store_path = work / "results.jsonl"
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        for rec in records:
            rec.pop("end", None)
        store_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

        before = len(server.request_log())
        assert run_crawl(config, work).read_bytes() == first
        rerun = server.request_log()[before:]
        cid = fx.collections[0].ref.collection_id
        # discovery and the two listing pages; every token's series is kept
        assert [r.path for r in rerun] == ["/collections"] + [f"/collections/{cid}/tokens"] * 2
        before = len(server.request_log())
        assert run_crawl(config, work).read_bytes() == first
        assert len(server.request_log()) - before == 1

    def test_preset_stop_event_stops_after_discovery(self, server_factory, tmp_path):
        server = server_factory(generate_fixture(42))
        stop = threading.Event()
        stop.set()
        out = run_crawl(fast_config(server.base_url), tmp_path / "work", stop_event=stop)
        assert out is None
        assert len(server.request_log()) == 1

    def test_failed_token_excluded_and_collection_left_open(self, server_factory, tmp_path):
        fx = generate_fixture(42, n_collections=1)
        bad = fx.collections[0].tokens[1]
        for occurrence in range(2):
            fx.fault_schedule.append(
                FaultRule(f"/tokens/{bad}/", RESET, occurrence=occurrence)
            )
        server = server_factory(fx)
        config = fast_config(server.base_url, max_concurrent_per_host=1)
        out = run_crawl(config, tmp_path / "work")
        assert out is not None
        dataset = load_dataset(out)
        assert dataset == expected_dataset(fx, exclude={bad})
        name = fx.collections[0].ref.collection_name
        assert stored_series(tmp_path / "work", name, [bad]) == set()

    def test_empty_body_mid_history_fails_token_until_refetched(self, server_factory, tmp_path):
        # A 200 with an empty body at offset 10 of a 20-sale history is a
        # fetch failure, not the end of the history: nothing of the token
        # is kept, and the next run fetches all 20 sales.
        fx = manual_fixture({
            "GapTok1": [sale(1_700_000_000 + 61 * i, 1.0 + 0.125 * i) for i in range(20)],
            "FullTok1": [sale(1_700_000_000 + 67 * i, 2.0 + 0.25 * i) for i in range(5)],
        })
        fx.fault_schedule.append(FaultRule("/tokens/GapTok1/activities?offset=10", EMPTY_BODY))
        server = server_factory(fx)
        config = fast_config(server.base_url, page_size_activities=10)
        work = tmp_path / "work"
        out = run_crawl(config, work)
        assert load_dataset(out) == expected_dataset(fx, exclude={"GapTok1"})
        assert stored_series(work, "ManualSeries", ["GapTok1", "FullTok1"]) == {"FullTok1"}

        healed = load_dataset(run_crawl(config, work))
        assert healed == expected_dataset(fx)
        assert len(healed["ManualSeries"][0]) == 20

    def test_failed_token_recovered_on_next_run(self, server_factory, tmp_path):
        fx = generate_fixture(42, n_collections=1)
        bad = fx.collections[0].tokens[1]
        faulty = generate_fixture(42, n_collections=1)
        for occurrence in range(2):
            faulty.fault_schedule.append(
                FaultRule(f"/tokens/{bad}/", RESET, occurrence=occurrence)
            )
        first_server = server_factory(faulty)
        run_crawl(fast_config(first_server.base_url, max_concurrent_per_host=1),
                  tmp_path / "work")

        second_server = server_factory(fx)
        healed = run_crawl(fast_config(second_server.base_url, max_concurrent_per_host=1),
                           tmp_path / "work")
        clean = run_crawl(fast_config(second_server.base_url), tmp_path / "fresh")
        assert healed.read_bytes() == clean.read_bytes()
        name = fx.collections[0].ref.collection_name
        assert stored_series(tmp_path / "work", name, [bad]) == {bad}
        # the recovery run fetched activities only for the failed token
        bad_fetches = [
            r for r in second_server.request_log() if r.path.startswith("/tokens/")
        ]
        healed_fetch_tokens = {r.path.split("/")[2] for r in bad_fetches[:2]}
        assert healed_fetch_tokens == {bad}

    def test_cookie_persistence_across_runs(self, server_factory, tmp_path):
        fx = generate_fixture(42, n_collections=1)
        server = server_factory(fx)
        config = fast_config(server.base_url, cookie_persistence=True)
        run_crawl(config, tmp_path / "work")
        assert (tmp_path / "work" / "cookies.json").exists()
        before = len(server.request_log())
        run_crawl(config, tmp_path / "work")
        rerun_requests = server.request_log()[before:]
        assert any("replay_session=" in (r.cookie or "") for r in rerun_requests)

    def test_empty_fixture_writes_empty_dataset(self, server_factory, tmp_path):
        server = server_factory(Fixture(seed=0, collections=[]))
        out = run_crawl(fast_config(server.base_url), tmp_path / "work")
        assert out.read_text() == "{}\n"

    def test_explicit_out_path(self, server_factory, tmp_path):
        server = server_factory(generate_fixture(42, n_collections=1))
        out = run_crawl(
            fast_config(server.base_url), tmp_path / "work", out_path=tmp_path / "data.json"
        )
        assert out == tmp_path / "data.json"
        assert out.exists()
