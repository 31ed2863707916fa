"""Replay server and fixture tests: determinism, endpoint contracts,
fault injection, and the request log."""

import time

import pytest
import requests

from nftfolio.extract import (
    parse_activity_page,
    parse_collection_overview,
    parse_token_links,
)
from nftfolio.replay import (
    EMPTY_BODY,
    HTTP_403,
    RESET,
    TIMEOUT,
    FaultRule,
    Fixture,
    ReplayServer,
    generate_fixture,
    load_fixture,
    save_fixture,
)

SIDE_EVENTS = {"list", "bid", "cancelBid", "delist"}


class TestFixtureGeneration:
    def test_same_seed_same_fixture(self):
        a = generate_fixture(42)
        b = generate_fixture(42)
        assert a.to_json_obj() == b.to_json_obj()

    def test_different_seed_different_fixture(self):
        assert generate_fixture(1).to_json_obj() != generate_fixture(2).to_json_obj()

    def test_shape_and_walk_properties(self):
        fx = generate_fixture(7, n_collections=2, tokens_per_collection=3,
                              trades_per_token_range=(4, 9))
        assert len(fx.collections) == 2
        volumes = [c.ref.volume for c in fx.collections]
        assert len(set(volumes)) == 2
        for coll in fx.collections:
            assert len(coll.tokens) == 3
            for tok in coll.tokens:
                events = coll.trades[tok]
                sales = [e for e in events if e.event_type == "buyNow"]
                assert 4 <= len(sales) <= 9
                assert all(e.event_type == "buyNow" or e.event_type in SIDE_EVENTS
                           for e in events)
                times = [e.block_time for e in events]
                assert times == sorted(times)
                assert all(e.price > 0 for e in events)

    def test_round_trip_through_file(self, tmp_path):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", HTTP_403, occurrence=1))
        path = tmp_path / "fixture.json"
        save_fixture(fx, path)
        back = load_fixture(path)
        assert back.to_json_obj() == fx.to_json_obj()

    def test_bad_fault_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultRule("/collections", "HTTP_500")


class TestEndpoints:
    def test_collections_sorted_by_volume_and_parseable(self, server_factory):
        fx = generate_fixture(42, n_collections=5)
        server = server_factory(fx)
        resp = requests.get(f"{server.base_url}/collections", params={"offset": 0, "limit": 50})
        assert resp.status_code == 200
        refs = parse_collection_overview(resp.text)
        assert len(refs) == 5
        volumes = [r.volume for r in refs]
        assert volumes == sorted(volumes, reverse=True)
        assert "replay_session=" in resp.headers.get("Set-Cookie", "")

    def test_collections_offset_slices(self, server_factory):
        fx = generate_fixture(42, n_collections=5)
        server = server_factory(fx)
        full = parse_collection_overview(
            requests.get(f"{server.base_url}/collections", params={"offset": 0, "limit": 50}).text
        )
        tail = parse_collection_overview(
            requests.get(f"{server.base_url}/collections", params={"offset": 3, "limit": 50}).text
        )
        assert [r.collection_id for r in tail] == [r.collection_id for r in full[3:]]

    def test_volume_layout_matches_extractor(self, server_factory):
        # the "volume" field must be immediately followed by a comma
        fx = generate_fixture(42, n_collections=1)
        server = server_factory(fx)
        body = requests.get(f"{server.base_url}/collections").text
        assert f'"volume":{fx.collections[0].ref.volume},' in body

    def test_token_pages_and_continuation_marker(self, server_factory):
        fx = generate_fixture(42, n_collections=1, tokens_per_collection=7)
        server = server_factory(fx)
        cid = fx.collections[0].ref.collection_id
        url = f"{server.base_url}/collections/{cid}/tokens"
        first = requests.get(url, params={"page": 0, "limit": 5}).text
        assert parse_token_links(first) == fx.collections[0].tokens[:5]
        assert '"has_next":true' in first
        second = requests.get(url, params={"page": 1, "limit": 5}).text
        assert parse_token_links(second) == fx.collections[0].tokens[5:]
        assert '"has_next":true' in second  # optimistic even on the last page
        beyond = requests.get(url, params={"page": 2, "limit": 5}).text
        assert parse_token_links(beyond) == []
        # the end page has a body, so a dropped body never reads as the end
        assert beyond != ""
        assert '"has_next":true' not in beyond

    def test_unknown_collection_404(self, server_factory):
        server = server_factory(generate_fixture(42))
        resp = requests.get(f"{server.base_url}/collections/NoSuchColl1/tokens")
        assert resp.status_code == 404

    def test_activities_pages_and_contents(self, server_factory):
        fx = generate_fixture(42, n_collections=1, tokens_per_collection=1,
                              trades_per_token_range=(12, 12))
        server = server_factory(fx)
        tok = fx.collections[0].tokens[0]
        events = fx.collections[0].trades[tok]
        url = f"{server.base_url}/tokens/{tok}/activities"
        first = parse_activity_page(requests.get(url, params={"offset": 0, "limit": 10}).text)
        assert [(e.event_type, e.block_time, e.price) for e in first] == [
            (e.event_type, e.block_time, e.price) for e in events[:10]
        ]
        rest = parse_activity_page(
            requests.get(url, params={"offset": 10, "limit": 10}).text
        )
        assert len(first) == 10 and len(rest) == len(events) - 10
        beyond = requests.get(url, params={"offset": len(events), "limit": 10}).text
        assert beyond == "[]"

    def test_unknown_token_404(self, server_factory):
        server = server_factory(generate_fixture(42))
        resp = requests.get(f"{server.base_url}/tokens/zzzzzz9999/activities")
        assert resp.status_code == 404

    def test_unknown_path_404(self, server_factory):
        server = server_factory(generate_fixture(42))
        assert requests.get(f"{server.base_url}/frogs").status_code == 404


class TestFaults:
    def test_http_403_hits_chosen_occurrence_only(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", HTTP_403, occurrence=1))
        server = server_factory(fx)
        url = f"{server.base_url}/collections"
        assert requests.get(url).status_code == 200
        assert requests.get(url).status_code == 403
        assert requests.get(url).status_code == 200

    def test_reset_drops_connection(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", RESET))
        server = server_factory(fx)
        with pytest.raises(requests.exceptions.ConnectionError):
            requests.get(f"{server.base_url}/collections", timeout=5)
        assert requests.get(f"{server.base_url}/collections", timeout=5).status_code == 200

    def test_empty_body(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", EMPTY_BODY))
        server = server_factory(fx)
        resp = requests.get(f"{server.base_url}/collections")
        assert resp.status_code == 200
        assert resp.text == ""

    def test_timeout_stalls_past_client_deadline(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", TIMEOUT))
        server = server_factory(fx, fault_timeout_seconds=3.0)
        start = time.monotonic()
        with pytest.raises(requests.exceptions.Timeout):
            requests.get(f"{server.base_url}/collections", timeout=0.3)
        assert time.monotonic() - start < 2.5

    def test_matcher_scopes_to_substring(self, server_factory):
        fx = generate_fixture(42, n_collections=1, tokens_per_collection=2)
        tok = fx.collections[0].tokens[0]
        other = fx.collections[0].tokens[1]
        fx.fault_schedule.append(FaultRule(f"/tokens/{tok}/", HTTP_403))
        server = server_factory(fx)
        assert requests.get(f"{server.base_url}/tokens/{tok}/activities").status_code == 403
        assert requests.get(f"{server.base_url}/tokens/{other}/activities").status_code == 200

    def test_client_disconnects_are_quiet_other_errors_reported(self, server_factory, capsys):
        httpd = server_factory(generate_fixture(42))._httpd
        for error in (ConnectionResetError, BrokenPipeError):
            try:
                raise error("client went away")
            except error:
                httpd.handle_error(None, ("127.0.0.1", 1))
        assert capsys.readouterr().err == ""
        try:
            raise ValueError("handler bug")
        except ValueError:
            httpd.handle_error(None, ("127.0.0.1", 1))
        err = capsys.readouterr().err
        assert "ValueError: handler bug" in err
        assert "Traceback" in err


class TestRequestLog:
    def test_records_paths_queries_and_headers(self, server_factory):
        fx = generate_fixture(42, n_collections=1)
        server = server_factory(fx)
        requests.get(
            f"{server.base_url}/collections",
            params={"offset": 0, "limit": 50},
            headers={"X-Proxy-Identity": "proxy-a", "Cookie": "replay_session=s42"},
        )
        requests.get(f"{server.base_url}/collections", params={"offset": 50, "limit": 50})
        log = server.request_log()
        assert len(log) == 2
        assert log[0].path == "/collections"
        assert log[0].query == {"offset": "0", "limit": "50"}
        assert log[0].proxy_identity == "proxy-a"
        assert log[0].cookie == "replay_session=s42"
        assert log[1].proxy_identity is None
        assert log[1].timestamp >= log[0].timestamp

    def test_faulted_requests_are_still_logged(self, server_factory):
        fx = generate_fixture(42)
        fx.fault_schedule.append(FaultRule("/collections", HTTP_403))
        server = server_factory(fx)
        requests.get(f"{server.base_url}/collections")
        assert len(server.request_log()) == 1


class TestServerLifecycle:
    def test_busy_port_raises_oserror(self, server_factory):
        server = server_factory(generate_fixture(42))
        with pytest.raises(OSError):
            ReplayServer(generate_fixture(42), port=server.port)

    def test_context_manager_stops_server(self):
        fx = generate_fixture(42)
        with ReplayServer(fx) as server:
            port = server.port
            assert requests.get(f"{server.base_url}/collections").status_code == 200
        with pytest.raises(requests.exceptions.ConnectionError):
            requests.get(f"http://127.0.0.1:{port}/collections", timeout=1)

    def test_two_servers_identical_responses(self, server_factory):
        fx = Fixture.from_json_obj(generate_fixture(42).to_json_obj())
        s1 = server_factory(generate_fixture(42))
        s2 = server_factory(fx)
        b1 = requests.get(f"{s1.base_url}/collections").text
        b2 = requests.get(f"{s2.base_url}/collections").text
        assert b1 == b2
