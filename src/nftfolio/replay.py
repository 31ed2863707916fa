"""Deterministic stand-in for the marketplace API.

A fixture (fully derived from a 64-bit seed) describes collections,
token lists and per-token trade histories.  The server replays it over
the same three endpoints the crawler consumes, keeps a synchronized log
of every request it sees, and can inject faults (a 403, 429 or 503
status, stalled response, dropped connection, empty body) at chosen
occurrences of matching requests, which makes failure-path tests
reproducible.

Response bodies are minified JSON because the extraction patterns expect
the field layouts of the live API, e.g. ``"volume":<number>,`` with no
whitespace after the colon.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from .model import CollectionRef, SchemaError, TradeEvent, read_json, write_json

HTTP_403 = "HTTP_403"
HTTP_429 = "HTTP_429"
HTTP_503 = "HTTP_503"
TIMEOUT = "TIMEOUT"
RESET = "RESET"
EMPTY_BODY = "EMPTY_BODY"
FAULTS = frozenset({HTTP_403, HTTP_429, HTTP_503, TIMEOUT, RESET, EMPTY_BODY})
_STATUS_FAULTS = {
    HTTP_403: (403, b"forbidden"),
    HTTP_429: (429, b"too many requests"),
    HTTP_503: (503, b"service unavailable"),
}

_ALNUM = "ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz123456789"
_ADJECTIVES = ("Amber", "Cobalt", "Ivory", "Crimson", "Jade", "Onyx", "Saffron", "Violet")
_NOUNS = ("Frogs", "Apes", "Bots", "Cats", "Moths", "Owls", "Rocks", "Wolves")
_SIDE_EVENTS = ("list", "bid", "cancelBid", "delist")


@dataclass(frozen=True)
class FaultRule:
    """Inject ``fault`` on the ``occurrence``-th request (0-based) whose
    path-plus-query contains ``matcher``."""

    matcher: str
    fault: str
    occurrence: int = 0

    def __post_init__(self) -> None:
        if self.fault not in FAULTS:
            raise ValueError(f"unknown fault {self.fault!r}; expected one of {sorted(FAULTS)}")
        if self.occurrence < 0:
            raise ValueError("occurrence must be non-negative")


@dataclass
class FixtureCollection:
    ref: CollectionRef
    tokens: list[str]
    trades: dict[str, list[TradeEvent]]


@dataclass
class Fixture:
    seed: int
    collections: list[FixtureCollection]
    fault_schedule: list[FaultRule] = field(default_factory=list)

    def trades_for(self, token: str) -> list[TradeEvent] | None:
        for coll in self.collections:
            if token in coll.trades:
                return coll.trades[token]
        return None

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "collections": [
                {
                    "collection_id": c.ref.collection_id,
                    "collection_name": c.ref.collection_name,
                    "volume": c.ref.volume,
                    "id": c.ref.internal_id,
                    "tokens": list(c.tokens),
                    "trades": {
                        tok: [
                            {"type": e.event_type, "blockTime": e.block_time, "price": e.price}
                            for e in events
                        ]
                        for tok, events in c.trades.items()
                    },
                }
                for c in self.collections
            ],
            "fault_schedule": [
                {"matcher": r.matcher, "fault": r.fault, "occurrence": r.occurrence}
                for r in self.fault_schedule
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Fixture":
        try:
            collections = [
                FixtureCollection(
                    ref=CollectionRef(
                        collection_id=c["collection_id"],
                        collection_name=c["collection_name"],
                        volume=float(c["volume"]),
                        internal_id=c.get("id"),
                    ),
                    tokens=list(c["tokens"]),
                    trades={
                        tok: [
                            TradeEvent(e["type"], int(e["blockTime"]), float(e["price"]))
                            for e in events
                        ]
                        for tok, events in c["trades"].items()
                    },
                )
                for c in obj["collections"]
            ]
            schedule = [
                FaultRule(r["matcher"], r["fault"], int(r.get("occurrence", 0)))
                for r in obj.get("fault_schedule", [])
            ]
            return cls(seed=int(obj["seed"]), collections=collections, fault_schedule=schedule)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"fixture file malformed: {exc}") from exc


def save_fixture(fixture: Fixture, path: str | Path) -> None:
    write_json(fixture.to_json_obj(), path)


def load_fixture(path: str | Path) -> Fixture:
    return Fixture.from_json_obj(read_json(path, "fixture", dict))


def _unique_alnum(rng: random.Random, length: int, seen: set[str]) -> str:
    while True:
        s = "".join(rng.choice(_ALNUM) for _ in range(length))
        if s not in seen:
            seen.add(s)
            return s


def generate_fixture(
    seed: int,
    n_collections: int = 3,
    tokens_per_collection: int = 4,
    trades_per_token_range: tuple[int, int] = (5, 30),
) -> Fixture:
    """Build a fixture entirely from the seed.

    Collections get distinct volumes (top-K selection stays unambiguous)
    and unique alphanumeric ids; tokens get geometric-random-walk sale
    prices at non-decreasing timestamps, interleaved with non-sale events
    (listings, bids, ...) so that sale filtering is actually exercised.
    ``trades_per_token_range`` bounds the number of *sale* events per
    token, inclusive.
    """
    if n_collections < 0 or tokens_per_collection < 0:
        raise ValueError("n_collections and tokens_per_collection must be non-negative")
    lo, hi = trades_per_token_range
    if lo < 0 or hi < lo:
        raise ValueError(f"bad trades_per_token_range {trades_per_token_range}")
    rng = random.Random(seed)
    seen_ids: set[str] = set()
    volumes = rng.sample(range(100_000, 10_000_000), n_collections)
    collections: list[FixtureCollection] = []
    for i in range(n_collections):
        name = f"{rng.choice(_ADJECTIVES)}{rng.choice(_NOUNS)}{i:02d}"
        ref = CollectionRef(
            collection_id=_unique_alnum(rng, 12, seen_ids),
            collection_name=name,
            volume=float(volumes[i]),
            internal_id=_unique_alnum(rng, 12, seen_ids),
        )
        tokens = [_unique_alnum(rng, 10, seen_ids) for _ in range(tokens_per_collection)]
        trades: dict[str, list[TradeEvent]] = {}
        for tok in tokens:
            n_sales = rng.randint(lo, hi)
            t = 1_690_000_000 + rng.randrange(0, 1_000_000)
            price = rng.uniform(0.5, 80.0)
            events: list[TradeEvent] = []
            sales = 0
            while sales < n_sales:
                t += rng.randrange(0, 86_400)
                price *= math.exp(rng.gauss(0.01, 0.12))
                if rng.random() < 0.2:
                    events.append(TradeEvent(rng.choice(_SIDE_EVENTS), t, price))
                else:
                    events.append(TradeEvent("buyNow", t, price))
                    sales += 1
            trades[tok] = events
        collections.append(FixtureCollection(ref=ref, tokens=tokens, trades=trades))
    return Fixture(seed=seed, collections=collections, fault_schedule=[])


@dataclass(frozen=True)
class RequestRecord:
    """One logged request: arrival time (monotonic clock), split path and
    query, and the identity headers the crawler is expected to send."""

    timestamp: float
    path: str
    query: dict[str, str]
    proxy_identity: str | None
    cookie: str | None


class _ReplayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        # A client that went away mid-connection is routine (a killed
        # crawl, say); anything else still gets the default traceback.
        if not isinstance(sys.exc_info()[1], (ConnectionResetError, BrokenPipeError)):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on, the
    # second waits for the client's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, body: bytes, content_type: str, cookies: str | None = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if cookies:
                self.send_header("Set-Cookie", cookies)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        replay: ReplayServer = self.server.replay  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        path = split.path
        query = dict(parse_qsl(split.query))
        replay._record(
            RequestRecord(
                timestamp=time.monotonic(),
                path=path,
                query=query,
                proxy_identity=self.headers.get("X-Proxy-Identity"),
                cookie=self.headers.get("Cookie"),
            )
        )
        fault = replay._next_fault(self.path)
        if fault in _STATUS_FAULTS:
            status, body = _STATUS_FAULTS[fault]
            self._send(status, body, "text/plain")
            return
        if fault == RESET:
            # Drop the connection without a response; clients observe it
            # as a reset/aborted connection.
            self.close_connection = True
            return
        if fault == EMPTY_BODY:
            self._send(200, b"", "application/json")
            return
        if fault == TIMEOUT:
            time.sleep(replay.fault_timeout_seconds)

        if path == "/collections":
            self._serve_collections(replay, query)
            return
        m = re.fullmatch(r"/collections/([A-Za-z0-9]+)/tokens", path)
        if m:
            self._serve_tokens(replay, m.group(1), query)
            return
        m = re.fullmatch(r"/tokens/([a-zA-Z0-9]+)/activities", path)
        if m:
            self._serve_activities(replay, m.group(1), query)
            return
        self._send(404, b"not found", "text/plain")

    def _serve_collections(self, replay: "ReplayServer", query: dict[str, str]) -> None:
        offset = int(query.get("offset", 0))
        limit = int(query.get("limit", 50))
        ranked = sorted(replay.fixture.collections, key=lambda c: -c.ref.volume)
        page = ranked[offset : offset + limit]
        parts = []
        for c in page:
            # Key order matters: the volume extractor requires a comma
            # directly after the number, so volume must not be last.
            parts.append(
                json.dumps(
                    {
                        "collection_id": c.ref.collection_id,
                        "volume": c.ref.volume,
                        "collection_name": c.ref.collection_name,
                        "id": c.ref.internal_id,
                    },
                    separators=(",", ":"),
                )
            )
        body = ("[" + ",".join(parts) + "]").encode("utf-8")
        self._send(200, body, "application/json", cookies=f"replay_session=s{replay.fixture.seed}; Path=/")

    def _serve_tokens(self, replay: "ReplayServer", collection_id: str, query: dict[str, str]) -> None:
        coll = next(
            (c for c in replay.fixture.collections if c.ref.collection_id == collection_id), None
        )
        if coll is None:
            self._send(404, b"unknown collection", "text/plain")
            return
        page = int(query.get("page", 0))
        limit = int(query.get("limit", 50))
        chunk = coll.tokens[page * limit : (page + 1) * limit]
        lines = [f'<a href="/token/{tok}">{tok}</a>' for tok in chunk]
        # Optimistic continuation marker: the live site only reveals the
        # end of the listing by serving a page without token links.  That
        # page still has a body, so a dropped body never reads as the end.
        lines.append('{"has_next":true}' if chunk else '{"has_next":false}')
        self._send(200, "\n".join(lines).encode("utf-8"), "text/html")

    def _serve_activities(self, replay: "ReplayServer", token: str, query: dict[str, str]) -> None:
        trades = replay.fixture.trades_for(token)
        if trades is None:
            self._send(404, b"unknown token", "text/plain")
            return
        offset = int(query.get("offset", 0))
        limit = int(query.get("limit", 500))
        chunk = trades[offset : offset + limit]
        parts = [
            json.dumps(
                {"type": e.event_type, "blockTime": e.block_time, "price": e.price},
                separators=(",", ":"),
            )
            for e in chunk
        ]
        self._send(200, ("[" + ",".join(parts) + "]").encode("utf-8"), "application/json")


class ReplayServer:
    """Threaded HTTP server replaying one fixture.

    ``port=0`` binds an ephemeral port (read it back from ``.port``);
    binding a busy port raises OSError.  ``fault_timeout_seconds`` is how
    long a TIMEOUT fault stalls before answering; set it above the
    client's request timeout.
    """

    def __init__(self, fixture: Fixture, port: int = 0, fault_timeout_seconds: float = 30.0):
        self.fixture = fixture
        self.fault_timeout_seconds = fault_timeout_seconds
        self._log: list[RequestRecord] = []
        self._log_lock = threading.Lock()
        self._fault_counts = [0] * len(fixture.fault_schedule)
        self._fault_lock = threading.Lock()
        self._httpd = _ReplayHTTPServer(("127.0.0.1", port), _Handler)
        self._httpd.replay = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "ReplayServer":
        # Tight poll interval keeps stop() prompt.
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ReplayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def request_log(self) -> list[RequestRecord]:
        with self._log_lock:
            return list(self._log)

    def _record(self, record: RequestRecord) -> None:
        with self._log_lock:
            self._log.append(record)

    def _next_fault(self, path_with_query: str) -> str | None:
        with self._fault_lock:
            hit: str | None = None
            for i, rule in enumerate(self.fixture.fault_schedule):
                if rule.matcher in path_with_query:
                    if self._fault_counts[i] == rule.occurrence and hit is None:
                        hit = rule.fault
                    self._fault_counts[i] += 1
            return hit
