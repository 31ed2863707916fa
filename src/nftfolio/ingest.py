"""Crawl engine: collection discovery, token enumeration and trade-history
fetching against the paginated marketplace API.

Request pacing is global: starts are spaced at least
max(download_delay_seconds, 1/qps_limit) apart with a hard cap on in-flight
requests, which keeps the long-run rate at or below the configured QPS no
matter how many workers fetch concurrently.

Failures follow one table, ``_RETRY_POLICY``: per call site it lists the
outcomes whose first occurrence earns one more try, after rotating the
proxy identity, waiting the download delay, or neither.  Any other
outcome, and every second failure, goes back to the site, which maps it
to a CrawlError (discovery), a listing end state (a token-listing page)
or a failed token (an activities page).  A listing ends on a page with a
body but no continuation marker; a 0-byte 200 there is a dropped one.

Progress is durable at token granularity, and the append-only record
store is its only record: every enumerated collection appends its token
order and the listing's end state, and every completed token its full
cleaned series.  A resumed crawl skips exactly the tokens whose series
the store holds, and the collections whose latest order ended DONE_EMPTY
with a series for every token; it enumerates every other one again.
Partial histories are never persisted, so an interrupted crawl, even a
killed one, resumes to a byte-identical dataset.

The limiter's spacing also holds across consecutive crawls: a crawl
returns only once its next start slot has come, so a crawl started right
after it (a resume, say) cannot start its first request early.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import requests

from . import extract
from .model import (
    CollectionRef,
    Dataset,
    PipelineError,
    PriceSeries,
    SchemaError,
    TokenRef,
    TradeEvent,
    read_json,
    serialize_dataset,
    write_json,
)
from .returns import clean_series

logger = logging.getLogger(__name__)

PROXY_IDENTITY_HEADER = "X-Proxy-Identity"
DEFAULT_USER_AGENT = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/122.0 Safari/537.36"
)
DEFAULT_ACCEPT = "application/json, text/plain, */*"
_HAS_NEXT_MARKER = '"has_next":true'


class CrawlError(PipelineError):
    """Unrecoverable crawl failure (discovery broken, unexpected status)."""


class TokenFetchError(CrawlError):
    """A token's history could not be fetched completely."""

    def __init__(self, token: str, next_offset: int, cause: str):
        super().__init__(f"token {token}: fetch failed at offset {next_offset} ({cause})")
        self.token = token
        self.next_offset = next_offset


class CrawlStopped(Exception):
    """Internal: cooperative stop requested mid-fetch."""


class FetchError(Exception):
    """A request that brought no usable response."""


class FetchTimeout(FetchError):
    pass


class FetchReset(FetchError):
    pass


class FetchStatusError(FetchError):
    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} for {url}")
        self.status = status


class PageState(Enum):
    DONE_TIMEOUT = "DONE_TIMEOUT"
    DONE_STALE = "DONE_STALE"
    DONE_INTERCEPTED = "DONE_INTERCEPTED"
    DONE_EMPTY = "DONE_EMPTY"


@dataclass(frozen=True)
class CrawlConfig:
    endpoint_base: str
    collection_limit: int = 50
    page_size_tokens: int = 50
    page_size_activities: int = 500
    qps_limit: float = 2.0
    download_delay_seconds: float = 0.4
    max_concurrent_per_host: int = 2
    request_timeout_seconds: float = 20.0
    proxies: tuple[str, ...] = ()
    cookie_persistence: bool = False
    user_agent: str = DEFAULT_USER_AGENT

    def __post_init__(self) -> None:
        object.__setattr__(self, "proxies", tuple(self.proxies))
        if not self.endpoint_base:
            raise ValueError("endpoint_base is required")
        if self.collection_limit < 1 or self.page_size_tokens < 1 or self.page_size_activities < 1:
            raise ValueError("limits and page sizes must be positive")
        if self.qps_limit <= 0 or self.download_delay_seconds < 0:
            raise ValueError("qps_limit must be positive, download_delay_seconds non-negative")
        if self.max_concurrent_per_host < 1 or self.request_timeout_seconds <= 0:
            raise ValueError("max_concurrent_per_host and request_timeout_seconds must be positive")


class RateLimiter:
    """Start-to-start pacing plus an in-flight cap.

    Each acquisition reserves the next start slot under a lock; slots are
    max(download_delay_seconds, 1/qps_limit) apart, so both the minimum
    inter-request gap and the long-run QPS bound hold at once.
    """

    def __init__(self, qps_limit: float, download_delay_seconds: float, max_concurrent: int):
        self._gap = max(download_delay_seconds, 1.0 / qps_limit)
        self._inflight = threading.Semaphore(max_concurrent)
        self._lock = threading.Lock()
        self._next_start: float | None = None

    def acquire_slot(self) -> None:
        self._inflight.acquire()
        with self._lock:
            now = time.monotonic()
            start = now if self._next_start is None else max(now, self._next_start)
            self._next_start = start + self._gap
        delay = start - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def release_slot(self) -> None:
        self._inflight.release()

    def drain(self) -> None:
        """Sleep until the next start slot, so that whatever runs after
        this limiter is done keeps the spacing from its last start."""
        with self._lock:
            next_start = self._next_start
        if next_start is not None:
            delay = next_start - time.monotonic()
            if delay > 0:
                time.sleep(delay)

    @contextmanager
    def slot(self):
        self.acquire_slot()
        try:
            yield
        finally:
            self.release_slot()


class MarketClient:
    """requests.Session wrapper: shared limiter, browser-like headers,
    cookie jar, and proxy identity rotation.

    Proxy identity is conveyed in a request header; rotation advances
    round-robin through the configured pool and is driven by the caller
    on failure (typically a 403).
    """

    def __init__(self, config: CrawlConfig, limiter: RateLimiter | None = None):
        self.config = config
        self.limiter = limiter or RateLimiter(
            config.qps_limit, config.download_delay_seconds, config.max_concurrent_per_host
        )
        self._session = requests.Session()
        self._session.headers.update({"User-Agent": config.user_agent, "Accept": DEFAULT_ACCEPT})
        self._proxy_index = 0
        self._proxy_lock = threading.Lock()
        if config.proxies:
            self._session.headers[PROXY_IDENTITY_HEADER] = config.proxies[0]

    @property
    def current_proxy(self) -> str | None:
        if not self.config.proxies:
            return None
        return self.config.proxies[self._proxy_index]

    def rotate_proxy(self) -> None:
        if not self.config.proxies:
            return
        with self._proxy_lock:
            self._proxy_index = (self._proxy_index + 1) % len(self.config.proxies)
            self._session.headers[PROXY_IDENTITY_HEADER] = self.config.proxies[self._proxy_index]
        logger.info("stage=client event=proxy-rotate proxy=%s", self.current_proxy)

    def get(self, path: str, params: dict | None = None) -> str:
        """Rate-limited GET returning the body text; non-200 raises
        FetchStatusError, timeouts FetchTimeout, dropped connections
        FetchReset."""
        url = self.config.endpoint_base.rstrip("/") + path
        with self.limiter.slot():
            try:
                response = self._session.get(
                    url, params=params, timeout=self.config.request_timeout_seconds
                )
            except requests.Timeout as exc:
                raise FetchTimeout(f"timed out: {url}") from exc
            except requests.ConnectionError as exc:
                raise FetchReset(f"connection dropped: {url}") from exc
        if response.status_code != 200:
            raise FetchStatusError(response.status_code, url)
        return response.text

    def save_cookies(self, path: str | Path) -> None:
        write_json(requests.utils.dict_from_cookiejar(self._session.cookies), path)

    def load_cookies(self, path: str | Path) -> None:
        if Path(path).exists():
            self._session.cookies.update(read_json(path, "cookie", dict))


_ROTATE, _WAIT, _RETRY = "rotate proxy", "wait delay", "retry"

# Per call site, the outcomes of a request's first failure that send it once
# more, and what runs before that.  An outcome is a status code or a fetch
# exception type; one the site does not list, and every second failure, is
# raised back to the site.
_RETRY_POLICY: dict[str, dict[int | type[FetchError], str]] = {
    "discover": {403: _ROTATE, FetchTimeout: _RETRY},
    "listing": {403: _ROTATE, 429: _WAIT, 503: _WAIT},
    "activities": {
        403: _ROTATE, 429: _WAIT, 503: _WAIT, FetchTimeout: _RETRY, FetchReset: _RETRY,
    },
}


def _get(client: MarketClient, config: CrawlConfig, site: str, path: str, params: dict) -> str:
    """``client.get`` with the ``_RETRY_POLICY`` of ``site`` applied."""
    try:
        return client.get(path, params)
    except FetchError as exc:
        outcome = exc.status if isinstance(exc, FetchStatusError) else type(exc)
        action = _RETRY_POLICY[site].get(outcome)
        if action is None:
            raise
    if action == _ROTATE:
        client.rotate_proxy()
    elif action == _WAIT:
        time.sleep(config.download_delay_seconds)
    return client.get(path, params)


def discover_collections(client: MarketClient, config: CrawlConfig) -> list[CollectionRef]:
    """Fetch the volume-ranked collection overview and extract refs.
    A failure that ``_RETRY_POLICY`` does not retry is a CrawlError."""
    params = {
        "sort_by": "volume",
        "offset": 0,
        "limit": config.collection_limit,
        "sort_order": "desc",
    }
    try:
        body = _get(client, config, "discover", "/collections", params)
    except FetchError as exc:
        raise CrawlError(f"collection discovery failed: {exc}") from exc
    refs = extract.parse_collection_overview(body)
    logger.info("stage=discover collections=%d", len(refs))
    return refs


@dataclass
class EnumerationResult:
    tokens: list[TokenRef]
    state: PageState


def enumerate_tokens(
    client: MarketClient, config: CrawlConfig, collection: CollectionRef
) -> EnumerationResult:
    """Walk token-listing pages 0, 1, ... until a terminal page state.

    A page with a body but without the continuation marker ends the
    listing with DONE_EMPTY after its tokens are consumed; a 0-byte body
    counts as a dropped connection.  Duplicate links keep their first
    appearance.
    """
    path = f"/collections/{collection.collection_id}/tokens"
    ordered: dict[str, None] = {}
    page = 0
    while True:
        params = {"page": page, "limit": config.page_size_tokens}
        try:
            body = _get(client, config, "listing", path, params)
        except FetchTimeout:
            state = PageState.DONE_TIMEOUT
            break
        except FetchReset:
            state = PageState.DONE_STALE
            break
        except FetchStatusError as exc:
            # a status the policy retries gets here only on a second failure
            if exc.status not in _RETRY_POLICY["listing"]:
                raise CrawlError(f"token page {page} of {collection.collection_id}: {exc}") from exc
            state = PageState.DONE_INTERCEPTED
            break
        if not body:
            state = PageState.DONE_STALE
            break
        for tok in extract.parse_token_links(body):
            ordered.setdefault(tok)
        if _HAS_NEXT_MARKER not in body:
            state = PageState.DONE_EMPTY
            break
        page += 1
    logger.info(
        "stage=enumerate collection=%s pages=%d tokens=%d state=%s",
        collection.collection_id, page + 1, len(ordered), state.value,
    )
    return EnumerationResult(
        tokens=[TokenRef(tok, collection.collection_name) for tok in ordered],
        state=state,
    )


def fetch_trade_history(
    client: MarketClient,
    config: CrawlConfig,
    token: TokenRef,
    stop_event: threading.Event | None = None,
) -> PriceSeries:
    """Page through a token's activities (offset += page size) until an
    empty array, keep only buyNow sales, and return the cleaned series.
    A body that is not a JSON array of events (an empty 200, say) is a
    TokenFetchError, never an end of history."""
    sales: list[TradeEvent] = []
    offset = 0
    pages = 0
    while True:
        if stop_event is not None and stop_event.is_set():
            raise CrawlStopped(token.token)
        params = {"offset": offset, "limit": config.page_size_activities}
        try:
            body = _get(client, config, "activities", f"/tokens/{token.token}/activities", params)
        except FetchError as exc:
            raise TokenFetchError(token.token, offset, str(exc)) from exc
        pages += 1
        try:
            events = extract.parse_activity_page(body)
        except extract.ActivityParseError as exc:
            raise TokenFetchError(token.token, offset, str(exc)) from exc
        if not events:
            break
        sales.extend(e for e in events if e.event_type == "buyNow")
        offset += config.page_size_activities
    logger.info(
        "stage=fetch token=%s pages=%d sales=%d",
        token.token, pages, len(sales),
    )
    raw = PriceSeries(
        token=token,
        timestamps=tuple(e.block_time for e in sales),
        prices=tuple(e.price for e in sales),
    )
    return clean_series(raw)


class _ResultStore:
    """Append-only JSONL store of enumeration orders and completed series.

    Records are keyed by (kind, series, token); re-appends overwrite on
    load.  The store is the record of crawl progress: a token counts as
    done exactly when its series record is here, a collection when its
    latest order record ended DONE_EMPTY (one without an end state, from
    an older workdir, did not) and every token in it is done.  Every
    record ends with a newline, so an unterminated final line is an
    append that was cut short (a killed process, a full disk); it is
    dropped and truncated away on load, which costs one refetch.  Any
    other malformed line is a SchemaError.
    """

    def __init__(self, path: Path):
        self._path = path
        self._orders: dict[str, tuple[list[str], str | None]] = {}
        self._series: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
        if path.exists():
            committed = 0
            torn = False
            with path.open("rb") as handle:
                for line_no, raw in enumerate(handle, 1):
                    if not raw.endswith(b"\n"):
                        torn = True
                        break
                    committed += len(raw)
                    if not raw.strip():
                        continue
                    try:
                        rec = json.loads(raw)
                        if rec["kind"] == "order":
                            self._orders[rec["series"]] = (list(rec["tokens"]), rec.get("end"))
                        elif rec["kind"] == "series":
                            self._series[(rec["series"], rec["token"])] = (
                                [int(t) for t in rec["history"]],
                                [float(p) for p in rec["price"]],
                            )
                    except (KeyError, TypeError, ValueError) as exc:
                        raise SchemaError(f"result store {path} line {line_no}: {exc}") from exc
            if torn:
                logger.warning(
                    "stage=store event=torn-record path=%s line=%d dropped_bytes=%d",
                    path, line_no, path.stat().st_size - committed,
                )
                os.truncate(path, committed)
        self._handle = path.open("a", encoding="utf-8")

    def append_order(self, series: str, tokens: list[str], end: PageState) -> None:
        self._orders[series] = (list(tokens), end.value)
        self._write({"kind": "order", "series": series, "tokens": tokens, "end": end.value})

    def append_series(self, series: str, token: str, history: list[int], price: list[float]) -> None:
        self._series[(series, token)] = (history, price)
        self._write(
            {"kind": "series", "series": series, "token": token, "history": history, "price": price}
        )

    def get_order(self, series: str) -> list[str] | None:
        entry = self._orders.get(series)
        return None if entry is None else entry[0]

    def is_complete(self, series: str) -> bool:
        tokens, end = self._orders.get(series, ([], None))
        return end == PageState.DONE_EMPTY.value and all(self.has_series(series, t) for t in tokens)

    def get_series(self, series: str, token: str) -> tuple[list[int], list[float]] | None:
        return self._series.get((series, token))

    def has_series(self, series: str, token: str) -> bool:
        return (series, token) in self._series

    def _write(self, obj: dict) -> None:
        self._handle.write(json.dumps(obj, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run_crawl(
    config: CrawlConfig,
    workdir: str | Path,
    out_path: str | Path | None = None,
    stop_after_tokens: int | None = None,
    stop_event: threading.Event | None = None,
) -> Path | None:
    """Run (or resume) a full crawl; returns the dataset path, or None if
    stopped early by ``stop_after_tokens``/``stop_event``.

    The workdir holds results.jsonl (the append-only record store and the
    only record of progress), cookies.json with cookie persistence
    enabled, and dataset.json unless ``out_path`` names another file.  A
    collection is complete exactly when its latest token order in the
    store ended DONE_EMPTY and a series for every token in it is there
    too; a resume skips complete collections without enumerating them,
    enumerates the others again and, within them, skips exactly the
    tokens whose series the store holds.  A listing cut short by a fault
    still yields a dataset of the tokens found, and the next run
    completes it.  The final dataset is written atomically, and a resumed
    crawl produces bytes identical to an uninterrupted run.

    Before returning, the crawl waits for its limiter's next start slot,
    so a crawl started right afterwards keeps the configured spacing.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    limiter = RateLimiter(
        config.qps_limit, config.download_delay_seconds, config.max_concurrent_per_host
    )
    client = MarketClient(config, limiter)
    cookie_path = workdir / "cookies.json"
    if config.cookie_persistence:
        client.load_cookies(cookie_path)  # before the store opens: nothing to close on error
    store = _ResultStore(workdir / "results.jsonl")

    completed_this_run = 0
    stopped = False

    def should_stop() -> bool:
        if stop_event is not None and stop_event.is_set():
            return True
        return stop_after_tokens is not None and completed_this_run >= stop_after_tokens

    try:
        refs = discover_collections(client, config)
        for ref in refs:
            if should_stop():
                stopped = True
                break
            series_name = ref.collection_name
            if store.is_complete(series_name):
                continue
            result = enumerate_tokens(client, config, ref)
            store.append_order(series_name, [t.token for t in result.tokens], result.state)
            pending = [t for t in result.tokens if not store.has_series(series_name, t.token)]
            failures = 0
            worker_stop = threading.Event()
            with ThreadPoolExecutor(max_workers=config.max_concurrent_per_host) as pool:
                token_of = {
                    pool.submit(fetch_trade_history, client, config, t, worker_stop): t
                    for t in pending
                }
                pending_futures = set(token_of)
                # The timeout lets an external stop_event end the wait too.
                while pending_futures:
                    done, pending_futures = wait(
                        pending_futures, timeout=0.2, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        token_ref = token_of[future]
                        try:
                            series = future.result()
                        except (CrawlStopped, CancelledError):
                            continue  # only once worker_stop is set
                        except TokenFetchError:
                            failures += 1
                            logger.warning("stage=fetch token=%s status=failed", token_ref.token)
                            continue
                        store.append_series(
                            series_name, token_ref.token, list(series.timestamps), list(series.prices)
                        )
                        completed_this_run += 1
                    if should_stop() and not worker_stop.is_set():
                        worker_stop.set()
                        for f in pending_futures:
                            f.cancel()
            if worker_stop.is_set():
                stopped = True
                break
            logger.info(
                "stage=collection collection=%s tokens=%d failures=%d",
                ref.collection_id, len(result.tokens), failures,
            )

        if stopped:
            logger.info("stage=crawl status=stopped completed_tokens=%d", completed_this_run)
            return None

        dataset: Dataset = {}
        for ref in refs:
            order = store.get_order(ref.collection_name)
            if order is None:
                continue
            entries = []
            for tok in order:
                data = store.get_series(ref.collection_name, tok)
                if data is None:
                    continue  # failed token: excluded rather than truncated
                entries.append(
                    PriceSeries(TokenRef(tok, ref.collection_name), tuple(data[0]), tuple(data[1]))
                )
            dataset[ref.collection_name] = entries
        destination = Path(out_path) if out_path is not None else workdir / "dataset.json"
        _atomic_write_text(destination, serialize_dataset(dataset))
        logger.info(
            "stage=crawl status=done collections=%d tokens=%d dataset=%s",
            len(refs), sum(len(v) for v in dataset.values()), destination,
        )
        return destination
    finally:
        if config.cookie_persistence:
            client.save_cookies(cookie_path)
        store.close()
        limiter.drain()
