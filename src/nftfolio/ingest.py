"""Crawl engine: collection discovery, token enumeration and trade-history
fetching against the paginated marketplace API.

Request pacing is global: starts are spaced at least
max(download_delay_seconds, 1/qps_limit) apart with a hard cap on in-flight
requests, which keeps the long-run rate at or below the configured QPS no
matter how many workers fetch concurrently.

Failures map onto a small page state machine.  A request timeout ends the
current listing (DONE_TIMEOUT), a dropped connection likewise (DONE_STALE),
and throttling responses (429/503) earn exactly one backoff-and-retry
before giving up on the listing (DONE_INTERCEPTED).  A 403 rotates to the
next proxy identity and retries once.  None of these fail the crawl as a
whole; fetch failures mark the token failed and move on.

Progress is durable at token granularity, and the append-only record
store is its only record: every enumerated collection appends its token
order, and every completed token its full cleaned series.  A resumed
crawl skips exactly the tokens whose series the store holds, and the
collections whose order it holds with a series for every token.
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
    save_collection_index,
    serialize_dataset,
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


class FetchTimeout(Exception):
    pass


class FetchReset(Exception):
    pass


class FetchStatusError(Exception):
    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} for {url}")
        self.status = status


class PageState(Enum):
    RETRY_AFTER_SCROLL = "RETRY_AFTER_SCROLL"
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
    accept: str = DEFAULT_ACCEPT

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
        self._session.headers.update({"User-Agent": config.user_agent, "Accept": config.accept})
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
                raise FetchTimeout(url) from exc
            except requests.ConnectionError as exc:
                raise FetchReset(url) from exc
        if response.status_code != 200:
            raise FetchStatusError(response.status_code, url)
        return response.text

    def save_cookies(self, path: str | Path) -> None:
        jar = requests.utils.dict_from_cookiejar(self._session.cookies)
        Path(path).write_text(json.dumps(jar, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    def load_cookies(self, path: str | Path) -> None:
        path = Path(path)
        if not path.exists():
            return
        try:
            jar = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"cookie file {path}: not valid JSON ({exc})") from exc
        self._session.cookies.update(jar)


def discover_collections(
    client: MarketClient, config: CrawlConfig, index_path: str | Path | None = None
) -> list[CollectionRef]:
    """Fetch the volume-ranked collection overview and extract refs.

    A 403 rotates the proxy and retries once; a timeout retries once;
    anything else (or a second failure) is a CrawlError.
    """
    params = {
        "sort_by": "volume",
        "offset": 0,
        "limit": config.collection_limit,
        "sort_order": "desc",
    }
    retried = False
    while True:
        try:
            body = client.get("/collections", params)
            break
        except FetchStatusError as exc:
            if exc.status == 403 and not retried:
                client.rotate_proxy()
                retried = True
                continue
            raise CrawlError(f"collection discovery failed: {exc}") from exc
        except FetchTimeout as exc:
            if not retried:
                retried = True
                continue
            raise CrawlError("collection discovery timed out twice") from exc
        except FetchReset as exc:
            raise CrawlError(f"collection discovery connection dropped: {exc}") from exc
    refs = extract.parse_collection_overview(body)
    if index_path is not None:
        save_collection_index(refs, index_path)
    logger.info("stage=discover collections=%d", len(refs))
    return refs


@dataclass
class EnumerationResult:
    tokens: list[TokenRef]
    state: PageState


def _fetch_token_page(
    client: MarketClient, config: CrawlConfig, collection_id: str, page: int
) -> tuple[PageState | None, str | None]:
    """One token-listing page with the single-retry state machine; returns
    (terminal state, None) or (None, body)."""
    path = f"/collections/{collection_id}/tokens"
    params = {"page": page, "limit": config.page_size_tokens}
    try:
        return None, client.get(path, params)
    except FetchTimeout:
        return PageState.DONE_TIMEOUT, None
    except FetchReset:
        return PageState.DONE_STALE, None
    except FetchStatusError as exc:
        if exc.status in (429, 503):
            logger.info(
                "stage=enumerate collection=%s page=%d state=%s",
                collection_id, page, PageState.RETRY_AFTER_SCROLL.value,
            )
            time.sleep(config.download_delay_seconds)
        elif exc.status == 403:
            client.rotate_proxy()
        else:
            raise CrawlError(f"token page {page} of {collection_id}: {exc}") from exc
    try:
        return None, client.get(path, params)
    except FetchTimeout:
        return PageState.DONE_TIMEOUT, None
    except FetchReset:
        return PageState.DONE_STALE, None
    except FetchStatusError:
        return PageState.DONE_INTERCEPTED, None


def enumerate_tokens(
    client: MarketClient, config: CrawlConfig, collection: CollectionRef
) -> EnumerationResult:
    """Walk token-listing pages 0, 1, ... until a terminal page state.

    A page without the continuation marker (including an empty page) ends
    the listing with DONE_EMPTY after its tokens are consumed.  Duplicate
    links keep their first appearance.
    """
    ordered: dict[str, None] = {}
    page = 0
    while True:
        state, body = _fetch_token_page(client, config, collection.collection_id, page)
        if state is not None:
            break
        assert body is not None
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


def _fetch_activities_page(
    client: MarketClient, config: CrawlConfig, token: str, offset: int
) -> str:
    """One activities page with a single retry; a second failure is a
    TokenFetchError (the caller discards the partial series)."""
    path = f"/tokens/{token}/activities"
    params = {"offset": offset, "limit": config.page_size_activities}
    try:
        return client.get(path, params)
    except FetchStatusError as exc:
        if exc.status == 403:
            client.rotate_proxy()
        elif exc.status in (429, 503):
            time.sleep(config.download_delay_seconds)
        else:
            raise TokenFetchError(token, offset, str(exc)) from exc
    except (FetchTimeout, FetchReset):
        pass
    try:
        return client.get(path, params)
    except (FetchTimeout, FetchReset, FetchStatusError) as exc:
        raise TokenFetchError(token, offset, str(exc)) from exc


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
        body = _fetch_activities_page(client, config, token.token, offset)
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
    done exactly when its series record is here.  Every record ends with a
    newline, so an unterminated final line is an append that was cut
    short (a killed process, a full disk); it is dropped and truncated
    away on load, which costs one refetch.  Any other malformed line is a
    SchemaError.
    """

    def __init__(self, path: Path):
        self._path = path
        self._orders: dict[str, list[str]] = {}
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
                            self._orders[rec["series"]] = list(rec["tokens"])
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

    def append_order(self, series: str, tokens: list[str]) -> None:
        self._orders[series] = list(tokens)
        self._write({"kind": "order", "series": series, "tokens": tokens})

    def append_series(self, series: str, token: str, history: list[int], price: list[float]) -> None:
        self._series[(series, token)] = (history, price)
        self._write(
            {"kind": "series", "series": series, "token": token, "history": history, "price": price}
        )

    def get_order(self, series: str) -> list[str] | None:
        return self._orders.get(series)

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
    only record of progress), collections.json (the discovery index) and,
    with cookie persistence enabled, cookies.json.  A collection is
    complete exactly when results.jsonl holds its token order and a series
    for every token in it; a resume skips complete collections without
    enumerating them and, within the others, exactly the tokens whose
    series results.jsonl holds.  The final dataset is written atomically,
    and a resumed crawl produces bytes identical to an uninterrupted run.

    Before returning, the crawl waits for its limiter's next start slot,
    so a crawl started right afterwards keeps the configured spacing.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    store = _ResultStore(workdir / "results.jsonl")
    limiter = RateLimiter(
        config.qps_limit, config.download_delay_seconds, config.max_concurrent_per_host
    )
    client = MarketClient(config, limiter)
    cookie_path = workdir / "cookies.json"
    if config.cookie_persistence:
        client.load_cookies(cookie_path)

    completed_this_run = 0
    stopped = False

    def should_stop() -> bool:
        if stop_event is not None and stop_event.is_set():
            return True
        return stop_after_tokens is not None and completed_this_run >= stop_after_tokens

    try:
        refs = discover_collections(client, config, index_path=workdir / "collections.json")
        for ref in refs:
            if should_stop():
                stopped = True
                break
            series_name = ref.collection_name
            order = store.get_order(series_name)
            if order is not None and all(store.has_series(series_name, t) for t in order):
                continue
            result = enumerate_tokens(client, config, ref)
            store.append_order(series_name, [t.token for t in result.tokens])
            pending = [t for t in result.tokens if not store.has_series(series_name, t.token)]
            failures = 0
            skipped = 0
            worker_stop = threading.Event()

            def fetch_one(token_ref: TokenRef) -> tuple[TokenRef, PriceSeries | None, TokenFetchError | None]:
                if worker_stop.is_set():
                    raise CrawlStopped(token_ref.token)
                try:
                    series = fetch_trade_history(client, config, token_ref, stop_event=worker_stop)
                    return token_ref, series, None
                except TokenFetchError as exc:
                    return token_ref, None, exc

            with ThreadPoolExecutor(max_workers=config.max_concurrent_per_host) as pool:
                pending_futures = {pool.submit(fetch_one, t) for t in pending}
                while pending_futures:
                    done, pending_futures = wait(
                        pending_futures, timeout=0.2, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        try:
                            token_ref, series, error = future.result()
                        except (CrawlStopped, CancelledError):
                            skipped += 1
                            continue
                        if error is not None:
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
            if worker_stop.is_set() or skipped:
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
