"""Workload definitions and the seeded fixtures the benchmark serves.

The fixtures are generated here rather than by ``nftfolio.replay`` so that
the benchmark's inputs stay the same when the program's own generator
changes.  Per-token sale counts are a seeded shuffle of an evenly spaced
ladder, so every seed asks for the same total amount of work; a seed only
changes which token gets which count, the ids, prices and timestamps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from nftfolio.model import CollectionRef, TradeEvent
from nftfolio.replay import HTTP_403, RESET, FaultRule, Fixture, FixtureCollection

_ALNUM = "ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz123456789"
_ADJECTIVES = ("Amber", "Cobalt", "Ivory", "Crimson", "Jade", "Onyx", "Saffron", "Violet")
_NOUNS = ("Frogs", "Apes", "Bots", "Cats", "Moths", "Owls", "Rocks", "Wolves")
_SIDE_EVENTS = ("list", "bid", "cancelBid", "delist")

LIFTED_PACING = ["--qps", "1e6", "--delay", "0"]
LIFTED_QPS = 1e6
# Stock pacing: --qps 2 and --delay 0.4, the minimum gap between request
# starts; together they space starts 0.5 s apart.
STOCK_QPS = 2.0
STOCK_DELAY_S = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    series: int
    tokens_per_series: int
    sales_range: tuple[int, int]
    paced: bool = False
    # Crawl legs: each entry is the --max-tokens of one `crawl` process in
    # the same workdir (None runs to completion).
    legs: tuple[int | None, ...] = (None,)
    proxies: tuple[str, ...] = ()

    @property
    def tokens(self) -> int:
        return self.series * self.tokens_per_series

    @property
    def qps(self) -> float:
        return STOCK_QPS if self.paced else LIFTED_QPS

    def crawl_flags(self) -> list[str]:
        flags = ["--collections", str(self.series), "--concurrency", "2", "--timeout", "20"]
        if not self.paced:
            flags += LIFTED_PACING
        for proxy in self.proxies:
            flags += ["--proxy", proxy]
        return flags

    def fault_schedule(self) -> list[FaultRule]:
        if not self.paced:
            return []
        # Recoverable faults: a 403 on the first token-listing page, a 403 on
        # the third token's first activities page (both in the first leg),
        # and a dropped connection on an activities page of the resume leg.
        return [
            FaultRule("/tokens?page=0", HTTP_403, 0),
            FaultRule("/activities?offset=0", HTTP_403, 2),
            FaultRule("/activities?offset=", RESET, 16),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide", series=50, tokens_per_series=5, sales_range=(5, 30)),
        Workload("deep", series=4, tokens_per_series=10, sales_range=(2000, 4000)),
        Workload(
            "paced-resume",
            series=2,
            tokens_per_series=6,
            sales_range=(5, 30),
            paced=True,
            legs=(5, None),
            proxies=("proxy-a", "proxy-b"),
        ),
    )
}


def _unique_alnum(rng: random.Random, length: int, seen: set[str]) -> str:
    while True:
        s = "".join(rng.choice(_ALNUM) for _ in range(length))
        if s not in seen:
            seen.add(s)
            return s


def sale_ladder(workload: Workload) -> list[int]:
    """Evenly spaced sale counts from the low to the high end of the range,
    one per token; the sum depends only on the workload."""
    lo, hi = workload.sales_range
    n = workload.tokens
    if n == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def make_fixture(workload: Workload, seed: int) -> Fixture:
    """A fixture derived only from the workload and the seed.

    Prices follow a geometric random walk at non-decreasing timestamps (so
    equal timestamps occur and exercise last-write-wins), and one event in
    five is a listing or bid that the crawler must filter out.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    counts = sale_ladder(workload)
    rng.shuffle(counts)
    seen: set[str] = set()
    volumes = rng.sample(range(100_000, 10_000_000), workload.series)
    collections = []
    for i in range(workload.series):
        ref = CollectionRef(
            collection_id=_unique_alnum(rng, 12, seen),
            collection_name=f"{rng.choice(_ADJECTIVES)}{rng.choice(_NOUNS)}{i:02d}",
            volume=float(volumes[i]),
            internal_id=_unique_alnum(rng, 12, seen),
        )
        tokens = [_unique_alnum(rng, 10, seen) for _ in range(workload.tokens_per_series)]
        trades = {}
        for tok in tokens:
            n_sales = counts.pop()
            t = 1_690_000_000 + rng.randrange(0, 1_000_000)
            price = rng.uniform(0.5, 80.0)
            events = []
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
    return Fixture(seed=seed, collections=collections, fault_schedule=workload.fault_schedule())


def reference_dataset(fixture: Fixture) -> dict:
    """The dataset a correct crawl must produce, as the parsed JSON object:
    buyNow events only, sorted by time (stable), last write wins on equal
    timestamps, tokens in listing order."""
    out = {}
    for coll in fixture.collections:
        records = []
        for tok in coll.tokens:
            sales = [(e.block_time, e.price) for e in coll.trades[tok] if e.event_type == "buyNow"]
            sales.sort(key=lambda tp: tp[0])
            by_time: dict[int, float] = {}
            for t, p in sales:
                by_time[t] = p
            records.append(
                {"token": tok, "history": list(by_time), "price": list(by_time.values())}
            )
        out[coll.ref.collection_name] = records
    return out
