"""Per-second compounded returns over irregular trade histories.

Trades arrive at irregular times, so raw trade-to-trade returns are not
comparable: a 10% gain over an hour is not the same achievement as a 10%
gain over a month.  Each interval's simple return

    R_i = (P_{i+1} - P_i) / P_i

is therefore converted to the equivalent per-second compound rate

    r_i = (1 + R_i) ** (1 / dt_i) - 1

where dt_i is the interval length in seconds, and the whole-history
figure is the compounded product

    total = prod(1 + r_i) - 1.

Note the deliberate asymmetry: the exponent normalizes each interval to a
single second and the product then runs over intervals, not seconds.  The
result is a time-sensitivity-adjusted score rather than a conventional
holding-period return, and it is kept that way on purpose.

The power is evaluated as expm1(log1p(R) / dt), which is algebraically
identical and much better conditioned for near-zero returns and large dt.
For the same reason the product is folded in log space, as
expm1(fsum(log1p(R_i) / dt_i)): ``math.fsum`` returns the exactly rounded
sum of its terms (Shewchuk, Discrete Comput. Geom. 18, 1997), so a long
history adds no rounding beyond that of its terms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import truediv

from .model import (
    Dataset,
    IntervalReturn,
    PipelineError,
    PriceSeries,
    ReturnSummary,
)


class InsufficientDataError(PipelineError):
    """Fewer observations than the computation needs."""


def clean_series(raw: PriceSeries) -> PriceSeries:
    """Normalize a fetched series: drop non-positive or non-finite prices,
    sort by timestamp (stable), and collapse duplicate timestamps keeping
    the last observation in post-sort order."""
    kept = [
        (t, p)
        for t, p in zip(raw.timestamps, raw.prices)
        if math.isfinite(p) and p > 0
    ]
    kept.sort(key=lambda tp: tp[0])
    deduped: dict[int, float] = {}
    for t, p in kept:
        deduped[t] = p
    return PriceSeries(
        token=raw.token,
        timestamps=tuple(deduped.keys()),
        prices=tuple(deduped.values()),
    )


def simple_returns(series: PriceSeries) -> list[float]:
    """Trade-to-trade simple returns (P_next - P) / P for a cleaned series."""
    if len(series) < 2:
        raise InsufficientDataError(
            f"{series.token.token}: need at least 2 trades, have {len(series)}"
        )
    prices = series.prices
    return [(b - a) / a for a, b in zip(prices, prices[1:])]


def _adjusted(simple: float, delta_seconds: int) -> float:
    # dt == 1 must reduce to the simple return bit-exactly; the exp/log
    # round trip does not guarantee that.
    if delta_seconds == 1:
        return simple
    return math.expm1(math.log1p(simple) / delta_seconds)


def _intervals(series: PriceSeries) -> tuple[list[float], list[int]]:
    """Simple returns and lengths in seconds of a series' n-1 intervals."""
    rets = simple_returns(series)
    ts = series.timestamps
    deltas = [u - t for t, u in zip(ts, ts[1:])]
    if min(deltas) <= 0:
        i = next(i for i, dt in enumerate(deltas) if dt <= 0)
        raise ValueError(
            f"{series.token.token}: non-increasing timestamps at index {i}; clean the series first"
        )
    return rets, deltas


def interval_adjusted_returns(series: PriceSeries) -> list[IntervalReturn]:
    """Per-interval simple and per-second compounded returns.

    Requires a cleaned series (strictly increasing timestamps, positive
    prices); produces n-1 intervals for n trades.
    """
    rets, deltas = _intervals(series)
    return [IntervalReturn(r, dt, _adjusted(r, dt)) for r, dt in zip(rets, deltas)]


def time_weighted_return(series: PriceSeries) -> ReturnSummary:
    """Compound the per-second adjusted rates over the whole history.

    prod(1 + r_i) - 1 is evaluated as expm1(fsum(log1p(R_i) / dt_i)).  A
    running float product would add one rounding per interval and, on long
    histories whose gains and losses nearly cancel, those roundings
    dominate the small total; ``math.fsum`` sums the log terms exactly
    rounded instead.  A single interval returns its adjusted rate bit for
    bit.  Each interval keeps its own dt divisor, so this is still the
    per-interval compounding score, not a holding-period return in
    disguise.  Requires a cleaned series, like ``interval_adjusted_returns``.
    """
    rets, deltas = _intervals(series)
    if len(rets) == 1:
        # one-factor product: the total IS the adjusted rate, bit for bit
        total = _adjusted(rets[0], deltas[0])
    else:
        total = math.expm1(math.fsum(map(truediv, map(math.log1p, rets), deltas)))
    return ReturnSummary(token=series.token, total_return=total, interval_count=len(rets))


def filter_dataset(dataset: Dataset, min_trades: int = 2, cutoff: int | None = None) -> Dataset:
    """Restrict a dataset to events at or before ``cutoff`` and tokens
    with at least ``min_trades`` remaining trades.

    Series and token order are preserved; series left without tokens are
    dropped.
    """
    out: Dataset = {}
    for name, series_list in dataset.items():
        kept: list[PriceSeries] = []
        for s in series_list:
            if cutoff is None:
                trimmed = s
            else:
                end = bisect_right(s.timestamps, cutoff)
                trimmed = PriceSeries(s.token, s.timestamps[:end], s.prices[:end])
            if len(trimmed) >= min_trades:
                kept.append(trimmed)
        if kept:
            out[name] = kept
    return out
