"""Span analysis: self time per span and the per-layer metrics of a traced run.

A span file written by ``run.py --trace 1`` holds one document per stage
process (see ``trace_launch.py`` for the span layout) plus the replay
server's handler spans.  Run this module on such a file to print the self
time of every span name:

    python3 perfbench/spans.py .perfbench/spans-wide-seed1.json
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: int
    thread: int
    attrs: dict | None
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans_of(process: dict) -> list[Span]:
    return [Span(*raw) for raw in process["spans"]]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def self_time_table(processes: list[dict]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, total seconds, self seconds) over processes."""
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for process in processes:
        spans = spans_of(process)
        own = self_times(spans)
        for s in spans:
            row = table[s.name]
            row[0] += 1
            row[1] += s.duration
            row[2] += own[s.id]
    return {name: tuple(row) for name, row in table.items()}


def distribution(values: list[float]) -> dict[str, float]:
    """Median plus the tail: the highest percentile with at least 10
    samples beyond it.  With fewer than 21 samples no percentile above the
    median qualifies, so the tail is the maximum and its percentile reads
    100; ``n`` gives the sample count either way."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    if n > 20:
        k = n - 11
        tail, pct = xs[k], 100.0 * (k + 1) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "tail_pct": pct, "n": n}


def _by_name(processes: list[dict]) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = defaultdict(list)
    for process in processes:
        for s in spans_of(process):
            out[s.name].append(s)
    return out


def _total(spans: list[Span]) -> float:
    return sum(s.duration for s in spans)


def _put_distribution(metrics: dict, prefix: str, values: list[float]) -> None:
    for key, value in distribution(values).items():
        metrics[f"{prefix}.{key}"] = value


def retries(get_spans: list[Span]) -> int:
    """Requests that repeat, on the same thread, the (path, query) of a
    request that had just failed."""
    count = 0
    last: dict[int, Span] = {}
    for s in sorted(get_spans, key=lambda s: s.start):
        prev = last.get(s.thread)
        if prev is not None and prev.error is not None and prev.attrs == {
            k: v for k, v in (s.attrs or {}).items() if k != "bytes"
        }:
            count += 1
        last[s.thread] = s
    return count


def crawl_metrics(processes: list[dict], handler_ms: list[float], server_requests: int) -> dict:
    """Per-layer metrics of one crawl (all its legs' processes)."""
    named = _by_name(processes)
    gets = named["client.get"]
    # The limiter wait runs inside MarketClient.get; the get's self time is
    # the rest: transport, server and client overhead.
    get_self_ms = []
    for process in processes:
        spans = spans_of(process)
        own = self_times(spans)
        get_self_ms += [1e3 * own[s.id] for s in spans if s.name == "client.get"]
    keys = {(s.attrs["path"], tuple(map(tuple, s.attrs["query"]))) for s in gets if s.attrs}
    m: dict[str, float] = {"replay.requests": server_requests}
    _put_distribution(m, "replay.handle_ms", handler_ms)
    _put_distribution(m, "client.get_ms", get_self_ms)
    m["client.requests"] = len(gets)
    m["client.bytes_in"] = sum(s.attrs.get("bytes", 0) for s in gets if s.attrs)
    m["limiter.wait_s"] = _total(named["limiter.acquire"])
    m["client.retries"] = retries(gets)
    m["client.proxy_rotations"] = len(named["client.rotate_proxy"])
    m["client.useful_ratio"] = len(keys) / len(gets) if gets else 0.0
    m["crawl.discover_s"] = _total(named["crawl.discover"])
    m["crawl.enumerate_s"] = _total(named["crawl.enumerate"])
    _put_distribution(m, "crawl.fetch_ms", [1e3 * s.duration for s in named["crawl.fetch"]])
    m["crawl.tokens_fetched"] = sum(1 for s in named["crawl.fetch"] if s.error is None)
    saves = named["checkpoint.save"]
    m["checkpoint.saves"] = len(saves)
    m["checkpoint.save_s"] = _total(saves)
    m["checkpoint.bytes_written"] = sum(s.attrs["bytes"] for s in saves if s.attrs)
    m["checkpoint.load_s"] = _total(named["checkpoint.load"])
    m["store.appends"] = len(named["store.append"])
    m["store.append_s"] = _total(named["store.append"])
    m["store.load_s"] = _total(named["store.load"])
    parses = named["extract.activity_parse"]
    m["extract.activity_parse_s"] = _total(parses)
    m["extract.activity_pages"] = len(parses)
    m["extract.events_parsed"] = sum(s.attrs["events"] for s in parses if s.attrs)
    m["returns.clean_s"] = _total(named["returns.clean"])
    serial = named["model.dataset_serialize"]
    m["model.dataset_serialize_s"] = _total(serial)
    m["model.dataset_bytes"] = sum(s.attrs["bytes"] for s in serial if s.attrs)
    return m


def stage_metrics(processes: list[dict]) -> dict:
    """Per-layer metrics of one analyze + optimize + report pass."""
    named = _by_name(processes)
    solves = named["optimize.solver"]
    m: dict[str, float] = {
        "returns.filter_s": _total(named["returns.filter"]),
        "returns.twr_s": _total(named["returns.twr"]),
        "returns.intervals": sum(s.attrs["intervals"] for s in named["returns.twr"] if s.attrs),
        "model.dataset_parse_s": _total(named["model.dataset_parse"]),
        "model.dataset_validate_s": _total(named["model.dataset_validate"]),
        "optimize.moments_s": _total(named["optimize.moments"]),
        "optimize.solver_s": _total(solves),
        "optimize.series_solved": sum(1 for s in solves if s.error is None),
        "optimize.series_skipped": sum(
            1 for s in named["optimize.moments"] + solves if s.error is not None
        ),
        "report.render_s": _total(named["report.render"]),
    }
    _put_distribution(m, "optimize.solver_ms", [1e3 * s.duration for s in solves])
    return m


def cli_self_s(process: dict) -> float:
    """Stage wall time minus start-up and minus what the layer spans under
    the stage's root span cover: argument parsing, writing outputs and
    interpreter exit."""
    spans = spans_of(process)
    roots = [s for s in spans if s.parent is None and s.name.startswith("cli.")]
    root_ids = {s.id for s in roots}
    children = [(s.start, s.end) for s in spans if s.parent in root_ids]
    inside = covered(children, process["main_start"], process["exit"])
    return (process["exit"] - process["main_start"]) - inside


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/spans.py SPAN_FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        doc = json.load(handle)
    table = self_time_table(doc["processes"])
    print(f"{'span':28} {'count':>7} {'total s':>10} {'self s':>10}")
    for name, (count, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:28} {count:7d} {total:10.4f} {own:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
