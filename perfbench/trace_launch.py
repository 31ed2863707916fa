"""Run one nftfolio CLI stage with spans recorded at each layer's entry points.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/trace_launch.py SPANS_OUT STAGE [STAGE ARGS...]

Each wrapped name is patched where the program looks it up, so the stage
runs the same code with only the recording added.  A span is
``[id, name, start, end, parent, trace, thread, attrs, error]`` with
``time.monotonic()`` timestamps, which share one clock with the replay
server's request log.  Spans are kept in memory and written as JSON when
the stage returns.  A name that no longer exists is reported on stderr and
skipped, so the trace then lacks that layer instead of failing the stage.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


def _get_key(args, kwargs):
    """(path, query) of a ``MarketClient.get(self, path, params)`` call."""
    params = args[2] if len(args) > 2 else kwargs.get("params")
    return {"path": args[1], "query": sorted((str(k), str(v)) for k, v in (params or {}).items())}


def _get_attrs(args, kwargs, result):
    return {**_get_key(args, kwargs), "bytes": len(result.encode("utf-8"))}


# Attributes recorded when a call raises: a failed request keeps its
# (path, query) so that retries and distinct requests can be counted.
ERROR_ATTRS = {"client.get": _get_key}

# (module, attribute path, span name, attrs from (args, kwargs, result), new trace)
WRAPS = [
    ("nftfolio.cli", "run_crawl", "crawl.run", None, False),
    ("nftfolio.ingest", "discover_collections", "crawl.discover", None, True),
    ("nftfolio.ingest", "enumerate_tokens", "crawl.enumerate", None, True),
    ("nftfolio.ingest", "fetch_trade_history", "crawl.fetch", None, True),
    ("nftfolio.ingest", "MarketClient.get", "client.get", _get_attrs, False),
    ("nftfolio.ingest", "MarketClient.rotate_proxy", "client.rotate_proxy", None, False),
    ("nftfolio.ingest", "RateLimiter.acquire_slot", "limiter.acquire", None, False),
    ("nftfolio.ingest", "load_checkpoint", "checkpoint.load", None, False),
    (
        "nftfolio.ingest",
        "save_checkpoint",
        "checkpoint.save",
        lambda args, kwargs, result: {"bytes": os.path.getsize(args[1])},
        False,
    ),
    ("nftfolio.ingest", "_ResultStore.__init__", "store.load", None, False),
    ("nftfolio.ingest", "_ResultStore.append_order", "store.append", None, False),
    ("nftfolio.ingest", "_ResultStore.append_series", "store.append", None, False),
    (
        "nftfolio.extract",
        "parse_activity_page",
        "extract.activity_parse",
        lambda args, kwargs, result: {"events": len(result)},
        False,
    ),
    ("nftfolio.ingest", "clean_series", "returns.clean", None, False),
    (
        "nftfolio.ingest",
        "serialize_dataset",
        "model.dataset_serialize",
        lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))},
        False,
    ),
    ("nftfolio.cli", "load_dataset", "model.dataset_parse", None, False),
    ("nftfolio.cli", "validate_dataset", "model.dataset_validate", None, False),
    ("nftfolio.cli", "filter_dataset", "returns.filter", None, False),
    (
        "nftfolio.cli",
        "time_weighted_return",
        "returns.twr",
        lambda args, kwargs, result: {"intervals": result.interval_count},
        False,
    ),
    ("nftfolio.cli", "estimate_moments", "optimize.moments", None, False),
    ("nftfolio.cli", "max_sharpe_weights", "optimize.solver", None, False),
    ("nftfolio.cli", "render_portfolio_report", "report.render", None, False),
    ("nftfolio.cli", "render_returns_report", "report.render", None, False),
]


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int] | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def call(self, name, fn, args, kwargs, attrs_of=None, new_trace=False):
        parent = self.current()
        span_id = next(self._ids)
        trace = span_id if new_trace or parent is None else parent[1]
        stack = self._stack()
        stack.append((span_id, trace))
        error = None
        attrs = None
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, kwargs, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            if name in ERROR_ATTRS:
                attrs = ERROR_ATTRS[name](args, kwargs)
            raise
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(
                [span_id, name, start, end, None if parent is None else parent[0], trace,
                 threading.get_ident(), attrs, error]
            )

    def wrap(self, fn, name, attrs_of=None, new_trace=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of, new_trace)

        return wrapper

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks take the submitting span as
        their parent, so worker spans nest under the crawl that spawned
        them."""
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def run(*a, **k):
                    recorder._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        recorder._local.inherited = None

                return super().submit(run, *args, **kwargs)

        return TracedPool


def install(recorder: Recorder) -> list[str]:
    """Patch every name in WRAPS; return the ones that could not be found."""
    missing = []
    for module_name, path, span_name, attrs_of, new_trace in WRAPS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None:
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, recorder.wrap(target, span_name, attrs_of, new_trace))
    ingest = importlib.import_module("nftfolio.ingest")
    if hasattr(ingest, "ThreadPoolExecutor"):
        ingest.ThreadPoolExecutor = recorder.pool_class()
    return missing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    stage = argv[0]
    import nftfolio.cli

    recorder = Recorder()
    missing = install(recorder)
    for name in missing:
        print(f"trace_launch: {name} not found; its layer is not traced", file=sys.stderr)
    main_start = time.monotonic()
    code = 1
    try:
        code = recorder.call("cli." + stage, nftfolio.cli.main, (argv,), {}, new_trace=True)
    finally:
        doc = {
            "stage": stage,
            "main_start": main_start,
            "main_end": time.monotonic(),
            "missing": missing,
            "spans": recorder.spans,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
