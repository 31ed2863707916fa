"""Command line front end: crawl, analyze, optimize, report and replay.

Exit codes: 0 on success, 1 on domain errors (bad data, nothing to
optimize, crawl failure), 2 on usage errors.  A JSON config file given
via --config supplies defaults for any flag of the invoked subcommand;
flags passed explicitly on the command line win.  The environment
variable PIPELINE_ENDPOINT overrides --endpoint.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from .model import (
    PipelineError,
    PortfolioAllocation,
    ReturnSummary,
    SchemaError,
    TokenRef,
    load_dataset,
    read_json,
    validate_dataset,
    write_json,
)
from .report import render_portfolio_report, render_returns_report
from .returns import InsufficientDataError, filter_dataset, time_weighted_return

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _load_valid_dataset(path: str):
    dataset = load_dataset(path)
    violations = validate_dataset(dataset)
    if violations:
        shown = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise SchemaError(f"dataset {path} invalid: {shown}{more}")
    return dataset


def cmd_crawl(args: argparse.Namespace) -> int:
    from .ingest import CrawlConfig, run_crawl

    endpoint = os.environ.get("PIPELINE_ENDPOINT") or args.endpoint
    if not endpoint:
        print("error: no endpoint; pass --endpoint or set PIPELINE_ENDPOINT", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = CrawlConfig(
            endpoint_base=endpoint,
            collection_limit=args.collections,
            page_size_tokens=args.token_page_size,
            page_size_activities=args.activity_page_size,
            qps_limit=args.qps,
            download_delay_seconds=args.delay,
            max_concurrent_per_host=args.concurrency,
            request_timeout_seconds=args.timeout,
            proxies=tuple(args.proxy or ()),
            cookie_persistence=args.cookie_persistence,
            **({} if args.user_agent is None else {"user_agent": args.user_agent}),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.monotonic()
    path = run_crawl(config, args.workdir, out_path=args.out, stop_after_tokens=args.max_tokens)
    if path is None:
        logger.info("stage=crawl status=stopped workdir=%s", args.workdir)
        print(f"crawl stopped early; progress kept in {args.workdir}")
        return EXIT_OK
    logger.info(
        "stage=crawl status=done dataset=%s elapsed=%.2fs", path, time.monotonic() - started
    )
    print(path)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    dataset = _load_valid_dataset(args.dataset)
    filtered = filter_dataset(dataset, min_trades=args.min_trades, cutoff=args.cutoff)
    summaries = [
        time_weighted_return(series)
        for series_list in filtered.values()
        for series in series_list
    ]
    write_json(
        [
            {
                "token": s.token.token,
                "series_name": s.token.series_name,
                "total_return": s.total_return,
                "interval_count": s.interval_count,
            }
            for s in summaries
        ],
        args.out,
    )
    logger.info(
        "stage=analyze dataset=%s tokens=%d min_trades=%d cutoff=%s out=%s",
        args.dataset, len(summaries), args.min_trades, args.cutoff, args.out,
    )
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    from .optimize import (
        DegeneratePortfolioError,
        NoFeasibleTangencyError,
        OptimizerConfig,
        estimate_moments,
        max_sharpe_weights,
        select_assets,
    )

    try:
        config = OptimizerConfig(
            risk_free_rate=args.rf, top_k=args.top, grid_period_seconds=args.grid_period
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    dataset = _load_valid_dataset(args.dataset)
    filtered = filter_dataset(dataset, min_trades=2, cutoff=None)
    if args.series is not None:
        if args.series not in filtered:
            raise InsufficientDataError(
                f"series {args.series!r} absent or has no tokens with 2+ trades"
            )
        chosen = {args.series: filtered[args.series]}
    else:
        chosen = filtered
    records = []
    for name, series_list in chosen.items():
        try:
            picked = select_assets(series_list, config.top_k)
            moments = estimate_moments(picked, config)
            alloc = max_sharpe_weights(moments, config)
        except (InsufficientDataError, NoFeasibleTangencyError, DegeneratePortfolioError) as exc:
            if args.series is not None:
                raise
            logger.warning("stage=optimize series=%s status=skipped reason=%s", name, exc)
            continue
        records.append(
            {
                "series_name": name,
                "assets": [a.token for a in alloc.assets],
                "weights": list(alloc.weights),
                "sharpe": alloc.sharpe,
                "risk_free_rate": alloc.risk_free_rate,
            }
        )
        logger.info("stage=optimize series=%s assets=%d sharpe=%.6f", name, len(alloc.assets), alloc.sharpe)
    if not records:
        raise InsufficientDataError("insufficient data: no series produced an allocation")
    write_json(records, args.out)
    logger.info("stage=optimize dataset=%s series=%d out=%s", args.dataset, len(records), args.out)
    return EXIT_OK


def _allocation(rec: dict) -> PortfolioAllocation:
    name = rec["series_name"]
    return PortfolioAllocation(
        assets=tuple(TokenRef(tok, name) for tok in rec["assets"]),
        weights=tuple(float(w) for w in rec["weights"]),
        sharpe=float(rec["sharpe"]),
        risk_free_rate=float(rec.get("risk_free_rate", 0.0)),
    )


def _summary(rec: dict) -> ReturnSummary:
    return ReturnSummary(
        token=TokenRef(rec["token"], rec["series_name"]),
        total_return=float(rec["total_return"]),
        interval_count=int(rec["interval_count"]),
    )


def _records_from_file(path: str, what: str, build) -> list:
    """Build one record per element of the JSON list in ``path``."""
    records = []
    for i, rec in enumerate(read_json(path, what, list)):
        try:
            records.append(build(rec))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{what} file {path}: element {i} malformed ({exc})") from exc
    return records


def cmd_report(args: argparse.Namespace) -> int:
    if not args.portfolio and not args.returns_file:
        print("error: report needs --portfolio and/or --returns", file=sys.stderr)
        return EXIT_USAGE
    sections = []
    if args.portfolio:
        allocations = _records_from_file(args.portfolio, "portfolio", _allocation)
        sections.append(render_portfolio_report(allocations, args.format))
    if args.returns_file:
        summaries = _records_from_file(args.returns_file, "returns", _summary)
        sections.append(render_returns_report(summaries, args.format))
    output = "\n".join(sections)
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    logger.info(
        "stage=report portfolio=%s returns=%s format=%s out=%s",
        args.portfolio, args.returns_file, args.format, args.out or "-",
    )
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    # Each stage imports its own heavy modules: replay loads http.server
    # and crawl requests, and no other stage pays for them.
    from .replay import ReplayServer, generate_fixture, load_fixture, save_fixture

    if args.fixture:
        fixture = load_fixture(args.fixture)
    elif args.seed is not None:
        try:
            fixture = generate_fixture(
                args.seed,
                n_collections=args.collections,
                tokens_per_collection=args.tokens_per_collection,
                trades_per_token_range=(args.trades_min, args.trades_max),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print("error: replay needs --fixture or --seed", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        save_fixture(fixture, args.out)
        print(args.out)
    if args.serve:
        server = ReplayServer(fixture, port=args.port)
        server.start()
        print(server.base_url, flush=True)
        logger.info("stage=replay status=serving url=%s", server.base_url)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    elif not args.out:
        tokens = sum(len(c.tokens) for c in fixture.collections)
        print(f"fixture seed={fixture.seed} collections={len(fixture.collections)} tokens={tokens}")
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of flag defaults for this subcommand")

    parser = argparse.ArgumentParser(
        prog="pipeline",
        description="Crawl NFT trade histories, score them by compounded per-second "
        "return, and build max-Sharpe portfolios.",
    )
    subs = parser.add_subparsers(dest="command")
    registry: dict[str, argparse.ArgumentParser] = {}

    crawl = subs.add_parser("crawl", parents=[common], help="crawl a marketplace endpoint to a dataset file")
    crawl.add_argument("--endpoint", help="API base URL (PIPELINE_ENDPOINT overrides)")
    crawl.add_argument("--workdir", default="crawl-workdir", help="crawl state directory; rerun with it to resume")
    crawl.add_argument("--out", default=None, help="dataset path (default <workdir>/dataset.json)")
    crawl.add_argument("--collections", type=int, default=50, help="how many top-volume collections")
    crawl.add_argument("--token-page-size", type=int, default=50)
    crawl.add_argument("--activity-page-size", type=int, default=500)
    crawl.add_argument("--qps", type=float, default=2.0, help="long-run request rate cap")
    crawl.add_argument("--delay", type=float, default=0.4, help="minimum gap between request starts")
    crawl.add_argument("--concurrency", type=int, default=2, help="max in-flight requests")
    crawl.add_argument("--timeout", type=float, default=20.0, help="per-request timeout in seconds")
    crawl.add_argument("--proxy", action="append", help="proxy identity; repeat to build a pool")
    crawl.add_argument("--cookie-persistence", action="store_true")
    crawl.add_argument("--user-agent", default=None, help="User-Agent header (default: a desktop browser's)")
    crawl.add_argument("--max-tokens", type=int, default=None, help="stop after this many tokens")
    crawl.set_defaults(func=cmd_crawl)
    registry["crawl"] = crawl

    analyze = subs.add_parser("analyze", parents=[common], help="compute per-token compounded returns")
    analyze.add_argument("--dataset", required=True)
    analyze.add_argument("--min-trades", type=int, default=2, help="drop tokens with fewer trades (at least 2)")
    analyze.add_argument("--cutoff", type=int, default=None, help="drop trades after this epoch second")
    analyze.add_argument("--out", default="returns.json")
    analyze.set_defaults(func=cmd_analyze)
    registry["analyze"] = analyze

    optimize = subs.add_parser("optimize", parents=[common], help="max-Sharpe weights per series")
    optimize.add_argument("--dataset", required=True)
    which = optimize.add_mutually_exclusive_group(required=True)
    which.add_argument("--series", default=None, help="optimize one series by name")
    which.add_argument("--all", action="store_true", help="optimize every series")
    optimize.add_argument("--top", type=int, default=10, help="how many most-traded tokens per series")
    optimize.add_argument("--rf", type=float, default=0.0, help="risk-free rate")
    optimize.add_argument("--grid-period", type=int, default=86400, help="resampling period in seconds")
    optimize.add_argument("--out", default="portfolio.json")
    optimize.set_defaults(func=cmd_optimize)
    registry["optimize"] = optimize

    report = subs.add_parser("report", parents=[common], help="render portfolio/returns tables")
    report.add_argument("--portfolio", default=None, help="portfolio.json from optimize")
    report.add_argument("--returns", dest="returns_file", default=None, help="returns.json from analyze")
    report.add_argument("--format", choices=("text", "csv"), default="text")
    report.add_argument("--out", default=None, help="output path (default stdout)")
    report.set_defaults(func=cmd_report)
    registry["report"] = report

    replay = subs.add_parser("replay", parents=[common], help="generate or serve a replay fixture")
    replay.add_argument("--fixture", default=None, help="fixture JSON to load")
    replay.add_argument("--seed", type=int, default=None, help="generate a fixture from this seed")
    replay.add_argument("--collections", type=int, default=3)
    replay.add_argument("--tokens-per-collection", type=int, default=4)
    replay.add_argument("--trades-min", type=int, default=5)
    replay.add_argument("--trades-max", type=int, default=30)
    replay.add_argument("--out", default=None, help="write the fixture JSON here")
    replay.add_argument("--serve", action="store_true", help="serve until interrupted")
    replay.add_argument("--port", type=int, default=0, help="port to bind (0 = ephemeral)")
    replay.set_defaults(func=cmd_replay)
    registry["replay"] = replay

    return parser, registry


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    overrides: dict = {}
    if known.config:
        try:
            overrides = json.loads(Path(known.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: unreadable config file {known.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(overrides, dict):
            print(f"error: config file {known.config} must hold a JSON object", file=sys.stderr)
            return EXIT_USAGE

    parser, registry = build_parser()
    if overrides:
        # Config values become subcommand defaults, so explicit flags win.
        for sub in registry.values():
            dests = {action.dest for action in sub._actions}
            applicable = {k: v for k, v in overrides.items() if k in dests}
            if applicable:
                sub.set_defaults(**applicable)
    try:
        args = parser.parse_args(argv)
        # Checked after parsing so that a --config value is held to it too.
        if args.command == "analyze" and args.min_trades < 2:
            registry["analyze"].error("--min-trades must be at least 2: a return needs two trades")
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s %(message)s")
    try:
        return args.func(args)
    except PipelineError as exc:
        logger.error("status=error detail=%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        logger.error("status=error detail=%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
