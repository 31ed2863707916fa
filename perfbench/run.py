"""nftfolio benchmark: replay -> crawl -> analyze -> optimize -> report.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 28 --trace 0

The run builds a fixture from the workload and the seed, serves it from a
ReplayServer hosted in this process (so its request log can be read), and
runs every stage as its own ``python -m nftfolio`` process.  It repeats
the crawl for the first third of ``--seconds`` (at least once), then the
analyze/optimize/report pass on the first crawl's dataset until
``--seconds`` are spent (at least three times), and checks every output.

A yardstick process, which imports the program's dependencies and
nothing of the program, runs before and after the set-up and after every
pass.  The host's speed drifts by tens of percent over tens of seconds
with the load of its other tenants, and a pass slows down together with
the yardsticks around it, so a stage time is reported as the median over
passes of (stage wall / mean wall of the two yardsticks around the pass)
times YARDSTICK_REF_S: the stage's wall time on a host where the yardstick
takes that long.  Set-up time is scaled the same way.  Raw times are
printed and recorded too.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it spends half the time on that untraced flow and half on the same flow
run through ``trace_launch.py``, and prints the per-layer metrics, the
tracing overhead per stage included.  The last line of standard output is
the JSON result.  Each run is appended to ``.perfbench/runs.jsonl`` and a
traced run's spans go to ``.perfbench/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))
try:
    import checks
    import spans
    import workloads
    from nftfolio.replay import ReplayServer, _Handler
except ImportError as exc:
    sys.exit(f"error: cannot import nftfolio from {SRC} ({exc}); run from a full checkout")

# Hard limit for one run: stage processes still running then are killed.
RUN_LIMIT_S = 170.0
# After this many seconds no further repetitions start.
SOFT_LIMIT_S = 120.0
# Set-up repeats at least this many times and for at least this long.
SETUP_REPS = 5
SETUP_MIN_S = 0.5
MIN_PASSES = 3
STAGES = ("analyze", "optimize", "report")
# The program's declared dependencies, imported without the program.
YARDSTICK = "import numpy, scipy.optimize, requests"
# Yardstick wall time that defines the reference host speed.
YARDSTICK_REF_S = 0.6


@dataclass
class Process:
    name: str
    wall: float
    rss_mb: float
    code: int
    trace: dict | None = None
    log_tail: str = ""


class Runner:
    """Runs child processes, timing each and reading its peak RSS."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def stage(self, stage: str, args: list[str], traced: bool = False) -> Process:
        """One ``nftfolio`` CLI stage, through the trace launcher if traced."""
        spans_path = self.work / f"{self.count + 1:04d}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "trace_launch.py"), str(spans_path), stage, *args]
        else:
            cmd = [sys.executable, "-m", "nftfolio", stage, *args]
        proc, spawn, end = self.run(stage, cmd)
        if traced and spans_path.exists():
            proc.trace = json.loads(spans_path.read_text(encoding="utf-8"))
            proc.trace.update(spawn=spawn, exit=end)
        return proc

    def yardstick(self) -> Process:
        return self.run("yardstick", [sys.executable, "-c", YARDSTICK])[0]

    def run(self, name: str, cmd: list[str]) -> tuple[Process, float, float]:
        self.count += 1
        log_path = self.work / f"{self.count:04d}-{name}.log"
        with open(log_path, "wb") as log:
            spawn = time.monotonic()
            child = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - spawn), child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        tail = log_path.read_text(errors="replace")[-400:] if child.returncode else ""
        return Process(name, end - spawn, usage.ru_maxrss / 1024.0, child.returncode, None, tail), spawn, end


@contextmanager
def traced_handler(records: list):
    """Record (start, end) of every replay request while active."""
    original = _Handler.do_GET

    def do_GET(self):  # noqa: N802 - stdlib naming
        start = time.monotonic()
        try:
            original(self)
        finally:
            records.append((start, time.monotonic()))

    _Handler.do_GET = do_GET
    try:
        yield
    finally:
        _Handler.do_GET = original


@dataclass
class Crawl:
    seconds: float
    requests: int
    pacing: float
    intact: int
    procs: list[Process]
    handler: list
    dataset: Path


@dataclass
class Pass:
    before: Process
    stages: list[Process]
    after: Process

    @property
    def yardstick_s(self) -> float:
        return (self.before.wall + self.after.wall) / 2


class Bench:
    def __init__(self, workload, seed: int, work: Path, runner: Runner, started: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.runner = runner
        self.soft_end = started + SOFT_LIMIT_S
        self.problems: list[str] = []
        self.setup_times = []
        self.setup_yardsticks = [runner.yardstick()]
        setup_start = time.monotonic()
        while len(self.setup_times) < SETUP_REPS or time.monotonic() - setup_start < SETUP_MIN_S:
            t0 = time.monotonic()
            fixture = workloads.make_fixture(workload, seed)
            server = ReplayServer(fixture).start()
            self.setup_times.append(time.monotonic() - t0)
            server.stop()
        self.setup_yardsticks.append(runner.yardstick())
        for proc in self.setup_yardsticks:
            if proc.code != 0:
                self.fail(f"yardstick exited {proc.code}: {proc.log_tail}")
        self.fixture = fixture
        self.reference = workloads.reference_dataset(fixture)
        self.expected_returns = checks.expected_returns(self.reference)
        self.crawls: dict[bool, list[Crawl]] = {False: [], True: []}
        self.passes: dict[bool, list[Pass]] = {False: [], True: []}

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def crawl(self, traced: bool) -> Crawl:
        w = self.workload
        wd = self.work / f"crawl{self.runner.count}"
        out = wd / "dataset.json"
        handler: list = []
        procs, legs = [], []
        server = ReplayServer(self.fixture).start()
        try:
            with traced_handler(handler) if traced else nullcontext():
                for leg in w.legs:
                    before = len(server.request_log())
                    args = ["--endpoint", server.base_url, "--workdir", str(wd), "--out", str(out)]
                    args += w.crawl_flags() + ([] if leg is None else ["--max-tokens", str(leg)])
                    procs.append(self.runner.stage("crawl", args, traced))
                    legs.append([r.timestamp for r in server.request_log()[before:]])
                    if procs[-1].code != 0:
                        self.fail(f"crawl exited {procs[-1].code}: {procs[-1].log_tail}")
                        break
        finally:
            server.stop()
        windows = [(leg[-1] - leg[0], len(leg) - 1) for leg in legs if len(leg) > 1]
        rate = sum(n for _, n in windows) / sum(t for t, _ in windows) if windows else 0.0
        intact = 0
        if out.exists():
            intact, problems = checks.check_dataset(out.read_text(encoding="utf-8"), self.reference)
            for p in problems[:5]:
                self.fail(p)
        else:
            self.fail("crawl wrote no dataset")
        if w.paced:
            arrivals = [t for leg in legs for t in leg]
            for p in checks.check_pacing(arrivals, workloads.STOCK_DELAY_S, workloads.STOCK_QPS):
                self.fail(p)
        run = Crawl(sum(p.wall for p in procs), sum(len(leg) for leg in legs), rate / w.qps,
                    intact, procs, handler, out)
        self.crawls[traced].append(run)
        return run

    def yardstick(self) -> Process | None:
        proc = self.runner.yardstick()
        if proc.code != 0:
            self.fail(f"yardstick exited {proc.code}: {proc.log_tail}")
            return None
        return proc

    def stage_pass(self, dataset: Path, traced: bool, before: Process) -> Process | None:
        """One analyze/optimize/report pass and the yardstick after it;
        None when a process failed or an output check did."""
        tag = self.runner.count
        returns = self.work / f"returns{tag}.json"
        portfolio = self.work / f"portfolio{tag}.json"
        report = self.work / f"report{tag}.csv"
        args = {
            "analyze": ["--dataset", str(dataset), "--out", str(returns)],
            "optimize": ["--dataset", str(dataset), "--all", "--out", str(portfolio)],
            "report": ["--portfolio", str(portfolio), "--returns", str(returns),
                       "--format", "csv", "--out", str(report)],
        }
        procs = []
        for stage in STAGES:
            procs.append(self.runner.stage(stage, args[stage], traced))
            if procs[-1].code != 0:
                self.fail(f"{stage} exited {procs[-1].code}: {procs[-1].log_tail}")
                return None
        after = self.yardstick()
        if after is None:
            return None
        self.passes[traced].append(Pass(before, procs, after))
        ret = json.loads(returns.read_text(encoding="utf-8"))
        port = json.loads(portfolio.read_text(encoding="utf-8"))
        problems = checks.check_returns(ret, self.expected_returns)
        problems += checks.check_portfolios(port, self.reference)
        problems += checks.check_report(report.read_text(encoding="utf-8"), port, ret)
        for p in problems[:5]:
            self.fail(p)
        return None if problems else after

    def measure(self, traced: bool, budget: float) -> None:
        """Crawl for a third of the budget (at least once), then repeat the
        stage pass until the budget is spent (at least MIN_PASSES times)."""
        start = time.monotonic()
        first = self.crawl(traced)
        while time.monotonic() < min(start + budget / 3, self.soft_end):
            self.crawl(traced)
        yardstick = self.yardstick() if first.dataset.exists() else None
        n = 0
        while yardstick is not None and (
            n < MIN_PASSES or time.monotonic() < min(start + budget, self.soft_end)
        ):
            yardstick = self.stage_pass(first.dataset, traced, yardstick)
            n += 1

    def stage_seconds(self, traced: bool) -> dict[str, float]:
        """Per stage: median over passes of wall / the pass's yardstick wall, in
        seconds at the reference speed."""
        passes = self.passes[traced]
        return {
            stage: YARDSTICK_REF_S * statistics.median(p.stages[i].wall / p.yardstick_s for p in passes)
            for i, stage in enumerate(STAGES)
        }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        crawls = self.crawls[False]
        passes = self.passes[False]
        med = statistics.median
        setup_yardstick_s = statistics.mean(p.wall for p in self.setup_yardsticks)
        m = {
            "setup_s": (YARDSTICK_REF_S * med(self.setup_times) / setup_yardstick_s, "s"),
            "crawl_s": (med(c.seconds for c in crawls), "s"),
            "crawl_requests_per_s": (med(c.requests / c.seconds for c in crawls), "1/s"),
            "pacing_efficiency": (med(c.pacing for c in crawls), "ratio"),
        }
        for stage, seconds in self.stage_seconds(False).items():
            m[f"{stage}_s"] = (seconds, "s")
        m["pipeline_s"] = (sum(m[k][0] for k in ("crawl_s", "analyze_s", "optimize_s", "report_s")), "s")
        procs = [p for c in crawls for p in c.procs] + [p for ps in passes for p in ps.stages]
        m["peak_rss_mb"] = (max(p.rss_mb for p in procs), "MB")
        return m

    def raw_walls(self) -> dict[str, float]:
        """Median raw wall time of set-up, of each stage and of the yardstick."""
        passes = self.passes[False]
        out = {
            "setup": statistics.median(self.setup_times),
            "yardstick": statistics.median(p.yardstick_s for p in passes),
        }
        for i, stage in enumerate(STAGES):
            out[stage] = statistics.median(p.stages[i].wall for p in passes)
        return out

    def per_layer(self) -> dict[str, float]:
        med = statistics.median
        per_crawl = []
        for c in self.crawls[True]:
            traces = [p.trace for p in c.procs if p.trace]
            metrics = spans.crawl_metrics(traces, [1e3 * (e - s) for s, e in c.handler], c.requests)
            if metrics["client.requests"] != metrics["replay.requests"]:
                self.fail(
                    f"client sent {metrics['client.requests']} requests, "
                    f"server logged {metrics['replay.requests']}"
                )
            metrics["cli.crawl.self_s"] = sum(spans.cli_self_s(t) for t in traces)
            per_crawl.append(metrics)
        per_pass = []
        for ps in self.passes[True]:
            metrics = spans.stage_metrics([p.trace for p in ps.stages if p.trace])
            for p in ps.stages:
                if p.trace:
                    metrics[f"cli.{p.name}.self_s"] = spans.cli_self_s(p.trace)
            per_pass.append(metrics)
        out = {}
        for rows in (per_crawl, per_pass):
            for key in rows[0] if rows else ():
                out[key] = med(r[key] for r in rows)
        traced = self.traced_processes()
        out["cli.startup_s"] = med(p.trace["main_start"] - p.trace["spawn"] for p in traced)
        overheads = {"crawl": med(c.seconds for c in self.crawls[True])
                     - med(c.seconds for c in self.crawls[False])}
        untraced = self.stage_seconds(False)
        for stage, seconds in self.stage_seconds(True).items():
            overheads[stage] = seconds - untraced[stage]
        for stage, overhead in overheads.items():
            out[f"trace.{stage}.overhead_s"] = overhead
        out["trace.overhead_s"] = sum(overheads.values())
        return out

    def traced_processes(self) -> list[Process]:
        procs = [p for c in self.crawls[True] for p in c.procs]
        procs += [p for ps in self.passes[True] for p in ps.stages]
        return [p for p in procs if p.trace]

    def span_file(self) -> dict:
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "processes": [p.trace for p in self.traced_processes()],
            "replay_handler": [h for c in self.crawls[True] for h in c.handler],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    started = time.monotonic()
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(work, started + RUN_LIMIT_S)
        # Compile bytecode and warm the file cache before anything is timed.
        subprocess.run(
            [sys.executable, "-c", "import nftfolio.cli"], cwd=ROOT, env=runner.env, check=True
        )
        bench = Bench(workload, args.seed, work, runner, started)
        if args.trace:
            bench.measure(traced=False, budget=args.seconds / 2)
            bench.measure(traced=True, budget=args.seconds / 2)
        else:
            bench.measure(traced=False, budget=args.seconds)
        measured = all(
            bench.crawls[traced] and bench.passes[traced]
            for traced in ((False, True) if args.trace else (False,))
        )
        e2e = bench.end_to_end() if measured else {}
        raw = bench.raw_walls() if measured else {}
        layers = bench.per_layer() if measured and args.trace else {}
        ok = measured and not bench.problems
        n_crawls = len(bench.crawls[False]) + len(bench.crawls[True])
        attempted = max(1, workload.tokens * n_crawls)
        intact = sum(c.intact for c in bench.crawls[False] + bench.crawls[True])
        failed = attempted - intact if ok else attempted
        if args.trace:
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
            (STATE / f"spans-{workload.name}-seed{args.seed}.json").write_text(
                json.dumps(bench.span_file()), encoding="utf-8"
            )
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
              f"crawls={len(bench.crawls[False])}+{len(bench.crawls[True])} "
              f"passes={len(bench.passes[False])}+{len(bench.passes[True])}")
        for name, (value, unit) in e2e.items():
            print(f"  {name:24} {value:14.6f} {unit}")
        print(f"  {'failed_share':24} {failed / attempted:14.6f} share")
        for name, value in raw.items():
            print(f"  {'raw wall ' + name:24} {value:14.6f} s (median, untraced)")
        for name, value in layers.items():
            print(f"  {name:32} {value:16.6f} {_layer_unit(name)}")
        for problem in bench.problems[:20]:
            print(f"  CHECK FAILED: {problem}")
        result = {"correct": bool(ok), "attempted": attempted, "failed": failed, "metrics": metrics}
        with open(STATE / "runs.jsonl", "a", encoding="utf-8") as handle:
            record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "time": time.time(), "problems": bench.problems,
                      "end_to_end": {k: v for k, (v, _) in e2e.items()}, "raw_wall": raw,
                      **result}
            handle.write(json.dumps(record) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith(".tail_pct"):
        return "%"
    if name.endswith(".n"):
        return "count"
    if "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
