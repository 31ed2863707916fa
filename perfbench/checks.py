"""Output checks, each independent of the program's own code.

Every check returns a list of problems; an empty list means the output is
correct.  The reference dataset comes from ``workloads.reference_dataset``.
Portfolios are checked for feasibility and optimality against simple
alternatives rather than compared to stored weights, since a different
exact solver may legitimately move weights in the eighth decimal.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# The optimize stage's defaults: --top 10, --grid-period 86400, --rf 0.
TOP_K = 10
GRID_PERIOD_S = 86_400
RISK_FREE = 0.0
RIDGE = 1e-10


def check_dataset(text: str, reference: dict) -> tuple[int, list[str]]:
    """Number of tokens delivered intact, and the problems found."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return 0, [f"dataset is not JSON: {exc}"]
    if not isinstance(got, dict):
        return 0, ["dataset top level is not an object"]
    problems = []
    intact = 0
    if set(got) != set(reference):
        problems.append("dataset series differ from the fixture's")
    for name, want in reference.items():
        have = {r.get("token"): r for r in got.get(name, [])}
        if [r.get("token") for r in got.get(name, [])] != [r["token"] for r in want]:
            problems.append(f"{name}: token order differs from the listing")
        for rec in want:
            if have.get(rec["token"]) == rec:
                intact += 1
            else:
                problems.append(f"{name}/{rec['token']}: history differs from the fixture")
    return intact, problems


def expected_returns(reference: dict) -> dict[tuple[str, str], tuple[float, int]]:
    """Total compounded per-second return per token with 2+ trades, summed
    exactly with math.fsum in log space."""
    out = {}
    for name, records in reference.items():
        for rec in records:
            ts, ps = rec["history"], rec["price"]
            if len(ts) < 2:
                continue
            logs = [
                math.log1p((p1 - p0) / p0) / (t1 - t0)
                for t0, t1, p0, p1 in zip(ts, ts[1:], ps, ps[1:])
            ]
            out[(name, rec["token"])] = (math.expm1(math.fsum(logs)), len(logs))
    return out


def check_returns(returns: list, expected: dict) -> list[str]:
    problems = []
    seen = set()
    for rec in returns:
        key = (rec["series_name"], rec["token"])
        if key in seen:
            problems.append(f"returns: duplicate record {key}")
        seen.add(key)
        if key not in expected:
            problems.append(f"returns: unexpected token {key}")
            continue
        total, intervals = expected[key]
        if rec["interval_count"] != intervals:
            problems.append(f"returns {key}: {rec['interval_count']} intervals, want {intervals}")
        if not math.isclose(rec["total_return"], total, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"returns {key}: {rec['total_return']!r} vs fsum {total!r}")
    missing = set(expected) - seen
    if missing:
        problems.append(f"returns: {len(missing)} token(s) missing, e.g. {sorted(missing)[0]}")
    return problems


def _moments(records: list[dict]):
    """Top-k assets, grid mean returns and covariance, or None when the
    series cannot be optimized (fewer than two assets or three grid points,
    or no asset above the risk-free rate)."""
    usable = [r for r in records if len(r["history"]) >= 2]
    picked = sorted(usable, key=lambda r: (-len(r["history"]), r["token"]))[:TOP_K]
    if len(picked) < 2:
        return None
    start = max(r["history"][0] for r in picked)
    end = max(r["history"][-1] for r in picked)
    if end < start or (end - start) // GRID_PERIOD_S + 1 < 3:
        return None
    grid = start + GRID_PERIOD_S * np.arange((end - start) // GRID_PERIOD_S + 1, dtype=np.int64)
    columns = []
    for r in picked:
        idx = np.searchsorted(np.asarray(r["history"], dtype=np.int64), grid, side="right") - 1
        columns.append(np.asarray(r["price"])[np.clip(idx, 0, None)])
    prices = np.column_stack(columns)
    rets = prices[1:] / prices[:-1] - 1.0
    mu = rets.mean(axis=0)
    sigma = np.atleast_2d(np.cov(rets, rowvar=False, ddof=1))
    if np.linalg.eigvalsh(sigma).min() < 1e-12:
        sigma = sigma + RIDGE * np.eye(len(picked))
    if mu.max() <= RISK_FREE:
        return None
    return [r["token"] for r in picked], mu, sigma


def _sharpe(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    variance = float(w @ sigma @ w)
    return -math.inf if variance <= 0 else (float(w @ mu) - RISK_FREE) / math.sqrt(variance)


def check_portfolios(portfolios: list, reference: dict) -> list[str]:
    """Feasible weights over the top-k assets whose Sharpe ratio is no
    lower than that of any single asset or of the equal-weight mix."""
    problems = []
    expected = {}
    for name, records in reference.items():
        moments = _moments(records)
        if moments is not None:
            expected[name] = moments
    got = {rec["series_name"]: rec for rec in portfolios}
    if len(got) != len(portfolios):
        problems.append("portfolio: duplicate series")
    if set(got) != set(expected):
        problems.append(
            f"portfolio: series {sorted(set(got) ^ set(expected))[:3]} solved/skipped wrongly"
        )
    for name in set(got) & set(expected):
        rec = got[name]
        tokens, mu, sigma = expected[name]
        if rec["assets"] != tokens:
            problems.append(f"portfolio {name}: assets are not the top-{TOP_K} by trades")
            continue
        w = np.asarray(rec["weights"], dtype=float)
        if abs(w.sum() - 1.0) > 1e-9 or w.min() < -1e-12:
            problems.append(f"portfolio {name}: infeasible weights (sum {w.sum()!r})")
            continue
        achieved = _sharpe(w, mu, sigma)
        if not math.isclose(rec["sharpe"], achieved, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"portfolio {name}: reported Sharpe {rec['sharpe']!r} vs {achieved!r}")
        n = len(tokens)
        rivals = [np.full(n, 1.0 / n)] + [np.eye(n)[i] for i in range(n)]
        best = max(_sharpe(r, mu, sigma) for r in rivals)
        if achieved < best - 1e-9 * abs(best) - 1e-12:
            problems.append(f"portfolio {name}: Sharpe {achieved!r} below a simple mix's {best!r}")
    return problems


def check_report(text: str, portfolios: list, returns: list) -> list[str]:
    """One CSV row per portfolio asset and per return record."""
    sections: list[list[list[str]]] = []
    for row in csv.reader(io.StringIO(text)):
        if not row:
            continue
        if row[0] == "Series Name":
            sections.append([])
        elif sections:
            sections[-1].append(row)
    if len(sections) != 2:
        return [f"report: {len(sections)} table(s), want 2"]
    asset_rows = {(r[0], r[1]) for r in sections[0]}
    want_assets = {(p["series_name"], a) for p in portfolios for a in p["assets"]}
    return_rows = {(r[0], r[1]) for r in sections[1]}
    want_returns = {(r["series_name"], r["token"]) for r in returns}
    problems = []
    if len(sections[0]) != len(want_assets) or asset_rows != want_assets:
        problems.append(f"report: {len(sections[0])} portfolio rows, want {len(want_assets)}")
    if len(sections[1]) != len(want_returns) or return_rows != want_returns:
        problems.append(f"report: {len(sections[1])} return rows, want {len(want_returns)}")
    return problems


def check_pacing(arrivals: list[float], delay: float, qps: float) -> list[str]:
    """The rate-limit acceptance test's two conditions on the server log:
    every start-to-start gap is at least the configured delay minus 10 ms,
    and no 10-second window starting at a request holds more than
    qps * 10 + 1 requests."""
    ordered = sorted(arrivals)
    problems = []
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    if gaps and min(gaps) < delay - 0.01:
        problems.append(f"pacing: a gap of {min(gaps):.4f}s is under {delay - 0.01:.3f}s")
    cap = qps * 10.0 + 1
    end = 0
    for start, t in enumerate(ordered):
        while end < len(ordered) and ordered[end] - t < 10.0:
            end += 1
        if end - start > cap:
            problems.append(f"pacing: {end - start} requests within 10s, cap {cap:.0f}")
            break
    return problems
