"""Moment estimation on a resampled price grid and long-only maximum-Sharpe
portfolio weights.

Trade histories are irregular, so covariance is estimated on a regular
grid: each asset's price is carried forward (last observation) onto grid
points spaced ``grid_period_seconds`` apart over the window shared by all
assets, per-period simple returns are taken on that grid, and the sample
mean and covariance (n-1 denominator) of those returns form the moment
estimate.  Every sum is a ``math.fsum``, which is exactly rounded
(Shewchuk, Discrete Comput. Geom. 18, 1997).

The portfolio step maximizes the Sharpe ratio

    (E[R_p] - R_f) / sigma_p,   R_p = w . mu,   sigma_p = sqrt(w' Sigma w)

over the simplex (weights sum to one, no shorting).  With excess returns
m = mu - R_f, that is the convex quadratic program

    min 1/2 z' Sigma z - m' z   subject to z >= 0,   w = z / sum(z)

(Cornuejols & Tutuncu, Optimization Methods in Finance, 2007, section 8.2),
solved exactly by the Lawson-Hanson active-set method (Lawson & Hanson,
Solving Least Squares Problems, 1974, chapter 23).  One Cholesky
factorisation serves both the covariance floor test and the linear solve
on the support.  The module needs only the standard library.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from math import fsum, sqrt
from operator import mul

from .model import PipelineError, PortfolioAllocation, PriceSeries, TokenRef
from .returns import InsufficientDataError

logger = logging.getLogger(__name__)

# Covariance below this eigenvalue floor counts as degenerate and gets the ridge.
_PSD_TOL = 1e-12


class DegeneratePortfolioError(PipelineError):
    """The Sharpe ratio has no well-defined maximizer: the portfolio variance
    is zero, or the solver meets a singular covariance on its support or
    does not settle."""


class NoFeasibleTangencyError(PipelineError):
    """No asset earns more than the risk-free rate, so every long-only
    portfolio has non-positive excess return."""


@dataclass
class MomentEstimate:
    """Sample mean vector and covariance matrix of grid-resampled returns,
    stored as a tuple of floats and a tuple of row tuples; any array-like
    input is converted."""

    assets: tuple[TokenRef, ...]
    mean_returns: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    grid_period_seconds: int

    def __post_init__(self) -> None:
        self.assets = tuple(self.assets)
        self.mean_returns = tuple(map(float, self.mean_returns))
        self.covariance = tuple(tuple(map(float, row)) for row in self.covariance)
        n = len(self.assets)
        cov = self.covariance
        rows = [len(row) for row in cov]
        if len(self.mean_returns) != n or rows != [n] * n:
            raise ValueError(
                f"moment shapes {len(self.mean_returns)} means / rows {rows} "
                f"do not match {n} assets"
            )
        if any(abs(cov[i][j] - cov[j][i]) > 1e-12 for i in range(n) for j in range(i)):
            raise ValueError("covariance is not symmetric within 1e-12")


@dataclass(frozen=True)
class OptimizerConfig:
    risk_free_rate: float = 0.0
    top_k: int = 10
    grid_period_seconds: int = 86400
    ridge_epsilon: float = 1e-10

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.grid_period_seconds <= 0:
            raise ValueError("grid_period_seconds must be positive")
        if self.ridge_epsilon < 0:
            raise ValueError("ridge_epsilon must be non-negative")


def select_assets(series_list: list[PriceSeries], k: int) -> list[PriceSeries]:
    """Pick the k most-traded series; ties break by ascending token string."""
    ranked = sorted(series_list, key=lambda s: (-len(s), s.token.token))
    return ranked[:k]


def resample_to_grid(series: PriceSeries, period_seconds: int, window: tuple[int, int]) -> list[float]:
    """Last-observation-carried-forward prices at grid points
    start, start+period, ... <= end.

    Grid points before the first trade take the first traded price, so the
    caller should start the window at or after that trade.  One forward
    walk over the sorted timestamps serves the whole grid.
    """
    if len(series) == 0:
        raise InsufficientDataError(f"{series.token.token}: cannot resample an empty series")
    start, end = window
    if end < start:
        raise ValueError(f"window end {end} precedes start {start}")
    ts, prices = series.timestamps, series.prices
    last = len(ts) - 1
    i = 0
    out = []
    for t in range(start, end + 1, period_seconds):
        while i < last and ts[i + 1] <= t:
            i += 1
        out.append(prices[i])
    return out


def _cholesky(a: Sequence[Sequence[float]], shift: float = 0.0) -> list[list[float]] | None:
    """Lower-triangular rows of L with L L' = a - shift*I, or None when a
    pivot is not positive, i.e. when a - shift*I is not positive definite."""
    rows: list[list[float]] = []
    for i, a_i in enumerate(a):
        row: list[float] = []
        for j in range(i):
            l_j = rows[j]
            row.append((a_i[j] - fsum(map(mul, row, l_j))) / l_j[j])
        pivot = a_i[i] - shift - fsum(map(mul, row, row))
        if not pivot > 0.0:
            return None
        row.append(sqrt(pivot))
        rows.append(row)
    return rows


def estimate_moments(
    assets: list[PriceSeries],
    config: OptimizerConfig,
    window_end: int | None = None,
) -> MomentEstimate:
    """Mean vector and sample covariance of per-period grid returns.

    The common window runs from the latest first-trade among the assets to
    ``window_end`` (default: the latest trade observed on any asset) and
    must contain at least three grid points, i.e. two return periods.
    The mean is ``fsum(r) / T`` and each covariance entry
    ``fsum(d_i * d_j) / (T - 1)`` over centred returns, computed on the
    lower triangle and mirrored.  Near-singular covariance (smallest
    eigenvalue under 1e-12, tested as a failed Cholesky factorisation of
    ``Sigma - 1e-12 I``) gets ``ridge_epsilon`` added to its diagonal so
    downstream volatility stays positive.
    """
    if len(assets) < 2:
        raise InsufficientDataError(f"need at least 2 assets, have {len(assets)}")
    for s in assets:
        if len(s) < 2:
            raise InsufficientDataError(f"{s.token.token}: need at least 2 trades, have {len(s)}")
    start = max(s.timestamps[0] for s in assets)
    end = max(s.timestamps[-1] for s in assets) if window_end is None else int(window_end)
    period = config.grid_period_seconds
    n_points = (end - start) // period + 1 if end >= start else 0
    if n_points < 3:
        raise InsufficientDataError(
            f"common window [{start}, {end}] holds {n_points} grid point(s) "
            f"at {period}s; need at least 3"
        )
    n, periods = len(assets), n_points - 1
    mu: list[float] = []
    centred: list[list[float]] = []
    for s in assets:
        prices = resample_to_grid(s, period, (start, end))
        rets = [b / a - 1.0 for a, b in zip(prices, prices[1:])]
        mean = fsum(rets) / periods
        mu.append(mean)
        centred.append([r - mean for r in rets])
    sigma = [[0.0] * n for _ in range(n)]
    for i, d_i in enumerate(centred):
        for j in range(i + 1):
            sigma[i][j] = sigma[j][i] = fsum(map(mul, d_i, centred[j])) / (periods - 1)
    rf = config.risk_free_rate
    for i, s in enumerate(assets):
        if sigma[i][i] == 0.0 and mu[i] - rf == 0.0:
            logger.warning(
                "asset=%s flag=zero-variance-zero-excess-return", s.token.token
            )
    # Sigma - tol*I is positive definite exactly when Sigma's smallest
    # eigenvalue exceeds tol.
    if _cholesky(sigma, _PSD_TOL) is None:
        for i in range(n):
            sigma[i][i] += config.ridge_epsilon
    return MomentEstimate(
        assets=tuple(s.token for s in assets),
        mean_returns=mu,
        covariance=sigma,
        grid_period_seconds=period,
    )


def neg_sharpe(
    weights: Sequence[float],
    mean_returns: Sequence[float],
    covariance: Sequence[Sequence[float]],
    risk_free_rate: float = 0.0,
) -> float:
    """Negative Sharpe ratio of a weight vector (minimization objective)."""
    w = list(weights)
    portfolio_return = fsum(map(mul, w, mean_returns))
    variance = fsum(w_i * fsum(map(mul, row, w)) for w_i, row in zip(w, covariance))
    volatility = sqrt(max(variance, 0.0))
    if volatility == 0.0:
        raise DegeneratePortfolioError("portfolio volatility is zero; Sharpe undefined")
    return -(portfolio_return - risk_free_rate) / volatility


def max_sharpe_weights(moments: MomentEstimate, config: OptimizerConfig) -> PortfolioAllocation:
    """Long-only weights maximizing the Sharpe ratio of the moment estimate.

    Active-set loop on ``min 1/2 z' Sigma z - m' z, z >= 0``: each outer
    step adds the off-support asset with the largest gradient ``m - Sigma z``
    (the first one on a tie) and solves ``Sigma_SS z_S = m_S`` on the
    support by Cholesky factorisation.  When that solution has a component
    at or below zero, ``z`` moves from its last feasible value toward it
    until a component reaches zero; that asset leaves the support and the
    solve repeats.  The loop stops once no off-support gradient exceeds
    1e-12 of ``max m``.  At ``z = 0`` the gradient is ``m`` itself, so the
    loop never stops with an empty support.

    Raises NoFeasibleTangencyError when no asset beats the risk-free rate,
    and DegeneratePortfolioError when the support system is not positive
    definite (a non-positive Cholesky pivot) or the loop does not settle
    within 3n outer steps.
    """
    mu = moments.mean_returns
    sigma = moments.covariance
    rf = config.risk_free_rate
    n = len(moments.assets)
    if n == 0:
        raise InsufficientDataError("no assets to allocate")
    if max(mu) <= rf:
        raise NoFeasibleTangencyError(
            f"no asset return exceeds the risk-free rate {rf}; tangency portfolio undefined"
        )
    m = [x - rf for x in mu]
    tol = 1e-12 * max(m)
    z = [0.0] * n
    support = [False] * n
    for _ in range(3 * n):
        j, best = -1, float("-inf")
        for i in range(n):
            if not support[i]:
                g = m[i] - fsum(map(mul, sigma[i], z))
                if g > best:
                    j, best = i, g
        if best <= tol:
            break
        support[j] = True
        while any(support):
            idx = [i for i in range(n) if support[i]]
            chol = _cholesky([[sigma[a][b] for b in idx] for a in idx])
            if chol is None:
                raise DegeneratePortfolioError(
                    "singular covariance on the support: non-positive Cholesky pivot"
                )
            # Forward substitution L y = m_S, then back substitution L' s = y.
            y: list[float] = []
            for row, m_i in zip(chol, (m[i] for i in idx)):
                y.append((m_i - fsum(map(mul, row, y))) / row[-1])
            size = len(idx)
            s = [0.0] * size
            for k in reversed(range(size)):
                s[k] = (y[k] - fsum(chol[r][k] * s[r] for r in range(k + 1, size))) / chol[k][k]
            if not any(x <= 0 for x in s):
                for i, x in zip(idx, s):
                    z[i] = x
                break
            # Step from the feasible z toward s until the first blocked
            # component (s <= 0) reaches zero; it (and any tie) leaves the
            # support.
            zs = [z[i] for i in idx]
            step, k = min(
                (zi / (zi - si) if zi > 0 else 0.0, pos)
                for pos, (zi, si) in enumerate(zip(zs, s))
                if si <= 0
            )
            for i, zi, si in zip(idx, zs, s):
                z[i] = zi + step * (si - zi)
            z[idx[k]] = 0.0
            for i in range(n):
                support[i] = support[i] and z[i] > 0
                if not support[i]:
                    z[i] = 0.0
    else:
        raise DegeneratePortfolioError(f"active-set loop did not settle in {3 * n} steps")
    total = fsum(z)
    w = [x / total for x in z]
    return PortfolioAllocation(
        assets=moments.assets,
        weights=tuple(w),
        sharpe=-neg_sharpe(w, mu, sigma, rf),
        risk_free_rate=rf,
    )
