"""Moment estimation on a resampled price grid and long-only maximum-Sharpe
portfolio weights.

Trade histories are irregular, so covariance is estimated on a regular
grid: each asset's price is carried forward (last observation) onto grid
points spaced ``grid_period_seconds`` apart over the window shared by all
assets, per-period simple returns are taken on that grid, and the sample
mean and covariance (n-1 denominator) of those returns form the moment
estimate.

The portfolio step maximizes the Sharpe ratio

    (E[R_p] - R_f) / sigma_p,   R_p = w . mu,   sigma_p = sqrt(w' Sigma w)

over the simplex (weights sum to one, no shorting).  With excess returns
m = mu - R_f, that is the convex quadratic program

    min 1/2 z' Sigma z - m' z   subject to z >= 0,   w = z / sum(z)

(Cornuejols & Tutuncu, Optimization Methods in Finance, 2007, section 8.2),
solved exactly by the Lawson-Hanson active-set method (Lawson & Hanson,
Solving Least Squares Problems, 1974, chapter 23).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

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
    """Sample mean vector and covariance matrix of grid-resampled returns."""

    assets: tuple[TokenRef, ...]
    mean_returns: np.ndarray
    covariance: np.ndarray
    grid_period_seconds: int

    def __post_init__(self) -> None:
        self.assets = tuple(self.assets)
        self.mean_returns = np.asarray(self.mean_returns, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        n = len(self.assets)
        if self.mean_returns.shape != (n,) or self.covariance.shape != (n, n):
            raise ValueError(
                f"moment shapes {self.mean_returns.shape}/{self.covariance.shape} "
                f"do not match {n} assets"
            )
        if n and np.max(np.abs(self.covariance - self.covariance.T)) > 1e-12:
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


def resample_to_grid(series: PriceSeries, period_seconds: int, window: tuple[int, int]) -> np.ndarray:
    """Last-observation-carried-forward prices at grid points
    start, start+period, ... <= end.

    Grid points before the first trade take the first traded price, so the
    caller should start the window at or after that trade.
    """
    if len(series) == 0:
        raise InsufficientDataError(f"{series.token.token}: cannot resample an empty series")
    start, end = window
    if end < start:
        raise ValueError(f"window end {end} precedes start {start}")
    n_points = (end - start) // period_seconds + 1
    grid = start + period_seconds * np.arange(n_points, dtype=np.int64)
    ts = np.asarray(series.timestamps, dtype=np.int64)
    idx = np.searchsorted(ts, grid, side="right") - 1
    idx = np.clip(idx, 0, len(ts) - 1)
    return np.asarray(series.prices, dtype=float)[idx]


def estimate_moments(
    assets: list[PriceSeries],
    config: OptimizerConfig,
    window_end: int | None = None,
) -> MomentEstimate:
    """Mean vector and sample covariance of per-period grid returns.

    The common window runs from the latest first-trade among the assets to
    ``window_end`` (default: the latest trade observed on any asset) and
    must contain at least three grid points, i.e. two return periods.
    Near-singular covariance (smallest eigenvalue under 1e-12) gets
    ``ridge_epsilon`` added to its diagonal so downstream volatility stays
    positive.
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
    prices = np.column_stack([resample_to_grid(s, period, (start, end)) for s in assets])
    rets = prices[1:] / prices[:-1] - 1.0
    mu = rets.mean(axis=0)
    sigma = np.cov(rets, rowvar=False, ddof=1)
    sigma = np.atleast_2d(sigma)
    rf = config.risk_free_rate
    for i, s in enumerate(assets):
        if sigma[i, i] == 0.0 and mu[i] - rf == 0.0:
            logger.warning(
                "asset=%s flag=zero-variance-zero-excess-return", s.token.token
            )
    if np.linalg.eigvalsh((sigma + sigma.T) / 2.0).min() < _PSD_TOL:
        sigma = sigma + config.ridge_epsilon * np.eye(len(assets))
    return MomentEstimate(
        assets=tuple(s.token for s in assets),
        mean_returns=mu,
        covariance=sigma,
        grid_period_seconds=period,
    )


def neg_sharpe(
    weights: np.ndarray,
    mean_returns: np.ndarray,
    covariance: np.ndarray,
    risk_free_rate: float = 0.0,
) -> float:
    """Negative Sharpe ratio of a weight vector (minimization objective)."""
    w = np.asarray(weights, dtype=float)
    portfolio_return = float(np.dot(w, mean_returns))
    variance = float(w @ covariance @ w)
    volatility = np.sqrt(max(variance, 0.0))
    if volatility == 0.0:
        raise DegeneratePortfolioError("portfolio volatility is zero; Sharpe undefined")
    return -(portfolio_return - risk_free_rate) / volatility


def max_sharpe_weights(moments: MomentEstimate, config: OptimizerConfig) -> PortfolioAllocation:
    """Long-only weights maximizing the Sharpe ratio of the moment estimate.

    Active-set loop on ``min 1/2 z' Sigma z - m' z, z >= 0``: each outer
    step adds the off-support asset with the largest gradient ``m - Sigma z``
    and solves ``Sigma_SS z_S = m_S`` on the support.  When that solution
    has a component at or below zero, ``z`` moves from its last feasible
    value toward it until a component reaches zero; that asset leaves the
    support and the solve repeats.  The loop stops once no off-support
    gradient exceeds 1e-12 of ``max m``.  At ``z = 0`` the gradient is
    ``m`` itself, so the loop never stops with an empty support.

    Raises NoFeasibleTangencyError when no asset beats the risk-free rate,
    and DegeneratePortfolioError when the support system is singular or
    the loop does not settle within 3n outer steps.
    """
    mu = moments.mean_returns
    sigma = moments.covariance
    rf = config.risk_free_rate
    n = len(moments.assets)
    if n == 0:
        raise InsufficientDataError("no assets to allocate")
    if float(mu.max()) <= rf:
        raise NoFeasibleTangencyError(
            f"no asset return exceeds the risk-free rate {rf}; tangency portfolio undefined"
        )
    m = mu - rf
    tol = 1e-12 * float(m.max())
    z = np.zeros(n)
    support = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        gradient = np.where(support, -np.inf, m - sigma @ z)
        j = int(np.argmax(gradient))
        if gradient[j] <= tol:
            break
        support[j] = True
        while support.any():
            idx = np.flatnonzero(support)
            try:
                s = np.linalg.solve(sigma[np.ix_(idx, idx)], m[idx])
            except np.linalg.LinAlgError as exc:
                raise DegeneratePortfolioError(f"singular covariance on the support: {exc}") from exc
            blocked = s <= 0
            if not blocked.any():
                z[idx] = s
                break
            # Step from the feasible z toward s until the first blocked
            # component reaches zero; it (and any tie) leaves the support.
            zs = z[idx]
            ratio = np.divide(zs, zs - s, out=np.zeros_like(zs), where=blocked & (zs > 0))
            k = int(np.argmin(np.where(blocked, ratio, np.inf)))
            z[idx] = zs + ratio[k] * (s - zs)
            z[idx[k]] = 0.0
            support[idx] = z[idx] > 0
            z[~support] = 0.0
    else:
        raise DegeneratePortfolioError(f"active-set loop did not settle in {3 * n} steps")
    w = z / z.sum()
    return PortfolioAllocation(
        assets=moments.assets,
        weights=tuple(float(x) for x in w),
        sharpe=-neg_sharpe(w, mu, sigma, rf),
        risk_free_rate=rf,
    )


def grid_sharpe_oracle(
    moments: MomentEstimate, resolution: float = 0.01, risk_free_rate: float = 0.0
) -> tuple[tuple[float, ...], float]:
    """Exhaustive simplex-lattice Sharpe maximizer for cross-checking.

    Enumerates every weight vector whose components are multiples of
    ``resolution`` and sum to one, in lexicographic order, and returns the
    best (ties keep the lexicographically smallest vector).  Deliberately
    refuses more than four assets; the lattice grows too fast beyond that.
    """
    n = len(moments.assets)
    if n == 0:
        raise ValueError("no assets")
    if n > 4:
        raise ValueError(f"grid oracle supports at most 4 assets, got {n}")
    steps = round(1.0 / resolution)
    if abs(steps * resolution - 1.0) > 1e-9 or steps < 1:
        raise ValueError(f"resolution {resolution} does not evenly divide 1")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    lattice = np.array(list(compositions(steps, n)), dtype=float) / steps
    mu = moments.mean_returns
    sigma = moments.covariance
    rets = lattice @ mu
    variances = np.einsum("ki,ij,kj->k", lattice, sigma, lattice)
    with np.errstate(divide="ignore", invalid="ignore"):
        sharpes = np.where(
            variances > 0, (rets - risk_free_rate) / np.sqrt(np.maximum(variances, 0)), -np.inf
        )
    best = int(np.argmax(sharpes))  # argmax keeps the first (lex smallest) on ties
    if not np.isfinite(sharpes[best]):
        raise DegeneratePortfolioError("every lattice point has zero volatility")
    return tuple(float(x) for x in lattice[best]), float(sharpes[best])
