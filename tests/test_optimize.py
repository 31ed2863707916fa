"""Moment estimation and max-Sharpe solver tests.

Four independent reference routes guard the solver:

* closed-form tangency weights w ~ inv(Sigma) (mu - rf), normalized, valid
  whenever the unconstrained solution is already long-only;
* an exhaustive simplex grid search (library-provided but exercised here
  against hand-checkable cases before it is trusted);
* the optimality (KKT) conditions, checked from the returned weights alone
  on up to ten assets;
* a textbook two-pass covariance computed with plain loops.
"""

import math
import random

import numpy as np
import pytest

from nftfolio.model import PriceSeries, TokenRef
from nftfolio.optimize import (
    DegeneratePortfolioError,
    MomentEstimate,
    NoFeasibleTangencyError,
    OptimizerConfig,
    estimate_moments,
    grid_sharpe_oracle,
    max_sharpe_weights,
    neg_sharpe,
    resample_to_grid,
    select_assets,
)
from nftfolio.returns import InsufficientDataError

DAY = 86400


def tangency_closed_form(mu, cov, rf=0.0):
    w = np.linalg.solve(np.asarray(cov, float), np.asarray(mu, float) - rf)
    return w / w.sum()


def two_pass_covariance(rets):
    """Plain-loop sample covariance with the n-1 denominator."""
    rets = np.asarray(rets, float)
    n, k = rets.shape
    means = [sum(rets[:, j]) / n for j in range(k)]
    cov = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            cov[a, b] = sum(
                (rets[i, a] - means[a]) * (rets[i, b] - means[b]) for i in range(n)
            ) / (n - 1)
    return cov


def moments_of(mu, cov, names=None):
    mu = np.asarray(mu, float)
    names = names or [f"A{i}" for i in range(len(mu))]
    return MomentEstimate(
        assets=tuple(TokenRef(n, "S") for n in names),
        mean_returns=mu,
        covariance=np.asarray(cov, float),
        grid_period_seconds=DAY,
    )


def day_series(token, day_prices, start_day=1):
    """One trade per day, exactly on the grid."""
    ts = tuple(DAY * (start_day + i) for i in range(len(day_prices)))
    return PriceSeries(TokenRef(token, "S"), ts, tuple(day_prices))


class TestClosedFormOracle:
    def test_oracle_hand_check(self):
        # diag(0.01, 0.04)^-1 @ (0.1, 0.2) = (10, 5) -> (2/3, 1/3)
        w = tangency_closed_form([0.1, 0.2], np.diag([0.01, 0.04]))
        assert w == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


class TestSelectAssets:
    def test_most_traded_win(self):
        a = day_series("aa", [1, 2, 3])
        b = day_series("bb", [1, 2, 3, 4])
        c = day_series("cc", [1, 2])
        assert [s.token.token for s in select_assets([a, b, c], 2)] == ["bb", "aa"]

    def test_tie_breaks_by_token_string(self):
        a = day_series("zz", [1, 2, 3])
        b = day_series("aa", [5, 6, 7])
        assert [s.token.token for s in select_assets([a, b], 1)] == ["aa"]

    def test_k_larger_than_pool(self):
        a = day_series("aa", [1, 2])
        assert select_assets([a], 10) == [a]


class TestResample:
    def test_carry_forward(self):
        s = PriceSeries(TokenRef("aa", "S"), (100, DAY + 5000), (100.0, 200.0))
        grid = resample_to_grid(s, DAY, (100, 100 + 2 * DAY))
        assert list(grid) == [100.0, 100.0, 200.0]

    def test_before_first_trade_uses_first_price(self):
        s = PriceSeries(TokenRef("aa", "S"), (5000,), (7.0,))
        grid = resample_to_grid(s, DAY, (100, 100 + DAY))
        assert list(grid) == [7.0, 7.0]

    def test_empty_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            resample_to_grid(PriceSeries(TokenRef("aa", "S"), (), ()), DAY, (0, DAY))


class TestEstimateMoments:
    def test_doubling_prices_mean_one_variance_ridge(self):
        a = day_series("aa", [1.0, 2.0, 4.0, 8.0])
        b = day_series("bb", [3.0, 1.0, 4.0, 1.0])
        config = OptimizerConfig()
        m = estimate_moments([a, b], config)
        assert m.mean_returns[0] == pytest.approx(1.0, abs=1e-15)
        # zero sample variance makes Sigma singular, so the ridge lands
        assert m.covariance[0, 0] == pytest.approx(config.ridge_epsilon, abs=1e-16)

    def test_identical_assets_get_ridge(self):
        a = day_series("aa", [1.0, 2.0, 1.5, 2.5])
        b = day_series("bb", [1.0, 2.0, 1.5, 2.5])
        config = OptimizerConfig()
        m = estimate_moments([a, b], config)
        off_diag = m.covariance[0, 1]
        assert m.covariance[0, 0] == pytest.approx(off_diag + config.ridge_epsilon, rel=1e-9)

    def test_matches_two_pass_covariance(self):
        rng = random.Random(31337)
        config = OptimizerConfig()
        for _ in range(25):
            n_days = rng.randint(3, 40)
            assets = [
                day_series(f"t{j}", [rng.uniform(1, 100) for _ in range(n_days)])
                for j in range(rng.randint(2, 5))
            ]
            m = estimate_moments(assets, config)
            prices = np.array([[s.prices[i] for s in assets] for i in range(n_days)])
            rets = prices[1:] / prices[:-1] - 1.0
            want_mu = [sum(rets[:, j]) / len(rets) for j in range(len(assets))]
            want_cov = two_pass_covariance(rets)
            assert m.mean_returns == pytest.approx(want_mu, rel=1e-12, abs=1e-15)
            if np.linalg.eigvalsh(want_cov).min() >= 1e-12:
                assert m.covariance == pytest.approx(want_cov, rel=1e-12, abs=1e-15)
            else:
                assert m.covariance == pytest.approx(
                    want_cov + config.ridge_epsilon * np.eye(len(assets)), rel=1e-9, abs=1e-15
                )

    def test_common_window_is_latest_first_trade(self):
        a = day_series("aa", [1.0] * 11, start_day=1)  # days 1..11
        b = day_series("bb", [2.0, 3.0, 1.0, 2.0, 5.0, 4.0], start_day=4)  # days 4..9
        m = estimate_moments([a, b], OptimizerConfig())
        # window [day 4, day 11] at daily period -> 8 points, 7 returns;
        # asset a is flat there so its mean return is exactly zero
        assert m.mean_returns[0] == 0.0
        prices_b = resample_to_grid(b, DAY, (4 * DAY, 11 * DAY))
        rets_b = prices_b[1:] / prices_b[:-1] - 1.0
        assert len(rets_b) == 7
        assert m.mean_returns[1] == pytest.approx(rets_b.mean(), rel=1e-12)

    def test_window_too_short(self):
        a = day_series("aa", [1.0, 2.0])
        b = PriceSeries(TokenRef("bb", "S"), (DAY, DAY + 600), (1.0, 2.0))
        with pytest.raises(InsufficientDataError, match="grid point"):
            estimate_moments([a, b], OptimizerConfig())

    def test_needs_two_assets(self):
        with pytest.raises(InsufficientDataError):
            estimate_moments([day_series("aa", [1, 2, 3])], OptimizerConfig())


class TestNegSharpe:
    def test_hand_computed_value(self):
        mu = np.array([0.1, 0.2])
        cov = np.diag([0.01, 0.04])
        w = np.array([0.5, 0.5])
        # mean 0.15, var 0.0125
        want = -(0.15 - 0.0) / math.sqrt(0.0125)
        assert neg_sharpe(w, mu, cov, 0.0) == pytest.approx(want, rel=1e-15)

    def test_risk_free_shift(self):
        mu = np.array([0.1, 0.2])
        cov = np.diag([0.01, 0.04])
        w = np.array([0.5, 0.5])
        assert neg_sharpe(w, mu, cov, 0.15) == pytest.approx(0.0, abs=1e-15)

    def test_zero_volatility_rejected(self):
        cov = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegeneratePortfolioError):
            neg_sharpe(np.array([1.0, 0.0]), np.array([0.1, 0.2]), cov)


class TestGridOracle:
    def test_tie_break_lexicographically_smallest(self):
        # Two indistinguishable assets with dyadic moments: every quarter-step
        # lattice point has bit-identical Sharpe, so the tie must resolve to
        # the lexicographically smallest vector.
        m = moments_of([0.125, 0.125], [[0.0625, 0.0625], [0.0625, 0.0625]])
        weights, sharpe = grid_sharpe_oracle(m, resolution=0.25)
        assert weights == (0.0, 1.0)
        assert sharpe == 0.5

    def test_finds_known_optimum_region(self):
        m = moments_of([0.1, 0.2], np.diag([0.01, 0.04]))
        weights, sharpe = grid_sharpe_oracle(m, resolution=0.01)
        assert weights[0] == pytest.approx(2 / 3, abs=0.01)
        assert sharpe == pytest.approx(math.sqrt(2), rel=1e-3)

    def test_refuses_five_assets(self):
        m = moments_of([0.1] * 5, np.eye(5) * 0.01)
        with pytest.raises(ValueError, match="at most 4"):
            grid_sharpe_oracle(m, resolution=0.1)

    def test_resolution_must_divide_one(self):
        m = moments_of([0.1, 0.2], np.diag([0.01, 0.04]))
        with pytest.raises(ValueError, match="divide"):
            grid_sharpe_oracle(m, resolution=0.3)


class TestMaxSharpeWeights:
    def test_matches_closed_form_two_assets(self):
        m = moments_of([0.1, 0.2], np.diag([0.01, 0.04]))
        alloc = max_sharpe_weights(m, OptimizerConfig())
        assert alloc.weights == pytest.approx([2 / 3, 1 / 3], abs=1e-6)
        assert alloc.sharpe == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_iid_assets_split_evenly(self):
        m = moments_of([0.1, 0.1], np.diag([0.04, 0.04]))
        alloc = max_sharpe_weights(m, OptimizerConfig())
        assert alloc.weights == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_single_asset(self):
        m = moments_of([0.1], [[0.04]])
        alloc = max_sharpe_weights(m, OptimizerConfig())
        assert alloc.weights == (1.0,)
        assert alloc.sharpe == pytest.approx(0.1 / 0.2, rel=1e-12)

    def test_no_asset_beats_risk_free(self):
        m = moments_of([-0.1, -0.2], np.diag([0.01, 0.04]))
        with pytest.raises(NoFeasibleTangencyError):
            max_sharpe_weights(m, OptimizerConfig())
        m2 = moments_of([0.01, 0.02], np.diag([0.01, 0.04]))
        with pytest.raises(NoFeasibleTangencyError):
            max_sharpe_weights(m2, OptimizerConfig(risk_free_rate=0.05))

    def test_short_sale_candidate_stays_on_simplex(self):
        # Unconstrained tangency wants to short asset 1 here; the solver
        # must stay long-only and beat every lattice portfolio anyway.
        mu = np.array([0.02, 0.20])
        cov = np.array([[0.01, 0.018], [0.018, 0.04]])
        m = moments_of(mu, cov)
        alloc = max_sharpe_weights(m, OptimizerConfig())
        assert min(alloc.weights) >= 0.0
        assert sum(alloc.weights) == pytest.approx(1.0, abs=1e-9)
        _, grid_best = grid_sharpe_oracle(m, resolution=0.01)
        assert alloc.sharpe >= grid_best - 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4242)
        config = OptimizerConfig()
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            cov = a @ a.T + 0.05 * np.eye(n)
            mu = rng.uniform(0.01, 0.3, size=n)
            perm = rng.permutation(n)
            alloc = max_sharpe_weights(moments_of(mu, cov), config)
            alloc_p = max_sharpe_weights(
                moments_of(mu[perm], cov[np.ix_(perm, perm)]), config
            )
            unshuffled = np.empty(n)
            unshuffled[perm] = alloc_p.weights
            assert np.asarray(alloc.weights) == pytest.approx(unshuffled, abs=1e-9)

    def test_kkt_conditions_beyond_grid_oracle(self):
        # Up to ten assets, past the grid oracle's four-asset limit, so the
        # optimality conditions are the reference: with lam = w'Sw / w'm,
        # lam * m - S w is zero on the support and non-positive off it.
        # Odd cases have fewer grid returns than assets, so the covariance
        # is singular but for the ridge estimate_moments adds; its
        # condition number (~1e8) sets their looser tolerance.
        rng = np.random.default_rng(8080)
        solved = bound_binds = 0
        for case in range(200):
            n = int(rng.integers(2, 11))
            rf = 0.01 * (case % 3 == 0)
            config = OptimizerConfig(risk_free_rate=rf)
            if case % 2:
                steps = np.exp(rng.normal(0.01, 0.05, size=(int(rng.integers(2, n + 1)), n)))
                prices = np.vstack([np.ones(n), np.cumprod(steps, axis=0)])
                assets = [day_series(f"t{j}", list(prices[:, j])) for j in range(n)]
                moments = estimate_moments(assets, config)
                tol = 1e-6
            else:
                a = rng.normal(size=(n, n))
                moments = moments_of(rng.uniform(-0.1, 0.3, size=n), a @ a.T + 0.05 * np.eye(n))
                tol = 1e-10
            if moments.mean_returns.max() <= rf:
                continue
            alloc = max_sharpe_weights(moments, config)
            w = np.asarray(alloc.weights)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert w.min() >= -1e-12
            m = moments.mean_returns - rf
            sw = moments.covariance @ w
            residual = ((w @ sw) / (w @ m) * m - sw) / np.abs(sw).max()
            on = w > 0
            assert np.abs(residual[on]).max() <= tol, case
            assert (residual[~on] <= tol).all(), case
            solved += 1
            bound_binds += not on.all()
        assert solved >= 150 and bound_binds >= 50

    def test_deterministic_across_calls(self):
        m = moments_of([0.12, 0.2, 0.05], np.diag([0.02, 0.05, 0.01]))
        config = OptimizerConfig()
        first = max_sharpe_weights(m, config)
        second = max_sharpe_weights(m, config)
        assert first.weights == second.weights


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(top_k=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grid_period_seconds=0)
        with pytest.raises(ValueError):
            OptimizerConfig(ridge_epsilon=-1.0)

    def test_moment_estimate_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            MomentEstimate(
                assets=(TokenRef("aa", "S"), TokenRef("bb", "S")),
                mean_returns=np.array([0.1, 0.2]),
                covariance=np.array([[1.0, 0.5], [0.2, 1.0]]),
                grid_period_seconds=DAY,
            )
