"""Moment estimation and max-Sharpe solver tests.

Four independent reference routes guard the solver:

* closed-form tangency weights w ~ inv(Sigma) (mu - rf), normalized, valid
  whenever the unconstrained solution is already long-only;
* an exhaustive simplex grid search in numpy (``grid_sharpe_oracle``
  below, exercised against hand-checkable cases before it is trusted);
* the optimality (KKT) conditions, checked from the returned weights alone
  on up to ten assets;
* a textbook two-pass covariance computed with plain loops.
"""

import math
import operator
import random

import numpy as np
import pytest

from nftfolio.model import PriceSeries, TokenRef
from nftfolio.optimize import (
    _PSD_TOL,
    DegeneratePortfolioError,
    MomentEstimate,
    NoFeasibleTangencyError,
    OptimizerConfig,
    _cholesky,
    estimate_moments,
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
        assert np.asarray(m.covariance)[0, 0] == pytest.approx(config.ridge_epsilon, abs=1e-16)

    def test_identical_assets_get_ridge(self):
        a = day_series("aa", [1.0, 2.0, 1.5, 2.5])
        b = day_series("bb", [1.0, 2.0, 1.5, 2.5])
        config = OptimizerConfig()
        m = estimate_moments([a, b], config)
        cov = np.asarray(m.covariance)
        assert cov[0, 0] == pytest.approx(cov[0, 1] + config.ridge_epsilon, rel=1e-9)

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

    def test_matches_fsum_formulas_bit_for_bit(self):
        # The mean is fsum(r) / T and each covariance entry
        # fsum(d_i * d_j) / (T - 1) over centred returns, to the last bit,
        # so the covariance is exactly symmetric.
        rng = random.Random(2718)
        config = OptimizerConfig()
        ridged = 0
        for _ in range(50):
            n_days = rng.randint(3, 60)
            assets = [
                day_series(f"t{j}", [rng.uniform(1, 100) for _ in range(n_days)])
                for j in range(rng.randint(2, 6))
            ]
            m = estimate_moments(assets, config)
            rets = [[b / a - 1.0 for a, b in zip(s.prices, s.prices[1:])] for s in assets]
            periods = n_days - 1
            mu = [math.fsum(r) / periods for r in rets]
            centred = [[x - mean for x in r] for r, mean in zip(rets, mu)]
            cov = [
                [math.fsum(map(operator.mul, d_i, d_j)) / (periods - 1) for d_j in centred]
                for d_i in centred
            ]
            if np.linalg.eigvalsh(cov).min() < 1e-12:
                ridged += 1
                for i, row in enumerate(cov):
                    row[i] += config.ridge_epsilon
            assert list(m.mean_returns) == mu
            assert [list(row) for row in m.covariance] == cov
            assert [list(col) for col in zip(*m.covariance)] == cov
        assert 0 < ridged < 50

    def test_ridge_decision_matches_smallest_eigenvalue(self):
        # The ridge lands when Sigma - 1e-12 I has no Cholesky factor, which
        # is the test eigvalsh(Sigma).min() < 1e-12.  The covariances come
        # from the KKT test's generator, with up to 2n return periods so
        # that some are nonsingular, scaled so their spectra straddle the
        # floor; cases within a factor of 2 of it are left to rounding.
        rng = np.random.default_rng(8080)
        outcomes = []
        for case in range(400):
            n = int(rng.integers(2, 11))
            if case % 2:
                steps = np.exp(rng.normal(0.01, 0.05, size=(int(rng.integers(2, 2 * n + 1)), n)))
                prices = np.vstack([np.ones(n), np.cumprod(steps, axis=0)])
                assets = [day_series(f"t{j}", list(prices[:, j])) for j in range(n)]
                moments = estimate_moments(assets, OptimizerConfig(ridge_epsilon=0.0))
                sigma = np.asarray(moments.covariance)
            else:
                a = rng.normal(size=(n, n))
                sigma = a @ a.T + 0.05 * np.eye(n)
            sigma = sigma * 10.0 ** rng.uniform(-12, -6)
            smallest = np.linalg.eigvalsh(sigma).min()
            if 0.5e-12 <= smallest <= 2e-12:
                continue
            ridge = _cholesky(sigma.tolist(), _PSD_TOL) is None
            assert ridge == (smallest < 1e-12), case
            outcomes.append(ridge)
        assert 50 <= sum(outcomes) <= len(outcomes) - 50

    def test_common_window_is_latest_first_trade(self):
        a = day_series("aa", [1.0] * 11, start_day=1)  # days 1..11
        b = day_series("bb", [2.0, 3.0, 1.0, 2.0, 5.0, 4.0], start_day=4)  # days 4..9
        m = estimate_moments([a, b], OptimizerConfig())
        # window [day 4, day 11] at daily period -> 8 points, 7 returns;
        # asset a is flat there so its mean return is exactly zero
        assert m.mean_returns[0] == 0.0
        prices_b = np.asarray(resample_to_grid(b, DAY, (4 * DAY, 11 * DAY)))
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
            if max(moments.mean_returns) <= rf:
                continue
            alloc = max_sharpe_weights(moments, config)
            w = np.asarray(alloc.weights)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert w.min() >= -1e-12
            m = np.asarray(moments.mean_returns) - rf
            sw = np.asarray(moments.covariance) @ w
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
