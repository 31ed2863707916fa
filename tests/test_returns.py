"""Return engine tests.

The reference implementation here folds the interval math in mpmath at 50
significant digits: R_i from exact price quotients, (1+R_i)**(1/dt_i) via
arbitrary-precision powers, then the running product.  It shares no code
path with the library (math.expm1/log1p vs mpmath.power), which makes the
comparison a genuine cross-check.
"""

import math
import random

import mpmath as mp
import pytest

from conftest import random_series
from nftfolio.model import PriceSeries, TokenRef
from nftfolio.returns import (
    InsufficientDataError,
    clean_series,
    filter_dataset,
    interval_adjusted_returns,
    simple_returns,
    time_weighted_return,
)

# Frozen expected values, computed once with mpmath at 40 digits.
ADJUSTED_R01_DT10 = 0.009576582776887025
TWR_TWO_TENPCT_DT10 = 0.01924487649145662


def series_of(pairs, token="Tok1", name="S"):
    return PriceSeries(
        TokenRef(token, name), tuple(t for t, _ in pairs), tuple(p for _, p in pairs)
    )


def oracle_total_return(series: PriceSeries, dps: int = 50) -> float:
    """High-precision fold of the per-second compounded product."""
    with mp.workdps(dps):
        total = mp.mpf(1)
        for i in range(len(series) - 1):
            p0 = mp.mpf(series.prices[i])
            p1 = mp.mpf(series.prices[i + 1])
            dt = series.timestamps[i + 1] - series.timestamps[i]
            growth = (p1 / p0) ** (mp.mpf(1) / dt)
            total *= growth
        return float(total - 1)


class TestOracleItself:
    def test_oracle_matches_frozen_single_interval(self):
        s = series_of([(0, 100.0), (10, 110.0)])
        assert oracle_total_return(s) == pytest.approx(ADJUSTED_R01_DT10, rel=1e-15)

    def test_oracle_matches_frozen_two_intervals(self):
        s = series_of([(0, 100.0), (10, 110.0), (20, 121.0)])
        assert oracle_total_return(s) == pytest.approx(TWR_TWO_TENPCT_DT10, rel=1e-15)


class TestCleanSeries:
    def test_duplicate_timestamp_keeps_last(self):
        s = series_of([(10, 5.0), (10, 6.0), (20, 7.0)])
        cleaned = clean_series(s)
        assert cleaned.observations() == [(10, 6.0), (20, 7.0)]

    def test_non_positive_prices_dropped(self):
        s = series_of([(10, -1.0), (20, 3.0)])
        assert clean_series(s).observations() == [(20, 3.0)]

    def test_non_finite_prices_dropped(self):
        s = series_of([(10, float("nan")), (20, float("inf")), (30, 2.0)])
        assert clean_series(s).observations() == [(30, 2.0)]

    def test_unsorted_input_sorted(self):
        s = series_of([(30, 3.0), (10, 1.0), (20, 2.0)])
        assert clean_series(s).timestamps == (10, 20, 30)

    def test_drop_then_collapse_order(self):
        # The junk price at a shared timestamp must not shadow the good one.
        s = series_of([(10, 5.0), (10, -1.0)])
        assert clean_series(s).observations() == [(10, 5.0)]

    def test_empty_series(self):
        assert len(clean_series(series_of([]))) == 0


class TestSimpleReturns:
    def test_basic(self):
        s = series_of([(0, 100.0), (10, 110.0), (20, 55.0)])
        assert simple_returns(s) == pytest.approx([0.1, -0.5])

    def test_needs_two_trades(self):
        with pytest.raises(InsufficientDataError):
            simple_returns(series_of([(0, 100.0)]))


class TestAdjustedReturns:
    def test_named_example(self):
        s = series_of([(0, 100.0), (10, 110.0)])
        (iv,) = interval_adjusted_returns(s)
        assert iv.simple_return == pytest.approx(0.1, rel=1e-15)
        assert iv.delta_seconds == 10
        assert iv.adjusted_return == pytest.approx(ADJUSTED_R01_DT10, rel=1e-13)

    def test_dt_one_reduces_to_simple_return_exactly(self):
        rng = random.Random(99)
        for _ in range(200):
            r = rng.uniform(-0.9, 5.0)
            s = series_of([(0, 100.0), (1, 100.0 * (1 + r))])
            (iv,) = interval_adjusted_returns(s)
            assert iv.adjusted_return == iv.simple_return

    def test_invariant_matches_direct_power(self):
        rng = random.Random(7)
        for _ in range(300):
            s = random_series(rng, length=2)
            (iv,) = interval_adjusted_returns(s)
            direct = (1.0 + iv.simple_return) ** (1.0 / iv.delta_seconds) - 1.0
            assert iv.adjusted_return == pytest.approx(direct, abs=1e-12)


class TestTimeWeightedReturn:
    def test_named_example(self):
        s = series_of([(0, 100.0), (10, 110.0), (20, 121.0)])
        summary = time_weighted_return(s)
        assert summary.total_return == pytest.approx(TWR_TWO_TENPCT_DT10, rel=1e-13)
        assert summary.interval_count == 2

    def test_constant_prices_give_exact_zero(self):
        s = series_of([(0, 42.0), (1000, 42.0), (5000, 42.0), (86400, 42.0)])
        assert time_weighted_return(s).total_return == 0.0

    def test_matches_oracle_on_random_series(self):
        rng = random.Random(2024)
        for _ in range(100):
            s = random_series(rng)
            got = time_weighted_return(s).total_return
            want = oracle_total_return(s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_composition_over_splits(self):
        rng = random.Random(17)
        for _ in range(30):
            s = random_series(rng, length=rng.randint(4, 30))
            total = time_weighted_return(s).total_return
            for k in range(1, len(s) - 1):
                left = PriceSeries(s.token, s.timestamps[: k + 1], s.prices[: k + 1])
                right = PriceSeries(s.token, s.timestamps[k:], s.prices[k:])
                combined = (1 + time_weighted_return(left).total_return) * (
                    1 + time_weighted_return(right).total_return
                ) - 1
                assert combined == pytest.approx(total, rel=1e-12, abs=1e-15)

    def test_price_scale_invariance(self):
        rng = random.Random(5150)
        for _ in range(30):
            s = random_series(rng)
            base = time_weighted_return(s).total_return
            for c in (1e-6, 1.0, 1e6):
                scaled = PriceSeries(s.token, s.timestamps, tuple(p * c for p in s.prices))
                assert time_weighted_return(scaled).total_return == pytest.approx(
                    base, rel=1e-12, abs=1e-15
                )

    def test_monotone_one_interval(self):
        # For a single interval, a larger price move means a larger score.
        up = series_of([(0, 100.0), (500, 150.0)])
        up_more = series_of([(0, 100.0), (500, 160.0)])
        assert (
            time_weighted_return(up_more).total_return > time_weighted_return(up).total_return
        )


def fsum_total(series: PriceSeries) -> float:
    """The engine's formula, written out: expm1(fsum(log1p(R_i) / dt_i))."""
    p, t = series.prices, series.timestamps
    return math.expm1(
        math.fsum(math.log1p((b - a) / a) / (u - v) for a, b, v, u in zip(p, p[1:], t, t[1:]))
    )


def near_cancelling_series(n: int, seed: int) -> PriceSeries:
    """n intervals of 30-3000 s whose prices move up to 2% either way, so
    the per-interval log terms largely cancel."""
    rng = random.Random(seed)
    t, price = 1_600_000_000, 100.0
    ts, ps = [t], [price]
    for _ in range(n):
        t += rng.randint(30, 3000)
        price *= math.exp(rng.uniform(-0.02, 0.02))
        ts.append(t)
        ps.append(price)
    return PriceSeries(TokenRef("Tok1", "S"), tuple(ts), tuple(ps))


class TestExactSum:
    def test_bit_identical_to_fsum_formula(self):
        rng = random.Random(31337)
        for _ in range(300):
            s = random_series(rng, length=rng.randint(3, 200))
            assert time_weighted_return(s).total_return == fsum_total(s)

    def test_single_interval_is_the_adjusted_return(self):
        rng = random.Random(4242)
        for step in (1, 2, 1_000_000) * 50:
            s = random_series(rng, length=2, max_step_seconds=step)
            (iv,) = interval_adjusted_returns(s)
            assert time_weighted_return(s).total_return == iv.adjusted_return

    def test_non_increasing_timestamp_is_rejected(self):
        s = series_of([(0, 1.0), (10, 2.0), (10, 3.0), (20, 4.0)])
        with pytest.raises(ValueError, match="index 1"):
            time_weighted_return(s)
        with pytest.raises(ValueError, match="index 1"):
            interval_adjusted_returns(s)

    def test_long_near_cancelling_history_matches_oracle(self):
        s = near_cancelling_series(100_000, seed=2)
        got = time_weighted_return(s).total_return
        gross = math.fsum(
            abs(math.log1p((b - a) / a)) / (u - v)
            for a, b, v, u in zip(s.prices, s.prices[1:], s.timestamps, s.timestamps[1:])
        )
        assert gross > 500 * abs(math.log1p(got))  # the gains and losses nearly cancel
        assert got == pytest.approx(oracle_total_return(s, dps=30), rel=1e-12)


class TestFilterDataset:
    def make(self):
        return {
            "A": [
                series_of([(10, 1.0), (20, 2.0), (3000, 3.0)], token="a1", name="A"),
                series_of([(10, 1.0)], token="a2", name="A"),
            ],
            "B": [series_of([(2000, 1.0), (2500, 2.0)], token="b1", name="B")],
        }

    def test_min_trades(self):
        out = filter_dataset(self.make(), min_trades=2)
        assert [s.token.token for s in out["A"]] == ["a1"]
        assert [s.token.token for s in out["B"]] == ["b1"]

    def test_cutoff_drops_late_events_then_small_tokens(self):
        out = filter_dataset(self.make(), min_trades=2, cutoff=1000)
        assert list(out.keys()) == ["A"]
        assert out["A"][0].timestamps == (10, 20)

    def test_cutoff_boundary_inclusive(self):
        out = filter_dataset(self.make(), min_trades=2, cutoff=2500)
        assert out["B"][0].timestamps == (2000, 2500)

    def test_empty_series_dropped(self):
        out = filter_dataset(self.make(), min_trades=3, cutoff=100)
        assert out == {}

    def test_math_domain_guard(self):
        # total return is only defined on cleaned data; junk prices must
        # have been dropped before analysis
        dirty = series_of([(10, 1.0), (20, -5.0)])
        cleaned = clean_series(dirty)
        with pytest.raises(InsufficientDataError):
            time_weighted_return(cleaned)
