from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from vccsim import allocation
from vccsim.allocation import (
    MmfSolution,
    PowerAllocation,
    UserRateFunction,
    mmf_sum_rates,
    solve_mmf,
    waterfill,
    zf_mmf_bounds,
)
from vccsim.channel import complex_gaussian, substream
from vccsim.errors import ConvergenceError
from vccsim.precoding import zf_matrix


def waterfill_by_enumeration(lams, budget, n0):
    """Independent oracle: try every active set explicitly."""
    lams = np.asarray(lams, dtype=float)
    best = None
    for size in range(1, lams.size + 1):
        for active in combinations(range(lams.size), size):
            idx = list(active)
            level = (budget + np.sum(n0 / lams[idx])) / size
            p = np.zeros(lams.size)
            p[idx] = level - n0 / lams[idx]
            if np.any(p < -1e-12):
                continue
            rate = np.sum(np.log1p(np.maximum(p, 0) * lams / n0))
            if best is None or rate > best[0] + 1e-12:
                best = (rate, p)
    return best[1]


def brute_force_mmf(fns, p_tot):
    """Independent max-min optimizer: epigraph form solved by SLSQP.

    Variables are the per-user powers plus the common rate floor t;
    maximize t subject to rate_k(P_k) >= t and sum(P) <= p_tot.
    """
    n = len(fns)
    x0 = np.append(np.full(n, p_tot / n), min(f.rate(p_tot / n) for f in fns))

    cons = [
        {"type": "ineq", "fun": lambda x: p_tot - np.sum(x[:n])},
    ]
    for k, f in enumerate(fns):
        cons.append(
            {"type": "ineq", "fun": lambda x, k=k, f=f: f.rate(max(x[k], 0.0)) - x[n]}
        )
    bounds = [(0.0, p_tot)] * n + [(0.0, None)]
    res = minimize(
        lambda x: -x[n], x0, method="SLSQP", bounds=bounds, constraints=cons,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return res.x[n]


def random_fns(rng, n_users, j_max=4, xi=0.95, n0=1.0):
    fns = []
    for _ in range(n_users):
        j = rng.integers(1, j_max + 1)
        lams = rng.uniform(0.2, 8.0, size=j)
        fns.append(UserRateFunction(lams, n0, xi))
    return fns


class TestWaterfill:
    def test_single_stream(self):
        p, level = waterfill([5.0], 2.0, 1.0)
        assert p[0] == 2.0 and level == pytest.approx(2.2)

    def test_both_active(self):
        p, level = waterfill([4.0, 1.0], 1.0, 1.0)
        assert np.allclose(p, [0.875, 0.125])
        assert level == pytest.approx(1.125)

    def test_weak_stream_dropped(self):
        p, _ = waterfill([4.0, 1.0], 0.1, 1.0)
        assert np.allclose(p, [0.1, 0.0])

    def test_matches_enumeration_oracle(self):
        rng = substream(60, 0)
        for _ in range(200):
            j = rng.integers(1, 6)
            lams = rng.uniform(0.05, 10.0, size=j)
            budget = rng.uniform(0.0, 5.0)
            p, _ = waterfill(lams, budget, 1.0)
            oracle = waterfill_by_enumeration(lams, budget, 1.0)
            assert np.allclose(p, oracle, atol=1e-9)

    def test_input_order_preserved(self):
        p, _ = waterfill([1.0, 4.0], 1.0, 1.0)
        assert np.allclose(p, [0.125, 0.875])

    def test_tied_gains_split_equally(self):
        p, _ = waterfill([2.0, 2.0, 2.0], 0.9, 1.0)
        assert np.allclose(p, [0.3, 0.3, 0.3])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill([1.0, -1.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            waterfill([1.0], -0.5, 1.0)


class TestUserRateFunction:
    def test_zero_power_zero_rate(self):
        f = UserRateFunction(np.array([3.0, 1.0]), 1.0, 0.9)
        assert f.rate(0.0) == 0.0
        assert f.inverse(0.0) == 0.0

    def test_single_stream_closed_form(self):
        f = UserRateFunction(np.array([2.5]), 0.5, 0.8)
        p = 1.7
        assert f.rate(p) == pytest.approx(0.8 * np.log1p(p * 2.5 / 0.5), rel=1e-12)
        r = 1.1
        assert f.inverse(r) == pytest.approx(0.5 * np.expm1(r / 0.8) / 2.5, rel=1e-12)

    def test_equal_gains_equal_split(self):
        j, lam, n0, xi, p = 3, 2.0, 0.7, 0.9, 2.4
        f = UserRateFunction(np.full(j, lam), n0, xi)
        assert f.rate(p) == pytest.approx(xi * j * np.log1p(p * lam / (j * n0)), rel=1e-12)

    def test_inverse_round_trip(self):
        rng = substream(61, 0)
        for _ in range(300):
            f = random_fns(rng, 1)[0]
            r = rng.uniform(0.01, 12.0)
            assert f.rate(f.inverse(r)) == pytest.approx(r, rel=1e-8)
            p = rng.uniform(0.01, 40.0)
            assert f.inverse(f.rate(p)) == pytest.approx(p, rel=1e-8)

    def test_monotone_increasing(self):
        f = UserRateFunction(np.array([4.0, 2.0, 0.5]), 1.0, 1.0)
        ps = np.linspace(0, 10, 50)
        rates = [f.rate(p) for p in ps]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestSolveMmf:
    def test_single_user(self):
        f = UserRateFunction(np.array([3.0, 1.0]), 1.0, 0.9)
        sol = solve_mmf([f], 4.0)
        assert sol.sum_rate == pytest.approx(f.rate(4.0), rel=1e-10)
        assert sol.allocation.total == pytest.approx(4.0, rel=1e-12)

    def test_two_identical_users(self):
        fns = [UserRateFunction(np.array([2.0, 1.0]), 1.0, 1.0) for _ in range(2)]
        sol = solve_mmf(fns, 6.0)
        assert np.allclose(sol.allocation.per_user, [3.0, 3.0], rtol=1e-10)
        assert sol.sum_rate == pytest.approx(2 * fns[0].rate(3.0), rel=1e-10)

    def test_zero_budget(self):
        fns = [UserRateFunction(np.array([2.0]), 1.0, 1.0)]
        sol = solve_mmf(fns, 0.0)
        assert sol.sum_rate == 0.0 and sol.allocation.total == 0.0

    def test_matches_brute_force(self):
        rng = substream(62, 0)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            fns = random_fns(rng, n)
            p_tot = float(rng.uniform(0.5, 20.0))
            sol = solve_mmf(fns, p_tot)
            ref = brute_force_mmf(fns, p_tot)
            assert sol.per_user_rate == pytest.approx(ref, rel=1e-4), f"trial {trial}"

    def test_equal_rates_budget_and_bracket(self):
        rng = substream(63, 0)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            fns = random_fns(rng, n)
            p_tot = float(rng.uniform(0.1, 30.0))
            sol = solve_mmf(fns, p_tot)
            rates = [f.rate(b) for f, b in zip(fns, sol.allocation.per_user)]
            assert np.allclose(rates, sol.per_user_rate, rtol=1e-6)
            assert sol.allocation.total == pytest.approx(p_tot, rel=1e-9)
            lo, hi = sol.bracket
            assert lo <= sol.sum_rate * (1 + 1e-12)
            assert sol.sum_rate <= hi * (1 + 1e-12)

    def test_kkt_water_levels(self):
        rng = substream(64, 0)
        for _ in range(100):
            fns = random_fns(rng, int(rng.integers(1, 6)))
            sol = solve_mmf(fns, float(rng.uniform(0.5, 10.0)))
            for f, powers in zip(fns, sol.allocation.per_symbol):
                active = powers > 0
                if not active.any():
                    continue
                levels = powers[active] + f.noise_power / f.eigenvalues[active]
                assert np.ptp(levels) <= 1e-10 * levels.max()
                if (~active).any():
                    floor = (f.noise_power / f.eigenvalues[~active]).min()
                    assert floor >= levels.max() * (1 - 1e-10)

    def test_monotone_in_budget_and_gains(self):
        fns = [
            UserRateFunction(np.array([2.0, 0.7]), 1.0, 1.0),
            UserRateFunction(np.array([1.2]), 1.0, 1.0),
        ]
        r1 = solve_mmf(fns, 2.0).sum_rate
        r2 = solve_mmf(fns, 2.5).sum_rate
        assert r2 > r1
        boosted = [
            UserRateFunction(np.array([2.2, 0.7]), 1.0, 1.0),
            UserRateFunction(np.array([1.2]), 1.0, 1.0),
        ]
        assert solve_mmf(boosted, 2.0).sum_rate > r1


class TestMmfSumRates:
    def test_matches_solve_mmf_over_power_vector(self):
        rng = substream(65, 0)
        for _ in range(20):
            fns = random_fns(rng, int(rng.integers(1, 7)))
            powers = rng.uniform(0.1, 30.0, size=5)
            counts = np.array([f.num_streams for f in fns])
            gains = np.zeros((len(fns), counts.max()))
            for row, f in zip(gains, fns):
                row[: f.num_streams] = f.eigenvalues
            rates = mmf_sum_rates(gains, counts, [len(fns)], [0.95], 1.0, powers)
            ref = [solve_mmf(fns, p).sum_rate for p in powers]
            np.testing.assert_allclose(rates, [ref], rtol=1e-14)

    def test_nonpositive_budget_gives_zero(self):
        gains = np.array([[2.0, 1.0], [3.0, 0.0]])
        rates = mmf_sum_rates(gains, np.array([2, 1]), [2], [1.0], 1.0, np.array([0.0, -1.0]))
        assert np.array_equal(rates, [[0.0, 0.0]])

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(allocation, "_NEWTON_MAX_ITER", 1)
        hard = np.array([[5.0, 0.1], [2.0, 1.0]])
        with pytest.raises(ConvergenceError):
            mmf_sum_rates(hard, np.array([2, 2]), [2], [1.0], 1.0, np.array([10.0]))
        # Beside a problem with equal gains, whose bracket is closed, and a
        # one-stream one, both within the cap, the hard problem alone raises.
        easy = np.array([[1.5, 1.5], [3.0, 0.0]])
        easy_counts = np.array([2, 1])
        rates = mmf_sum_rates(easy, easy_counts, [1, 1], [1.0, 0.9], 1.0, np.array([10.0]))
        assert np.all(rates > 0)
        with pytest.raises(ConvergenceError):
            mmf_sum_rates(
                np.vstack([easy[:1], hard, easy[1:]]), np.array([2, 2, 2, 1]),
                [1, 2, 1], [1.0, 1.0, 0.9], 1.0, np.array([10.0]),
            )

    @pytest.mark.parametrize("sizes", [[1, 0], [2, 1], [1]])
    def test_sizes_must_partition_the_users(self, sizes):
        with pytest.raises(ValueError):
            mmf_sum_rates(np.ones((2, 1)), [1, 1], sizes, [1.0] * len(sizes), 1.0, [1.0])

    # A count of 0 used to give a silent NaN, and one above the row width an
    # IndexError; one count per user.
    @pytest.mark.parametrize("counts", [[0], [3], [1, 1], [-1]])
    def test_counts_must_lie_within_the_rows(self, counts):
        with pytest.raises(ValueError, match="stream count"):
            mmf_sum_rates([[2.0, 1.0]], counts, [1], [1.0], 1.0, [1.0])

    # Unsorted gains used to give a wrong rate (1.386 where the sorted row
    # gives 1.139), a zero worst gain a divide-by-zero warning, and negative
    # or NaN gains a rate.
    @pytest.mark.parametrize("row", [
        [1.0, 2.0], [2.0, 0.0], [-1.0, -2.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf],
    ])
    def test_gains_must_be_descending_and_all_positive_or_all_zero(self, row):
        with pytest.raises(ValueError, match="gains"):
            mmf_sum_rates([row], [2], [1], [1.0], 1.0, [1.0])

    def test_stream_table_built_only_over_open_problems(self, monkeypatch):
        built = []  # the problem sizes of each table built
        build = allocation._StreamTable.build

        def spy(gains, counts, sizes, xi, n0):
            built.append(list(sizes))
            return build(gains, counts, sizes, xi, n0)

        monkeypatch.setattr(allocation._StreamTable, "build", spy)
        powers = np.array([0.5, 10.0])
        one_stream = ([[3.0, 9.0], [0.5, 9.0]], [1, 1])
        equal_gains = ([[2.0, 2.0], [0.7, 0.7], [4.0, 4.0]], [2, 2, 2])
        zero_gain = ([[2.0, 1.0], [0.0, 0.0]], [2, 2])
        mixed = ([[5.0, 1.0], [2.0, 9.0], [3.0, 0.5]], [2, 1, 2])
        uniform = ([[4.0, 0.1], [3.0, 2.0]], [2, 2])

        def solve(*problems):
            gains = np.array([row for rows, _ in problems for row in rows])
            counts = [j for _, js in problems for j in js]
            sizes = [len(js) for _, js in problems]
            return mmf_sum_rates(gains, counts, sizes, [0.9] * len(sizes), 1.0, powers)

        rates = solve(one_stream, equal_gains, zero_gain)
        assert built == []
        assert np.all(rates[:2] > 0) and np.array_equal(rates[2], [0.0, 0.0])
        rates = solve(one_stream, mixed, equal_gains, uniform)
        assert built == [[3, 2]]
        assert np.all(rates > 0)


class TestBrackets:
    """The closed-form brackets that the root starts from, as
    :func:`solve_mmf` reports them, and the surrogate users behind them as
    equal-gain rows of :func:`mmf_sum_rates`."""

    def test_degenerate_bracket_is_root(self):
        # every user one stream: surrogate users are the real users
        fns = [
            UserRateFunction(np.array([1.5]), 1.0, 0.9),
            UserRateFunction(np.array([0.4]), 1.0, 0.9),
        ]
        sol = solve_mmf(fns, 3.0)
        lo, hi = sol.bracket
        assert lo == pytest.approx(hi, rel=1e-12)
        assert sol.sum_rate == pytest.approx(lo, rel=1e-10)

    def test_uniform_closed_form(self):
        fns = [
            UserRateFunction(np.array([4.0, 2.0]), 1.0, 0.9),
            UserRateFunction(np.array([3.0, 1.0]), 1.0, 0.9),
        ]
        expected_lo = 0.9 * 4 * np.log1p(5.0 / (2 * (1 / 2.0 + 1 / 1.0)))
        expected_hi = 0.9 * 4 * np.log1p(5.0 / (2 * (1 / 4.0 + 1 / 3.0)))
        lo, hi = solve_mmf(fns, 5.0).bracket
        assert lo == pytest.approx(expected_lo, rel=1e-12)
        assert hi == pytest.approx(expected_hi, rel=1e-12)
        # each user's streams all at its worst (best) gain
        surrogate = mmf_sum_rates(
            [[2.0, 2.0], [1.0, 1.0], [4.0, 4.0], [3.0, 3.0]], [2] * 4, [2, 2],
            [0.9, 0.9], 1.0, [5.0],
        )
        np.testing.assert_allclose(surrogate[:, 0], [expected_lo, expected_hi], rtol=1e-12)

    def test_mixed_stream_counts(self):
        lams = [np.array([3.0, 1.0]), np.array([2.0])]
        fns = [UserRateFunction(l, 1.0, 1.0) for l in lams]
        sol = solve_mmf(fns, 4.0)
        lo, hi = sol.bracket
        assert 0 < lo <= sol.sum_rate <= hi

    def test_mixed_counts_match_brent_oracle(self):
        # Newton on surrogate users with mixed stream counts against a Brent
        # root, from a zero budget through a tiny one to a huge one.
        mins = np.array([3e-10, 8e-11, 1.2e-9, 5e-10, 2e-10])
        maxs = np.array([9e-10, 8e-11, 4e-9, 7e-10, 6e-10])
        counts = np.array([2, 1, 4, 3, 2])
        xi, n0 = 0.93, 8e-14
        powers = np.array([0.0, 1e-18, 1e-3, 1.0, 100.0, 1e12])
        n = counts.size
        rows = np.repeat(np.concatenate([mins, maxs])[:, None], counts.max(), axis=1)
        lo, hi = mmf_sum_rates(rows, np.tile(counts, 2), [n, n], [xi, xi], n0, powers)

        def brent(lam, p):
            def resid(r):
                return np.sum(counts * n0 / lam * np.expm1(r / (xi * counts * n))) - p

            top = 1e-300
            while resid(top) < 0:
                top *= 2.0
            return brentq(resid, top / 2, top, xtol=1e-300, rtol=1e-15)

        assert lo[0] == 0.0 and hi[0] == 0.0
        for bound, lam in ((lo, mins), (hi, maxs)):
            ref = [brent(lam, p) for p in powers[1:]]
            np.testing.assert_allclose(bound[1:], ref, rtol=1e-12, atol=0)


def massive_mimo_rates(betas, counts, l, xi, n0, p_tot):
    """Large-array max-min-fair sum rate, shaped like ``p_tot``: user ``k``
    of a group is a surrogate user whose ``M_k`` streams all have gain
    ``beta_k (L - M_group + M_k)``, an equal-gain row of :func:`mmf_sum_rates`."""
    gains = [b * (l - sum(ms) + m) for bs, ms in zip(betas, counts) for b, m in zip(bs, ms)]
    ms = np.array([m for row in counts for m in row])
    rows = np.repeat(np.array(gains)[:, None], ms.max(), axis=1)
    p = np.asarray(p_tot, dtype=float)
    rate = mmf_sum_rates(rows, ms, [ms.size], [xi], n0, p.ravel())
    return rate[0].reshape(p.shape)[()]


def massive_mimo_stream_powers(betas, counts, l, xi, n0, rate):
    """Per-stream powers of the surrogate users that reach the per-user
    rate ``rate / n``: ``n0 * expm1(rate / (xi M_k n)) / (beta_k (L - M_g + M_k))``."""
    n = sum(len(row) for row in counts)
    return [
        [n0 * np.expm1(rate / (xi * m * n)) / (b * (l - sum(ms) + m)) for b, m in zip(bs, ms)]
        for bs, ms in zip(betas, counts)
    ]


class TestMassiveMimo:
    """The large-array limit as :func:`experiments._asym_rates` solves it:
    surrogate users as equal-gain rows of :func:`mmf_sum_rates`."""

    def test_two_user_closed_form(self):
        rate = massive_mimo_rates([[1.0], [1.0]], [[1], [1]], 2, 1.0, 1.0, 1.0)
        assert rate == pytest.approx(2 * np.log(2), rel=1e-12)
        powers = massive_mimo_stream_powers([[1.0], [1.0]], [[1], [1]], 2, 1.0, 1.0, rate)
        assert powers[0][0] == pytest.approx(0.5, rel=1e-12)

    def test_uniform_closed_form_matches_root(self):
        betas = [[2e-12, 5e-13], [1e-12, 3e-12]]
        counts = [[2, 2], [2, 2]]
        l, xi, n0, p = 24, 0.93, 8e-14, 10.0
        rate = massive_mimo_rates(betas, counts, l, xi, n0, p)
        # independent root solve of the budget equation
        flat = [(b, 2, 4) for row in betas for b in row]

        def resid(r):
            return sum(
                n0 * m * np.expm1(r / (xi * m * 4)) / (b * (l - mg + m))
                for b, m, mg in flat
            ) - p

        hi = 1.0
        while resid(hi) < 0:
            hi *= 2.0
        ref = brentq(resid, 0.0, hi, xtol=1e-18, rtol=1e-14)
        assert rate == pytest.approx(ref, rel=1e-10)
        powers = massive_mimo_stream_powers(betas, counts, l, xi, n0, rate)
        total = sum(m * pk for grp, ms in zip(powers, counts) for pk, m in zip(grp, ms))
        assert total == pytest.approx(p, rel=1e-9)

    def test_rates_match_per_power_solution(self):
        betas = [[2e-12, 5e-13], [1e-12, 3e-12]]
        counts = [[2, 2], [2, 2]]
        powers = np.array([0.5, 10.0, 40.0])
        rates = massive_mimo_rates(betas, counts, 24, 0.93, 8e-14, powers)
        ref = [massive_mimo_rates(betas, counts, 24, 0.93, 8e-14, p) for p in powers]
        np.testing.assert_allclose(rates, ref, rtol=1e-14)

    def test_heterogeneous_antennas(self):
        # Mixed stream counts in one problem: rows of one gain, counts 1 and 3.
        betas = [[1e-12, 2e-12]]
        counts = [[1, 3]]
        rate = massive_mimo_rates(betas, counts, 16, 1.0, 1e-13, 2.0)
        assert rate > 0
        # the powers of the budget equation at that rate exhaust the budget
        (p1, p2), = massive_mimo_stream_powers(betas, counts, 16, 1.0, 1e-13, rate)
        assert 1 * p1 + 3 * p2 == pytest.approx(2.0, rel=1e-9)
        # per-user rates equalized: xi*M*ln(1 + p*beta*(L-Mg+M)/n0) identical
        r1 = 1 * np.log1p(p1 * 1e-12 * 13 / 1e-13)
        r2 = 3 * np.log1p(p2 * 2e-12 * 15 / 1e-13)
        assert r1 == pytest.approx(r2, rel=1e-9)
        assert r1 + r2 == pytest.approx(rate, rel=1e-9)


class TestZfBounds:
    def test_symmetric_closed_forms(self):
        betas = [[1e-12, 1e-12]]
        counts = [[2, 2]]
        lo, hi = zf_mmf_bounds(betas, counts, 16, 0.9, 1e-13, 4.0)
        s = 2 * 1e12
        # one group of Q=2 users with M=2: xi * (GQ) * M = 0.9 * 2 * 2
        expected_lo = 0.9 * 2 * 2 * np.log1p(4.0 * (16 - 4) / (2 * 1e-13 * s))
        expected_hi = 0.9 * 2 * 2 * np.log1p(4.0 * (16 - 4 + 1) / (2 * 1e-13 * s))
        assert lo == pytest.approx(expected_lo, rel=1e-12)
        assert hi == pytest.approx(expected_hi, rel=1e-12)
        assert lo < hi

    def test_power_vector_matches_scalar_calls(self):
        betas = [[1e-12, 3e-12], [2e-12, 1e-12]]
        counts = [[2, 2], [2, 2]]
        powers = np.array([1.0, 4.0, 16.0])
        lo, hi = zf_mmf_bounds(betas, counts, 16, 0.9, 1e-13, powers)
        for i, p in enumerate(powers):
            ref = zf_mmf_bounds(betas, counts, 16, 0.9, 1e-13, p)
            np.testing.assert_allclose((lo[i], hi[i]), ref, rtol=1e-14)

    def test_single_user_plugin(self):
        lo, hi = zf_mmf_bounds([[1.0]], [[1]], 2, 1.0, 1.0, 3.0)
        assert lo == pytest.approx(np.log1p(3.0), rel=1e-12)
        assert hi == pytest.approx(np.log1p(6.0), rel=1e-12)

    def test_per_user_bounds_zero_power(self):
        lo, hi = zf_mmf_bounds([[1.0, 1.0]], [[2, 2]], 16, 0.9, 1.0, 0.0)
        assert lo == 0.0 and hi == 0.0

    def test_gap_vanishes_with_antennas(self):
        gaps = []
        for l in (8, 32, 128, 512):
            lo, hi = zf_mmf_bounds([[1.0]], [[1]], l, 1.0, 1.0, 1.0)
            gaps.append(hi - lo)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_monte_carlo_mean_inside_per_user_bounds(self):
        # one 4-antenna user alone in its group: the max-min-fair split of
        # the bounds' equal stream gains is the equal split used below
        l, m_group, beta, n0 = 16, 4, 1.0, 1.0
        powers = np.full(4, 0.8)
        rng = substream(70, 0)
        rates = []
        for _ in range(10_000):
            h = complex_gaussian(rng, (l, m_group), variance=beta)
            _, gains = zf_matrix(h)
            rates.append(np.sum(np.log1p(powers * gains / n0)))
        lo, hi = zf_mmf_bounds([[beta]], [[m_group]], l, 1.0, n0, powers.sum())
        assert lo <= np.mean(rates) <= hi

    def test_bd_zf_closed_form_gap_small_at_large_arrays(self):
        # at L=256, M=2, Q=4 the two fading-averaged closed forms agree to 1%:
        # the large-array BD-MRC limit, every stream gain at L - Q*M + M, and
        # the lower ZF bound
        l, m, q = 256, 2, 4
        bd = mmf_sum_rates(np.full((q, m), l - q * m + m), [m] * q, [q], [1.0], 1.0, [50.0])
        zf_lo, _ = zf_mmf_bounds([[1.0] * q], [[m] * q], l, 1.0, 1.0, 50.0)
        assert abs(bd[0, 0] - zf_lo) / bd[0, 0] <= 0.01


class TestEigenvalueConcentration:
    def test_large_array_limit(self):
        # per-stream gains concentrate at beta * (L - M_group + M)
        from vccsim.channel import sample_group_channel
        from vccsim.precoding import bd_mrc_eigenvalues

        l, m, q, beta = 256, 2, 2, 1.0
        rng_key = 0
        ratios = []
        for i in range(250):
            g = sample_group_channel(l, [m] * q, [beta] * q, substream(71, i))
            for lams in bd_mrc_eigenvalues(g):
                ratios.extend(lams / (beta * (l - q * m + m)))
        assert 0.97 <= np.mean(ratios) <= 1.03
