import dataclasses
import math
import os
import pickle
import signal
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vccsim import experiments, precoding
from vccsim.channel import (
    MACRO,
    complex_gaussian,
    corrupt_csit,
    noise_power_watts,
    sample_user_pathlosses,
    substreams,
)
from vccsim.errors import (
    InvalidConfigurationError,
    OverheadExceedsCoherenceError,
    UnsupportedConfigurationError,
)
from vccsim.experiments import (
    CSV_COLUMNS,
    Scenario,
    SchemeCurve,
    effective_gain,
    format_csv,
    rows_for_best,
    rows_for_curve,
    run_cacheless_bd_mrc,
    run_imperfect_csi,
    run_msv,
    run_vcc_bd_mrc,
    run_vcc_zf,
)
from vccsim.precoding import zf_matrix
from vccsim.recipes import RECIPES, run_recipe

from csvrows import parse_rows, rendered_rows
from oracles import zf_imperfect_csir_sinr, zf_imperfect_csit_sinr


def macro_scenario(**kw):
    base = dict(
        name="t", geometry="macro", num_tx_antennas=24, num_states=6,
        cache_fraction=Fraction(5, 6), antennas_per_user=4, users_per_group=4,
        baseline_users=4, ptot_dbm=(40.0, 43.0), n_locations=6, n_fadings=2, seed=11,
    )
    base.update(kw)
    return Scenario(**base)


def symmetric_scenario(**kw):
    base = dict(
        name="s", geometry=None, noise_power=1.0, num_tx_antennas=16,
        num_states=6, cache_fraction=Fraction(5, 6), antennas_per_user=1,
        users_per_group=None, baseline_users=None,
        ptot_dbm=(40.0, 60.0), n_locations=24, n_fadings=1, seed=4,
    )
    base.update(kw)
    return Scenario(**base)


def location_betas(scn, q_top, loc):
    """One location's pathloss rows, seeded as a block task seeds them."""
    keys = experiments._location_keys(scn, loc)
    return experiments._location_betas(scn, q_top, substreams(scn.seed, keys))


def cell_draw(draw, scn, q_top, loc, fad, betas=None):
    """One (location, fading) cell's draw, seeded as a block task seeds it."""
    return draw.make(scn, q_top, substreams(scn.seed, draw.keys(scn, loc, fad)), betas)


class TestScenario:
    def test_coded_gain(self):
        assert macro_scenario().coded_gain == 6
        with pytest.raises(InvalidConfigurationError):
            macro_scenario(num_states=5)  # 5 * 5/6 not integer

    def test_q_cap(self):
        scn = macro_scenario(users_per_group=None)
        assert scn.max_group_users() == 6  # min(floor(27/4), 24//4)
        with pytest.raises(InvalidConfigurationError):
            macro_scenario(users_per_group=7)

    def test_infeasible_q_rejected_before_sampling(self):
        with pytest.raises(InvalidConfigurationError):
            macro_scenario(users_per_group=0)

    def test_snr_grid(self):
        scn = symmetric_scenario()
        assert scn.snr_db == pytest.approx((10.0, 30.0))

    def test_power_sweep_set_once_and_kept_out_of_equality(self):
        scn = macro_scenario()
        assert scn.p_watts is scn.p_watts and scn.snr_db is scn.snr_db
        assert scn.p_watts == tuple(10 ** ((p - 30.0) / 10.0) for p in scn.ptot_dbm)
        copy = pickle.loads(pickle.dumps(scn))
        assert copy == scn and hash(copy) == hash(scn)
        assert (copy.p_watts, copy.snr_db) == (scn.p_watts, scn.snr_db)
        assert "p_watts" not in repr(scn)
        with pytest.raises(ValueError):
            dataclasses.replace(scn, p_watts=(1.0,))

    @pytest.mark.parametrize("ptot_dbm", [(4000.0,), (30.0, -4000.0), (float("nan"),)])
    def test_power_not_finite_in_watts_rejected(self, ptot_dbm):
        with pytest.raises(InvalidConfigurationError, match="ptot_dbm"):
            macro_scenario(ptot_dbm=ptot_dbm)

    def test_power_without_finite_snr_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="ptot_dbm"):
            symmetric_scenario(ptot_dbm=(-3000.0,), noise_power=1e300)

    @pytest.mark.parametrize("field, value", [
        ("csit_error_var", -0.1), ("csit_error_var", 1.0), ("csit_error_var", 2.0),
        ("csit_error_var", float("nan")), ("csir_error_vars", (0.01, -0.1)),
        ("csir_error_vars", (float("inf"),)), ("csir_error_vars", (float("nan"),)),
    ])
    def test_csi_error_variances_validated(self, field, value):
        with pytest.raises(InvalidConfigurationError):
            symmetric_scenario(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_noise_power_validated(self, value):
        with pytest.raises(InvalidConfigurationError, match="noise_power"):
            symmetric_scenario(noise_power=value)

    @pytest.mark.parametrize("value", [0, 7])
    def test_baseline_users_checked_against_cap(self, value):
        with pytest.raises(InvalidConfigurationError, match="baseline_users"):
            macro_scenario(baseline_users=value)

    @pytest.mark.parametrize("num_states, gamma", [(6, Fraction(1)), (1, Fraction(1))])
    def test_full_cache_rejected(self, num_states, gamma):
        # The coded gain num_states * gamma + 1 would exceed the cache states.
        with pytest.raises(InvalidConfigurationError, match="cache_fraction"):
            macro_scenario(num_states=num_states, cache_fraction=gamma)

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_misspelled_override_raises(self, monkeypatch, recipe):
        # A key that is no Scenario field must not leave the default running.
        def no_sampling(args):
            raise AssertionError("a block task ran")

        monkeypatch.setattr(experiments, "_block_task", no_sampling)
        with pytest.raises(TypeError, match="num_tx_antenna"):
            run_recipe(recipe, n_locations=1, n_fadings=1, overrides={"num_tx_antenna": 8})

    def test_unknown_geometry_is_config_error(self):
        with pytest.raises(InvalidConfigurationError, match="foo"):
            macro_scenario(geometry="foo")

    def test_pilot_overhead_of_whole_sweep_checked(self):
        # 10 pilots per receive antenna: 6 groups of 4 four-antenna users need
        # 960 symbols, the sweep up to 6 users 1440
        macro_scenario(coherence_symbols=1000, users_per_group=4, baseline_users=1)
        with pytest.raises(OverheadExceedsCoherenceError):
            macro_scenario(coherence_symbols=1000, users_per_group=None, baseline_users=1)
        # 2 groups of one user need 80 symbols, the cacheless sweep 240
        two_groups = dict(cache_fraction=Fraction(1, 6), users_per_group=1, coherence_symbols=200)
        macro_scenario(baseline_users=4, **two_groups)
        with pytest.raises(OverheadExceedsCoherenceError):
            macro_scenario(baseline_users=None, **two_groups)


class TestSchemeNesting:
    def test_single_group_equals_cacheless(self):
        # a cache-free configuration run through the cache-aided path must
        # reproduce the baseline run bit for bit
        vcc_scn = macro_scenario(
            num_states=1, cache_fraction=Fraction(0), users_per_group=3,
            baseline_users=3, antennas_per_user=2,
        )
        a = run_vcc_bd_mrc(vcc_scn)["vcc_bd_mrc"]
        b = run_cacheless_bd_mrc(vcc_scn)["cacheless_bd_mrc"]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)


def _solved(rule, scn, *args):
    """A max-min-fair rate rule's rates, its problems solved alone."""
    return experiments._solve_problems([rule(scn, *args)], scn.noise_power, scn.p_watts)[0]


@st.composite
def zf_bound_cases(draw):
    """A scenario, its q sweep and pathloss rows ``(n_loc, G, q_top)`` for
    the ZF bounds: pathlosses over nine decades, SNRs from far below to far
    above the noise, and sweeps that often reach full load (q*m = L)."""
    m, q_top, g = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    l_tx = q_top * m + draw(st.just(0) | st.integers(0, 5))
    n_loc = draw(st.integers(1, 3))
    exponents = draw(st.lists(
        st.floats(-9.0, 0.0), min_size=n_loc * g * q_top, max_size=n_loc * g * q_top
    ))
    snr_db = draw(st.lists(st.floats(-60.0, 160.0), min_size=1, max_size=4))
    scn = Scenario(
        name="b", geometry=None, noise_power=1.0, num_tx_antennas=l_tx, num_states=g,
        cache_fraction=Fraction(g - 1, g), antennas_per_user=m, users_per_group=None,
        baseline_users=None, ptot_dbm=tuple(s + 30.0 for s in snr_db),
    )
    q_values = tuple(range(draw(st.integers(1, q_top)), q_top + 1))
    return scn, q_values, 10.0 ** np.reshape(exponents, (n_loc, g, q_top))


class TestFadingFreeRules:
    def test_one_solve_matches_each_q_alone(self):
        # The q sweep in one surrogate-user solve against each q solved
        # alone through the same rule; q = 6 is full load (L = q*m), where
        # the lower ZF bound's stream gain is 0.
        scn = macro_scenario(users_per_group=None)
        q_values = scn.group_user_counts(None)
        betas = location_betas(scn, max(q_values), 0)[None]
        bounds = experiments.zf_mmf_bounds(scn, q_values, betas)[:, 0]
        for qi, q in enumerate(q_values):
            alone = experiments.zf_mmf_bounds(scn, (q,), betas[..., :q])[:, 0, 0]
            assert np.array_equal(bounds[:, qi], alone)
        assert np.all(bounds[0, -1] == 0) and np.all(bounds[1, -1] > 0)

    @staticmethod
    def _assert_brent_roots(scn, rates, shifts):
        """Each curve of a surrogate-user rule's rates ``(len(shifts), n_q,
        n_p)`` at one location against the root, by Brent's method, of the
        budget equation of users whose ``m`` streams all have gain ``beta *
        (L - q*m + shift)``, so equal power over a user's streams; a curve
        with no stream gain at some q reads 0 there."""
        g, m, l = scn.coded_gain, scn.antennas_per_user, scn.num_tx_antennas
        betas = location_betas(scn, scn.max_group_users(), 0)
        n0 = scn.noise_power
        for si, shift in enumerate(shifts):
            for q in range(1, scn.max_group_users() + 1):
                gains, n, xi = betas[:, :q] * (l - q * m + shift), g * q, scn.overhead_factor(g, q)
                if not gains.any():
                    assert np.all(rates[si, q - 1] == 0)
                    continue

                def resid(r, p):
                    return np.sum(n0 * m * np.expm1(r / (xi * m * n)) / gains) - p

                for pi, p in enumerate(scn.p_watts):
                    hi = 1.0
                    while resid(hi, p) < 0:
                        hi *= 2.0
                    ref = brentq(resid, 0.0, hi, args=(p,), xtol=1e-18, rtol=1e-14)
                    assert rates[si, q - 1, pi] == pytest.approx(ref, rel=1e-10)

    def test_asymptotic_rule_matches_brent_root(self):
        # Large-array BD-MRC: every stream gain of user k at
        # beta_k * (L - q*m + m).
        scn = macro_scenario(users_per_group=None)
        q_values = scn.group_user_counts(None)
        betas = location_betas(scn, max(q_values), 0)
        asym = _solved(experiments._asym_rates, scn, q_values, betas[None])[:, 0]
        self._assert_brent_roots(scn, asym, (scn.antennas_per_user,))

    def test_zf_bound_rule_matches_brent_root(self):
        # The ZF bounds: every stream gain of user k at beta_k * (L - q*m)
        # (lower) and beta_k * (L - q*m + 1) (upper); at full load the lower
        # bound has no stream gain.
        scn = macro_scenario(users_per_group=None)
        q_values = scn.group_user_counts(None)
        betas = location_betas(scn, max(q_values), 0)
        bounds = experiments.zf_mmf_bounds(scn, q_values, betas[None])[:, 0]
        self._assert_brent_roots(scn, bounds, (0, 1))

    @settings(max_examples=300, deadline=None)
    @given(zf_bound_cases())
    def test_zf_upper_bound_never_below_lower(self, case):
        # Each bound is the surrogate users' closed-form root, which does not
        # decrease as the stream gains grow, so the rule's rates need no
        # clamp to keep upper >= lower: checked exactly, entry by entry.
        scn, q_values, betas = case
        lower, upper = experiments.zf_mmf_bounds(scn, q_values, betas)
        assert np.all(lower <= upper)
        if q_values[-1] * scn.antennas_per_user == scn.num_tx_antennas:
            assert np.all(lower[:, -1] == 0)

    @pytest.mark.parametrize("rule", [experiments._asym_rates, experiments._zf_bound_rates])
    def test_block_equals_each_location_alone(self, rule):
        # A block stacks its locations' pathloss rows into one solve; each
        # location's rates must be those of that location solved alone.
        scn = macro_scenario(users_per_group=None)
        q_values = scn.group_user_counts(None)
        betas = np.stack([location_betas(scn, max(q_values), loc) for loc in range(4)])
        block = _solved(rule, scn, q_values, betas)
        assert block.shape[1] == len(betas)
        for li in range(len(betas)):
            alone = _solved(rule, scn, q_values, betas[li:li + 1])
            assert np.array_equal(block[:, li:li + 1], alone)


def count_draws(monkeypatch):
    """Spy on the run path's draws (``experiments._gaussians``): per
    substream drawn, ``substreams`` counts one, and ``normal_calls`` counts
    the ``standard_normal`` calls made on its generator."""
    counts = {"substreams": 0, "normal_calls": 0}
    draw = experiments._gaussians

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            counts["normal_calls"] += 1
            return self.rng.standard_normal(*args, **kwargs)

    def counted(rngs, shape):
        counts["substreams"] += len(rngs)
        return draw([Counted(rng) for rng in rngs], shape)

    monkeypatch.setattr(experiments, "_gaussians", counted)
    return counts


def seed_sequence_rng(seed, *key):
    """One key's generator, seeded by numpy's own SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class TestCellSeeding:
    """Each run-path draw, seeded as a block task seeds it, against the same
    draw written out with one SeedSequence generator per substream key:
    ``complex_gaussian`` per substream, ``corrupt_csit`` per group and
    ``np.stack`` over the groups, under ``np.array_equal``.  Hypothesis
    draws the group count, the shapes, the seed and the CSIT error variance,
    0 (no error drawn) or in (0, 1); the pinned example of each draw is the
    fixed case it was once tested at."""

    LOC, FAD = 3, 1
    DRAWS = settings(max_examples=40, deadline=None)
    GROUPS = st.integers(1, 6)
    SEEDS = st.integers(0, 2**32 - 1)
    CSIT_VARS = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))

    def _rng(self, scn, stream, group):
        return seed_sequence_rng(scn.seed, stream, self.LOC, self.FAD, group)

    @staticmethod
    def _groups(groups):
        """The fields that give a scenario ``groups`` groups (its coded gain)."""
        return dict(num_states=groups, cache_fraction=Fraction(groups - 1, groups))

    def test_location_betas(self):
        scn = macro_scenario()
        want = sample_user_pathlosses(MACRO, seed_sequence_rng(scn.seed, 0, self.LOC), 6 * 4)
        assert np.array_equal(location_betas(scn, 4, self.LOC), want.reshape(6, 4))
        assert experiments._location_keys(symmetric_scenario(), self.LOC) == []
        assert np.array_equal(location_betas(symmetric_scenario(), 4, self.LOC), np.ones((6, 4)))

    @DRAWS
    @given(groups=GROUPS, m=st.integers(1, 4), extra=st.integers(0, 12),
           q_top=st.integers(1, 6), seed=SEEDS)
    @example(groups=6, m=4, extra=20, q_top=6, seed=11)
    def test_group_factor(self, groups, m, extra, q_top, seed):
        scn = macro_scenario(
            num_tx_antennas=m + extra, antennas_per_user=m, users_per_group=None,
            baseline_users=None, seed=seed, **self._groups(groups),
        )
        betas = location_betas(scn, q_top, self.LOC)
        got = cell_draw(experiments._GROUP_DRAW, scn, q_top, self.LOC, self.FAD, betas)
        units = np.stack([
            complex_gaussian(self._rng(scn, 1, g), (m + extra, q_top * m)) for g in range(groups)
        ])
        want = precoding.prefix_factor(units * np.repeat(np.sqrt(betas), m, axis=1)[:, None, :])
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("csir_vars", [(), (0.01, 0.0)])
    @DRAWS
    @given(groups=GROUPS, antennas=st.integers(1, 16), q_top=st.integers(1, 16),
           var=CSIT_VARS, seed=SEEDS)
    @example(groups=6, antennas=16, q_top=16, var=0.01, seed=4)
    def test_csi_draws(self, csir_vars, groups, antennas, q_top, var, seed):
        scn = symmetric_scenario(
            num_tx_antennas=antennas, csit_error_var=var, csir_error_vars=csir_vars, seed=seed,
            **self._groups(groups),
        )
        got = cell_draw(experiments._CSI_DRAW, scn, q_top, self.LOC, self.FAD)
        want = []
        for g in range(groups):
            h = complex_gaussian(self._rng(scn, 1, g), (antennas, q_top))
            h_hat, _ = corrupt_csit(h, var, self._rng(scn, 2, g))
            want.append((h, h_hat))
            if csir_vars:
                want[-1] += (complex_gaussian(self._rng(scn, 3, g), q_top),)
        want = [np.stack(d) for d in zip(*want)]
        assert len(got) == len(want) == 2 + bool(csir_vars)
        # the estimate comes with its prefix factor, which is the channel's
        # own at var == 0
        want[1] = precoding.prefix_factor(want[1])
        assert (got[1].h is got[0]) == (var == 0)
        for a, b in zip((got[0], *got[1], *got[2:]), (want[0], *want[1], *want[2:])):
            assert np.array_equal(a, b)

    @DRAWS
    @given(groups=GROUPS, antennas=st.integers(2, 12), seed=SEEDS)
    @example(groups=6, antennas=8, seed=4)
    def test_msv_draws(self, groups, antennas, seed):
        scn = symmetric_scenario(num_tx_antennas=antennas, seed=seed, **self._groups(groups))
        l = antennas
        mc, uc_pool = cell_draw(experiments._MSV_DRAW, scn, l - 1, self.LOC, self.FAD)
        assert np.array_equal(mc, complex_gaussian(self._rng(scn, 4, 1), (groups, l)))
        assert np.array_equal(uc_pool, complex_gaussian(self._rng(scn, 4, 0), (l - 1, l)))


class TestDeterminism:
    def test_same_seed_same_numbers(self):
        scn = macro_scenario(n_locations=3)
        a = run_vcc_bd_mrc(scn)["vcc_bd_mrc"].mean
        b = run_vcc_bd_mrc(scn)["vcc_bd_mrc"].mean
        assert np.array_equal(a, b)

    def test_worker_count_invariant(self):
        scn = macro_scenario(n_locations=5)
        a = run_vcc_bd_mrc(scn, workers=1)["vcc_bd_mrc"]
        b = run_vcc_bd_mrc(scn, workers=4)["vcc_bd_mrc"]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_zf_worker_count_invariant(self):
        scn = macro_scenario(n_locations=5, users_per_group=None)
        a = run_vcc_zf(scn, workers=1)
        b = run_vcc_zf(scn, workers=4)
        assert a["vcc_zf"].q_values == (1, 2, 3, 4, 5, 6)
        for name in ("vcc_zf", "vcc_zf_lower", "vcc_zf_upper"):
            assert np.array_equal(a[name].mean, b[name].mean)
            assert np.array_equal(a[name].stderr, b[name].stderr)

    def test_more_fadings_shrink_stderr(self):
        # micro needs a physical noise power
        base = symmetric_scenario(
            geometry="micro", noise_power=noise_power_watts(), users_per_group=2,
            baseline_users=2, num_tx_antennas=8, ptot_dbm=(33.0,), n_locations=40,
            n_fadings=1,
        )
        doubled = dataclasses.replace(base, n_fadings=4)
        se1 = run_vcc_bd_mrc(base)["vcc_bd_mrc"].stderr[0, 0]
        se4 = run_vcc_bd_mrc(doubled)["vcc_bd_mrc"].stderr[0, 0]
        # location scatter dominates, but fading noise must not grow
        assert se4 < se1


def _count_forks(monkeypatch) -> list:
    """Wrap ``os.fork``; the returned list gets the pid of each child the
    calling process forks."""
    fork = os.fork
    pids = []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPoolSize:
    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
    def test_workers_clamped_to_cpus_and_tasks(self, monkeypatch, cpus, expected):
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        out = experiments._parallel_map(abs, [-1, -2, -3], 10_000)
        assert out == [1, 2, 3]
        # The parent runs one of the slices, so it forks one child fewer.
        assert len(forks) == expected - 1
        _assert_all_reaped()

    def test_parent_runs_the_first_of_near_equal_slices(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
        out = experiments._parallel_map(lambda a: (a, os.getpid()), list(range(7)), 3)
        assert [a for a, _ in out] == list(range(7))
        pids = [pid for _, pid in out]
        assert pids[:3] == [os.getpid()] * 3
        assert pids[3] == pids[4] != pids[5] == pids[6]
        assert os.getpid() not in pids[3:]
        _assert_all_reaped()

    def test_runs_in_process_without_fork(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
        monkeypatch.delattr(os, "fork")
        out = experiments._parallel_map(lambda a: (a, os.getpid()), list(range(5)), 3)
        assert out == [(a, os.getpid()) for a in range(5)]


class _NeedsTwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its args when unpickled."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


class TestForkedSlices:
    """A failure anywhere in a forked map reaches the caller as a named
    error, and no run leaves a child behind."""

    @pytest.fixture(autouse=True)
    def _many_cpus_and_no_child_left(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
        yield
        _assert_all_reaped()

    @staticmethod
    def _in_child(task, action):
        """A map function that calls ``action`` on ``task``, in a child only."""
        parent = os.getpid()

        def fn(a):
            if a == task and os.getpid() != parent:
                action()
            return a
        return fn

    def test_child_exception_keeps_type_and_message(self):
        def fail():
            raise ValueError("task 4 failed")

        with pytest.raises(ValueError, match="^task 4 failed$") as info:
            experiments._parallel_map(self._in_child(4, fail), list(range(6)), 2)
        # The child's traceback is the cause, down to the raising frame.
        assert "in fail" in str(info.value.__cause__)

    def test_exception_that_does_not_pickle_is_sent_as_text(self):
        def fail():
            raise _NeedsTwoArgs(1, 2)

        with pytest.raises(RuntimeError, match="slice 1 .* does not pickle") as info:
            experiments._parallel_map(self._in_child(4, fail), list(range(6)), 2)
        assert "_NeedsTwoArgs: 1-2" in str(info.value)

    @pytest.mark.parametrize("action, how", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os._exit(0), "exit code 0"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL}"),
    ])
    @pytest.mark.parametrize("workers, task, index", [(2, 4, 1), (3, 5, 2)])
    def test_child_dying_mid_slice_is_named(self, action, how, workers, task, index):
        with pytest.raises(RuntimeError, match=f"slice {index} .*{how}"):
            experiments._parallel_map(self._in_child(task, action), list(range(6)), workers)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_parent_failure_kills_and_reaps_children(self, monkeypatch, error):
        forks = _count_forks(monkeypatch)
        parent = os.getpid()

        def fn(a):
            if os.getpid() != parent:
                time.sleep(60)
            elif a == 1:
                raise error("parent slice failed")
            return a

        start = time.perf_counter()
        with pytest.raises(error, match="parent slice failed"):
            experiments._parallel_map(fn, list(range(6)), 3)
        assert time.perf_counter() - start < 30
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestOneSimulatePerRecipe:
    """A recipe hands all its jobs to one _simulate call, and the jobs of a
    location share each draw and its prefix factor where their draw keys
    match."""

    # Per (location, fading): substreams drawn, one per group of each shared
    # draw (for the imperfect-CSI draw, one per group for the fading, one for
    # the CSIT error if its variance is positive and, with CSIR variances,
    # one for the coupling error; two for MSV), each with one standard_normal
    # call, and _prefix_inverse calls, one per shared stack factored.  The
    # cacheless job reads the cache-aided group 0 wherever both sides have
    # the same largest served count; fig4 (Q=2, Q'=8) does not.  The
    # imperfect-CSI draw factors the estimate, which the error rule reads;
    # fig6's perfect-CSI rule factors the true channels as well, unless
    # csit_error_var=0 makes the estimate the channel itself.  fig9 runs the
    # error rule alone.
    PER_FADING = {
        "fig2": (3 * 5, 3),  # three M values; BD-MRC and ZF share each draw
        "fig3": (6, 1),
        "fig4": (4 + 1, 2),
        "fig5": (6, 1),
        "fig6": (2 * 6, 2),
        "fig7": (6, 1),  # BD-MRC and ZF share the cache-aided draw
        "fig8": (2 + 6, 1 + 1),
        "fig9": (3 * 6, 1),
        "fig6-var0": (6, 1),  # at csit_error_var=0
        "fig9-var0": (2 * 6, 1),
    }

    @staticmethod
    def _count(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("case", sorted(PER_FADING))
    def test_each_draw_and_factor_once_per_job(self, monkeypatch, case):
        recipe, _, var0 = case.partition("-")
        counts = dict.fromkeys(("_simulate", "_prefix_inverse"), 0)
        self._count(monkeypatch, experiments, "_simulate", counts)
        self._count(monkeypatch, precoding, "_prefix_inverse", counts)
        drawn = count_draws(monkeypatch)
        n_loc, n_fad = 2, 3
        overrides = {"csit_error_var": 0.0} if var0 else None
        run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad, overrides=overrides)
        draws, factors = self.PER_FADING[case]
        assert counts == {"_simulate": 1, "_prefix_inverse": factors * n_loc * n_fad}
        assert drawn == dict.fromkeys(("substreams", "normal_calls"), draws * n_loc * n_fad)

    # Blocks per (locations, fadings): a block task holds two cells' worth of
    # whole locations, so at 3 fadings a block is one location and at 1
    # fading it is two, the last block taking the odd one.
    BLOCKS = {(2, 3): 2, (5, 1): 3}

    # Max-min-fair rules per block: BD-MRC and ZF cache-aided, cacheless
    # BD-MRC and the fading-free ZF bounds for fig7, BD-MRC on each side for
    # fig8.  Each rule poses the problems of every (location, fading) cell of
    # a block, and the block solves the problems of all its rules together,
    # in one mmf_sum_rates call at these sizes.
    @pytest.mark.parametrize("recipe, rules", [("fig7", 4), ("fig8", 2)])
    def test_one_mmf_solve_per_block(self, monkeypatch, recipe, rules):
        counts = {"mmf_sum_rates": 0}
        self._count(monkeypatch, experiments, "mmf_sum_rates", counts)
        posed = []  # the rule count of each _solve_problems call
        solve = experiments._solve_problems

        def spy(batches, n0, p_watts):
            posed.append(len(batches))
            return solve(batches, n0, p_watts)

        monkeypatch.setattr(experiments, "_solve_problems", spy)
        for (n_loc, n_fad), blocks in self.BLOCKS.items():
            counts["mmf_sum_rates"] = 0
            posed.clear()
            run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad)
            assert counts["mmf_sum_rates"] == blocks
            assert posed == [rules] * blocks

    # A block seeds every substream it reads in one substreams call, and
    # every job of a recipe has the same seed.
    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_one_seeding_call_per_block(self, monkeypatch, recipe):
        counts = dict.fromkeys(("substreams", "substream"), 0)
        self._count(monkeypatch, experiments, "substreams", counts)
        self._count(monkeypatch, experiments, "substream", counts)
        for (n_loc, n_fad), blocks in self.BLOCKS.items():
            counts.update(substreams=0, substream=0)
            run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad)
            assert counts == {"substreams": blocks, "substream": 0}

    def test_solve_pools_at_most_the_user_budget(self, monkeypatch):
        # fig7's problems pool 6q users for q = 1..16 (cache-aided), q
        # (cacheless) and 6q twice (the ZF bounds).  Under a budget of 50,
        # consecutive problems share a call up to 50 users, and a problem of
        # more than 50 users has a call of its own.
        budget = 50
        monkeypatch.setattr(experiments, "_SOLVE_USERS", budget)
        calls = []  # the problem sizes of each mmf_sum_rates call
        original = experiments.mmf_sum_rates

        def spy(gains, counts, sizes, *args):
            calls.append(list(sizes))
            return original(gains, counts, sizes, *args)

        monkeypatch.setattr(experiments, "mmf_sum_rates", spy)
        run_recipe("fig7", seed=1, n_locations=2, n_fadings=1)
        for sizes in calls:
            assert sum(sizes) <= budget or len(sizes) == 1, sizes
        assert any(len(sizes) > 1 for sizes in calls)
        assert any(sizes[0] > budget for sizes in calls)

    # Rate-rule calls per block, whatever its location and fading counts:
    # under imperfect CSI one per job (cache-aided and cacheless) for each
    # rule the recipe lists, and no max-min-fair solve; for fig7 one per
    # max-min-fair rule and one for the fading-free ZF bounds, whose problems
    # the block solves in one mmf_sum_rates call.
    @pytest.mark.parametrize("recipe, per_fading", [
        ("fig6", {"_csi_perfect_rates": 2, "_csi_error_rates": 2, "mmf_sum_rates": 0}),
        ("fig9", {"_csi_perfect_rates": 0, "_csi_error_rates": 2, "mmf_sum_rates": 0}),
        ("fig7", {"_mmf_rates": 3, "_zf_bound_rates": 1, "mmf_sum_rates": 1}),
    ])
    def test_csi_rules_run_only_where_listed(self, monkeypatch, recipe, per_fading):
        counts = dict.fromkeys(per_fading, 0)
        self._count(monkeypatch, experiments, "mmf_sum_rates", counts)

        def counted(rates):
            def wrapper(*args):
                counts[rates.__name__] += 1
                return rates(*args)
            return wrapper

        simulate = experiments._simulate

        def counting_simulate(jobs, workers):
            jobs = [job._replace(rules=tuple(
                (rule._replace(rates=counted(rule.rates)), names) for rule, names in job.rules
            )) for job in jobs]
            return simulate(jobs, workers)

        monkeypatch.setattr(experiments, "_simulate", counting_simulate)
        for (n_loc, n_fad), blocks in self.BLOCKS.items():
            counts.update(dict.fromkeys(counts, 0))
            run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad)
            assert counts == {name: n * blocks for name, n in per_fading.items()}

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_at_most_one_pool_per_recipe(self, monkeypatch, recipe):
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
        # 4 locations at 1 fading are two blocks, so one slice for the
        # parent and one forked child, once per recipe.
        run_recipe(recipe, seed=1, n_locations=4, n_fadings=1, workers=2)
        assert len(forks) == 1
        _assert_all_reaped()

    def test_repeated_curve_name_rejected_before_sampling(self, monkeypatch):
        def fail(_):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_block_task", fail)
        scn = macro_scenario()
        rule = (experiments.BD_MRC, ("bd",))
        jobs = [experiments.cache_aided_job(scn, rule), experiments.cacheless_job(scn, rule)]
        with pytest.raises(ValueError, match="'bd'"):
            experiments._simulate(jobs, workers=1)


class TestSharedLocationTask:
    """A location task runs every job, and the jobs that share a draw key
    share that draw and its kernel output, sliced to their groups.  The
    sharing is exact: each shared side equals its job run alone, bit for
    bit."""

    BD_SCENARIOS = {
        "fig5": dict(geometry="macro", num_tx_antennas=24, antennas_per_user=4),
        "fig7": dict(geometry="micro", num_tx_antennas=32, antennas_per_user=2,
                     noise_power=noise_power_watts(), ptot_dbm=(27.0, 36.0)),
        "fig8": dict(geometry=None, noise_power=1.0, num_tx_antennas=32,
                     antennas_per_user=1, ptot_dbm=(40.0, 60.0)),
    }

    @staticmethod
    def _equal(a, b):
        assert a.q_values == b.q_values
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)

    @staticmethod
    def _counting(monkeypatch, module, name):
        counts = {name: 0}
        TestOneSimulatePerRecipe._count(monkeypatch, module, name, counts)
        return counts

    @pytest.mark.parametrize("like", sorted(BD_SCENARIOS))
    def test_cacheless_bd_equals_lone_job(self, monkeypatch, like):
        self._check_cacheless_bd(monkeypatch, like, seed=11)

    # The bits of a group's gains must not depend on how many groups share
    # its draw: at seed 11 alone, the fig5-like case hid that they did.
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("like", sorted(BD_SCENARIOS))
    def test_cacheless_bd_equals_lone_job_at_other_seeds(self, monkeypatch, like, seed):
        self._check_cacheless_bd(monkeypatch, like, seed)

    def _check_cacheless_bd(self, monkeypatch, like, seed):
        scn = macro_scenario(
            users_per_group=None, baseline_users=None, n_locations=2, n_fadings=2, seed=seed,
            **self.BD_SCENARIOS[like],
        )
        vcc = experiments.cache_aided_job(
            scn, (experiments.BD_MRC, ("vcc_bd_mrc",)), (experiments.ZF, ("vcc_zf",)),
            (experiments.ZF_BOUNDS, ("vcc_zf_lower", "vcc_zf_upper")),
        )
        cl = experiments.cacheless_job(
            scn, (experiments.BD_MRC, ("cacheless_bd_mrc",)), (experiments.ZF, ("cacheless_zf",)),
        )
        jobs = [experiments.msv_job(scn), vcc, cl] if like == "fig8" else [vcc, cl]
        factors = self._counting(monkeypatch, precoding, "_prefix_inverse")
        shared = experiments._simulate(jobs, workers=1)
        # the cacheless side factors nothing of its own
        per_fading = 1 + (like == "fig8")
        assert factors["_prefix_inverse"] == per_fading * scn.n_locations * scn.n_fadings
        lone = run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"]
        self._equal(shared["cacheless_bd_mrc"], lone)
        lone_zf = experiments._simulate([cl], workers=1)["cacheless_zf"]
        self._equal(shared["cacheless_zf"], lone_zf)
        self._equal(shared["vcc_bd_mrc"], run_vcc_bd_mrc(scn)["vcc_bd_mrc"])

    @pytest.mark.parametrize("rules, csir_vars", [
        ((experiments.CSI_PERFECT, experiments.CSI_ERROR), ()),  # fig6-like
        ((experiments.CSI_ERROR,), (0.01, 0.001, 0.0)),  # fig9-like
    ])
    def test_cacheless_csi_equals_lone_job(self, monkeypatch, rules, csir_vars):
        scn = symmetric_scenario(
            csit_error_var=0.01, csir_error_vars=csir_vars, n_locations=3, n_fadings=2,
        )
        vcc, cl = experiments.imperfect_csi_jobs(scn, *rules)
        draws = count_draws(monkeypatch)
        shared = experiments._simulate([vcc, cl], workers=1)
        # per cache-aided group, a fading and a CSIT error draw, plus
        # coupling errors only with CSIR
        per_fading = scn.coded_gain * (2 + bool(csir_vars))
        assert draws == dict.fromkeys(
            ("substreams", "normal_calls"), per_fading * scn.n_locations * scn.n_fadings
        )
        lone = experiments._simulate([cl], workers=1)
        assert lone.keys() == {name for _, names in cl.rules for name in names}
        for name, curve in lone.items():
            self._equal(shared[name], curve)

    def test_different_q_top_draws_its_own_group_zero(self, monkeypatch):
        # fig4-like: Q=2 against Q'=8, so the two sides' draws differ
        scn = macro_scenario(
            num_tx_antennas=32, num_states=4, cache_fraction=Fraction(3, 4),
            users_per_group=2, baseline_users=8, n_locations=2, n_fadings=2,
        )
        jobs = [
            experiments.cache_aided_job(scn, (experiments.BD_MRC, ("vcc",))),
            experiments.cacheless_job(scn, (experiments.BD_MRC, ("cl",))),
        ]
        draws = count_draws(monkeypatch)
        shared = experiments._simulate(jobs, workers=1)
        assert draws == dict.fromkeys(
            ("substreams", "normal_calls"), (scn.coded_gain + 1) * scn.n_locations * scn.n_fadings
        )
        self._equal(shared["cl"], run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"])

    def test_msv_draw_is_never_sliced(self, monkeypatch):
        # Two MSV jobs with 6 and 4 groups: the multicast channels of 4
        # groups are not the first 4 rows of those of 6, so each job keeps
        # its own draw.
        six = symmetric_scenario(num_tx_antennas=8, n_locations=2, n_fadings=2)
        four = dataclasses.replace(six, cache_fraction=Fraction(1, 2))
        assert (six.coded_gain, four.coded_gain) == (6, 4)
        small = experiments.msv_job(four)
        small = small._replace(rules=((small.rules[0][0], ("msv_small",)),))
        draws = count_draws(monkeypatch)
        shared = experiments._simulate([experiments.msv_job(six), small], workers=1)
        assert draws == dict.fromkeys(
            ("substreams", "normal_calls"), 2 * 2 * six.n_locations * six.n_fadings
        )
        self._equal(shared["msv_modified"], run_msv(six)["msv_modified"])
        self._equal(shared["msv_small"], run_msv(four)["msv_modified"])

    def test_jobs_must_share_location_count(self, monkeypatch):
        def fail(_):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_block_task", fail)
        scn = macro_scenario()
        for other in (dict(n_locations=3), dict(n_fadings=3)):
            jobs = [
                experiments.cache_aided_job(scn, (experiments.BD_MRC, ("a",))),
                experiments.cacheless_job(
                    dataclasses.replace(scn, **other), (experiments.BD_MRC, ("b",))
                ),
            ]
            with pytest.raises(ValueError, match=r"\(location, fading\) counts"):
                experiments._simulate(jobs, workers=1)

    def test_jobs_must_share_power_grid(self, monkeypatch):
        def fail(_):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_block_task", fail)
        scn = macro_scenario()
        for other in (dict(ptot_dbm=(40.0, 46.0)), dict(noise_power=2 * scn.noise_power)):
            jobs = [
                experiments.cache_aided_job(scn, (experiments.BD_MRC, ("a",))),
                experiments.cacheless_job(
                    dataclasses.replace(scn, **other), (experiments.BD_MRC, ("b",))
                ),
            ]
            with pytest.raises(ValueError, match=r"\(noise power, power vector\)"):
                experiments._simulate(jobs, workers=1)

    def test_jobs_must_share_seed(self, monkeypatch):
        def fail(_):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_block_task", fail)
        scn = macro_scenario()
        jobs = [
            experiments.cache_aided_job(scn, (experiments.BD_MRC, ("a",))),
            experiments.cacheless_job(
                dataclasses.replace(scn, seed=scn.seed + 1), (experiments.BD_MRC, ("b",))
            ),
        ]
        with pytest.raises(ValueError, match=r"seeds: \[11, 12\]"):
            experiments._simulate(jobs, workers=1)

    @pytest.mark.parametrize("csir_vars", [(), (0.01,)])
    @pytest.mark.parametrize("csit_var", [0.0, 0.01])
    def test_csi_block_seeds_only_what_it_draws(self, monkeypatch, csit_var, csir_vars):
        # Per cache-aided group and cell: a fading substream, a CSIT error
        # one only at a positive variance and a coupling error one only
        # with CSIR variances, each seeded once and drawn once.
        scn = symmetric_scenario(
            csit_error_var=csit_var, csir_error_vars=csir_vars, n_locations=2, n_fadings=1,
        )
        seeded = []
        seed_all = experiments.substreams

        def spy(seed, keys):
            seeded.extend(keys)
            return seed_all(seed, keys)

        monkeypatch.setattr(experiments, "substreams", spy)
        drawn = count_draws(monkeypatch)
        experiments._simulate(
            experiments.imperfect_csi_jobs(scn, experiments.CSI_PERFECT, experiments.CSI_ERROR),
            workers=1,
        )
        streams = [1] + [2] * (csit_var > 0) + [3] * bool(csir_vars)
        assert sorted({key[0] for key in seeded}) == streams
        assert len(seeded) == drawn["substreams"] == len(streams) * scn.coded_gain * 2

    def test_kernel_outputs_dropped_before_the_solve(self, monkeypatch):
        # A stacked kernel output goes once its last rule has posed its
        # problems, so the block's max-min-fair solve never holds one.
        stacked, alive = [], []
        first_groups, solve = experiments._first_groups, experiments._solve_problems

        def first_groups_spy(arrays, made, num_groups):
            stacked.extend(weakref.ref(a) for a in arrays)
            return first_groups(arrays, made, num_groups)

        def solve_spy(batches, n0, p_watts):
            alive.append(sum(ref() is not None for ref in stacked))
            return solve(batches, n0, p_watts)

        monkeypatch.setattr(experiments, "_first_groups", first_groups_spy)
        monkeypatch.setattr(experiments, "_solve_problems", solve_spy)
        run_recipe("fig7", seed=1, n_locations=2, n_fadings=2)
        assert len(stacked) == 2 * 3 * 2  # two arrays per rule, 3 rules, 2 blocks
        assert alive == [0, 0]

    def test_task_returns_location_means(self):
        scn = macro_scenario(
            users_per_group=None, baseline_users=None, n_locations=2, n_fadings=3,
            **self.BD_SCENARIOS["fig7"],
        )
        jobs = [
            experiments.cache_aided_job(
                scn, (experiments.BD_MRC, ("vcc_bd_mrc",)), (experiments.ZF, ("vcc_zf",)),
                (experiments.ZF_BOUNDS, ("vcc_zf_lower", "vcc_zf_upper")),
            ),
            experiments.cacheless_job(scn, (experiments.BD_MRC, ("cacheless_bd_mrc",))),
        ]
        out = experiments._block_task((jobs, range(2)))
        for job, job_out in zip(jobs, out):
            assert [rates.shape for rates in job_out] == [
                (len(names), 2, len(job.q_values), len(scn.p_watts)) for _, names in job.rules
            ]
        # a block of two locations holds each location's task alone, in order
        alone = [experiments._block_task((jobs, (loc,))) for loc in range(2)]
        for ji, job_out in enumerate(out):
            for ri, rates in enumerate(job_out):
                assert np.array_equal(
                    rates, np.concatenate([a[ji][ri] for a in alone], axis=1)
                )
        # one location: the curves are that location's means
        jobs = [
            job._replace(scenario=dataclasses.replace(job.scenario, n_locations=1))
            for job in jobs
        ]
        curves = experiments._simulate(jobs, workers=1)
        for job, job_out in zip(jobs, alone[0]):
            for (_, names), rates in zip(job.rules, job_out):
                for name, mean in zip(names, rates[:, 0]):
                    assert np.array_equal(curves[name].mean, mean)


def _assert_one_csv(monkeypatch, recipe, constant, values):
    """The recipe's CSV at 5x1 and 3x4, seed 7, is one set of bytes for
    each value of the module constant, on 1 and 2 workers."""
    for n_loc, n_fad in ((5, 1), (3, 4)):
        blobs = set()
        for value in values:
            monkeypatch.setattr(experiments, constant, value)
            for workers in (1, 2):
                rows, _ = run_recipe(
                    recipe, seed=7, n_locations=n_loc, n_fadings=n_fad, workers=workers
                )
                blobs.add(format_csv(rows))
        assert len(blobs) == 1, f"{n_loc}x{n_fad}: {len(blobs)} different CSVs"


class TestBlocks:
    """Cutting the locations into block tasks of any size moves no bit."""

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_block_size_never_moves_a_bit(self, monkeypatch, recipe):
        _assert_one_csv(
            monkeypatch, recipe, "_BLOCK_CELLS", (1, experiments._BLOCK_CELLS, 16)
        )


class TestSolvePacking:
    """Packing a block's max-min-fair problems into solves of any user
    budget, from one problem per call to one call per stream width, moves
    no bit."""

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_user_budget_never_moves_a_bit(self, monkeypatch, recipe):
        _assert_one_csv(
            monkeypatch, recipe, "_SOLVE_USERS", (1, experiments._SOLVE_USERS, 10**9)
        )


class TestOverheadAccounting:
    def test_rate_scales_linearly_with_overhead_factor(self):
        # the max-min sum rate is exactly proportional to the CSI overhead
        # factor, so switching pilots off rescales every point by 1/xi
        scn = macro_scenario(n_locations=2, n_fadings=1)
        with_pilots = run_vcc_bd_mrc(scn)["vcc_bd_mrc"].mean
        no_pilots = run_vcc_bd_mrc(
            dataclasses.replace(scn, pilot_symbols=0)
        )["vcc_bd_mrc"].mean
        xi = scn.overhead_factor(scn.coded_gain, 4)
        assert np.allclose(with_pilots, xi * no_pilots, rtol=1e-12)

    def test_cacheless_uses_single_group_overhead(self):
        scn = macro_scenario(n_locations=2, n_fadings=1)
        with_pilots = run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"].mean
        no_pilots = run_cacheless_bd_mrc(
            dataclasses.replace(scn, pilot_symbols=0)
        )["cacheless_bd_mrc"].mean
        xi = scn.overhead_factor(1, 4)
        assert np.allclose(with_pilots, xi * no_pilots, rtol=1e-12)


class TestGains:
    def test_identical_reports_gain_one(self):
        scn = macro_scenario(n_locations=3)
        rep = run_vcc_bd_mrc(scn)["vcc_bd_mrc"]
        assert np.allclose(effective_gain(rep, rep), 1.0)

    def test_grid_mismatch_rejected(self):
        a = run_vcc_bd_mrc(macro_scenario(n_locations=2))["vcc_bd_mrc"]
        b = run_vcc_bd_mrc(macro_scenario(n_locations=2, ptot_dbm=(40.0,)))["vcc_bd_mrc"]
        with pytest.raises(InvalidConfigurationError):
            effective_gain(a, b)

    def test_optimized_gain_is_ratio_of_maxima(self):
        scn = symmetric_scenario(num_tx_antennas=8, n_locations=10)
        vcc = run_vcc_bd_mrc(scn)["vcc_bd_mrc"]
        cl = run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"]
        gain = effective_gain(vcc, cl)
        by_hand = vcc.mean.max(axis=0) / cl.mean.max(axis=0)
        assert np.array_equal(gain, by_hand)

    def test_fixed_q_gain_is_ratio_of_the_one_rows(self):
        # At one served-user count per side, the best count is that count.
        scn = macro_scenario(n_locations=3)
        vcc = run_vcc_bd_mrc(scn)["vcc_bd_mrc"]
        cl = run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"]
        assert vcc.q_values == (4,) and cl.q_values == (4,)
        assert np.array_equal(effective_gain(vcc, cl), vcc.mean[0] / cl.mean[0])


class TestOptimizeQ:
    """The best served-user count per power point, from a full q sweep."""

    def test_trivial_when_cap_is_one(self):
        scn = macro_scenario(
            antennas_per_user=4, num_tx_antennas=4, num_states=1,
            cache_fraction=Fraction(0), users_per_group=None, baseline_users=1,
            n_locations=2,
        )
        qs, _, _ = run_vcc_bd_mrc(scn)["vcc_bd_mrc"].best()
        assert all(q == 1 for q in qs)

    def test_cacheless_high_snr_prefers_full_multiplexing(self):
        # symmetric single-antenna users at very high SNR: multiplexing wins
        scn = symmetric_scenario(
            num_tx_antennas=8, ptot_dbm=(95.0,), n_locations=30,
        )
        qs, _, _ = run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"].best()
        assert qs[0] == 8


class TestZfRuns:
    def test_bounds_sandwich_simulation(self):
        scn = macro_scenario(
            num_tx_antennas=64, num_states=5, cache_fraction=Fraction(4, 5),
            antennas_per_user=4, users_per_group=4, n_locations=5, n_fadings=3,
        )
        rep = run_vcc_zf(scn)
        sim = rep["vcc_zf"]
        lo, hi = rep["vcc_zf_lower"], rep["vcc_zf_upper"]
        slack = 2 * np.nan_to_num(sim.stderr, nan=0.0)
        assert np.all(sim.mean >= lo.mean - slack)
        assert np.all(sim.mean <= hi.mean + slack)

    def test_single_antenna_zf_equals_bd(self):
        # with one antenna per user the two precoders coincide
        scn = symmetric_scenario(num_tx_antennas=8, users_per_group=3,
                                 baseline_users=3, n_locations=6)
        zf_rep = run_vcc_zf(scn)["vcc_zf"]
        bd_rep = run_vcc_bd_mrc(scn)["vcc_bd_mrc"]
        assert np.allclose(zf_rep.mean, bd_rep.mean, rtol=1e-9)


class TestFig2Ordering:
    def test_antenna_count_tradeoff(self):
        # more receive antennas help at high power, hurt at low power
        kw = dict(
            geometry="macro", num_tx_antennas=64, num_states=5,
            cache_fraction=Fraction(4, 5), users_per_group=4,
            ptot_dbm=(30.0, 50.0), n_locations=25, n_fadings=4, seed=2, name="f2",
        )
        m4 = run_vcc_bd_mrc(Scenario(antennas_per_user=4, **kw))["vcc_bd_mrc"].mean[0]
        m12 = run_vcc_bd_mrc(Scenario(antennas_per_user=12, **kw))["vcc_bd_mrc"].mean[0]
        assert m4[0] > m12[0]  # low power: beamforming loss dominates
        assert m12[1] > m4[1]  # high power: multiplexing wins

    def test_large_m_low_snr_zf_gap(self):
        kw = dict(
            geometry="macro", num_tx_antennas=64, num_states=5,
            cache_fraction=Fraction(4, 5), antennas_per_user=12,
            users_per_group=4, ptot_dbm=(30.0,), n_locations=12, n_fadings=3,
            seed=3, name="f2m12",
        )
        scn = Scenario(**kw)
        bd = run_vcc_bd_mrc(scn)["vcc_bd_mrc"].mean[0, 0]
        zf = run_vcc_zf(scn)["vcc_zf"].mean[0, 0]
        assert (bd - zf) / bd > 0.10


class TestMsvRun:
    def test_rejects_multi_antenna(self):
        with pytest.raises(UnsupportedConfigurationError):
            run_msv(macro_scenario(antennas_per_user=2))

    def test_modified_at_least_original(self):
        scn = symmetric_scenario(num_tx_antennas=8, n_locations=15)
        rep = run_msv(scn)
        assert len(rep["msv"].q_values) == 1
        assert np.all(rep["msv_modified"].best()[1] >= rep["msv"].mean[0])


class TestImperfectCsi:
    @pytest.mark.parametrize("recipe", ["fig6", "fig9"])
    @pytest.mark.parametrize("override", [{"antennas_per_user": 2}, {"geometry": "macro"}])
    def test_recipes_reject_multi_antenna_and_pathloss(self, recipe, override):
        with pytest.raises(UnsupportedConfigurationError):
            run_recipe(recipe, n_locations=1, n_fadings=1, overrides=override)

    def test_jobs_take_csi_rules_only(self):
        with pytest.raises(KeyError):
            experiments.imperfect_csi_jobs(symmetric_scenario(), experiments.BD_MRC)

    def test_perfect_error_vars_collapse(self):
        scn = symmetric_scenario(
            num_tx_antennas=8, csit_error_var=0.0, csir_error_vars=(0.0,),
            n_locations=8,
        )
        rep = run_imperfect_csi(scn)
        assert np.allclose(
            rep["vcc_zf_csit"].mean, rep["vcc_zf_perfect"].mean, rtol=1e-9
        )

    def test_csit_gain_beats_perfect_gain_at_high_snr(self):
        scn = symmetric_scenario(
            num_tx_antennas=16, csit_error_var=0.01,
            ptot_dbm=(60.0, 65.0), n_locations=30,
        )
        rep = run_imperfect_csi(scn)
        g_perfect = effective_gain(rep["vcc_zf_perfect"], rep["cacheless_zf_perfect"])
        g_csit = effective_gain(rep["vcc_zf_csit"], rep["cacheless_zf_csit"])
        assert np.all(g_csit > g_perfect)


class TestCsiRule:
    """The all-q imperfect-CSI rules against their per-q definition."""

    @staticmethod
    def _per_q_reference(scn, q_values, draws):
        h, factor, w = draws
        h_hat = factor.h
        num_groups = scn.coded_gain
        p_tot = np.asarray(scn.p_watts)[:, None]
        out = np.zeros((2 + len(scn.csir_error_vars), len(q_values), p_tot.size))
        for qi, q in enumerate(q_values):
            per_stream = p_tot / (num_groups * q)
            for g in range(num_groups):
                h_q = h[g][:, :q]
                couplings = [h_q.T @ zf_matrix(est[g][:, :q])[0] for est in (h, h_hat)]
                sinrs = [zf_imperfect_csit_sinr(c, per_stream, scn.noise_power) for c in couplings]
                own = np.diagonal(couplings[1])
                for var in scn.csir_error_vars:
                    est = own - math.sqrt(var) * w[g][:q]
                    sinrs.append(zf_imperfect_csir_sinr(
                        p_tot, num_groups, q, var, est, scn.noise_power))
                out[:, qi] += np.log1p(sinrs).sum(axis=-1)
            out[:, qi] *= scn.overhead_factor(num_groups, q)
        return out

    @pytest.mark.parametrize("csit_var, csir_vars, fixed", [
        (0.01, (0.01, 0.001), None),
        (0.0, (0.01,), None),
        (0.01, (0.0,), None),
        (0.01, (0.01, 0.0), 3),
    ])
    def test_all_q_rates_match_per_q_definition(self, csit_var, csir_vars, fixed):
        scn = symmetric_scenario(
            num_tx_antennas=8, csit_error_var=csit_var, csir_error_vars=csir_vars,
            users_per_group=fixed,
        )
        q_values = scn.group_user_counts(fixed)
        draws = cell_draw(experiments._CSI_DRAW, scn, max(q_values), 2, 0)
        got = self.both_rules(scn, q_values, draws)
        want = self._per_q_reference(scn, q_values, draws)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @staticmethod
    def both_rules(scn, q_values, draws):
        """The perfect-CSI curve, then the estimated-CSI curves, as the
        per-q reference orders them: draw, kernel, rates on a fading axis of
        one."""
        return np.concatenate([
            rule.rates(
                scn, q_values, tuple(a[None] for a in rule.kernel(scn, q_values, draws))
            )[:, 0]
            for rule in (experiments.CSI_PERFECT, experiments.CSI_ERROR)
        ])


class TestCsvRows:
    def test_row_shapes_and_formats(self):
        scn = macro_scenario(n_locations=3)
        rep = run_vcc_bd_mrc(scn)
        blocks = rows_for_curve(rep["vcc_bd_mrc"], scn, gain=np.array([2.0, 2.1]))
        rows = rendered_rows(blocks)
        assert len(rows) == 2
        assert rows[0]["mean_rate_bits"] == pytest.approx(
            rows[0]["mean_rate_nats"] / np.log(2)
        )
        assert [r["gain"] for r in rows] == [2.0, 2.1]
        text = format_csv(blocks, {"recipe": "t", "seed": 11})
        lines = text.strip().split("\n")
        assert lines[0] == "# recipe=t"
        assert lines[2].startswith("scheme,ptot_dbm,snr_db,q,")
        assert len(lines) == 3 + len(rows)

    def test_best_rows(self):
        scn = symmetric_scenario(num_tx_antennas=8, n_locations=6)
        rep = run_vcc_bd_mrc(scn)
        rows = rendered_rows(rows_for_best(rep["vcc_bd_mrc"], scn))
        assert {r["scheme"] for r in rows} == {"vcc_bd_mrc_opt"}
        assert len(rows) == 2


# The float columns of a CSV row.
FLOAT_COLUMNS = (
    "ptot_dbm", "snr_db", "mean_rate_nats", "mean_rate_bits", "stderr", "gain", "gain_optimized",
)
# Any float, and for certain -0.0, the smallest subnormal, a larger
# subnormal and the largest double.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1.7976931348623157e308]),
)
GAINS = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def csv_parts(draw):
    """1-4 curves, each with its scenario (one of two), whether its
    best-q rows are wanted, and a gain column (or ``None``), which only
    best-q rows and a single-q curve's rows take."""
    n_p = draw(st.integers(1, 3))
    scenarios = [
        symmetric_scenario(
            ptot_dbm=tuple(draw(st.lists(
                st.floats(-20.0, 60.0), min_size=n_p, max_size=n_p, unique=True
            ))),
            n_locations=draw(st.integers(1, 4)),
            seed=draw(st.integers(0, 2**32)),
        )
        for _ in range(2)
    ]
    parts = []
    for i in range(draw(st.integers(1, 4))):
        scn = draw(st.sampled_from(scenarios))
        q_values = tuple(sorted(draw(st.lists(
            st.integers(1, 16), min_size=1, max_size=3, unique=True
        ))))
        size = len(q_values) * n_p
        mean = np.array(draw(st.lists(EDGE_FLOATS, min_size=size, max_size=size)))
        if scn.n_locations == 1:
            stderr = np.full(size, np.nan)
        else:
            stderr = np.array(draw(st.lists(
                st.floats(0.0, allow_infinity=False), min_size=size, max_size=size
            )))
        curve = SchemeCurve(
            f"c{i}", scn.ptot_dbm, q_values,
            mean.reshape(-1, n_p), stderr.reshape(-1, n_p),
        )
        best = draw(st.booleans())
        gain = None
        if best or len(q_values) == 1:
            gain = draw(st.none() | st.lists(GAINS, min_size=n_p, max_size=n_p).map(np.array))
        parts.append((curve, scn, best, gain))
    return parts


def _reference_rows(curve, scn, best, gain):
    """The rows of one curve as dicts, one by one, as the CSV had them
    before blocks."""
    def row(scheme, p, q, mean, stderr, gain=None, gain_opt=None):
        return dict(
            scheme=scheme, ptot_dbm=scn.ptot_dbm[p], snr_db=scn.snr_db[p], q=q,
            mean_rate_nats=mean, mean_rate_bits=mean / math.log(2), stderr=stderr,
            gain=gain, gain_optimized=gain_opt, n_locations=scn.n_locations,
            n_fadings=scn.n_fadings, seed=scn.seed,
        )

    def value(array, p):
        return None if array is None else float(array[p])

    n_p = curve.mean.shape[1]
    if best:
        idx = np.argmax(curve.mean, axis=0)
        return [
            row(f"{curve.scheme}_opt", p, curve.q_values[idx[p]], float(curve.mean[idx[p], p]),
                float(curve.stderr[idx[p], p]), gain_opt=value(gain, p))
            for p in range(n_p)
        ]
    return [
        row(curve.scheme, p, q, float(curve.mean[qi, p]), float(curve.stderr[qi, p]),
            gain=value(gain, p))
        for qi, q in enumerate(curve.q_values)
        for p in range(n_p)
    ]


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


class TestCsvRendering:
    """The block renderer writes the bytes of a per-row, per-cell one."""

    @settings(max_examples=200, deadline=None)
    @given(csv_parts())
    def test_blocks_render_as_rows(self, parts):
        blocks, rows = [], []
        for curve, scn, best, gain in parts:
            if best:
                blocks += rows_for_best(curve, scn, gain_opt=gain)
            else:
                blocks += rows_for_curve(curve, scn, gain=gain)
            rows += _reference_rows(curve, scn, best, gain)
        header = {"recipe": "t", "seed": 5}
        text = format_csv(blocks, header)
        want = ["# recipe=t", "# seed=5", ",".join(CSV_COLUMNS)] + [
            ",".join(_reference_cell(row[col]) for col in CSV_COLUMNS) for row in rows
        ]
        assert text == "\n".join(want) + "\n"
        # Every float cell is empty for None and NaN, and otherwise parses
        # back to the very double (the sign of zero included).
        for got, row in zip(parse_rows(text), rows, strict=True):
            for col in FLOAT_COLUMNS:
                if row[col] is None or math.isnan(row[col]):
                    assert got[col] is None, col
                else:
                    assert got[col].hex() == row[col].hex(), col

    def test_gain_with_a_multi_q_curve_raises(self):
        scn = symmetric_scenario(ptot_dbm=(10.0, 20.0))
        curve = SchemeCurve("c", scn.ptot_dbm, (2, 4), np.ones((2, 2)), np.zeros((2, 2)))
        message = r"c: a gain column needs a single-q curve, not q in \[2, 4\]"
        with pytest.raises(ValueError, match=message):
            rows_for_curve(curve, scn, gain=np.ones(2))
