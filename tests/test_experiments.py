import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from vccsim import experiments, precoding
from vccsim.allocation import zf_mmf_bounds
from vccsim.channel import noise_power_watts
from vccsim.errors import (
    InvalidConfigurationError,
    OverheadExceedsCoherenceError,
    UnsupportedConfigurationError,
)
from vccsim.experiments import (
    Scenario,
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
from vccsim.precoding import zf_imperfect_csir_sinr, zf_imperfect_csit_sinr, zf_matrix
from vccsim.recipes import RECIPES, run_recipe


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


class TestFadingFreeRules:
    def test_one_solve_matches_each_q_alone(self):
        # The q sweep in one surrogate-user solve against the one-problem
        # front end, q by q; q = 6 is full load (L = q*m), where the lower
        # ZF bound's stream gain is 0.
        scn = macro_scenario(users_per_group=None)
        job = experiments.cache_aided_job(scn)
        g, m = job.num_groups, scn.antennas_per_user
        betas = experiments._location_betas(scn, g, max(job.q_values), 0)
        bounds = experiments._zf_bound_rates(scn, g, job.q_values, None, betas)
        for qi, q in enumerate(job.q_values):
            args = ([list(row[:q]) for row in betas], [[m] * q] * g, scn.num_tx_antennas,
                    scn.overhead_factor(g, q), scn.noise_power, np.asarray(scn.p_watts))
            assert np.array_equal(bounds[:, qi], zf_mmf_bounds(*args))
        assert np.all(bounds[0, -1] == 0) and np.all(bounds[1, -1] > 0)

    def test_asymptotic_rule_matches_brent_root(self):
        # Large-array BD-MRC: every stream gain of user k at
        # beta_k * (L - q*m + m), so equal power over a user's streams, and
        # the rate is the root of the surrogate users' budget equation.
        scn = macro_scenario(users_per_group=None)
        job = experiments.cache_aided_job(scn)
        g, m, l = job.num_groups, scn.antennas_per_user, scn.num_tx_antennas
        betas = experiments._location_betas(scn, g, max(job.q_values), 0)
        asym = experiments._asym_rates(scn, g, job.q_values, None, betas)
        n0 = scn.noise_power
        for qi, q in enumerate(job.q_values):
            gains, n, xi = betas[:, :q] * (l - q * m + m), g * q, scn.overhead_factor(g, q)

            def resid(r, p):
                return np.sum(n0 * m * np.expm1(r / (xi * m * n)) / gains) - p

            for pi, p in enumerate(scn.p_watts):
                hi = 1.0
                while resid(hi, p) < 0:
                    hi *= 2.0
                ref = brentq(resid, 0.0, hi, args=(p,), xtol=1e-18, rtol=1e-14)
                assert asym[0, qi, pi] == pytest.approx(ref, rel=1e-10)


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


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize=1):
        return map(fn, args)


class TestPoolSize:
    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
    def test_workers_clamped_to_cpus_and_tasks(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        _SerialPool.sizes.clear()
        out = experiments._parallel_map(abs, [-1, -2, -3], 10_000)
        assert out == [1, 2, 3]
        assert _SerialPool.sizes == [expected]


class TestOneSimulatePerRecipe:
    """A recipe hands all its jobs to one _simulate call, and the jobs of a
    location share each draw and its prefix factor where their draw keys
    match."""

    # Per (location, fading): complex_gaussian draws, one per group of each
    # shared draw (two per group when the imperfect-CSI draw has CSIR
    # variances, two for MSV), and _prefix_inverse calls, one per shared
    # stack factored.  The cacheless job reads the cache-aided group 0
    # wherever both sides have the same largest served count; fig4 (Q=2,
    # Q'=8) does not.  fig6 factors two stacks: the perfect-CSI kernel the
    # true channels and the error kernel their estimate; fig9 runs the
    # error rule alone.
    PER_FADING = {
        "fig2": (3 * 5, 3),  # three M values; BD-MRC and ZF share each draw
        "fig3": (6, 1),
        "fig4": (4 + 1, 2),
        "fig5": (6, 1),
        "fig6": (6, 2),
        "fig7": (6, 1),  # BD-MRC and ZF share the cache-aided draw
        "fig8": (2 + 6, 1 + 1),
        "fig9": (2 * 6, 1),
    }

    @staticmethod
    def _count(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_each_draw_and_factor_once_per_job(self, monkeypatch, recipe):
        counts = dict.fromkeys(("_simulate", "complex_gaussian", "_prefix_inverse"), 0)
        self._count(monkeypatch, experiments, "_simulate", counts)
        self._count(monkeypatch, experiments, "complex_gaussian", counts)
        self._count(monkeypatch, precoding, "_prefix_inverse", counts)
        n_loc, n_fad = 2, 3
        run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad)
        draws, factors = self.PER_FADING[recipe]
        assert counts == {
            "_simulate": 1,
            "complex_gaussian": draws * n_loc * n_fad,
            "_prefix_inverse": factors * n_loc * n_fad,
        }

    # Max-min-fair rules per location: BD-MRC and ZF cache-aided plus
    # cacheless BD-MRC for fig7, BD-MRC on each side for fig8.  Each rule
    # solves all the fadings of a location in one call, and fig7's
    # fading-free ZF bounds make one more.
    FADING_FREE = {"fig7": 1, "fig8": 0}

    @pytest.mark.parametrize("recipe, rules", [("fig7", 3), ("fig8", 2)])
    def test_one_mmf_solve_per_rule_and_fading(self, monkeypatch, recipe, rules):
        counts = {"mmf_sum_rates": 0}
        self._count(monkeypatch, experiments, "mmf_sum_rates", counts)
        n_loc, n_fad = 2, 3
        run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad)
        assert counts["mmf_sum_rates"] == (rules + self.FADING_FREE[recipe]) * n_loc

    # Rate-rule calls per location, whatever its fading count: under
    # imperfect CSI one per job (cache-aided and cacheless) for each rule the
    # recipe lists; for fig7 one per max-min-fair rule and one for the
    # fading-free ZF bounds.
    @pytest.mark.parametrize("recipe, per_fading", [
        ("fig6", {"_csi_perfect_rates": 2, "_csi_error_rates": 2}),
        ("fig9", {"_csi_perfect_rates": 0, "_csi_error_rates": 2}),
        ("fig7", {"_mmf_rates": 3, "_zf_bound_rates": 1}),
    ])
    def test_csi_rules_run_only_where_listed(self, monkeypatch, recipe, per_fading):
        counts = dict.fromkeys(per_fading, 0)

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
        n_loc, n_fad = 2, 3
        run_recipe(recipe, seed=1, n_locations=n_loc, n_fadings=n_fad)
        assert counts == {name: n * n_loc for name, n in per_fading.items()}

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_at_most_one_pool_per_recipe(self, monkeypatch, recipe):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
        _SerialPool.sizes.clear()
        run_recipe(recipe, seed=1, n_locations=2, n_fadings=1, workers=2)
        assert _SerialPool.sizes == [2]

    def test_repeated_curve_name_rejected_before_sampling(self, monkeypatch):
        def fail(_):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_location_task", fail)
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
        scn = macro_scenario(
            users_per_group=None, baseline_users=None, n_locations=2, n_fadings=2,
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
        draws = self._counting(monkeypatch, experiments, "complex_gaussian")
        shared = experiments._simulate([vcc, cl], workers=1)
        # one draw per cache-aided group, plus coupling errors only with CSIR
        per_fading = scn.coded_gain * (1 + bool(csir_vars))
        assert draws["complex_gaussian"] == per_fading * scn.n_locations * scn.n_fadings
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
        draws = self._counting(monkeypatch, experiments, "complex_gaussian")
        shared = experiments._simulate(jobs, workers=1)
        assert draws["complex_gaussian"] == (scn.coded_gain + 1) * scn.n_locations * scn.n_fadings
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
        draws = self._counting(monkeypatch, experiments, "complex_gaussian")
        shared = experiments._simulate([experiments.msv_job(six), small], workers=1)
        assert draws["complex_gaussian"] == 2 * 2 * six.n_locations * six.n_fadings
        self._equal(shared["msv_modified"], run_msv(six)["msv_modified"])
        self._equal(shared["msv_small"], run_msv(four)["msv_modified"])

    def test_jobs_must_share_location_count(self, monkeypatch):
        def fail(_):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_location_task", fail)
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

    def test_task_returns_location_means(self):
        scn = macro_scenario(
            users_per_group=None, baseline_users=None, n_locations=1, n_fadings=3,
            **self.BD_SCENARIOS["fig7"],
        )
        jobs = [
            experiments.cache_aided_job(
                scn, (experiments.BD_MRC, ("vcc_bd_mrc",)), (experiments.ZF, ("vcc_zf",)),
                (experiments.ZF_BOUNDS, ("vcc_zf_lower", "vcc_zf_upper")),
            ),
            experiments.cacheless_job(scn, (experiments.BD_MRC, ("cacheless_bd_mrc",))),
        ]
        out = experiments._location_task((jobs, 0))
        for job, job_out in zip(jobs, out):
            assert [rates.shape for rates in job_out] == [
                (len(names), len(job.q_values), len(scn.p_watts)) for _, names in job.rules
            ]
        # one location: the curves are that location's means
        curves = experiments._simulate(jobs, workers=1)
        for job, job_out in zip(jobs, out):
            for (_, names), rates in zip(job.rules, job_out):
                for name, mean in zip(names, rates):
                    assert np.array_equal(curves[name].mean, mean)


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
        assert np.allclose(effective_gain(rep, rep, "fixed"), 1.0)

    def test_grid_mismatch_rejected(self):
        a = run_vcc_bd_mrc(macro_scenario(n_locations=2))["vcc_bd_mrc"]
        b = run_vcc_bd_mrc(macro_scenario(n_locations=2, ptot_dbm=(40.0,)))["vcc_bd_mrc"]
        with pytest.raises(InvalidConfigurationError):
            effective_gain(a, b, "fixed")

    def test_optimized_gain_is_ratio_of_maxima(self):
        scn = symmetric_scenario(num_tx_antennas=8, n_locations=10)
        vcc = run_vcc_bd_mrc(scn)["vcc_bd_mrc"]
        cl = run_cacheless_bd_mrc(scn)["cacheless_bd_mrc"]
        gain = effective_gain(vcc, cl, "optimized")
        by_hand = vcc.mean.max(axis=0) / cl.mean.max(axis=0)
        assert np.array_equal(gain, by_hand)


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
        assert np.all(rep["msv_modified"].best()[1] >= rep["msv"].single()[1])


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
        g_perfect = effective_gain(
            rep["vcc_zf_perfect"], rep["cacheless_zf_perfect"], "optimized"
        )
        g_csit = effective_gain(
            rep["vcc_zf_csit"], rep["cacheless_zf_csit"], "optimized"
        )
        assert np.all(g_csit > g_perfect)


class TestCsiRule:
    """The all-q imperfect-CSI rules against their per-q definition."""

    @staticmethod
    def _per_q_reference(scn, num_groups, q_values, draws):
        h, h_hat, w = draws
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
        num_groups, q_values = scn.coded_gain, scn.group_user_counts(fixed)
        draws = experiments._csi_draws(scn, num_groups, max(q_values), 2, 0, None)
        got = self.both_rules(scn, num_groups, q_values, draws)
        want = self._per_q_reference(scn, num_groups, q_values, draws)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @staticmethod
    def both_rules(scn, num_groups, q_values, draws):
        """The perfect-CSI curve, then the estimated-CSI curves, as the
        per-q reference orders them: draw, kernel, rates on a fading axis of
        one."""
        return np.concatenate([
            rule.rates(
                scn, num_groups, q_values,
                tuple(a[None] for a in rule.kernel(scn, q_values, draws)), None,
            )[:, 0]
            for rule in (experiments.CSI_PERFECT, experiments.CSI_ERROR)
        ])


class TestCsvRows:
    def test_row_shapes_and_formats(self):
        scn = macro_scenario(n_locations=3)
        rep = run_vcc_bd_mrc(scn)
        rows = rows_for_curve(rep["vcc_bd_mrc"], scn, gain=np.array([2.0, 2.1]))
        assert len(rows) == 2
        assert rows[0]["mean_rate_bits"] == pytest.approx(
            rows[0]["mean_rate_nats"] / np.log(2)
        )
        text = format_csv(rows, {"recipe": "t", "seed": 11})
        lines = text.strip().split("\n")
        assert lines[0] == "# recipe=t"
        assert lines[2].startswith("scheme,ptot_dbm,snr_db,q,")
        assert len(lines) == 3 + len(rows)

    def test_best_rows(self):
        scn = symmetric_scenario(num_tx_antennas=8, n_locations=6)
        rep = run_vcc_bd_mrc(scn)
        rows = rows_for_best(rep["vcc_bd_mrc"], scn)
        assert {r["scheme"] for r in rows} == {"vcc_bd_mrc_opt"}
        assert len(rows) == 2
