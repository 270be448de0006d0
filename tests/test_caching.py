import re
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from vccsim.caching import (
    build_placement,
    build_schedule,
    dump_schedule,
    verify_delivery,
)
from vccsim.errors import InvalidConfigurationError
from vccsim.experiments import Scenario


class TestPlacement:
    def test_five_states_fifth_cached(self):
        plan = build_placement(5, "1/5", 10, 10)
        assert len(plan.subfile_tags) == 5  # C(5,1)
        assert plan.coded_gain == 2
        assert plan.cached_fraction() == Fraction(1, 5)

    def test_cacheless_degenerate(self):
        plan = build_placement(3, 0, 6, 6)
        assert plan.subfile_tags == (frozenset(),)
        assert plan.coded_gain == 1
        assert plan.cache_state(1) == set()

    def test_two_state_example(self):
        # coded gain 2 with 4 users per state needs 2 states over 8 users
        plan = build_placement(2, "1/2", 8, 8)
        assert plan.users_per_state == 4
        assert plan.coded_gain == 2

    def test_cache_state_size(self):
        plan = build_placement(5, "2/5", 10, 12)
        for g in range(1, 6):
            assert len(plan.cache_state(g)) == comb(4, 1) * 12

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfigurationError):
            build_placement(5, "1/3", 10, 10)  # 5/3 not integer
        with pytest.raises(InvalidConfigurationError):
            build_placement(5, "1/5", 11, 11)  # K not multiple
        with pytest.raises(InvalidConfigurationError):
            build_placement(5, "6/5", 10, 10)  # gamma > 1


class TestSchedule:
    def test_one_stage_two_rounds(self):
        plan = build_placement(2, "1/2", 8, 8)
        sched = build_schedule(plan, 2)
        assert len(sched.stages) == 1  # C(2,2)
        assert sched.num_rounds == 2
        rounds = {(e.round, e.stage) for e in sched.entries}
        assert len(rounds) == 2

    def test_ten_stages(self):
        plan = build_placement(5, "1/5", 5, 5)
        sched = build_schedule(plan, 1)
        assert len(sched.stages) == 10  # C(5,2)

    def test_cacheless_singleton_stages(self):
        plan = build_placement(3, 0, 3, 3)
        sched = build_schedule(plan, 1)
        assert len(sched.stages) == 3
        assert all(len(s) == 1 for s in sched.stages)
        assert all(e.subfile[1] == frozenset() for e in sched.entries)

    def test_remainder_round(self):
        plan = build_placement(2, "1/2", 10, 10)  # B = 5
        sched = build_schedule(plan, 2)
        assert sched.num_rounds == 3
        last = [e for e in sched.entries if e.round == 3]
        assert {e.user_slot for e in last} == {1}
        ok, report = verify_delivery(sched, plan)
        assert ok, report

    def test_each_pair_once(self):
        plan = build_placement(4, "1/2", 8, 8)
        sched = build_schedule(plan, 2)
        pairs = [(e.user, e.subfile) for e in sched.entries]
        assert len(pairs) == len(set(pairs))
        # every user gets exactly the uncached part of its file
        per_user = {}
        for e in sched.entries:
            per_user.setdefault(e.user, set()).add(e.subfile)
        for user, got in per_user.items():
            g = plan.group_of_user(user)
            assert len(got) == comb(3, 2)  # tags avoiding the own group
            assert all(g not in tag for _, tag in got)

    def test_demands_validation(self):
        plan = build_placement(2, "1/2", 4, 4)
        with pytest.raises(InvalidConfigurationError):
            build_schedule(plan, 1, demands={1: 1, 2: 1, 3: 2, 4: 3})
        with pytest.raises(InvalidConfigurationError):
            build_schedule(plan, 5)


class TestVerifier:
    def test_generated_schedules_pass(self):
        plan = build_placement(4, "3/4", 8, 8)
        sched = build_schedule(plan, 2)
        ok, report = verify_delivery(sched, plan)
        assert ok and report == []

    def test_missing_label_detected(self):
        plan = build_placement(3, "1/3", 6, 6)
        sched = build_schedule(plan, 2)
        broken = sched.entries[3]
        mutated = sched.__class__(
            plan=sched.plan,
            users_per_round=sched.users_per_round,
            stages=sched.stages,
            entries=sched.entries[:3] + sched.entries[4:],
        )
        ok, report = verify_delivery(mutated, plan)
        assert not ok
        n, tag = broken.subfile
        expected = f"({n},{{{','.join(str(t) for t in sorted(tag))}}})"
        assert any(expected in line and "never transmitted" in line for line in report)

    def test_wrong_cache_group_detected(self):
        plan = build_placement(3, "2/3", 6, 6)
        sched = build_schedule(plan, 2)
        cache_groups = {u: plan.group_of_user(u) for u in range(1, 7)}
        cache_groups[1] = 2  # user 1 actually holds the wrong state
        ok, report = verify_delivery(sched, plan, cache_groups=cache_groups)
        assert not ok
        assert any("cannot cancel" in line for line in report)


def group_cap(num_tx_antennas, antennas_per_user, users_per_state):
    """Served users per cache group, as a scenario with a swept count caps them."""
    return Scenario(
        num_tx_antennas=num_tx_antennas, antennas_per_user=antennas_per_user,
        users_per_state=users_per_state, users_per_group=None, baseline_users=None,
    ).max_group_users()


class TestQMax:
    """The per-group cap on served users: every user's antennas fit the
    whole-group budget ``L``, and no more users than a state holds."""

    def test_uniform_values(self):
        assert group_cap(32, 4, 100) == 8
        assert group_cap(2, 1, 100) == 2
        assert group_cap(16, 16, 100) == 1
        assert group_cap(32, 4, 3) == 3  # capped by users available
        assert group_cap(9, 4, 100) == 2  # 3 users would need 12 > 9 antennas

    def test_monotone(self):
        vals_l = [group_cap(l, 3, 99) for l in range(3, 40)]
        assert all(a <= b for a, b in zip(vals_l, vals_l[1:]))
        vals_m = [group_cap(24, m, 99) for m in range(1, 24)]
        assert all(a >= b for a, b in zip(vals_m, vals_m[1:]))


class TestDump:
    LINE = re.compile(
        r"^stage \d+ round \d+ group \d+ user \d+ subfile \(\d+,\{(\d+(,\d+)*)?\}\)$"
    )

    def test_line_format(self):
        plan = build_placement(4, "1/2", 8, 8)
        text = dump_schedule(build_schedule(plan, 2))
        lines = text.strip().split("\n")
        assert all(self.LINE.match(line) for line in lines)

    def test_golden_small_case(self):
        plan = build_placement(2, "1/2", 2, 2)
        text = dump_schedule(build_schedule(plan, 1))
        assert text == (
            "stage 1 round 1 group 1 user 1 subfile (1,{2})\n"
            "stage 1 round 1 group 2 user 1 subfile (2,{1})\n"
        )

    def test_colex_stage_order(self):
        plan = build_placement(4, "1/4", 4, 4)
        # colex over pairs of {1..4}: 12, 13, 23, 14, 24, 34
        assert [tuple(sorted(s)) for s in build_schedule(plan, 1).stages] == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        ]
