"""Symbolic cache placement and delivery scheduling.

Subfiles are symbolic ``(file_index, tag)`` labels where ``tag`` is the set
of cache groups storing that subfile; no payload bytes are ever handled.
Subsets are enumerated in colexicographic order so schedules are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import InvalidConfigurationError

__all__ = [
    "PlacementPlan",
    "ScheduleEntry",
    "DeliverySchedule",
    "build_placement",
    "build_schedule",
    "verify_delivery",
    "dump_schedule",
]

Subfile = tuple[int, frozenset]


def _colex_subsets(n: int, k: int) -> tuple[frozenset, ...]:
    """All k-subsets of {1..n} in colexicographic order."""
    subsets = sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])
    return tuple(frozenset(s) for s in subsets)


@dataclass(frozen=True)
class PlacementPlan:
    """Outcome of the cache placement phase.

    Each of the ``num_states`` groups of ``users_per_state`` users stores
    the subfiles whose tag contains its group index; the tags are all
    ``num_states * cache_fraction``-subsets of the group indices.
    """

    num_states: int
    cache_fraction: Fraction
    num_users: int
    library_size: int

    @property
    def users_per_state(self) -> int:
        return self.num_users // self.num_states

    @property
    def tag_size(self) -> int:
        return int(self.num_states * self.cache_fraction)

    @property
    def coded_gain(self) -> int:
        return self.tag_size + 1

    @property
    def subfile_tags(self) -> tuple[frozenset, ...]:
        """All subfile tags, i.e. every file is split into this many parts."""
        return _colex_subsets(self.num_states, self.tag_size)

    def cache_state(self, group: int) -> set[Subfile]:
        """Symbolic labels cached by every user of the given group."""
        if not 1 <= group <= self.num_states:
            raise ValueError(f"group must be in 1..{self.num_states}")
        return {
            (n, tag)
            for tag in self.subfile_tags
            if group in tag
            for n in range(1, self.library_size + 1)
        }

    def cached_fraction(self) -> Fraction:
        """Fraction of each file held in one cache state (exact arithmetic)."""
        if self.tag_size == 0:
            return Fraction(0)
        return Fraction(
            comb(self.num_states - 1, self.tag_size - 1),
            comb(self.num_states, self.tag_size),
        )

    def group_of_user(self, user: int) -> int:
        """Cache group of a user under round-robin group assignment."""
        return (user - 1) % self.num_states + 1

    def users_of_group(self, group: int) -> tuple[int, ...]:
        return tuple(
            group + b * self.num_states for b in range(self.users_per_state)
        )


def build_placement(
    num_states: int,
    cache_fraction,
    num_users: int,
    library_size: int,
) -> PlacementPlan:
    """Validate and build a placement plan.

    ``cache_fraction`` may be a :class:`~fractions.Fraction`, a string like
    ``"5/6"``, or an int; the product with ``num_states`` must be an
    integer below ``num_states`` and ``num_users`` a multiple of
    ``num_states``.
    """
    gamma = Fraction(cache_fraction)
    if num_states < 1:
        raise InvalidConfigurationError("num_states must be at least 1")
    # A full cache leaves a coded gain above the num_states cache states, so
    # no stage to schedule.
    if not 0 <= num_states * gamma < num_states:
        raise InvalidConfigurationError(f"cache_fraction {gamma} outside [0, 1)")
    if (num_states * gamma).denominator != 1:
        raise InvalidConfigurationError(
            f"num_states * cache_fraction = {num_states * gamma} is not an integer"
        )
    if num_users % num_states != 0:
        raise InvalidConfigurationError(
            f"num_users {num_users} is not a multiple of num_states {num_states}"
        )
    if library_size < num_users:
        raise InvalidConfigurationError(
            "library must hold at least one distinct file per user"
        )
    return PlacementPlan(num_states, gamma, num_users, library_size)


@dataclass(frozen=True)
class ScheduleEntry:
    """One symbolic subfile transmission inside a stage."""

    stage: int      # 1-based index into the stage list
    round: int      # 1-based encoding pass
    group: int      # serving cache group
    user_slot: int  # 1-based slot within the group for this round
    user: int       # global user index
    subfile: Subfile


@dataclass(frozen=True)
class DeliverySchedule:
    """Full delivery: every stage of every round with its payload labels."""

    plan: PlacementPlan
    users_per_round: int
    stages: tuple[frozenset, ...]
    entries: tuple[ScheduleEntry, ...]

    @property
    def num_rounds(self) -> int:
        b, q = self.plan.users_per_state, self.users_per_round
        return -(-b // q)

    @property
    def coded_gain(self) -> int:
        return self.plan.coded_gain


def build_schedule(
    plan: PlacementPlan,
    users_per_round: int,
    demands: dict[int, int] | None = None,
) -> DeliverySchedule:
    """Schedule every demanded subfile across stages and encoding rounds.

    Each round picks the next ``users_per_round`` users of every group
    (a final partial round serves any remainder), and each stage serves one
    ``coded_gain``-subset of groups, sending user ``(g, k)`` the subfile of
    its demanded file tagged by the other groups of the stage.

    ``demands`` maps global user index to file index; the default is the
    worst case where user ``u`` wants file ``u``.
    """
    b = plan.users_per_state
    q = users_per_round
    if not 1 <= q <= b:
        raise InvalidConfigurationError(f"users_per_round {q} outside 1..{b}")
    if demands is None:
        demands = {u: u for u in range(1, plan.num_users + 1)}
    else:
        _check_demands(plan, demands)

    stages = _colex_subsets(plan.num_states, plan.coded_gain)
    num_rounds = -(-b // q)
    entries = []
    for rnd in range(1, num_rounds + 1):
        first = (rnd - 1) * q
        slots = range(first, min(first + q, b))
        for stage_idx, psi in enumerate(stages, start=1):
            for g in sorted(psi):
                users = plan.users_of_group(g)
                tag = psi - {g}
                for slot_idx, slot in enumerate(slots, start=1):
                    user = users[slot]
                    entries.append(
                        ScheduleEntry(
                            stage=stage_idx,
                            round=rnd,
                            group=g,
                            user_slot=slot_idx,
                            user=user,
                            subfile=(demands[user], frozenset(tag)),
                        )
                    )
    return DeliverySchedule(plan, q, stages, tuple(entries))


def _check_demands(plan: PlacementPlan, demands: dict[int, int]) -> None:
    if set(demands) != set(range(1, plan.num_users + 1)):
        raise InvalidConfigurationError("demands must cover exactly users 1..K")
    if len(set(demands.values())) != len(demands):
        raise InvalidConfigurationError("demands must be distinct per user")
    for user, file_idx in demands.items():
        if not 1 <= file_idx <= plan.library_size:
            raise InvalidConfigurationError(
                f"user {user} demands file {file_idx} outside the library"
            )


def verify_delivery(
    schedule: DeliverySchedule,
    plan: PlacementPlan,
    demands: dict[int, int] | None = None,
    cache_groups: dict[int, int] | None = None,
) -> tuple[bool, list[str]]:
    """Check coverage and decodability of a schedule.

    Passes iff (a) every user receives each subfile of its demanded file
    that it did not cache, exactly once, and (b) at every stage, every
    payload addressed to another group is already in the listening user's
    cache state.  ``cache_groups`` overrides user-to-group cache assignment
    for adversarial checks.  Returns ``(ok, violations)``.
    """
    if demands is None:
        demands = {u: u for u in range(1, plan.num_users + 1)}
    if cache_groups is None:
        cache_groups = {u: plan.group_of_user(u) for u in range(1, plan.num_users + 1)}
    violations: list[str] = []

    # Coverage: transmitted labels per user vs. the uncached part of the demand.
    received: dict[int, list[Subfile]] = {u: [] for u in demands}
    for e in schedule.entries:
        received[e.user].append(e.subfile)
    for user, want_file in sorted(demands.items()):
        g = cache_groups[user]
        needed = {
            (want_file, tag) for tag in plan.subfile_tags if g not in tag
        }
        got = received[user]
        for label in sorted(needed - set(got)):
            violations.append(f"user {user}: subfile {_fmt_subfile(label)} never transmitted")
        seen = set()
        for label in got:
            if label in seen:
                violations.append(
                    f"user {user}: subfile {_fmt_subfile(label)} transmitted more than once"
                )
            seen.add(label)
        for label in sorted(set(got) - needed):
            violations.append(
                f"user {user}: received unneeded subfile {_fmt_subfile(label)}"
            )

    # Decodability: cross-group payloads within a stage must be cached.
    by_stage: dict[tuple[int, int], list[ScheduleEntry]] = {}
    for e in schedule.entries:
        by_stage.setdefault((e.round, e.stage), []).append(e)
    for (rnd, stage), group_entries in sorted(by_stage.items()):
        for e in group_entries:
            g = cache_groups[e.user]
            for other in group_entries:
                if other.group == e.group:
                    continue
                if g not in other.subfile[1]:
                    violations.append(
                        f"round {rnd} stage {stage}: user {e.user} cannot cancel "
                        f"interfering subfile {_fmt_subfile(other.subfile)} "
                        f"(not in cache state {g})"
                    )
    return not violations, violations


def _fmt_subfile(subfile: Subfile) -> str:
    n, tag = subfile
    inner = ",".join(str(g) for g in sorted(tag))
    return f"({n},{{{inner}}})"


def dump_schedule(schedule: DeliverySchedule) -> str:
    """Line-oriented text dump, one payload label per line."""
    lines = [
        f"stage {e.stage} round {e.round} group {e.group} "
        f"user {e.user_slot} subfile {_fmt_subfile(e.subfile)}"
        for e in schedule.entries
    ]
    return "\n".join(lines) + "\n"
