"""Monte Carlo harness for effective sum-rates and effective gains.

A scenario fixes the cell, antenna and caching parameters plus the power
sweep.  A :class:`Job` is one side of a comparison (the cache-aided groups
or the cacheless single group) with the schemes, or rules, run on it.  A
recipe hands all of its jobs to one :func:`_simulate` call, which runs one
pool task per location (:func:`_location_task`), and each task runs every
job of the recipe at that location.  Per location it does the same four
steps:

1. draw: each job's pathloss rows once, then, per fading, one draw per
   shared draw key (below), at the largest served-user count ``q``.
   BD-MRC and ZF use the same draw, the groups' channels with their prefix
   factor (:func:`~vccsim.precoding.prefix_factor`), so each (fading,
   group) channel is drawn and factored once per location;
2. kernel: the stream gains of every ``q``-user prefix of those draws at
   once, per group (groups on axis 0).  For BD-MRC and ZF this is one
   nested-prefix Gram kernel over every group, one factorization per
   (group, fading) whatever the q sweep
   (:func:`~vccsim.precoding.bd_mrc_prefix_gains`,
   :func:`~vccsim.precoding.zf_prefix_gains`); under imperfect CSI it is
   the ZF gains, or the couplings
   (:func:`~vccsim.precoding.zf_prefix_couplings`), at the served
   ``(q, user)`` pairs only.  MSV runs the same kernel on one
   multicast/unicast draw for every unicast count
   (:func:`~vccsim.precoding.msv_gains_fast`);
3. rates: the rates of every curve the scheme owns over the q sweep and
   the power vector, from the kernel output of the job's groups.
   Max-min-fair rates come from one batched rate-only root solve per (job,
   rule, fading) (:func:`~vccsim.allocation.mmf_sum_rates`): each q is one
   problem over the pooled users of every group, with its own pilot
   overhead, and every q runs in one Newton loop.  Equal-power ZF under
   imperfect CSI is two rules on one draw, and a recipe lists only the one
   whose curves it writes: :data:`CSI_PERFECT` takes its SINRs from the
   prefix ZF gains alone, and :data:`CSI_ERROR` from the couplings, for
   the CSIT curve and one curve per CSIR variance.  Both sum each q's
   served pairs with ``np.add.reduceat``.  The MSV rates
   (:func:`~vccsim.precoding.msv_rate_from_gains`) are an array expression
   over (q, power); the fading-free curves loop over q inside their rule;
4. reduce: the task returns each rule's mean over the location's fadings,
   so only per-location means leave it; :func:`_simulate` reduces those,
   in location order, to the mean and standard error over locations.

A scheme is a :class:`_Rule`: a channel draw, a gain kernel and a rate
rule.  Fading-free analytic curves have neither a draw nor a kernel, and
run once per location, before its fadings.  The tables a rule needs that
depend only on the job (served pairs, per-stream SNRs, overhead factors)
are built once per process.

Sharing.  Within a task, a draw is kept per fading under its draw
function plus the fields it reads (``seed``, ``L``, ``M``, ``geometry``,
``csit_error_var``) and ``q_top``, the largest served count of the job; a
kernel output under its kernel, that draw key and the q sweep.  Each is
made once, by the first job with the most groups among those that share
the key, and every job takes its first ``num_groups`` groups.  This is
exact because group g of a draw reads only the substreams ``(., loc, fad,
g)`` and every kernel works group by group; the pathloss rows of group g
are likewise the same in every job with the same ``q_top``.  So the
cacheless job reads the cache-aided group 0 wherever both sides have the
same ``q_top`` (common random numbers), and jobs whose ``q_top`` differs
keep their own draws.
The MSV draw is not per group (its multicast channels come from one
substream), so its key holds its group count and it is never sliced.

All randomness flows through keyed substreams of the master seed, and
results are reduced in location order, so the curves are bit-identical for
any worker count.  The ``run_*`` functions are one-job (or, for imperfect
CSI, two-job) wrappers over the same builders.

Substream keys: ``(0, loc)`` user positions, ``(1, loc, fad, group)``
fading, ``(2, loc, fad, group)`` transmitter CSI errors,
``(3, loc, fad, group)`` receiver coupling errors (drawn only when the job
that makes the draw has CSIR variances), ``(4, loc, fad, 0|1)``
baseline-scheme channels.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# UserRateFunction, solve_mmf, bd_mrc_eigenvalues and zf_matrix are on no run
# path; they stay importable here, where bench/spans.py resolves the names it
# traces.
from .allocation import (
    UserRateFunction,
    mmf_massive_mimo_rates,
    mmf_sum_rates,
    solve_mmf,
    zf_mmf_bounds,
)
from .channel import (
    complex_gaussian,
    corrupt_csit,
    csi_overhead,
    dbm_to_watts,
    geometry_preset,
    noise_power_watts,
    sample_user_position,
    substream,
)
from .errors import InvalidConfigurationError, UnsupportedConfigurationError
from .precoding import (
    bd_mrc_eigenvalues,
    bd_mrc_prefix_gains,
    msv_gains_fast,
    msv_rate_from_gains,
    prefix_factor,
    zf_matrix,
    zf_prefix_couplings,
    zf_prefix_gains,
)

__all__ = [
    "Scenario",
    "SchemeCurve",
    "Job",
    "BD_MRC",
    "BD_MRC_ASYM",
    "ZF",
    "ZF_BOUNDS",
    "CSI_PERFECT",
    "CSI_ERROR",
    "cache_aided_job",
    "cacheless_job",
    "msv_job",
    "imperfect_csi_jobs",
    "msv_original",
    "run_vcc_bd_mrc",
    "run_cacheless_bd_mrc",
    "run_vcc_zf",
    "run_msv",
    "run_imperfect_csi",
    "effective_gain",
    "CSV_COLUMNS",
    "rows_for_curve",
    "rows_for_best",
    "format_csv",
]

@dataclass(frozen=True)
class Scenario:
    """Static parameters of one experiment.

    ``users_per_group`` (the served users per cache group) and
    ``baseline_users`` (the cacheless multiplexing gain) may be ``None`` to
    request per-point optimization.  ``geometry`` of ``None`` means
    statistically symmetric users with unit pathloss, in which case
    ``noise_power`` should usually be 1 so the sweep reads as transmit SNR.
    """

    name: str = "custom"
    geometry: str | None = "macro"
    num_tx_antennas: int = 64
    num_states: int = 5
    cache_fraction: Fraction = Fraction(4, 5)
    antennas_per_user: int = 4
    users_per_group: int | None = 4
    baseline_users: int | None = None
    ptot_dbm: tuple[float, ...] = (30.0, 34.0, 38.0, 42.0, 46.0, 50.0)
    coherence_symbols: int = 15000
    pilot_symbols: int = 10
    noise_power: float = noise_power_watts()
    csit_error_var: float = 0.0
    csir_error_vars: tuple[float, ...] = ()
    n_locations: int = 1000
    n_fadings: int = 20
    seed: int = 0
    users_per_state: int | None = None
    # The power sweep in watts and as SNR, set once from the fields above.
    p_watts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    snr_db: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_states < 1:
            raise InvalidConfigurationError(f"num_states {self.num_states} is below 1")
        if self.users_per_state is not None and self.users_per_state < 1:
            raise InvalidConfigurationError(
                f"users_per_state {self.users_per_state} is below 1"
            )
        gain = self.num_states * Fraction(self.cache_fraction)
        if gain.denominator != 1:
            raise InvalidConfigurationError(
                f"num_states * cache_fraction = {gain} is not an integer"
            )
        if not 0 <= Fraction(self.cache_fraction) <= 1:
            raise InvalidConfigurationError("cache_fraction outside [0, 1]")
        if not self.ptot_dbm:
            raise InvalidConfigurationError("power sweep must be nonempty")
        if self.antennas_per_user < 1 or self.num_tx_antennas < self.antennas_per_user:
            raise InvalidConfigurationError(
                "need 1 <= antennas_per_user <= num_tx_antennas"
            )
        if self.n_locations < 1 or self.n_fadings < 1:
            raise InvalidConfigurationError("realization counts must be positive")
        if self.seed < 0:
            raise InvalidConfigurationError(f"seed {self.seed} is negative")
        # The cacheless counterpart has the same cap.
        cap = self.max_group_users()
        for key, count in (
            ("users_per_group", self.users_per_group), ("baseline_users", self.baseline_users)
        ):
            if count is not None and not 1 <= count <= cap:
                raise InvalidConfigurationError(f"{key} {count} outside 1..{cap}")
        if not 0 < self.noise_power < math.inf:
            raise InvalidConfigurationError(
                f"noise_power {self.noise_power} is not positive and finite"
            )
        self._set_power_sweep()
        if self.coherence_symbols < 1 or self.pilot_symbols < 0:
            raise InvalidConfigurationError(
                "need coherence_symbols >= 1 and pilot_symbols >= 0"
            )
        # The pilots of the largest served set, cache-aided and cacheless
        # (one group, as in cacheless_counterpart, which is not built here
        # because its own check would build its counterpart again), must fit
        # the coherence block before any sampling starts.
        for num_groups, fixed in (
            (self.coded_gain, self.users_per_group), (1, self.baseline_users)
        ):
            self.overhead_factor(num_groups, max(self.group_user_counts(fixed)))
        # A variance of 1 (the channel's) leaves a zero channel estimate.
        if not 0 <= self.csit_error_var < 1:
            raise InvalidConfigurationError(
                f"csit_error_var {self.csit_error_var} outside [0, 1)"
            )
        for var in self.csir_error_vars:
            if not 0 <= var < math.inf:
                raise InvalidConfigurationError(
                    f"csir_error_vars entry {var} is negative or not finite"
                )
        if self.geometry is not None:
            try:
                geometry_preset(self.geometry)
            except ValueError as exc:
                raise InvalidConfigurationError(str(exc)) from exc

    @property
    def coded_gain(self) -> int:
        return int(self.num_states * Fraction(self.cache_fraction)) + 1

    @property
    def cached_load(self) -> int:
        return self.coded_gain - 1

    def _set_power_sweep(self) -> None:
        """Set ``p_watts`` and ``snr_db``, rejecting any power that is not
        positive and finite in watts or gives no finite SNR."""
        watts, snr = [], []
        for p in self.ptot_dbm:
            try:
                w = dbm_to_watts(p)
            except OverflowError:
                w = math.inf
            if not 0 < w < math.inf:
                raise InvalidConfigurationError(
                    f"ptot_dbm entry {p} is not a positive finite power in watts"
                )
            if not 0 < w / self.noise_power < math.inf:
                raise InvalidConfigurationError(
                    f"ptot_dbm entry {p} over noise_power {self.noise_power} "
                    "gives no finite SNR"
                )
            watts.append(w)
            snr.append(10.0 * math.log10(w / self.noise_power))
        object.__setattr__(self, "p_watts", tuple(watts))
        object.__setattr__(self, "snr_db", tuple(snr))

    def max_group_users(self) -> int:
        """Per-group multiplexing cap: the whole-group antenna budget this
        simulator enforces, and the users available per state."""
        cap = self.num_tx_antennas // self.antennas_per_user
        # Null-space feasibility (ceil(L / M) users) never binds below this budget.
        return cap if self.users_per_state is None else min(cap, self.users_per_state)

    def group_user_counts(self, fixed: int | None) -> tuple[int, ...]:
        """Candidate served-user counts: the fixed value or the full sweep."""
        if fixed is not None:
            return (fixed,)
        return tuple(range(1, self.max_group_users() + 1))

    def cacheless_counterpart(self) -> "Scenario":
        """Same physical setup with a single group and no cache."""
        return dataclasses.replace(
            self,
            name=f"{self.name}-cacheless",
            num_states=1,
            cache_fraction=Fraction(0),
            users_per_group=self.baseline_users,
        )

    def overhead_factor(self, num_groups: int, q: int) -> float:
        return csi_overhead(
            self.coherence_symbols,
            self.pilot_symbols,
            num_groups * q * self.antennas_per_user,
        ).overhead_factor


@dataclass(frozen=True)
class SchemeCurve:
    """Per-point statistics of one scheme over the power sweep."""

    scheme: str
    ptot_dbm: tuple[float, ...]
    q_values: tuple[int, ...]
    mean: np.ndarray    # (n_q, n_p) nats/s/Hz
    stderr: np.ndarray  # (n_q, n_p)

    def best(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per power point: argmax-q (smallest on ties), its mean and stderr."""
        idx = np.argmax(self.mean, axis=0)
        qs = np.array([self.q_values[i] for i in idx])
        cols = np.arange(self.mean.shape[1])
        return qs, self.mean[idx, cols], self.stderr[idx, cols]

    def single(self) -> tuple[int, np.ndarray, np.ndarray]:
        if len(self.q_values) != 1:
            raise ValueError(f"curve {self.scheme} holds a q sweep, not one row")
        return self.q_values[0], self.mean[0], self.stderr[0]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _parallel_map(fn, args_list, workers: int) -> list:
    workers = min(workers, _usable_cpus(), len(args_list))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(args_list) // (workers * 4))
            return list(pool.map(fn, args_list, chunksize=chunk))
    return [fn(a) for a in args_list]


def _location_betas(scenario: Scenario, num_groups: int, q_top: int, loc: int) -> np.ndarray:
    if scenario.geometry is None:
        return np.ones((num_groups, q_top))
    geom = geometry_preset(scenario.geometry)
    rng = substream(scenario.seed, 0, loc)
    draws = [
        sample_user_position(geom, rng).beta for _ in range(num_groups * q_top)
    ]
    return np.asarray(draws).reshape(num_groups, q_top)


def _unit_channels(scenario: Scenario, num_groups: int, q_top: int, loc: int, fad: int):
    l, m = scenario.num_tx_antennas, scenario.antennas_per_user
    return [
        complex_gaussian(substream(scenario.seed, 1, loc, fad, gi), (l, q_top * m))
        for gi in range(num_groups)
    ]


def _curve_from_means(
    scheme: str, scenario: Scenario, q_values, loc_means: np.ndarray
) -> SchemeCurve:
    """Reduce per-location mean rates ``(n_loc, n_q, n_p)``, in location
    order, to a curve."""
    mean = loc_means.mean(axis=0)
    n_loc = loc_means.shape[0]
    if n_loc > 1:
        stderr = loc_means.std(axis=0, ddof=1) / math.sqrt(n_loc)
    else:
        stderr = np.full_like(mean, np.nan)
    return SchemeCurve(scheme, scenario.ptot_dbm, tuple(q_values), mean, stderr)


# ---------------------------------------------------------------------------
# Schemes: a channel draw, a gain kernel and a rate rule
# ---------------------------------------------------------------------------

class _Rule(NamedTuple):
    """A scheme: a channel draw and a gain kernel (both ``None`` for
    fading-free curves) and a rate rule; see :func:`_location_task` for
    their signatures."""

    draw: object
    kernel: object
    rates: object


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _overhead_factors(scenario: Scenario, num_groups: int, q_values) -> np.ndarray:
    """Each q's pilot overhead factor, built once per process."""
    return _read_only(np.array([scenario.overhead_factor(num_groups, q) for q in q_values]))


# Kernels and solvers are looked up as module globals at call time, so a
# tracer (bench/spans.py) can wrap them.
def _group_factor(scenario: Scenario, num_groups: int, q_top: int, loc: int, fad: int, betas):
    """Groups stacked ``(G, L, q_top*m)``, user k's columns scaled by
    ``sqrt(beta_k)``, with their prefix factor: the draw of BD-MRC and ZF."""
    scale = np.repeat(np.sqrt(betas), scenario.antennas_per_user, axis=1)
    units = _unit_channels(scenario, num_groups, q_top, loc, fad)
    return prefix_factor(np.stack(units) * scale[:, None, :])


def _bd_kernel(scenario: Scenario, q_values, factor):
    return bd_mrc_prefix_gains(factor, scenario.antennas_per_user, q_values)


def _zf_kernel(scenario: Scenario, q_values, factor):
    """ZF prefix gains per user, descending, with every stream counted."""
    m = scenario.antennas_per_user
    gains = zf_prefix_gains(factor, [q * m for q in q_values])
    gains = np.sort(gains.reshape(*gains.shape[:2], -1, m), axis=-1)[..., ::-1]
    return gains, np.full(gains.shape[:-1], m)


def _mmf_rates(scenario: Scenario, num_groups: int, q_values, gains_counts, _):
    """Max-min-fair sum rate over every served user of every group, per q,
    from prefix gains ``(G, S, q_top, m)`` and counts ``(G, S, q_top)``.

    One batched solve: each q is one problem, with its own overhead factor,
    over the first q users of every group."""
    qs = np.asarray(q_values)
    gains, counts = (a.swapaxes(0, 1) for a in gains_counts)
    served = np.broadcast_to(np.arange(counts.shape[-1]) < qs[:, None, None], counts.shape)
    return mmf_sum_rates(
        gains[served], counts[served], num_groups * qs,
        _overhead_factors(scenario, num_groups, q_values),
        scenario.noise_power, np.asarray(scenario.p_watts),
    )[None]


def _analytic_args(scenario: Scenario, num_groups: int, q: int, betas):
    """Arguments of the fading-free closed forms, over the power vector."""
    m = scenario.antennas_per_user
    return (
        [list(betas[gi, :q]) for gi in range(num_groups)],
        [[m] * q] * num_groups,
        scenario.num_tx_antennas,
        scenario.overhead_factor(num_groups, q),
        scenario.noise_power,
        np.asarray(scenario.p_watts),
    )


def _asym_rates(scenario: Scenario, num_groups: int, q_values, _, betas):
    return np.array([[
        mmf_massive_mimo_rates(*_analytic_args(scenario, num_groups, q, betas))
        for q in q_values
    ]])


def _zf_bound_rates(scenario: Scenario, num_groups: int, q_values, _, betas):
    bounds = [zf_mmf_bounds(*_analytic_args(scenario, num_groups, q, betas)) for q in q_values]
    return np.stack(bounds, axis=1)


def _csi_draws(scenario: Scenario, num_groups: int, q_top: int, loc: int, fad: int, _):
    """Stacked over groups: true channels, their transmitter-side estimate
    and, if the scenario has CSIR variances, the receiver-side coupling
    error draws."""
    draws = []
    for gi, h in enumerate(_unit_channels(scenario, num_groups, q_top, loc, fad)):
        rng = substream(scenario.seed, 2, loc, fad, gi)
        h_hat, _ = corrupt_csit(h, scenario.csit_error_var, rng)
        draws.append((h, h_hat))
        if scenario.csir_error_vars:
            draws[-1] += (complex_gaussian(substream(scenario.seed, 3, loc, fad, gi), q_top),)
    return tuple(np.stack(d) for d in zip(*draws))


@functools.lru_cache(maxsize=None)
def _served_pairs(q_values):
    """The served ``(q, user)`` pairs of one group, flattened q by q: each
    pair's ``(streams, user)`` (single-antenna users, so ``q`` streams) and
    q index, and the start of each q's run."""
    qs = np.asarray(q_values)
    starts = np.cumsum(qs) - qs
    q_idx = np.repeat(np.arange(qs.size), qs)
    pairs = np.stack([qs[q_idx], np.arange(q_idx.size) - starts[q_idx]], axis=1)
    return _read_only(pairs), _read_only(q_idx), _read_only(starts)


@functools.lru_cache(maxsize=None)
def _pair_snr(scenario: Scenario, num_groups: int, q_values) -> np.ndarray:
    """Each served pair's SNR per stream over the power vector, ``(T, P)``."""
    pairs, _, _ = _served_pairs(q_values)
    streams = num_groups * pairs[:, 0]
    return _read_only(np.asarray(scenario.p_watts) / (scenario.noise_power * streams[:, None]))


def _csi_sum_rates(scenario: Scenario, num_groups: int, q_values, sinrs):
    """Per-q rates ``(n_curves, S, P)`` from served-pair SINRs
    ``(n_curves, G, T, P)``: summed over groups and each q's pairs, times
    that q's overhead factor."""
    xi = _overhead_factors(scenario, num_groups, q_values)
    per_pair = np.log1p(sinrs).sum(axis=1)
    return xi[:, None] * np.add.reduceat(per_pair, _served_pairs(q_values)[2], axis=1)


def _csi_perfect_kernel(scenario: Scenario, q_values, draws):
    """Perfect-CSI ZF gains at the served pairs, ``(G, T)``."""
    pairs, q_idx, _ = _served_pairs(q_values)
    return (zf_prefix_gains(prefix_factor(draws[0]), q_values)[:, q_idx, pairs[:, 1]],)


def _csi_perfect_rates(scenario: Scenario, num_groups: int, q_values, gains, _):
    """Equal-power ZF rates under perfect CSI, for every q.  The couplings
    are then ``diag(sqrt(g))``, so each stream's SINR is ``snr * g``."""
    snr = _pair_snr(scenario, num_groups, q_values)
    return _csi_sum_rates(scenario, num_groups, q_values, (snr * gains[0][..., None])[None])


def _csi_error_kernel(scenario: Scenario, q_values, draws):
    """At the served pairs, ``(G, T)`` each: each user's coupling with its
    own stream, its received power (the row sum of ``|coupling|**2`` over
    its prefix's streams) and, if drawn, its coupling error draw."""
    h, h_hat, *w = draws
    pairs, _, _ = _served_pairs(q_values)
    users = pairs[:, 1]
    _, rows = zf_prefix_couplings(h, h_hat, pairs)
    own = rows[:, np.arange(users.size), users]
    received = (rows.real ** 2 + rows.imag ** 2).sum(axis=-1)
    return (own, received, *(e[:, users] for e in w))


def _csi_error_rates(scenario: Scenario, num_groups: int, q_values, kernel_out, _):
    """Equal-power ZF rates under CSIT error, then under CSIT error plus each
    CSIR error variance, for every q.  Inter-group residuals enter through
    their average power only."""
    own, received, *w = kernel_out
    pairs, _, _ = _served_pairs(q_values)
    snr = _pair_snr(scenario, num_groups, q_values)
    signal = own.real ** 2 + own.imag ** 2
    interference = received - signal
    sinrs = [snr * signal[..., None] / (1.0 + snr * interference[..., None])]
    others = (num_groups * pairs[:, 0] - 1)[:, None]
    for var in scenario.csir_error_vars:
        # Each receiver's estimate of its own coupling coefficient, and the
        # SINR with numerator and denominator scaled by 1 / (1 + var), so
        # that it stays finite for any finite variance.
        scale = 1.0 + var
        est = own / math.sqrt(scale) - math.sqrt(var / scale) * w[0]
        num = est.real ** 2 + est.imag ** 2 + var / scale
        sinrs.append(snr * num[..., None] / (1.0 / scale + snr * (var / scale) * others))
    return _csi_sum_rates(scenario, num_groups, q_values, np.array(sinrs))


def _msv_draws(scenario: Scenario, num_groups: int, q_top: int, loc: int, fad: int, _):
    l = scenario.num_tx_antennas
    uc_pool = complex_gaussian(substream(scenario.seed, 4, loc, fad, 0), (l - 1, l))
    mc = complex_gaussian(substream(scenario.seed, 4, loc, fad, 1), (num_groups, l))
    return mc, uc_pool


def _msv_kernel(scenario: Scenario, q_values, draws):
    return msv_gains_fast(*draws, q_values)


def _msv_rates(scenario: Scenario, num_groups: int, q_values, gains, _):
    return msv_rate_from_gains(
        *gains, q_values, scenario.p_watts, scenario.noise_power, num_groups,
        scenario.cached_load, scenario.coherence_symbols, scenario.pilot_symbols,
    )[None]


BD_MRC = _Rule(_group_factor, _bd_kernel, _mmf_rates)
ZF = _Rule(_group_factor, _zf_kernel, _mmf_rates)
BD_MRC_ASYM = _Rule(None, None, _asym_rates)
ZF_BOUNDS = _Rule(None, None, _zf_bound_rates)
CSI_PERFECT = _Rule(_csi_draws, _csi_perfect_kernel, _csi_perfect_rates)
CSI_ERROR = _Rule(_csi_draws, _csi_error_kernel, _csi_error_rates)
_MSV = _Rule(_msv_draws, _msv_kernel, _msv_rates)
# Draws whose group g reads only the substreams (., loc, fad, g), so that a
# job with fewer groups can take the first groups of another job's draw.
_PER_GROUP_DRAWS = frozenset({_group_factor, _csi_draws})


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class Job(NamedTuple):
    """One side of a comparison: ``num_groups`` groups of ``scenario``
    serving each count in ``q_values``, and the rules run on it, each paired
    with the names of the curves it writes."""

    scenario: Scenario
    num_groups: int
    q_values: tuple[int, ...]
    rules: tuple[tuple[_Rule, tuple[str, ...]], ...]


def cache_aided_job(scenario: Scenario, *rules) -> Job:
    """The scenario's ``coded_gain`` groups, serving ``users_per_group``
    users each, or every feasible count if that is ``None``."""
    return Job(
        scenario, scenario.coded_gain,
        scenario.group_user_counts(scenario.users_per_group), rules,
    )


def cacheless_job(scenario: Scenario, *rules) -> Job:
    """The cacheless MU-MIMO baseline: one group of the same physical setup,
    serving ``baseline_users`` users, or every feasible count."""
    return cache_aided_job(scenario.cacheless_counterpart(), *rules)


def msv_job(scenario: Scenario) -> Job:
    """The multi-server baseline over every unicast stream count
    ``1 .. L-1``, as the curve ``msv_modified``.

    The modified variant sweeps the unicast stream count for a better
    multiplexing/beamforming balance; :func:`msv_original` takes the
    original scheme, which always runs all ``L - 1`` streams, off the sweep.
    """
    if scenario.antennas_per_user != 1 or scenario.geometry is not None:
        raise UnsupportedConfigurationError(
            "multi-server baseline needs single-antenna users with unit pathloss"
        )
    l = scenario.num_tx_antennas
    if l < 2:
        raise InvalidConfigurationError(
            f"L (num_tx_antennas) {l} is below 2: the multi-server baseline needs "
            "a unicast stream"
        )
    # All l - 1 unicast streams, the common one and the cached load need pilots.
    csi_overhead(scenario.coherence_symbols, scenario.pilot_symbols, l + scenario.cached_load)
    return Job(scenario, scenario.coded_gain, tuple(range(1, l)), ((_MSV, ("msv_modified",)),))


def msv_original(modified: SchemeCurve) -> SchemeCurve:
    """The original multi-server scheme: the full-count row of the sweep."""
    return SchemeCurve(
        "msv", modified.ptot_dbm, modified.q_values[-1:], modified.mean[-1:],
        modified.stderr[-1:],
    )


def imperfect_csi_jobs(scenario: Scenario, *rules: _Rule) -> list[Job]:
    """Equal-power ZF rates under perfect or estimated CSI, cache-aided and
    cacheless, for the listed CSI rules.

    :data:`CSI_PERFECT` writes ``{side}_perfect``.  :data:`CSI_ERROR` writes
    ``{side}_csit``, under transmitter-side estimation error, and, on the
    cache-aided side, ``{side}_csit_csir{var:g}`` for each variance in
    ``csir_error_vars``, with receiver-side coupling error as well.  Both
    rules share one draw per fading; any other rule is a ``KeyError``.  The
    cache-aided job comes first, so that it makes the draw both sides share
    (with its coupling errors), and the cacheless job reads its group 0.
    """
    if scenario.antennas_per_user != 1 or scenario.geometry is not None:
        raise UnsupportedConfigurationError(
            "imperfect-CSI study needs single-antenna users with unit pathloss"
        )
    # Residual-coupling errors model imperfect cache-aided cancellation,
    # which the cacheless baseline does not perform.
    cacheless = dataclasses.replace(scenario, csir_error_vars=())
    jobs = []
    for prefix, side, build in (
        ("vcc_zf", scenario, cache_aided_job), ("cacheless_zf", cacheless, cacheless_job)
    ):
        names = {
            CSI_PERFECT: (f"{prefix}_perfect",),
            CSI_ERROR: (f"{prefix}_csit",
                        *(f"{prefix}_csit_csir{var:g}" for var in side.csir_error_vars)),
        }
        jobs.append(build(side, *((rule, names[rule]) for rule in rules)))
    return jobs


# ---------------------------------------------------------------------------
# The location loop and its reduction
# ---------------------------------------------------------------------------

def _draw_key(job: Job, draw):
    """What a draw reads besides the location, fading and group count; a
    draw that is not per group is keyed with its group count as well."""
    s = job.scenario
    key = (draw, s.seed, s.num_tx_antennas, s.antennas_per_user, s.geometry,
           s.csit_error_var, max(job.q_values))
    return key if draw in _PER_GROUP_DRAWS else key + (job.num_groups,)


def _first_groups(arrays: tuple, made: int, num_groups: int) -> tuple:
    """The first ``num_groups`` groups (axis 0) of arrays made for ``made``."""
    return arrays if made == num_groups else tuple(a[:num_groups] for a in arrays)


def _location_task(args) -> list[list[np.ndarray]]:
    """Every rule of every job at one location, reduced over its fadings.

    ``rule.draw(scenario, num_groups, q_top, loc, fad, betas)`` draws one
    fading's channels at the largest ``q``, and ``rule.kernel(scenario,
    q_values, draw)`` returns a tuple of per-group arrays, groups on axis 0.
    Both are shared by key (:func:`_draw_key`; a kernel output under its
    kernel, the draw key and ``q_values``), made by the first job with the
    most groups among those that share the key, a kernel on the whole draw;
    each job takes its first ``num_groups`` groups.  ``betas`` are a job's
    own pathloss rows.  ``rule.rates(scenario, num_groups, q_values,
    kernel_out, betas)`` returns the rates of every curve over the q sweep
    and the power vector, shape ``(n_curves, n_q, n_p)``; fading-free rules
    have no draw or kernel, get ``None`` and run once, before the fadings.
    All are module-level functions so that tasks pickle.  Every job has the
    same fading count (:func:`_simulate` checks it).  Returns, per job and
    rule, this location's mean rates over its fadings, shape ``(n_curves,
    n_q, n_p)``.
    """
    jobs, loc = args
    n_fadings = jobs[0].scenario.n_fadings
    betas = [_location_betas(job.scenario, job.num_groups, max(job.q_values), loc) for job in jobs]
    makers = {}  # draw key -> index of the first job with the most groups that reads it
    out = [[None] * len(job.rules) for job in jobs]
    samples = {}  # (job, rule) index -> per-fading rates (n_curves, n_fad, n_q, n_p)
    for ji, job in enumerate(jobs):
        for ri, (rule, names) in enumerate(job.rules):
            if not rule.draw:
                out[ji][ri] = rule.rates(job.scenario, job.num_groups, job.q_values, None, betas[ji])
                continue
            key = _draw_key(job, rule.draw)
            if key not in makers or job.num_groups > jobs[makers[key]].num_groups:
                makers[key] = ji
            samples[ji, ri] = np.empty(
                (len(names), n_fadings, len(job.q_values), len(job.scenario.p_watts))
            )
    for fad in range(n_fadings):
        draws, kernels = {}, {}
        for (ji, ri), rates in samples.items():
            job, rule = jobs[ji], jobs[ji].rules[ri][0]
            key = _draw_key(job, rule.draw)
            maker = jobs[makers[key]]
            if key not in draws:
                draws[key] = rule.draw(
                    maker.scenario, maker.num_groups, max(maker.q_values), loc, fad,
                    betas[makers[key]],
                )
            kernel_key = (rule.kernel, key, job.q_values)
            if kernel_key not in kernels:
                kernels[kernel_key] = rule.kernel(maker.scenario, job.q_values, draws[key])
            kernel_out = _first_groups(kernels[kernel_key], maker.num_groups, job.num_groups)
            rates[:, fad] = rule.rates(
                job.scenario, job.num_groups, job.q_values, kernel_out, betas[ji]
            )
    for (ji, ri), rates in samples.items():
        out[ji][ri] = rates.mean(axis=1)
    return out


def _simulate(jobs, workers: int) -> dict[str, SchemeCurve]:
    """Run every job at every location, one pool task per location; reduce
    the per-location means in location order.

    Returns every job's curves by name; no two rules may write one name,
    and every job must have the same location and fading counts."""
    names = [name for job in jobs for _, rule_names in job.rules for name in rule_names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"curve names written more than once: {repeated}")
    counts = {(job.scenario.n_locations, job.scenario.n_fadings) for job in jobs}
    if len(counts) != 1:
        raise ValueError(
            f"jobs differ in their (location, fading) counts: {sorted(counts)}"
        )
    tasks = [(jobs, loc) for loc in range(counts.pop()[0])]
    per_loc = _parallel_map(_location_task, tasks, workers)
    curves = {}
    for ji, (scenario, _, q_values, rules) in enumerate(jobs):
        for ri, (_, names) in enumerate(rules):
            for ci, name in enumerate(names):
                loc_means = np.stack([r[ji][ri][ci] for r in per_loc])
                curves[name] = _curve_from_means(name, scenario, q_values, loc_means)
    return curves


# ---------------------------------------------------------------------------
# One-job runners
# ---------------------------------------------------------------------------

def run_vcc_bd_mrc(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Simulated BD-MRC effective sum-rate under max-min-fair allocation.

    With ``users_per_group=None`` all feasible per-group user counts are
    evaluated on common random numbers.
    """
    return _simulate([cache_aided_job(scenario, (BD_MRC, ("vcc_bd_mrc",)))], workers)


def run_cacheless_bd_mrc(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Cacheless MU-MIMO baseline: the same pipeline with a single group."""
    return _simulate([cacheless_job(scenario, (BD_MRC, ("cacheless_bd_mrc",)))], workers)


def run_vcc_zf(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Simulated ZF max-min rate plus its fading-averaged analytic bounds."""
    job = cache_aided_job(
        scenario, (ZF, ("vcc_zf",)), (ZF_BOUNDS, ("vcc_zf_lower", "vcc_zf_upper"))
    )
    return _simulate([job], workers)


def run_msv(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Original and stream-count-swept multi-server baseline rates."""
    modified = _simulate([msv_job(scenario)], workers)["msv_modified"]
    return {"msv": msv_original(modified), "msv_modified": modified}


def run_imperfect_csi(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Every curve of :func:`imperfect_csi_jobs`: both CSI rules."""
    return _simulate(imperfect_csi_jobs(scenario, CSI_PERFECT, CSI_ERROR), workers)


# ---------------------------------------------------------------------------
# Effective gains
# ---------------------------------------------------------------------------

def effective_gain(
    numerator: SchemeCurve, denominator: SchemeCurve, mode: str = "fixed"
) -> np.ndarray:
    """Ratio of mean rates per power point.

    ``optimized`` mode takes the best served-user count on each side first,
    i.e. the ratio of maxima rather than the maximum of ratios.
    """
    if numerator.ptot_dbm != denominator.ptot_dbm:
        raise InvalidConfigurationError("power grids differ between the two reports")
    if mode == "fixed":
        num = numerator.single()[1]
        den = denominator.single()[1]
    elif mode == "optimized":
        num = numerator.best()[1]
        den = denominator.best()[1]
    else:
        raise ValueError("mode must be 'fixed' or 'optimized'")
    return num / den


# ---------------------------------------------------------------------------
# CSV assembly
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "scheme",
    "ptot_dbm",
    "snr_db",
    "q",
    "mean_rate_nats",
    "mean_rate_bits",
    "stderr",
    "gain",
    "gain_optimized",
    "n_locations",
    "n_fadings",
    "seed",
)


def _row(scenario, scheme, p_idx, q, mean, stderr, gain=None, gain_opt=None):
    return {
        "scheme": scheme,
        "ptot_dbm": scenario.ptot_dbm[p_idx],
        "snr_db": scenario.snr_db[p_idx],
        "q": q,
        "mean_rate_nats": mean,
        "mean_rate_bits": mean / math.log(2),
        "stderr": stderr,
        "gain": gain,
        "gain_optimized": gain_opt,
        "n_locations": scenario.n_locations,
        "n_fadings": scenario.n_fadings,
        "seed": scenario.seed,
    }


def rows_for_curve(curve: SchemeCurve, scenario: Scenario, gain=None):
    """One CSV row per (q, power point); ``gain`` attaches to single-q curves."""
    rows = []
    for qi, q in enumerate(curve.q_values):
        for pi in range(len(curve.ptot_dbm)):
            g = None
            if gain is not None and len(curve.q_values) == 1:
                g = float(gain[pi])
            rows.append(
                _row(
                    scenario, curve.scheme, pi, q,
                    float(curve.mean[qi, pi]), float(curve.stderr[qi, pi]), gain=g,
                )
            )
    return rows


def rows_for_best(curve: SchemeCurve, scenario: Scenario, gain_opt=None):
    """Per power point, the best-q row of an optimized scheme."""
    qs, means, errs = curve.best()
    rows = []
    for pi in range(len(curve.ptot_dbm)):
        rows.append(
            _row(
                scenario, f"{curve.scheme}_opt", pi, int(qs[pi]),
                float(means[pi]), float(errs[pi]),
                gain_opt=None if gain_opt is None else float(gain_opt[pi]),
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def format_csv(rows, header: dict | None = None) -> str:
    """Render rows (dicts keyed by :data:`CSV_COLUMNS`) as CSV text.

    ``header`` entries are echoed as ``# key=value`` comment lines so a run
    is reproducible from its own output.
    """
    lines = []
    for key, value in (header or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
