"""Monte Carlo harness for effective sum-rates and effective gains.

A scenario fixes the cell, antenna and caching parameters plus the power
sweep.  A :class:`Job` is one side of a comparison (the cache-aided groups
or the cacheless single group) with the schemes, or rules, run on it.  A
recipe hands all of its jobs to one :func:`_simulate` call, which runs
every location of every job in one pool through one location loop
(:func:`_location_task`).  Per location it does the same four steps:

1. draw: the location's pathloss row once, then, per fading, one draw per
   draw function of the job's rules, at the largest served-user count
   ``q``.  BD-MRC and ZF use the same draw, the groups' channels with their
   prefix factor (:func:`~vccsim.precoding.prefix_factor`), so each
   (fading, group) channel is drawn and factored once per job;
2. kernel: the stream gains of every ``q``-user prefix of those draws at
   once.  For BD-MRC and ZF this is one nested-prefix Gram kernel over
   every group, one factorization per (group, fading) whatever the q sweep
   (:func:`~vccsim.precoding.bd_mrc_prefix_gains`,
   :func:`~vccsim.precoding.zf_prefix_gains`,
   :func:`~vccsim.precoding.zf_prefix_couplings`).  MSV runs the same
   kernel on one multicast/unicast draw for every unicast count
   (:func:`~vccsim.precoding.msv_gains_fast`);
3. rule: the rates of every curve the scheme owns over the q sweep and the
   power vector.  Max-min-fair rates come from one rate-only root solve per
   q over the pooled users of every group
   (:func:`~vccsim.allocation.mmf_sum_rates`; the pilot overhead depends on
   q); the equal-power ZF rates under CSI errors and the MSV rates
   (:func:`~vccsim.precoding.msv_rate_from_gains`) are array expressions
   over (q, power); the fading-free curves loop over q inside their rule;
4. reduce: per-location means over fadings, then the mean and standard
   error over locations.

A scheme is a :class:`_Rule`: a channel draw plus a rate rule that applies
its gain kernel.  Fading-free analytic curves have no draw and a fading
axis of length 1.  All randomness flows through keyed substreams of the
master seed, and results are reduced in location order, so the curves are
bit-identical for any worker count.  The ``run_*`` functions are one-job
(or, for imperfect CSI, two-job) wrappers over the same builders.

Substream keys: ``(0, loc)`` user positions, ``(1, loc, fad, group)``
fading, ``(2, loc, fad, group)`` transmitter CSI errors,
``(3, loc, fad, group)`` receiver coupling errors, ``(4, loc, fad, 0|1)``
baseline-scheme channels.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
from .caching import q_max_uniform
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
        for p in self.ptot_dbm:
            if not math.isfinite(p):
                raise InvalidConfigurationError(f"ptot_dbm entry {p} is not finite")
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
        for field, count in (
            ("users_per_group", self.users_per_group), ("baseline_users", self.baseline_users)
        ):
            if count is not None and not 1 <= count <= cap:
                raise InvalidConfigurationError(f"{field} {count} outside 1..{cap}")
        if not 0 < self.noise_power < math.inf:
            raise InvalidConfigurationError(
                f"noise_power {self.noise_power} is not positive and finite"
            )
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

    @property
    def p_watts(self) -> tuple[float, ...]:
        return tuple(dbm_to_watts(p) for p in self.ptot_dbm)

    @property
    def snr_db(self) -> tuple[float, ...]:
        return tuple(
            10.0 * math.log10(p / self.noise_power) for p in self.p_watts
        )

    def max_group_users(self) -> int:
        """Per-group multiplexing cap: null-space feasibility plus the
        whole-group antenna budget this simulator enforces."""
        l, m = self.num_tx_antennas, self.antennas_per_user
        b = self.users_per_state if self.users_per_state is not None else (m + l - 1) // m
        return max(1, min(q_max_uniform(l, m, b), l // m))

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


def _curve_from_draws(
    scheme: str, scenario: Scenario, q_values, samples: np.ndarray
) -> SchemeCurve:
    """Reduce draw-level rates ``(n_loc, n_fad, n_q, n_p)`` to a curve."""
    loc_means = samples.mean(axis=1)
    mean = loc_means.mean(axis=0)
    n_loc = samples.shape[0]
    if n_loc > 1:
        stderr = loc_means.std(axis=0, ddof=1) / math.sqrt(n_loc)
    else:
        stderr = np.full_like(mean, np.nan)
    return SchemeCurve(scheme, scenario.ptot_dbm, tuple(q_values), mean, stderr)


# ---------------------------------------------------------------------------
# Schemes: a channel draw plus a rate rule that applies the gain kernel
# ---------------------------------------------------------------------------

class _Rule(NamedTuple):
    """A scheme: a channel draw (``None`` for fading-free curves) and a rate
    rule; see :func:`_location_task` for their signatures."""

    draw: object
    rates: object


# Kernels and solvers are looked up as module globals at call time, so a
# tracer (bench/spans.py) can wrap them.
def _group_factor(scenario: Scenario, num_groups: int, q_top: int, loc: int, fad: int, betas):
    """Groups stacked ``(G, L, q_top*m)``, user k's columns scaled by
    ``sqrt(beta_k)``, with their prefix factor: the draw of BD-MRC and ZF."""
    scale = np.repeat(np.sqrt(betas), scenario.antennas_per_user, axis=1)
    units = _unit_channels(scenario, num_groups, q_top, loc, fad)
    return prefix_factor(np.stack(units) * scale[:, None, :])


def _mmf_sweep(scenario: Scenario, num_groups: int, q_values, gains, counts):
    """Max-min-fair sum rate over every served user of every group, per q,
    from prefix gains ``(G, S, q_top, m)`` and counts ``(G, S, q_top)``;
    the overhead factor depends on q, so each q is one solve."""
    m = scenario.antennas_per_user
    return np.array([[
        mmf_sum_rates(
            gains[:, qi, :q].reshape(-1, m), counts[:, qi, :q].ravel(),
            scenario.overhead_factor(num_groups, q),
            scenario.noise_power, np.asarray(scenario.p_watts),
        )
        for qi, q in enumerate(q_values)
    ]])


def _bd_rates(scenario: Scenario, num_groups: int, q_values, factor, _):
    gains, counts = bd_mrc_prefix_gains(factor, scenario.antennas_per_user, q_values)
    return _mmf_sweep(scenario, num_groups, q_values, gains, counts)


def _zf_rates(scenario: Scenario, num_groups: int, q_values, factor, _):
    m = scenario.antennas_per_user
    gains = zf_prefix_gains(factor, [q * m for q in q_values])
    gains = np.sort(gains.reshape(*gains.shape[:2], -1, m), axis=-1)[..., ::-1]
    return _mmf_sweep(scenario, num_groups, q_values, gains, np.full(gains.shape[:-1], m))


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
    and the receiver-side coupling error draws."""
    draws = []
    for gi, h in enumerate(_unit_channels(scenario, num_groups, q_top, loc, fad)):
        rng = substream(scenario.seed, 2, loc, fad, gi)
        h_hat, _ = corrupt_csit(h, scenario.csit_error_var, rng)
        w = complex_gaussian(substream(scenario.seed, 3, loc, fad, gi), q_top)
        draws.append((h, h_hat, w))
    return tuple(np.stack(d) for d in zip(*draws))


def _csi_rates(scenario: Scenario, num_groups: int, q_values, draws, _):
    """Equal-power ZF rates: perfect CSI, CSIT error, then CSIT plus each
    CSIR error variance, for every q.  Inter-group residuals enter through
    their average power only."""
    h, h_hat, w = draws
    qs = np.asarray(q_values)
    served = num_groups * qs[:, None, None]  # streams per q: (S, 1, 1)
    per_stream = np.asarray(scenario.p_watts)[:, None] / served  # (S, P, 1)
    n0 = scenario.noise_power
    # Users at or past q are not served: their entries are masked out.
    inside = np.arange(h.shape[-1]) < qs[:, None, None]

    def rate(num, den):  # SINR num / den of shape (G, S, P, N) -> (S, P)
        sinr = np.divide(num, den, out=np.zeros(np.broadcast_shapes(num.shape, den.shape)),
                         where=inside)
        return np.log1p(sinr).sum(axis=(0, -1))

    rates = []
    for est in (h, h_hat):
        # Precoders from the true channels (perfect CSI) and from the estimate.
        _, coupling = zf_prefix_couplings(h, est, qs)  # (G, S, N, N)
        cross = np.abs(coupling) ** 2
        received = per_stream * cross.sum(axis=-1)[:, :, None, :]
        signal = per_stream * np.diagonal(cross, axis1=-2, axis2=-1)[:, :, None, :]
        rates.append(rate(signal, n0 + received - signal))
    own = np.diagonal(coupling, axis1=-2, axis2=-1)[:, :, None, :]
    for var in scenario.csir_error_vars:
        # Each receiver's estimate of its own coupling coefficient.
        est = own - math.sqrt(var) * w[:, None, None, :]
        interference = per_stream * var * (served - 1)
        rates.append(rate(per_stream * (np.abs(est) ** 2 + var), n0 + interference))
    xi = [scenario.overhead_factor(num_groups, q) for q in q_values]
    return np.asarray(xi)[:, None] * np.array(rates)


def _msv_draws(scenario: Scenario, num_groups: int, q_top: int, loc: int, fad: int, _):
    l = scenario.num_tx_antennas
    uc_pool = complex_gaussian(substream(scenario.seed, 4, loc, fad, 0), (l - 1, l))
    mc = complex_gaussian(substream(scenario.seed, 4, loc, fad, 1), (num_groups, l))
    return mc, uc_pool


def _msv_rates(scenario: Scenario, num_groups: int, q_values, draws, _):
    mc_gains, uc_gains = msv_gains_fast(*draws, q_values)
    return msv_rate_from_gains(
        mc_gains, uc_gains, q_values, scenario.p_watts, scenario.noise_power, num_groups,
        scenario.cached_load, scenario.coherence_symbols, scenario.pilot_symbols,
    )[None]


BD_MRC = _Rule(_group_factor, _bd_rates)
ZF = _Rule(_group_factor, _zf_rates)
BD_MRC_ASYM = _Rule(None, _asym_rates)
ZF_BOUNDS = _Rule(None, _zf_bound_rates)
_CSI = _Rule(_csi_draws, _csi_rates)
_MSV = _Rule(_msv_draws, _msv_rates)


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
    # All l - 1 unicast streams, the common one and the cached load need pilots.
    csi_overhead(scenario.coherence_symbols, scenario.pilot_symbols, l + scenario.cached_load)
    return Job(scenario, scenario.coded_gain, tuple(range(1, l)), ((_MSV, ("msv_modified",)),))


def msv_original(modified: SchemeCurve) -> SchemeCurve:
    """The original multi-server scheme: the full-count row of the sweep."""
    return SchemeCurve(
        "msv", modified.ptot_dbm, modified.q_values[-1:], modified.mean[-1:],
        modified.stderr[-1:],
    )


def imperfect_csi_jobs(scenario: Scenario) -> list[Job]:
    """Equal-power ZF rates under perfect and estimated CSI.

    The cache-aided curves and their cacheless counterparts, for perfect
    CSI, transmitter-side estimation error, and (if ``csir_error_vars`` is
    set) additional receiver-side coupling error.
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
        names = [f"{prefix}_perfect", f"{prefix}_csit"]
        names += [f"{prefix}_csit_csir{var:g}" for var in side.csir_error_vars]
        jobs.append(build(side, (_CSI, tuple(names))))
    return jobs


# ---------------------------------------------------------------------------
# The location loop and its reduction
# ---------------------------------------------------------------------------

def _location_task(args) -> list[np.ndarray]:
    """Every rule of one job at one location.

    ``rule.draw(scenario, num_groups, q_top, loc, fad, betas)`` draws one
    fading's channels at the largest ``q``; the rules with the same draw
    function share one draw per fading.  ``rule.rates(scenario, num_groups,
    q_values, draws, betas)`` returns the rates of every curve over the q
    sweep and the power vector, shape ``(n_curves, n_q, n_p)``.  Both are
    module-level functions so that tasks pickle.  Returns, per rule, rates
    of shape ``(n_curves, n_fad, n_q, n_p)``, with ``n_fad`` 1 for
    fading-free rules.
    """
    (scenario, num_groups, q_values, rules), loc = args
    q_top = max(q_values)
    betas = _location_betas(scenario, num_groups, q_top, loc)
    out = [
        np.empty((len(names), scenario.n_fadings if rule.draw else 1,
                  len(q_values), len(scenario.p_watts)))
        for rule, names in rules
    ]
    for fad in range(scenario.n_fadings):
        draws = {None: None}  # fading-free rules run at the first fading only
        for (rule, _), rates in zip(rules, out):
            if fad < rates.shape[1]:
                if rule.draw not in draws:
                    draws[rule.draw] = rule.draw(scenario, num_groups, q_top, loc, fad, betas)
                rates[:, fad] = rule.rates(scenario, num_groups, q_values, draws[rule.draw], betas)
    return out


def _simulate(jobs, workers: int) -> dict[str, SchemeCurve]:
    """Run every location of every job in one pool; reduce in location order.

    Returns every job's curves by name; no two rules may write one name."""
    names = [name for job in jobs for _, rule_names in job.rules for name in rule_names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"curve names written more than once: {repeated}")
    tasks = [(job, loc) for job in jobs for loc in range(job.scenario.n_locations)]
    results = iter(_parallel_map(_location_task, tasks, workers))
    curves = {}
    for scenario, _, q_values, rules in jobs:
        per_loc = [next(results) for _ in range(scenario.n_locations)]
        for ri, (_, names) in enumerate(rules):
            for ci, name in enumerate(names):
                samples = np.stack([r[ri][ci] for r in per_loc])
                curves[name] = _curve_from_draws(name, scenario, q_values, samples)
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
    """The curves of :func:`imperfect_csi_jobs`."""
    return _simulate(imperfect_csi_jobs(scenario), workers)


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
