"""Power allocation: per-user water-filling and max-min-fair solvers.

The max-min problem decouples per user once the per-symbol gains are fixed,
so the optimum is the root of a one-dimensional monotone equation: every
served user runs at the same effective rate, and the sum of the per-user
power costs of that rate exhausts the budget.  Analytic brackets built from
each user's best and worst stream gain confine the root.

There is one root solver, :func:`mmf_sum_rates`, vectorized over the power
sweep.  With one stream per user the bracket collapses to a closed form;
otherwise the budget residual is convex and increasing, and safeguarded
Newton steps from the upper bracket converge monotonically onto the root.
It returns rates only.  :func:`solve_mmf` takes the same root for one
budget and adds the per-user water-filled power allocation.  The
fading-free large-array curves (:func:`mmf_massive_mimo_rates`,
:func:`zf_mmf_bounds`) solve the budget equation of the bracket's
surrogate users, also over the whole power vector.

Rates are nats/s/Hz throughout; conversion to bits happens at reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError

__all__ = [
    "PowerAllocation",
    "UserRateFunction",
    "MmfSolution",
    "waterfill",
    "solve_mmf",
    "mmf_sum_rates",
    "mmf_brackets",
    "mmf_massive_mimo",
    "mmf_massive_mimo_rates",
    "zf_mmf_bounds",
]


def waterfill(
    eigenvalues, budget: float, noise_power: float
) -> tuple[np.ndarray, float]:
    """Split a power budget over parallel streams to maximize the sum rate.

    Returns ``(powers, water_level)`` with powers in the order the gains
    were given.  Active streams satisfy ``power + noise/gain == level``;
    inactive ones have ``noise/gain >= level``.  Equal gains receive equal
    power, and a zero budget yields all-zero powers.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("stream gains must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    order = np.argsort(-lam, kind="stable")
    inv = noise_power / lam[order]
    cum = np.cumsum(inv)
    # Largest active set whose common water level clears its worst stream.
    m = lam.size
    while m > 1:
        level = (budget + cum[m - 1]) / m
        if level >= inv[m - 1]:
            break
        m -= 1
    level = (budget + cum[m - 1]) / m
    powers = np.zeros(lam.size)
    powers[order[:m]] = level - inv[:m]
    return powers, level


@dataclass(frozen=True)
class PowerAllocation:
    """Per-symbol powers for a pooled list of served users."""

    per_symbol: tuple[np.ndarray, ...]

    @property
    def per_user(self) -> np.ndarray:
        return np.array([float(np.sum(p)) for p in self.per_symbol])

    @property
    def total(self) -> float:
        return float(sum(np.sum(p) for p in self.per_symbol))


@dataclass(frozen=True)
class UserRateFunction:
    """Best effective rate of one user as a function of its power budget.

    Built from the user's per-stream gains, the noise power and the CSI
    overhead factor.  The rate applies water-filling internally, so it is
    continuous, strictly increasing and zero at zero power; the inverse is
    evaluated in closed form segment by segment.
    """

    eigenvalues: np.ndarray
    noise_power: float
    overhead_factor: float
    _table: "_StreamTable" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.sort(np.asarray(self.eigenvalues, dtype=float))[::-1]
        if lam.size == 0 or lam[-1] <= 0:
            raise ValueError("need at least one positive stream gain")
        object.__setattr__(self, "eigenvalues", lam)
        table = _StreamTable.build(
            lam[None, :], np.array([lam.size]), self.overhead_factor, self.noise_power
        )
        object.__setattr__(self, "_table", table)

    @property
    def num_streams(self) -> int:
        return self.eigenvalues.size

    def waterfill(self, budget: float) -> tuple[np.ndarray, float]:
        return waterfill(self.eigenvalues, budget, self.noise_power)

    def rate(self, budget: float) -> float:
        """Water-filled effective rate for the given power budget."""
        if budget <= 0:
            return 0.0
        _, level = self.waterfill(budget)
        snr = self.eigenvalues * level / self.noise_power
        return self.overhead_factor * float(np.sum(np.log(np.maximum(snr, 1.0))))

    def inverse(self, rate: float) -> float:
        """Power budget achieving the given effective rate (closed form)."""
        if rate <= 0:
            return 0.0
        return float(self._table.user_budgets(np.array([rate]))[0][0, 0])


@dataclass(frozen=True)
class MmfSolution:
    """Optimal equal-rate operating point under a total power budget."""

    sum_rate: float
    per_user_rate: float
    allocation: PowerAllocation
    bracket: tuple[float, float]


def solve_mmf(rate_functions: list[UserRateFunction], p_tot: float) -> MmfSolution:
    """Max-min-fair sum rate over pooled users, with its power allocation.

    The sum rate is the root of :func:`mmf_sum_rates`; each user's share of
    the budget is then water-filled over its streams.  A nonpositive budget
    returns the all-zero solution.
    """
    n = len(rate_functions)
    if n == 0:
        raise ValueError("need at least one rate function")
    if p_tot <= 0:
        alloc = PowerAllocation(tuple(np.zeros(f.num_streams) for f in rate_functions))
        return MmfSolution(0.0, 0.0, alloc, (0.0, 0.0))
    counts = np.array([f.num_streams for f in rate_functions])
    gains = np.zeros((n, counts.max()))
    for row, f in zip(gains, rate_functions):
        row[: f.num_streams] = f.eigenvalues
    table = _StreamTable.build(
        gains, counts, _shared(rate_functions, "overhead_factor"),
        _shared(rate_functions, "noise_power"),
    )
    r_star, lo, hi = (float(x[0]) for x in _mmf_root(table, np.array([p_tot])))
    budgets, _ = table.user_budgets(np.array([r_star / n]))
    alloc = PowerAllocation(
        tuple(f.waterfill(b)[0] for f, b in zip(rate_functions, budgets[0]))
    )
    return MmfSolution(r_star, r_star / n, alloc, (lo, hi))


def _shared(fns: list[UserRateFunction], attr: str) -> float:
    values = {getattr(f, attr) for f in fns}
    if len(values) != 1:
        raise ValueError(f"pooled users must share the {attr}")
    return values.pop()


def mmf_sum_rates(gains, counts, overhead_factor: float, noise_power: float, p_tot):
    """Max-min-fair effective sum rate at every power point.

    ``gains`` holds each pooled user's stream gains, descending, in a row
    of shape ``(n_users, J)``; entries past the user's stream count in
    ``counts`` are ignored.  Returns one sum rate per entry of ``p_tot``.
    Every user runs at the same effective rate ``R / n`` and the per-user
    water-filled powers of that rate exhaust the budget; nonpositive
    budgets give 0.
    """
    table = _StreamTable.build(
        np.asarray(gains, dtype=float), np.asarray(counts), overhead_factor, noise_power
    )
    return _mmf_root(table, np.asarray(p_tot, dtype=float))[0]


class _StreamTable(NamedTuple):
    """Closed-form inverse rate functions of pooled users, padded per user.

    A user whose water level activates ``m`` streams needs the power
    ``n0 * (m * geo[m-1] * expm1(r / (xi m)) + gap[m-1])`` for the
    effective rate ``r``, where ``geo[m-1]`` is the geometric mean of the
    inverse gains of the first ``m`` streams and ``gap[m-1] = m * geo[m-1]
    - sum(1 / lam[:m])``.  The gap is exactly zero for one stream, so low
    rates lose no precision to ``exp(x) - 1``.  ``breaks[j-1]`` is the rate
    at which stream ``j + 1`` activates, infinite past the user's stream
    count.
    """

    lam: np.ndarray      # (n, J) gains, descending, 1 past the count
    counts: np.ndarray   # (n,)
    geo: np.ndarray      # (n, J)
    gap: np.ndarray      # (n, J)
    breaks: np.ndarray   # (n, J - 1)
    xi: float
    n0: float

    @classmethod
    def build(cls, gains, counts, xi, n0) -> "_StreamTable":
        if not 0 < xi <= 1:
            raise ValueError("overhead_factor must be in (0, 1]")
        valid = np.arange(gains.shape[1]) < counts[:, None]
        lam = np.where(valid, gains, 1.0)
        log_cum = np.cumsum(np.log(lam), axis=1)
        m = np.arange(1, lam.shape[1])
        breaks = xi * (log_cum[:, :-1] - m * np.log(lam[:, 1:]))
        breaks = np.where(valid[:, 1:], breaks, np.inf)
        geo = np.exp(-log_cum / np.arange(1, lam.shape[1] + 1))
        gap = np.arange(1, lam.shape[1] + 1) * geo - np.cumsum(1.0 / lam, axis=1)
        gap[:, 0] = 0.0
        return cls(lam, counts, geo, gap, breaks, xi, n0)

    def user_budgets(self, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-user powers ``(P, n)`` reaching the per-user rates ``(P,)``,
        and their water levels, ``xi`` times the derivative of the power."""
        rate = rate[:, None]
        m = np.sum(self.breaks < rate[..., None], axis=-1) + 1
        rows = np.arange(self.counts.size)
        geo = self.geo[rows, m - 1]
        excess = np.expm1(rate / (self.xi * m))
        power = self.n0 * (m * geo * excess + self.gap[rows, m - 1])
        return power, self.n0 * geo * (excess + 1.0)


_NEWTON_RTOL = 1e-14
_NEWTON_MAX_ITER = 100


def _mmf_root(table: _StreamTable, p_tot: np.ndarray):
    """Max-min-fair sum rates and their brackets ``(rate, lo, hi)`` per power.

    The budget residual ``sum_k inverse_k(R / n) - p_tot`` is convex and
    increasing in ``R``, nonpositive at ``lo`` and nonnegative at ``hi``, so
    Newton steps from ``hi`` decrease monotonically onto the root.  With one
    stream per user the bracket collapses and the root is closed-form.
    """
    n = table.counts.size
    p = np.maximum(p_tot, 0.0)
    rows = np.arange(n)
    lo, hi = mmf_brackets(
        table.lam[rows, table.counts - 1], table.lam[:, 0], table.counts,
        table.xi, table.n0, p,
    )
    if np.all(table.counts == 1):
        return lo, lo, hi

    def residual(r):
        power, level = table.user_budgets(r / n)
        return power.sum(axis=-1) - p, level.sum(axis=-1) / (table.xi * n)

    f, slope = residual(hi)
    f_lo, _ = residual(lo)
    # A residual of the wrong sign at a bracket end (rounding) pins the root there.
    r = np.where(f_lo > 0, lo, hi)
    active = (f_lo <= 0) & (f > 0)
    for _ in range(_NEWTON_MAX_ITER):
        step = np.where(active, f / slope, 0.0)
        r = np.maximum(r - step, lo)
        active &= step > _NEWTON_RTOL * r
        if not active.any():
            return r, lo, hi
        f, slope = residual(r)
    raise ConvergenceError(
        f"max-min-fair root not within rtol {_NEWTON_RTOL} "
        f"after {_NEWTON_MAX_ITER} Newton steps"
    )


def mmf_brackets(
    lambda_mins,
    lambda_maxs,
    stream_counts,
    overhead_factor: float,
    noise_power: float,
    p_tot,
):
    """Analytic lower/upper bounds on the max-min-fair sum rate.

    Replacing every stream gain of a user by its worst (best) one makes the
    per-user rate pessimistic (optimistic); solving the budget equation for
    those surrogate users brackets the true optimum.  With a uniform stream
    count per user both equations invert in closed form.  Broadcasts over
    ``p_tot``; nonpositive budgets give ``(0, 0)``.
    """
    lam_lo = np.asarray(lambda_mins, dtype=float)
    lam_hi = np.asarray(lambda_maxs, dtype=float)
    js = np.asarray(stream_counts, dtype=int)
    p = np.maximum(p_tot, 0.0)
    lo = _bound_root(lam_lo, js, overhead_factor, noise_power, p)
    hi = _bound_root(lam_hi, js, overhead_factor, noise_power, p)
    return lo, np.maximum(hi, lo)


def _bound_root(lam, js, xi, n0, p_tot):
    """Sum rate ``R`` solving ``sum_k js_k n0 / lam_k expm1(R / (xi js_k n))
    == p_tot`` for users whose streams all have gain ``lam_k``, per power."""
    n = lam.size
    if np.all(js == js[0]):
        j = int(js[0])
        return xi * n * j * np.log1p(p_tot / (n0 * j * np.sum(1.0 / lam)))

    def root(p):
        def residual(r):
            return float(
                np.sum(js * n0 / lam * np.expm1(r / (xi * js * n))) - p
            )

        hi = 1.0
        while residual(hi) < 0:
            hi *= 2.0
        return brentq(residual, 0.0, hi, xtol=1e-18, rtol=1e-14)

    return np.vectorize(root, otypes=[float])(p_tot)


def mmf_massive_mimo(
    betas_by_group,
    counts_by_group,
    num_tx_antennas: int,
    overhead_factor: float,
    noise_power: float,
    p_tot: float,
):
    """Large-antenna limit of the max-min-fair sum rate and its powers.

    In the large-array regime every stream gain of user ``k`` concentrates
    at ``beta_k * (L - M_group + M_k)``, so equal power over a user's
    streams is optimal and the budget equation becomes explicit.  Returns
    ``(sum_rate, per_symbol_powers_by_group)``; the uniform-antenna case is
    evaluated in closed form.
    """
    factors, ms = _surrogate_users(betas_by_group, counts_by_group, num_tx_antennas, None)
    rate = float(_surrogate_rate(factors, ms, overhead_factor, noise_power, p_tot))
    per_stream = np.zeros(ms.size)
    if rate > 0:
        per_stream = noise_power * np.expm1(rate / (overhead_factor * ms * ms.size)) / factors
    return rate, _group_powers(counts_by_group, per_stream)


def mmf_massive_mimo_rates(
    betas_by_group,
    counts_by_group,
    num_tx_antennas: int,
    overhead_factor: float,
    noise_power: float,
    p_tot,
) -> np.ndarray:
    """Sum rate of :func:`mmf_massive_mimo` alone, per entry of ``p_tot``."""
    factors, ms = _surrogate_users(betas_by_group, counts_by_group, num_tx_antennas, None)
    return _surrogate_rate(factors, ms, overhead_factor, noise_power, p_tot)


def zf_mmf_bounds(
    betas_by_group,
    counts_by_group,
    num_tx_antennas: int,
    overhead_factor: float,
    noise_power: float,
    p_tot,
):
    """Fading-averaged bounds on the max-min-fair sum rate under ZF.

    The two roots use the per-stream gain surrogates
    ``beta * (L - M_group)`` and ``beta * (L - M_group + 1)``.  The
    expectation over fading is taken before the fairness optimization,
    which is what makes the power split depend on pathloss only.  Returns
    ``(lower, upper)``, each with one rate per entry of ``p_tot``.
    """
    lo, hi = (
        _surrogate_rate(
            *_surrogate_users(betas_by_group, counts_by_group, num_tx_antennas, shift),
            overhead_factor, noise_power, p_tot,
        )
        for shift in (0, 1)
    )
    return lo, np.maximum(hi, lo)


def _surrogate_users(betas_by_group, counts_by_group, l_tx, denom_shift):
    """Per-user stream-gain factor and stream count under concentrated gains.

    ``denom_shift`` of ``None`` uses gain ``beta * (L - M_group + M_k)``;
    an integer ``s`` uses ``beta * (L - M_group + s)``.
    """
    factors, ms = [], []
    for betas, counts in zip(betas_by_group, counts_by_group):
        m_group = int(sum(counts))
        if m_group > l_tx:
            raise ValueError("group antennas exceed transmit antennas")
        for beta, m in zip(betas, counts):
            shift = m if denom_shift is None else denom_shift
            factors.append(float(beta) * (l_tx - m_group + shift))
            ms.append(int(m))
    return np.asarray(factors), np.asarray(ms)


def _surrogate_rate(factors, ms, xi, n0, p_tot):
    """Sum rate when every stream of user k has gain ``factors[k]``: the
    budget equation of the surrogate users in :func:`mmf_brackets`."""
    p = np.maximum(p_tot, 0.0)
    # A vanishing gain factor pins the equal-rate optimum at zero.
    if np.any(factors <= 0):
        return np.zeros_like(p)
    return _bound_root(factors, ms, xi, n0, p)


def _group_powers(counts_by_group, per_stream_by_user):
    """Reshape flat per-user per-stream powers into nested per-group arrays."""
    out = []
    i = 0
    for counts in counts_by_group:
        group = []
        for m in counts:
            group.append(np.full(int(m), per_stream_by_user[i]))
            i += 1
        out.append(group)
    return out
