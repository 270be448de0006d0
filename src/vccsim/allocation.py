"""Power allocation: per-user water-filling and max-min-fair solvers.

The max-min problem decouples per user once the per-symbol gains are fixed,
so the optimum is the root of a one-dimensional monotone equation: every
served user runs at the same effective rate, and the sum of the per-user
power costs of that rate exhausts the budget.  Analytic brackets built from
each user's best and worst stream gain confine the root.

There is one root solver, :func:`mmf_sum_rates`.  It takes a batch of
ragged problems, each with its own users and overhead factor, and solves
all of them over the whole power sweep in one Newton loop on ``(problem,
power)`` arrays.  The users of every problem are flattened in order, and
the per-problem budget sums are segment sums.  A problem whose users all
have one stream has a closed-form root.  Otherwise the budget residual is
convex and increasing, and safeguarded Newton steps from the upper bracket
converge monotonically onto the root.  The brackets are closed-form when
all of a problem's users have the same stream count; the same Newton
routine solves the brackets' own budget equation when the counts differ.
It returns rates only.  :func:`solve_mmf` takes the same root for one
problem and one budget and adds the per-user water-filled power
allocation.  The fading-free large-array curves
(:func:`mmf_massive_mimo_rates`, :func:`zf_mmf_bounds`) solve the budget
equation of the bracket's surrogate users, also over the whole power
vector.

Rates are nats/s/Hz throughout; conversion to bits happens at reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "PowerAllocation",
    "UserRateFunction",
    "MmfSolution",
    "waterfill",
    "solve_mmf",
    "mmf_sum_rates",
    "mmf_brackets",
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
            lam[None, :], np.array([lam.size]), np.array([1]),
            np.array([self.overhead_factor]), self.noise_power,
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
        return float(self._table.user_budgets(np.array([[rate]]))[0][0, 0])


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
        gains, counts, np.array([n]), np.array([_shared(rate_functions, "overhead_factor")]),
        _shared(rate_functions, "noise_power"),
    )
    r_star, lo, hi = (float(x[0, 0]) for x in _mmf_root(table, np.array([p_tot])))
    budgets, _ = table.user_budgets(np.full((n, 1), r_star / n))
    alloc = PowerAllocation(
        tuple(f.waterfill(b)[0] for f, b in zip(rate_functions, budgets[:, 0]))
    )
    return MmfSolution(r_star, r_star / n, alloc, (lo, hi))


def _shared(fns: list[UserRateFunction], attr: str) -> float:
    values = {getattr(f, attr) for f in fns}
    if len(values) != 1:
        raise ValueError(f"pooled users must share the {attr}")
    return values.pop()


def mmf_sum_rates(gains, counts, sizes, overhead_factors, noise_power: float, p_tot):
    """Max-min-fair effective sum rate of every problem at every power point.

    A batch of ``S`` problems, each pooling its own users.  ``gains`` holds
    every user's stream gains, descending, in a row of shape ``(N, J)``,
    the users of problem 0 first, then those of problem 1 and so on;
    ``sizes[s]`` is problem ``s``'s user count and ``overhead_factors[s]``
    its overhead factor.  Entries past a user's stream count in ``counts``
    are ignored.  Returns the sum rates, shape ``(S, len(p_tot))``.  Within
    a problem every user runs at the same effective rate ``R / n`` and the
    per-user water-filled powers of that rate exhaust the budget;
    nonpositive budgets give 0.
    """
    sizes = np.asarray(sizes)
    gains = np.asarray(gains, dtype=float)
    if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != gains.shape[0]:
        raise ValueError("sizes must be positive and add up to the user count")
    table = _StreamTable.build(
        gains, np.asarray(counts), sizes, np.asarray(overhead_factors, dtype=float),
        noise_power,
    )
    return _mmf_root(table, np.asarray(p_tot, dtype=float))[0]


class _StreamTable(NamedTuple):
    """Closed-form inverse rate functions of a batch of problems' users,
    flattened in problem order and padded per user.

    A user whose water level activates ``m`` streams needs the power
    ``n0 * (m * geo[m-1] * expm1(r / (xi m)) + gap[m-1])`` for the
    effective rate ``r``, where ``xi`` is its problem's overhead factor,
    ``geo[m-1]`` is the geometric mean of the inverse gains of the first
    ``m`` streams and ``gap[m-1] = m * geo[m-1] - sum(1 / lam[:m])``.  The
    gap is exactly zero for one stream, so low rates lose no precision to
    ``exp(x) - 1``.  ``breaks[j-1]`` is the rate at which stream ``j + 1``
    activates, infinite past the user's stream count.
    """

    lam: np.ndarray      # (N, J) gains, descending, 1 past the count
    counts: np.ndarray   # (N,)
    geo: np.ndarray      # (N, J)
    gap: np.ndarray      # (N, J)
    breaks: np.ndarray   # (N, J - 1)
    xi: np.ndarray       # (N, 1) the overhead factor of each user's problem
    sizes: np.ndarray    # (S,) users per problem
    n0: float

    @classmethod
    def build(cls, gains, counts, sizes, xi, n0) -> "_StreamTable":
        if not np.all((0 < xi) & (xi <= 1)):
            raise ValueError("overhead_factor must be in (0, 1]")
        xi = np.repeat(xi, sizes)[:, None]
        valid = np.arange(gains.shape[1]) < counts[:, None]
        lam = np.where(valid, gains, 1.0)
        log_cum = np.cumsum(np.log(lam), axis=1)
        m = np.arange(1, lam.shape[1])
        breaks = xi * (log_cum[:, :-1] - m * np.log(lam[:, 1:]))
        breaks = np.where(valid[:, 1:], breaks, np.inf)
        geo = np.exp(-log_cum / np.arange(1, lam.shape[1] + 1))
        gap = np.arange(1, lam.shape[1] + 1) * geo - np.cumsum(1.0 / lam, axis=1)
        gap[:, 0] = 0.0
        return cls(lam, counts, geo, gap, breaks, xi, sizes, n0)

    def user_budgets(self, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-user powers ``(N, P)`` reaching the per-user rates ``(N, P)``,
        and their water levels, ``xi`` times the derivative of the power."""
        # Streams active beyond the first, and the flat index of each user's
        # entry for its m active streams.
        extra = np.sum(self.breaks[:, None, :] < rate[..., None], axis=-1)
        at = np.arange(0, self.geo.size, self.geo.shape[1])[:, None] + extra
        m = extra + 1
        geo = self.geo.take(at)
        excess = np.expm1(rate / (self.xi * m))
        power = self.n0 * (m * geo * excess + self.gap.take(at))
        return power, self.n0 * geo * (excess + 1.0)


_NEWTON_RTOL = 1e-14
_NEWTON_MAX_ITER = 100


def _mmf_root(table: _StreamTable, p_tot: np.ndarray):
    """Max-min-fair sum rates and their brackets ``(rate, lo, hi)``, each of
    shape ``(S, P)``: one row per problem, one column per power.

    A problem's budget residual ``sum_k inverse_k(R / n) - p_tot`` is convex
    and increasing in ``R``, nonpositive at ``lo`` and nonnegative at
    ``hi``.  With one stream per user the bracket collapses and the root is
    closed-form.
    """
    n = table.sizes[:, None]
    starts = np.cumsum(table.sizes) - table.sizes
    prob = np.repeat(np.arange(table.sizes.size), table.sizes)
    xi = table.xi[starts]
    p = np.maximum(p_tot, 0.0)
    lo, hi, one_stream = _batch_brackets(table, starts, xi, p)
    if one_stream.all():
        return lo, lo, hi

    def residual(r):
        power, level = table.user_budgets((r / n)[prob])
        return (
            np.add.reduceat(power, starts) - p,
            np.add.reduceat(level, starts) / (xi * n),
        )

    return _newton_root(residual, lo, np.where(one_stream[:, None], lo, hi)), lo, hi


def _batch_brackets(table: _StreamTable, starts, xi, p):
    """:func:`mmf_brackets` of every problem ``(S, P)``, and which problems
    have one stream per user.

    A problem whose users share one stream count takes the closed form;
    only problems with mixed counts solve the bracket equation alone.
    """
    counts = table.counts
    lam_lo = table.lam[np.arange(counts.size), counts - 1]
    lam_hi = table.lam[:, 0]
    j = counts[starts]
    uniform = np.minimum.reduceat(counts, starts) == np.maximum.reduceat(counts, starts)
    lo, hi = (
        _uniform_bound(np.add.reduceat(1.0 / lam, starts)[:, None], table.sizes[:, None],
                       j[:, None], xi, table.n0, p)
        for lam in (lam_lo, lam_hi)
    )
    for s in np.flatnonzero(~uniform):
        users = slice(starts[s], starts[s] + table.sizes[s])
        lo[s], hi[s] = mmf_brackets(
            lam_lo[users], lam_hi[users], counts[users], xi[s, 0], table.n0, p
        )
    return lo, np.maximum(hi, lo), uniform & (j == 1)


def _newton_root(residual, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root in ``[lo, hi]`` of a convex residual increasing in ``R``, per entry.

    ``residual(r)`` returns the residual and its slope at the rates ``r``.
    Newton steps from ``hi`` decrease monotonically onto the root and are
    clamped at ``lo``.  A residual of the wrong sign at a bracket end
    (rounding) pins that entry's root there, so a zero-width bracket
    returns its end.  Raises if any entry needs more than
    ``_NEWTON_MAX_ITER`` steps.
    """
    f, slope = residual(hi)
    f_lo, _ = residual(lo)
    r = np.where(f_lo > 0, lo, hi)
    active = (f_lo <= 0) & (f > 0)
    for _ in range(_NEWTON_MAX_ITER):
        step = np.where(active, f / slope, 0.0)
        r = np.maximum(r - step, lo)
        active &= step > _NEWTON_RTOL * r
        if not active.any():
            return r
        f, slope = residual(r)
    raise ConvergenceError(
        f"budget root not within rtol {_NEWTON_RTOL} "
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
    == p_tot`` for users whose streams all have gain ``lam_k``, per power.

    A uniform stream count inverts in closed form.  Otherwise, since
    ``j * expm1(c / j)`` decreases in ``j``, the closed form at the smallest
    count is a lower bracket and that at the largest an upper one.  No
    single user's term can exceed the budget, so each user's own closed
    form is an upper bracket too; the least of them keeps the Newton steps
    of :func:`_newton_root` few when one user's exponential dominates.
    """
    n = lam.size

    def uniform(j):
        return _uniform_bound(np.sum(1.0 / lam), n, j, xi, n0, p_tot)

    if np.all(js == js[0]):
        return uniform(int(js[0]))
    p = np.asarray(p_tot, dtype=float)
    scale = n0 / lam
    unit = xi * js * n
    alone = np.min(unit * np.log1p(p[..., None] / (js * scale)), axis=-1)

    def residual(r):
        excess = np.expm1(r[..., None] / unit)
        return (
            np.sum(js * scale * excess, axis=-1) - p,
            np.sum(scale * (excess + 1.0), axis=-1) / (xi * n),
        )

    hi = np.minimum(uniform(int(js.max())), alone)
    return _newton_root(residual, uniform(int(js.min())), hi)


def _uniform_bound(inv_gain_sum, n, j, xi, n0, p_tot):
    """The closed-form root of :func:`_bound_root` when all ``n`` users have
    ``j`` streams, where ``inv_gain_sum`` is ``sum_k 1 / lam_k``."""
    return xi * n * j * np.log1p(p_tot / (n0 * j * inv_gain_sum))


def mmf_massive_mimo_rates(
    betas_by_group,
    counts_by_group,
    num_tx_antennas: int,
    overhead_factor: float,
    noise_power: float,
    p_tot,
) -> np.ndarray:
    """Large-antenna limit of the max-min-fair sum rate, per entry of ``p_tot``.

    In the large-array regime every stream gain of user ``k`` concentrates
    at ``beta_k * (L - M_group + M_k)``, so equal power over a user's
    streams is optimal and the budget equation becomes explicit; the
    uniform-antenna case is evaluated in closed form.
    """
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

