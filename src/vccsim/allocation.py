"""Power allocation: per-user water-filling and the max-min-fair solver.

The max-min problem decouples per user once the per-symbol gains are fixed,
so the optimum is the root of a one-dimensional monotone equation: every
served user runs at the same effective rate, and the sum of the per-user
power costs of that rate exhausts the budget.  Analytic brackets built from
each user's best and worst stream gain confine the root.

One batched root, :func:`mmf_sum_rates`, takes a ragged batch of problems,
each with its own users and overhead factor, over the whole power sweep.
The users of every problem are flattened in order, and the per-problem
budget sums are segment sums (``np.add.reduceat``).  The root is
closed-form first: where a problem's brackets meet, and where every stream
of every user is active in a problem whose users share one stream count.
The residual is convex and increasing, so on the problems left open
safeguarded Newton steps from the upper bracket converge monotonically onto
it.  Surrogate users, whose streams all share one gain, are its equal-gain
rows, as in :func:`zf_mmf_bounds`.  The root returns rates only;
:func:`solve_mmf` adds, for one problem and one budget, the per-user
water-filled power allocation and the brackets the root started from.

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
        if lam.size == 0 or not (np.isfinite(lam).all() and lam[-1] > 0):
            raise ValueError("need at least one stream gain, all finite and positive")
        object.__setattr__(self, "eigenvalues", lam)
        table = _StreamTable.build(
            lam[None, :], np.array([lam.size]), np.array([1]),
            _checked_overheads([self.overhead_factor]), self.noise_power,
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
    the budget is then water-filled over its streams.  The bracket is the
    closed-form one that the root starts from.  A nonpositive budget
    returns the all-zero solution.
    """
    n = len(rate_functions)
    if n == 0:
        raise ValueError("need at least one rate function")
    counts = np.array([f.num_streams for f in rate_functions])
    gains = np.zeros((n, counts.max()))
    for row, f in zip(gains, rate_functions):
        row[: f.num_streams] = f.eigenvalues
    r_star, lo, hi = (float(x[0, 0]) for x in _mmf_root(
        gains, counts, np.array([n]), np.array([_shared(rate_functions, "overhead_factor")]),
        _shared(rate_functions, "noise_power"), np.array([p_tot], dtype=float),
    ))
    alloc = PowerAllocation(
        tuple(f.waterfill(f.inverse(r_star / n))[0] for f in rate_functions)
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
    its overhead factor.  Each user's stream count in ``counts`` lies in
    ``1..J``, and entries past it are ignored; so a surrogate user, whose
    streams all share one gain, is a row repeating that gain up to its
    count.  Returns the sum rates, shape ``(S, len(p_tot))``.  Within a
    problem every user runs at the same effective rate ``R / n`` and the
    per-user water-filled powers of that rate exhaust the budget;
    nonpositive budgets, and a user with no positive gain, give 0.
    """
    gains = np.asarray(gains, dtype=float)
    counts = _checked_counts(counts, gains.shape)
    gains = _checked_gains(gains, counts)
    sizes = _checked_sizes(sizes, gains.shape[0])
    xi = _checked_overheads(overhead_factors)
    return _mmf_root(gains, counts, sizes, xi, noise_power, np.asarray(p_tot, dtype=float))[0]


def _checked_counts(counts, shape) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.shape != shape[:1] or counts.min() < 1 or counts.max() > shape[1]:
        raise ValueError(f"need one stream count in 1..{shape[1]} per user")
    return counts


def _checked_gains(gains: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Within its count, each user's gains must be finite and descending,
    and either all positive or all zero."""
    inside = np.arange(1, gains.shape[1]) < counts[:, None]
    descending = (gains[:, :-1] >= gains[:, 1:]) | ~inside
    # Descending from a finite best gain to a worst one of at least 0, every
    # gain is finite.
    best = gains[:, 0]
    worst = gains.take(np.arange(0, gains.size, gains.shape[1]) + counts - 1)
    signed = (worst > 0) | ((best == 0) & (worst == 0))
    if not (descending.all() and np.isfinite(best).all() and signed.all()):
        raise ValueError(
            "each user's gains must be finite, descending, and all positive or all zero"
        )
    return gains


def _checked_overheads(overhead_factors) -> np.ndarray:
    xi = np.asarray(overhead_factors, dtype=float)
    if not np.all((0 < xi) & (xi <= 1)):
        raise ValueError("overhead_factor must be in (0, 1]")
    return xi


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
    activates, infinite past the user's stream count.  The gains are not
    kept: the inverse reads only ``geo``, ``gap`` and ``breaks``.
    """

    counts: np.ndarray   # (N,)
    geo: np.ndarray      # (N, J)
    gap: np.ndarray      # (N, J)
    breaks: np.ndarray   # (N, J - 1)
    xi: np.ndarray       # (N, 1) the overhead factor of each user's problem
    sizes: np.ndarray    # (S,) users per problem
    n0: float

    @classmethod
    def build(cls, gains, counts, sizes, xi, n0) -> "_StreamTable":
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
        return cls(counts, geo, gap, breaks, xi, sizes, n0)

    def take(self, problems: np.ndarray) -> "_StreamTable":
        """The table of the problems selected by a boolean mask."""
        # Rows by flat index: a boolean row mask is several times slower.
        users = np.flatnonzero(np.repeat(problems, self.sizes))
        arrays = (self.counts, self.geo, self.gap, self.breaks, self.xi)
        return _StreamTable(
            *(a.take(users, axis=0) for a in arrays), self.sizes[problems], self.n0
        )

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


def _mmf_root(gains, counts, sizes, xi, n0: float, p_tot: np.ndarray):
    """Max-min-fair sum rates and their brackets ``(rate, lo, hi)``, each of
    shape ``(S, P)``: one row per problem, one column per power.  The
    arguments are those of :func:`mmf_sum_rates`, checked.

    A problem's budget residual ``sum_k inverse_k(R / n) - p_tot`` is convex
    and increasing in ``R``, nonpositive at ``lo`` and nonnegative at
    ``hi``.  Both brackets are closed forms of surrogate users, whose ``j``
    streams all share one gain ``f``: ``xi n j log1p(p / (n0 j sum_k 1 /
    f_k))``.  Since ``j * expm1(c / j)`` decreases in ``j``, it is a lower
    bracket on every user's worst gain at the problem's smallest count, and
    an upper one on every user's best gain at its largest.  Where the counts
    are mixed, no single user's term can exceed the budget, so each user's
    own closed form caps ``hi`` too; the least of them keeps the Newton
    steps few when one user's exponential dominates.  A user with no
    positive gain makes both inverse-gain sums of its problem infinite, so
    that both brackets are 0.

    Where a problem's brackets meet at every power (one stream per user,
    equal gains with one count, a zero gain), they are its root, and it
    gets no stream table.  The others go to :func:`_open_root`.
    """
    n = sizes[:, None]
    starts = np.cumsum(sizes) - sizes
    xi = xi[:, None]
    p = np.maximum(p_tot, 0.0)
    # Both brackets at once, on axis 0: every user's worst gain (at the flat
    # index of its last stream) and the problem's smallest count, then every
    # user's best gain and the largest count.
    last = np.arange(0, gains.size, gains.shape[1]) + counts - 1
    lam = np.stack([gains.take(last), gains[:, 0]])
    inv = np.divide(1.0, lam, out=np.full_like(lam, np.inf), where=lam > 0)
    inv_sum = np.stack([np.add.reduceat(row, starts) for row in inv])[..., None]
    j = np.stack([r.reduceat(counts, starts) for r in (np.minimum, np.maximum)])[..., None]
    lo, hi = xi * n * j * np.log1p(p / (n0 * j * inv_sum))
    mixed = j[0] != j[1]
    if mixed.any():
        k, own = np.repeat(np.arange(sizes.size), sizes), counts[:, None]
        alone = xi[k] * own * n[k] * np.log1p(p / (n0 * own * inv[1][:, None]))
        hi = np.where(mixed, np.minimum(hi, np.minimum.reduceat(alone, starts)), hi)
    hi = np.maximum(hi, lo)
    rate = lo.copy()
    open_ = ~(lo == hi).all(axis=1)
    if open_.any():
        users = np.flatnonzero(np.repeat(open_, sizes))
        table = _StreamTable.build(
            gains.take(users, axis=0), counts[users], sizes[open_], xi[open_, 0], n0
        )
        rate[open_] = _open_root(table, lo[open_], hi[open_], p)
    return rate, lo, hi


def _open_root(table: _StreamTable, lo: np.ndarray, hi: np.ndarray, p: np.ndarray):
    """The roots ``(S, P)`` of the problems of ``table`` in their brackets.

    Where every user has ``J`` streams, forcing all of them active (and so
    dropping the constraint that powers be nonnegative, which can only lower
    each user's cost) gives the upper bracket ``R_all = xi n J log1p((p / n0
    - sum_k gap_k[J-1]) / (J sum_k geo_k[J-1]))``.  It is the root wherever
    each user's rate ``R_all / n`` clears the break at which its last stream
    activates.  Newton (:func:`_newton_root`) runs only on the problems with
    an entry left open, from ``hi`` tightened by ``R_all``; the closed-form
    entries of those problems keep their value.
    """
    sizes, n0 = table.sizes, table.n0
    n = sizes[:, None]
    starts = np.cumsum(sizes) - sizes
    xi = table.xi[starts]
    counts = table.counts
    j = np.maximum.reduceat(counts, starts)
    top = hi.copy()
    settled = np.zeros(lo.shape, dtype=bool)
    forced = (np.minimum.reduceat(counts, starts) == j) & (j > 1)
    if forced.any():
        f_sizes, jf = sizes[forced], j[forced][:, None]
        f_starts = np.cumsum(f_sizes) - f_sizes
        rows = np.flatnonzero(np.repeat(forced, sizes))
        last = np.repeat(jf[:, 0], f_sizes) - 1
        geo_sum, gap_sum, last_break = (
            reduce.reduceat(a[rows, at], f_starts)[:, None]
            for reduce, a, at in (
                (np.add, table.geo, last), (np.add, table.gap, last),
                (np.maximum, table.breaks, last - 1),
            )
        )
        nf = n[forced]
        r_all = xi[forced] * nf * jf * np.log1p((p / n0 - gap_sum) / (jf * geo_sum))
        top[forced] = np.maximum(np.minimum(hi[forced], r_all), lo[forced])
        settled[forced] = r_all / nf >= last_break
    # Settled entries start as zero-width brackets, which Newton returns.
    rate = np.where(settled, top, lo)
    open_ = ~settled.all(axis=1)
    if open_.any():
        residual = _budget_residual(table.take(open_), p)
        rate[open_] = _newton_root(residual, rate[open_], top[open_])
    return rate


def _budget_residual(table: _StreamTable, p: np.ndarray):
    """The budget residual of :func:`_mmf_root` and its slope in ``R``."""
    n = table.sizes[:, None]
    starts = np.cumsum(table.sizes) - table.sizes
    prob = np.repeat(np.arange(table.sizes.size), table.sizes)
    xi = table.xi[starts]

    def residual(r):
        power, level = table.user_budgets((r / n)[prob])
        return (
            np.add.reduceat(power, starts) - p,
            np.add.reduceat(level, starts) / (xi * n),
        )

    return residual


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


def _checked_sizes(sizes, n_users: int) -> np.ndarray:
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or sizes.min() < 1 or sizes.sum() != n_users:
        raise ValueError("sizes must be positive and add up to the user count")
    return sizes


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
    ``(lower, upper)``, each with one rate per entry of ``p_tot``: one
    :func:`mmf_sum_rates` batch of two problems of surrogate users.
    """
    # Every user's pathloss and antenna count, group by group, and the
    # antennas L - M_group its group leaves free.
    betas, ms, room = [], [], []
    for group_betas, counts in zip(betas_by_group, counts_by_group):
        m_group = int(sum(counts))
        if m_group > num_tx_antennas:
            raise ValueError("group antennas exceed transmit antennas")
        betas += [float(b) for b in group_betas]
        ms += [int(m) for m in counts]
        room += [num_tx_antennas - m_group] * len(counts)
    betas, ms, room = np.asarray(betas), np.asarray(ms), np.asarray(room)
    gains = np.concatenate([betas * room, betas * (room + 1)])
    rows = np.broadcast_to(gains[:, None], (gains.size, ms.max()))
    p = np.asarray(p_tot, dtype=float)
    lo, hi = mmf_sum_rates(
        rows, np.tile(ms, 2), [betas.size] * 2, [overhead_factor] * 2, noise_power, p.ravel()
    ).reshape(2, *p.shape)
    return lo[()], np.maximum(hi, lo)[()]
