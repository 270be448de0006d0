"""Power allocation: per-user water-filling and max-min-fair solvers.

The max-min problem decouples per user once the per-symbol gains are fixed,
so the optimum is the root of a one-dimensional monotone equation: every
served user runs at the same effective rate, and the sum of the per-user
power costs of that rate exhausts the budget.  Analytic brackets built from
each user's best and worst stream gain confine the root search.

Rates are nats/s/Hz throughout; conversion to bits happens at reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "PowerAllocation",
    "UserRateFunction",
    "MmfSolution",
    "waterfill",
    "solve_mmf",
    "mmf_brackets",
    "mmf_massive_mimo",
    "zf_mmf_bounds",
    "zf_user_rate_bounds",
]

_BISECT_RTOL = 1e-13


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
    _inv_cum: np.ndarray = field(init=False, repr=False, compare=False)
    _log_cum: np.ndarray = field(init=False, repr=False, compare=False)
    _rate_breaks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.sort(np.asarray(self.eigenvalues, dtype=float))[::-1]
        if lam.size == 0 or lam[-1] <= 0:
            raise ValueError("need at least one positive stream gain")
        if not 0 < self.overhead_factor <= 1:
            raise ValueError("overhead_factor must be in (0, 1]")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "_inv_cum", np.cumsum(1.0 / lam))
        object.__setattr__(self, "_log_cum", np.cumsum(np.log(lam)))
        # Rate at which stream m+1 becomes active (water level = noise/lam[m]).
        m = np.arange(1, lam.size)
        breaks = self.overhead_factor * (self._log_cum[:-1] - m * np.log(lam[1:]))
        object.__setattr__(self, "_rate_breaks", breaks)

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
        m = int(np.searchsorted(self._rate_breaks, rate, side="left")) + 1
        n0 = self.noise_power
        return float(
            m * n0 * np.exp((rate / self.overhead_factor - self._log_cum[m - 1]) / m)
            - n0 * self._inv_cum[m - 1]
        )


class _RateBank:
    """Vectorized closed-form inverse over a pool of rate functions."""

    def __init__(self, fns: list[UserRateFunction]):
        self.fns = fns
        n = len(fns)
        jmax = max(f.num_streams for f in fns)
        self.counts = np.array([f.num_streams for f in fns])
        self.noise = np.array([f.noise_power for f in fns])
        self.xi = np.array([f.overhead_factor for f in fns])
        self.inv_cum = np.zeros((n, jmax))
        self.log_cum = np.zeros((n, jmax))
        self.breaks = np.full((n, jmax), np.inf)
        for i, f in enumerate(fns):
            j = f.num_streams
            self.inv_cum[i, :j] = f._inv_cum
            self.log_cum[i, :j] = f._log_cum
            self.breaks[i, : j - 1] = f._rate_breaks

    def per_user_inverse(self, rate: float) -> np.ndarray:
        if rate <= 0:
            return np.zeros(len(self.fns))
        m = np.minimum((self.breaks < rate).sum(axis=1) + 1, self.counts)
        idx = m - 1
        rows = np.arange(len(self.fns))
        log_cum = self.log_cum[rows, idx]
        inv_cum = self.inv_cum[rows, idx]
        return self.noise * (m * np.exp((rate / self.xi - log_cum) / m) - inv_cum)

    def total_power(self, rate: float) -> float:
        return float(np.sum(self.per_user_inverse(rate)))


@dataclass(frozen=True)
class MmfSolution:
    """Optimal equal-rate operating point under a total power budget."""

    sum_rate: float
    per_user_rate: float
    allocation: PowerAllocation
    bracket: tuple[float, float]


def solve_mmf(rate_functions: list[UserRateFunction], p_tot: float) -> MmfSolution:
    """Max-min-fair sum rate over pooled users with decoupled rate functions.

    Solves ``sum_k inverse_k(R / n) == p_tot`` for the effective sum rate
    ``R`` by a bracketed one-dimensional search between the analytic bounds
    of :func:`mmf_brackets`, then water-fills each user's share.  A
    nonpositive budget returns the all-zero solution.
    """
    n = len(rate_functions)
    if n == 0:
        raise ValueError("need at least one rate function")
    if p_tot <= 0:
        alloc = PowerAllocation(tuple(np.zeros(f.num_streams) for f in rate_functions))
        return MmfSolution(0.0, 0.0, alloc, (0.0, 0.0))

    lo, hi = mmf_brackets(
        [float(f.eigenvalues[-1]) for f in rate_functions],
        [float(f.eigenvalues[0]) for f in rate_functions],
        [f.num_streams for f in rate_functions],
        _common_overhead(rate_functions),
        rate_functions[0].noise_power,
        p_tot,
    )
    bank = _RateBank(rate_functions)
    if hi - lo <= _BISECT_RTOL * hi:
        r_star = 0.5 * (lo + hi)
    else:
        def residual(r):
            return bank.total_power(r / n) - p_tot

        f_lo, f_hi = residual(lo), residual(hi)
        if f_lo > 0:
            r_star = lo
        elif f_hi < 0:
            r_star = hi
        else:
            r_star = brentq(residual, lo, hi, xtol=1e-18, rtol=1e-14)
    budgets = bank.per_user_inverse(r_star / n)
    alloc = PowerAllocation(
        tuple(f.waterfill(b)[0] for f, b in zip(rate_functions, budgets))
    )
    return MmfSolution(float(r_star), float(r_star) / n, alloc, (lo, hi))


def _common_overhead(fns: list[UserRateFunction]) -> float:
    xis = {f.overhead_factor for f in fns}
    if len(xis) != 1:
        raise ValueError("pooled users must share the CSI overhead factor")
    return xis.pop()


def mmf_brackets(
    lambda_mins,
    lambda_maxs,
    stream_counts,
    overhead_factor: float,
    noise_power: float,
    p_tot: float,
) -> tuple[float, float]:
    """Analytic lower/upper bounds on the max-min-fair sum rate.

    Replacing every stream gain of a user by its worst (best) one makes the
    per-user rate pessimistic (optimistic); solving the budget equation for
    those surrogate users brackets the true optimum.  With a uniform stream
    count per user both equations invert in closed form.
    """
    lam_lo = np.asarray(lambda_mins, dtype=float)
    lam_hi = np.asarray(lambda_maxs, dtype=float)
    js = np.asarray(stream_counts, dtype=int)
    if p_tot <= 0:
        return 0.0, 0.0
    lo = _bound_root(lam_lo, js, overhead_factor, noise_power, p_tot)
    hi = _bound_root(lam_hi, js, overhead_factor, noise_power, p_tot)
    return lo, max(hi, lo)


def _bound_root(lam, js, xi, n0, p_tot) -> float:
    n = lam.size
    if np.all(js == js[0]):
        j = int(js[0])
        return float(
            xi * n * j * np.log1p(p_tot / (n0 * j * np.sum(1.0 / lam)))
        )

    def residual(r):
        return float(
            np.sum(js * n0 / lam * np.expm1(r / (xi * js * n))) - p_tot
        )

    hi = 1.0
    while residual(hi) < 0:
        hi *= 2.0
    return brentq(residual, 0.0, hi, xtol=1e-18, rtol=1e-14)


def _flatten_groups(betas_by_group, counts_by_group):
    """Per-user (beta, own antennas, group antennas) triples."""
    users = []
    for betas, counts in zip(betas_by_group, counts_by_group):
        m_group = int(sum(counts))
        for beta, m in zip(betas, counts):
            users.append((float(beta), int(m), m_group))
    return users


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
    return _asymptotic_mmf(
        betas_by_group,
        counts_by_group,
        num_tx_antennas,
        overhead_factor,
        noise_power,
        p_tot,
        denom_shift=None,
    )


def zf_mmf_bounds(
    betas_by_group,
    counts_by_group,
    num_tx_antennas: int,
    overhead_factor: float,
    noise_power: float,
    p_tot: float,
) -> tuple[float, float]:
    """Fading-averaged bounds on the max-min-fair sum rate under ZF.

    The two roots use the per-stream gain surrogates
    ``beta * (L - M_group)`` and ``beta * (L - M_group + 1)``.  The
    expectation over fading is taken before the fairness optimization,
    which is what makes the power split depend on pathloss only.
    """
    lo, _ = _asymptotic_mmf(
        betas_by_group, counts_by_group, num_tx_antennas,
        overhead_factor, noise_power, p_tot, denom_shift=0,
    )
    hi, _ = _asymptotic_mmf(
        betas_by_group, counts_by_group, num_tx_antennas,
        overhead_factor, noise_power, p_tot, denom_shift=1,
    )
    return lo, max(hi, lo)


def _asymptotic_mmf(
    betas_by_group,
    counts_by_group,
    l_tx,
    xi,
    n0,
    p_tot,
    denom_shift,
):
    """Root of the budget equation with concentrated per-stream gains.

    ``denom_shift`` of ``None`` uses gain ``beta * (L - M_group + M_k)``;
    an integer ``s`` uses ``beta * (L - M_group + s)``.
    """
    users = _flatten_groups(betas_by_group, counts_by_group)
    n = len(users)
    factors = []
    for beta, m, m_group in users:
        if m_group > l_tx:
            raise ValueError("group antennas exceed transmit antennas")
        shift = m if denom_shift is None else denom_shift
        factors.append(beta * (l_tx - m_group + shift))
    factors = np.asarray(factors)
    ms = np.array([m for _, m, _ in users])

    # A vanishing gain factor pins the equal-rate optimum at zero.
    if p_tot <= 0 or np.any(factors <= 0):
        return 0.0, _group_powers(counts_by_group, np.zeros(n))
    # Every stream of user k has gain factors[k]: the budget equation of the
    # surrogate users in mmf_brackets, solved by the same root.
    rate = _bound_root(factors, ms, xi, n0, p_tot)
    per_stream = n0 * np.expm1(rate / (xi * ms * n)) / factors
    return rate, _group_powers(counts_by_group, per_stream)


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


def zf_user_rate_bounds(
    beta: float,
    num_user_antennas: int,
    num_group_antennas: int,
    num_tx_antennas: int,
    overhead_factor: float,
    noise_power: float,
    powers,
) -> tuple[float, float]:
    """Fading-averaged per-user ZF rate bounds for given per-symbol powers."""
    p = np.asarray(powers, dtype=float)
    if p.size != num_user_antennas:
        raise ValueError("one power per receive antenna expected")
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    lo_gain = beta * (num_tx_antennas - num_group_antennas)
    hi_gain = beta * (num_tx_antennas - num_group_antennas + 1)
    lo = overhead_factor * float(np.sum(np.log1p(p * lo_gain / noise_power)))
    hi = overhead_factor * float(np.sum(np.log1p(p * hi_gain / noise_power)))
    return lo, hi
