"""User geometry, pathloss, Rayleigh fading and CSI error models.

All powers are linear watts internally; dBm conversions happen only at the
reporting boundary.  Every sampling routine takes an explicit
:class:`numpy.random.Generator` so that Monte Carlo loops can hand disjoint
substreams to concurrent workers (see :func:`substream`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDimensionError, OverheadExceedsCoherenceError

__all__ = [
    "CellGeometry",
    "LinkGain",
    "GroupChannel",
    "MACRO",
    "MICRO",
    "geometry_preset",
    "substream",
    "sample_user_position",
    "sample_user_pathlosses",
    "sample_group_channel",
    "csi_overhead",
    "corrupt_csit",
    "noise_power_watts",
    "dbm_to_watts",
    "watts_to_dbm",
]

AWGN_DENSITY_DBM_HZ = -174.0
DEFAULT_BANDWIDTH_HZ = 20e6


@dataclass(frozen=True)
class CellGeometry:
    """Annular cell with a distance-power pathloss law.

    The linear power gain at distance ``r`` (meters) is
    ``attenuation * r ** -pathloss_exponent``.
    """

    inner_radius_m: float
    outer_radius_m: float
    pathloss_exponent: float
    attenuation: float

    def __post_init__(self):
        if not 0 < self.inner_radius_m < self.outer_radius_m:
            raise ValueError("need 0 < inner_radius_m < outer_radius_m")
        if self.pathloss_exponent <= 2:
            raise ValueError("pathloss_exponent must exceed 2")
        if self.attenuation <= 0:
            raise ValueError("attenuation must be positive")

    def pathloss(self, distance_m: float) -> float:
        """Linear power gain at the given distance."""
        return self.attenuation * distance_m ** -self.pathloss_exponent


MACRO = CellGeometry(35.0, 500.0, 3.76, 10 ** -3.53)
MICRO = CellGeometry(10.0, 100.0, 3.0, 10 ** -3.7)

_PRESETS = {"macro": MACRO, "micro": MICRO}


def geometry_preset(name: str) -> CellGeometry:
    """Look up the ``"macro"`` or ``"micro"`` cell preset by name."""
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown geometry preset {name!r}; choose from {sorted(_PRESETS)}")


@dataclass(frozen=True)
class LinkGain:
    """Distance and resulting linear power gain of one BS-user link."""

    distance_m: float
    beta: float


@dataclass(frozen=True)
class GroupChannel:
    """Stacked downlink channels of the users served from one cache group.

    ``per_user[k]`` is ``(H_k, beta_k)`` where ``H_k`` has shape
    ``(num_tx_antennas, M_k)`` and the entries of ``H_k / sqrt(beta_k)`` are
    unit-variance circularly-symmetric complex Gaussians.  The total number
    of receive antennas may not exceed the number of transmit antennas;
    partial-stream operation is not supported.
    """

    per_user: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        if not self.per_user:
            raise ValueError("group must contain at least one user")
        rows = {h.shape[0] for h, _ in self.per_user}
        if len(rows) != 1:
            raise ValueError("all user channels must share the transmit antenna count")
        if self.total_antennas > self.num_tx_antennas:
            raise InfeasibleDimensionError(
                f"group has {self.total_antennas} receive antennas but only "
                f"{self.num_tx_antennas} transmit antennas"
            )

    @property
    def num_tx_antennas(self) -> int:
        return self.per_user[0][0].shape[0]

    @property
    def antenna_counts(self) -> tuple[int, ...]:
        return tuple(h.shape[1] for h, _ in self.per_user)

    @property
    def total_antennas(self) -> int:
        return sum(self.antenna_counts)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(b for _, b in self.per_user)

    def stacked(self) -> np.ndarray:
        """All user channels side by side, shape ``(L, total_antennas)``."""
        return np.hstack([h for h, _ in self.per_user])


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic, independent random stream for one Monte Carlo cell.

    Streams derived from the same master seed but different keys are
    statistically independent, and the mapping does not depend on how work
    is split across processes, so runs are reproducible for any worker
    count.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def sample_user_position(geometry: CellGeometry, rng: np.random.Generator) -> LinkGain:
    """Draw one user uniformly over the annulus area and return its link gain.

    Uniform placement over area makes the squared distance uniform on
    ``[inner^2, outer^2]``, so most users live near the cell edge.
    """
    lo = geometry.inner_radius_m ** 2
    hi = geometry.outer_radius_m ** 2
    distance = math.sqrt(rng.uniform(lo, hi))
    return LinkGain(distance, geometry.pathloss(distance))


def sample_user_pathlosses(
    geometry: CellGeometry, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Link gains of ``count`` users placed as by :func:`sample_user_position`.

    One draw of ``count`` squared distances takes the same doubles from
    ``rng``, in the same order, as ``count`` calls of that function, and
    the gains are the same: the square root and the pathloss are taken per
    user in Python floats, whose power can round differently from
    ``np.power``.
    """
    squared = rng.uniform(geometry.inner_radius_m ** 2, geometry.outer_radius_m ** 2, count)
    return np.array([geometry.pathloss(math.sqrt(d2)) for d2 in squared.tolist()])


def sample_group_channel(
    num_tx_antennas: int,
    antenna_counts: list[int] | tuple[int, ...],
    betas: list[float] | tuple[float, ...],
    rng: np.random.Generator,
) -> GroupChannel:
    """Draw independent Rayleigh-fading channels for one served group.

    Entries of user ``k``'s matrix are i.i.d. complex Gaussian with zero
    mean and variance ``betas[k]`` (real/imaginary parts each ``beta/2``).

    Raises
    ------
    InfeasibleDimensionError
        If the receive antennas exceed the transmit antennas.
    """
    if len(antenna_counts) != len(betas):
        raise ValueError("antenna_counts and betas must have equal length")
    if sum(antenna_counts) > num_tx_antennas:
        raise InfeasibleDimensionError(
            f"{sum(antenna_counts)} receive antennas exceed {num_tx_antennas} transmit antennas"
        )
    per_user = []
    for m, beta in zip(antenna_counts, betas):
        h = complex_gaussian(rng, (num_tx_antennas, m), variance=beta)
        per_user.append((h, float(beta)))
    return GroupChannel(tuple(per_user))


def complex_gaussian(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian samples."""
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def csi_overhead(
    coherence_symbols: int, pilot_symbols: int, total_receive_antennas: int
) -> float:
    """Remaining fraction of the coherence block after per-antenna pilots:
    the overhead factor, 0 where the pilots fill the block.

    Raises
    ------
    OverheadExceedsCoherenceError
        If the pilots would consume more than the whole coherence block.
    """
    if coherence_symbols <= 0:
        raise ValueError("coherence_symbols must be positive")
    if pilot_symbols < 0:
        raise ValueError("pilot_symbols must be nonnegative")
    factor = 1.0 - pilot_symbols * total_receive_antennas / coherence_symbols
    if factor < 0:
        raise OverheadExceedsCoherenceError(
            f"{pilot_symbols} pilot symbols for {total_receive_antennas} antennas "
            f"exceed the coherence block of {coherence_symbols} symbols"
        )
    return factor


def corrupt_csit(
    h: np.ndarray,
    error_var: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a channel into an MMSE-style estimate and an independent error.

    Returns ``(h_hat, h_tilde)`` with ``h == h_hat + h_tilde`` exactly, where
    the error entries are zero-mean complex Gaussian with variance
    ``error_var`` and, as under MMSE estimation, independent of the estimate.
    ``h`` has unit per-entry variance, which must dominate the error
    variance.
    """
    if error_var < 0:
        raise ValueError("error_var must be nonnegative")
    h = np.asarray(h, dtype=complex)
    if error_var == 0:
        return h, np.zeros_like(h)
    if error_var > 1:
        raise ValueError("error_var cannot exceed the channel variance")
    # Conditional draw of the error component given the realized channel:
    # keeps the estimate and error uncorrelated, unlike adding fresh noise.
    w = complex_gaussian(rng, h.shape)
    err = error_var * h + math.sqrt(error_var * (1.0 - error_var)) * w
    h_hat = h - err
    # Rebuild the error as the residual so h - h_hat - h_tilde is exactly 0.
    return h_hat, h - h_hat


def dbm_to_watts(p_dbm: float) -> float:
    return 10 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts) + 30.0


def noise_power_watts(
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
    density_dbm_hz: float = AWGN_DENSITY_DBM_HZ,
) -> float:
    """AWGN power over the signal bandwidth, in watts."""
    return dbm_to_watts(density_dbm_hz + 10.0 * math.log10(bandwidth_hz))
