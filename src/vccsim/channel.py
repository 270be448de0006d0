"""User geometry, pathloss, Rayleigh fading and CSI error models.

All powers are linear watts internally; dBm conversions happen only at the
reporting boundary.  Every sampling routine takes an explicit
:class:`numpy.random.Generator` so that Monte Carlo loops can hand disjoint
substreams to concurrent workers.  :func:`substreams` seeds the generators
of many keys in one vectorized pass, bit-identical to one
:class:`numpy.random.SeedSequence` per key; :func:`substream` is its
one-key case.
"""

from __future__ import annotations

import functools
import math
import operator
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
    "substreams",
    "sample_user_position",
    "sample_user_pathlosses",
    "csi_overhead",
    "corrupt_csit",
    "noise_power_watts",
    "dbm_to_watts",
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
    count.  This is the one-key case of :func:`substreams`.
    """
    return substreams(master_seed, [key])[0]


def substreams(master_seed: int, keys) -> list[np.random.Generator]:
    """A fresh generator per key, in order, each bit-identical to
    ``np.random.default_rng(np.random.SeedSequence(master_seed,
    spawn_key=key))``.

    The seed words of every key come from one numpy pass over the keys
    (:func:`_spawn_states`), and each ``PCG64`` is seeded from its words, so
    a key costs a few microseconds instead of a ``SeedSequence`` of its own.
    A key listed twice gets two generators in the same state.
    """
    keys = [tuple(key) for key in keys]
    return _generators(_spawn_states(master_seed, *_spawn_words(keys)))


def _generators(states: np.ndarray) -> list[np.random.Generator]:
    """A generator per row of seed words ``(K, 4)`` from :func:`_spawn_states`,
    in order: ``PCG64`` seeded from the row."""
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(s))) for s in states]


# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words mixes the entropy words through hashmix, whose constant runs
# INIT_A * MULT_A**n over its calls, then generate_state hashes the pool with
# INIT_B * MULT_B**n.  All arithmetic is mod 2**32.
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """``init * mult**n`` mod 2**32 for ``n = start .. start + count - 1``."""
    c = init * pow(mult, start, 1 << 32) & _MASK32
    out = []
    for _ in range(count):
        out.append(c)
        c = c * mult & _MASK32
    return np.array(out, dtype=np.uint32)


# generate_state(4, uint64) hashes the pool twice over, eight words.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_WORDS + 1)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix (and its output hash), with the hash constant
    ``xor`` before its step and ``mul`` after it."""
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _uint32_words(n) -> list[int]:
    """A nonnegative integer's 32-bit words, least significant first, at
    least one, as ``SeedSequence`` splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=8)
def _seed_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """The pool once the seed's own words are mixed in, and the hashmix
    calls made by then.

    A spawn key's words come after the seed's words, which are padded with
    zeros to the pool size.  Hashing a zero pad word is what SeedSequence
    does for a missing one, so the pool of ``SeedSequence(master_seed)``,
    with no spawn key, is this pool for every key."""
    pool = np.random.SeedSequence(master_seed).pool
    pool.flags.writeable = False
    return pool, _POOL_WORDS * max(len(_uint32_words(master_seed)), _POOL_WORDS)


@functools.lru_cache(maxsize=16)
def _mix_constants(calls: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The hashmix constants, before and after each step, ``(width, 4)``,
    of spawn words ``0 .. width - 1`` mixed into the four pool words after
    ``calls`` hashmix calls."""
    c = _hash_constants(_INIT_A, _MULT_A, calls, _POOL_WORDS * width + 1)
    xor, mul = c[:-1].reshape(width, _POOL_WORDS), c[1:].reshape(width, _POOL_WORDS)
    xor.flags.writeable = mul.flags.writeable = False
    return xor, mul


def _spawn_words(keys: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Each key's 32-bit words ``(K, W)``, zero past its own word count, and
    those counts ``(K,)``."""
    if not keys:
        return np.empty((0, 0), dtype=np.uint32), np.empty(0, dtype=int)
    width = max(map(len, keys))
    rows = np.array([key + (0,) * (width - len(key)) for key in keys])
    if rows.dtype.kind in "iu" and rows.size and rows.min() >= 0 and rows.max() <= _MASK32:
        return rows.astype(np.uint32), np.array([len(key) for key in keys])
    # An element that is negative, not an integer or wider than one word.
    words = [[w for v in key for w in _uint32_words(v)] for key in keys]
    counts = np.array([len(w) for w in words])
    rows = np.zeros((len(words), counts.max()), dtype=np.uint32)
    for row, w in zip(rows, words):
        row[:len(w)] = w
    return rows, counts


def _spawn_states(master_seed: int, words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key).generate_state(4,
    np.uint64)`` of every key, ``(K, 4)``, computed for all keys at once.

    The keys come as 32-bit words: key k is the first ``counts[k]`` words
    of row k of ``words`` ``(K, W)``, ``uint32``, zero past them, as
    :func:`_spawn_words` splits tuples.  A caller whose keys are integer
    arrays builds the rows itself, without a tuple per key."""
    pool, calls = _seed_pool(master_seed)
    if not len(words):
        return np.empty((0, _POOL_WORDS), dtype=np.uint64)
    pool = np.repeat(pool[None], len(words), axis=0)
    if words.shape[1]:
        # Each spawn word is hashed once per pool word and mixed into it; a
        # key's pool stops at its own word count.
        xor, mul = _mix_constants(calls, words.shape[1])
        hashed = _MIX_MULT_R * _hashmix(words[:, :, None], xor, mul)
        every = counts.min()  # words that every key has
        for j in range(words.shape[1]):
            mixed = _MIX_MULT_L * pool - hashed[:, j]
            mixed ^= mixed >> _XSHIFT
            pool = mixed if j < every else np.where((counts > j)[:, None], mixed, pool)
    pool = np.concatenate([pool, pool], axis=1)
    state = _hashmix(pool, _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    # generate_state pairs its 32-bit words little end first on any host.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence that hands ``PCG64`` words computed beforehand.
    ``PCG64`` takes only an ``ISeedSequence``, which lives in
    ``numpy.random``; the type is made on first use, so that importing the
    package does not import ``numpy.random`` (about 6 MiB)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """``PCG64`` asks its seed sequence for ``generate_state(4,
        np.uint64)`` once, and for nothing else."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (_POOL_WORDS, np.uint64):
                raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
            return self.words

    return SeedWords


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


def complex_gaussian(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian samples."""
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def csi_overhead(
    coherence_symbols: int, pilot_symbols: int, total_receive_antennas: int
) -> float:
    """Remaining fraction of the coherence block after per-antenna pilots:
    the overhead factor, 0 where the pilots fill the block.

    Needs ``coherence_symbols >= 1`` and ``pilot_symbols >= 0``, which
    :class:`~vccsim.experiments.Scenario` checks before it calls this.

    Raises
    ------
    OverheadExceedsCoherenceError
        If the pilots would consume more than the whole coherence block.
    """
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


def noise_power_watts(
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
    density_dbm_hz: float = AWGN_DENSITY_DBM_HZ,
) -> float:
    """AWGN power over the signal bandwidth, in watts."""
    return dbm_to_watts(density_dbm_hz + 10.0 * math.log10(bandwidth_hz))
