"""Transmit precoders, receive combiners and per-symbol SINRs.

Three beamformer families are implemented:

* block-diagonalization with per-stream maximal-ratio combining (BD-MRC),
  built from the eigendecomposition of a small per-user matrix instead of
  the full transmit-side covariance;
* zero-forcing (ZF), which diagonalizes the whole group channel;
* multicast/unicast null-steering beamformers for the bit-level
  multi-server (MSV) baseline.

The Monte Carlo runners call only the fast paths, which return gains
without forming every beam: :func:`bd_mrc_eigenvalues`, :func:`zf_matrix`,
:func:`msv_gains_fast`, plus the rate and SINR formulas
:func:`msv_rate_from_gains`, :func:`zf_imperfect_csit_sinr` and
:func:`zf_imperfect_csir_sinr`.  The definition-level designs
:func:`bd_mrc`, :func:`sinr_from_matrices`, :func:`bd_mrc_sinr`,
:func:`msv_beamformers` and :func:`null_projector` are oracles: the tests
check the fast paths against them.

Channels follow the convention that a user with channel matrix ``H``
receives ``H.T @ x``, so a beam ``v`` is invisible to ``H`` iff
``H.T @ v == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GroupChannel, csi_overhead
from .errors import (
    ContractViolationError,
    InfeasibleDimensionError,
    SingularMatrixError,
)

__all__ = [
    "UserPrecoder",
    "PrecoderSolution",
    "MsvSolution",
    "hermitian_eig",
    "null_projector",
    "bd_mrc",
    "bd_mrc_eigenvalues",
    "bd_mrc_sinr",
    "sinr_from_matrices",
    "zf_matrix",
    "zf_imperfect_csit_sinr",
    "zf_imperfect_csir_sinr",
    "msv_beamformers",
    "msv_rate_from_gains",
    "msv_gains_fast",
    "msv_high_snr_gain_limit",
]

# Eigenvalues below this fraction of the largest one count as zero rank.
RANK_CUTOFF = 1e-10
# Gram matrices whose eigenvalue spread exceeds this go through the
# pseudo-inverse instead of a Cholesky solve.
PINV_CUTOFF = 1e-12
HERMITIAN_TOL = 1e-10


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises
    ------
    ContractViolationError
        If ``a`` deviates from Hermitian by more than ``1e-10`` relative.
    """
    a = np.asarray(a, dtype=complex)
    scale = np.linalg.norm(a)
    if scale > 0 and np.linalg.norm(a - a.conj().T) > HERMITIAN_TOL * scale:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for a Hermitian PSD Gram matrix.

    Uses a Cholesky-backed solve while the matrix is comfortably full rank
    and falls back to an eigendecomposition pseudo-inverse otherwise, which
    also covers rank-deficient channel products.
    """
    evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    if evals[0] < PINV_CUTOFF * evals[-1] or evals[-1] <= 0:
        return np.linalg.pinv(gram, rcond=PINV_CUTOFF, hermitian=True) @ rhs
    return np.linalg.solve(gram, rhs)


def null_projector(h_others: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of ``h_others.T``.

    ``h_others`` stacks the channels to be nulled as an ``(L, m)`` matrix;
    the result ``T`` is Hermitian, idempotent, and satisfies
    ``h_others.T @ T == 0``.  An empty ``h_others`` yields the identity.
    """
    h_others = np.asarray(h_others, dtype=complex)
    L = h_others.shape[0]
    if h_others.size == 0:
        return np.eye(L, dtype=complex)
    gram = h_others.T @ h_others.conj()
    t = np.eye(L, dtype=complex) - h_others.conj() @ _gram_solve(gram, h_others.T)
    return (t + t.conj().T) / 2.0


@dataclass(frozen=True)
class UserPrecoder:
    """Per-user precoding columns, combining columns and stream gains."""

    precoder: np.ndarray     # (L, J), unit-norm columns
    combiner: np.ndarray     # (M, J), unit-norm columns
    eigenvalues: np.ndarray  # (J,), descending, strictly positive

    @property
    def num_streams(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class PrecoderSolution:
    """BD-MRC beamformers for every served user of one group."""

    users: tuple[UserPrecoder, ...]


def _bd_small_matrix(h_k: np.ndarray, h_rest: np.ndarray) -> np.ndarray:
    """Per-user matrix whose eigenvalues are the BD-MRC stream gains.

    Equals ``H_k.T @ T @ H_k.conj()`` for the null projector ``T`` of the
    other users' channels, computed without forming the L-by-L projector.
    """
    gk = h_k.T @ h_k.conj()
    if h_rest.size == 0:
        a = gk
    else:
        b = h_k.T @ h_rest.conj()
        gram = h_rest.T @ h_rest.conj()
        a = gk - b @ _gram_solve(gram, b.conj().T)
    return (a + a.conj().T) / 2.0


def _others(mats: list[np.ndarray], k: int) -> np.ndarray:
    """Channels of every user but ``k`` side by side; ``(L, 0)`` if none."""
    rest = [h for i, h in enumerate(mats) if i != k]
    return np.hstack(rest) if rest else np.empty((mats[k].shape[0], 0), dtype=complex)


def bd_mrc(group: GroupChannel) -> PrecoderSolution:
    """Design BD-MRC precoders and combiners for one served group.

    Each user's precoding columns live in the null space of the other
    users' channels, so intra-group interference vanishes; within a user,
    the columns are eigen-directions of its effective channel, so the MRC
    combiner also removes inter-stream interference.  The per-symbol SINR
    is then ``power * eigenvalue / noise_power``.

    Raises
    ------
    InfeasibleDimensionError
        If some user is left without a single positive-gain stream.
    """
    mats = [h for h, _ in group.per_user]
    users = []
    for k, h_k in enumerate(mats):
        t_proj = null_projector(_others(mats, k))
        small = h_k.T @ t_proj @ h_k.conj()
        w, tvecs = hermitian_eig(small)
        j = int(np.sum(w > RANK_CUTOFF * max(w[0], 0.0)))
        if j == 0:
            raise InfeasibleDimensionError(
                f"user {k}: no interference-free stream available "
                f"(L={group.num_tx_antennas}, group antennas={group.total_antennas})"
            )
        v = t_proj @ h_k.conj() @ tvecs[:, :j]
        v /= np.linalg.norm(v, axis=0, keepdims=True)
        r = h_k.T @ v
        r /= np.linalg.norm(r, axis=0, keepdims=True)
        users.append(UserPrecoder(v, r, w[:j].copy()))
    return PrecoderSolution(tuple(users))


def bd_mrc_eigenvalues(group: GroupChannel) -> list[np.ndarray]:
    """Per-user BD-MRC stream gains without building the beamformers.

    Matches the eigenvalues of :func:`bd_mrc` but works on the small
    per-user matrices only; with single-antenna users the stream gains are
    the ZF gains of :func:`zf_matrix`, one Gram-matrix inverse per group.
    """
    mats = [h for h, _ in group.per_user]
    if all(h.shape[1] == 1 for h in mats) and len(mats) > 1:
        try:
            return list(zf_matrix(group.stacked())[1][:, None])
        except SingularMatrixError:
            pass
    return _bd_eigs_generic(mats)


def _bd_eigs_generic(mats: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    for k, h_k in enumerate(mats):
        small = _bd_small_matrix(h_k, _others(mats, k))
        w = np.linalg.eigvalsh(small)[::-1]
        j = int(np.sum(w > RANK_CUTOFF * max(w[0], 0.0)))
        if j == 0:
            raise InfeasibleDimensionError(f"user {k}: no interference-free stream")
        out.append(w[:j].copy())
    return out


def bd_mrc_sinr(
    solution: PrecoderSolution,
    powers: list[np.ndarray],
    noise_power: float,
) -> list[np.ndarray]:
    """Closed-form per-symbol SINRs: ``power * eigenvalue / noise``."""
    return [
        np.asarray(p, dtype=float) * u.eigenvalues / noise_power
        for u, p in zip(solution.users, powers)
    ]


def sinr_from_matrices(
    group: GroupChannel,
    solution: PrecoderSolution,
    powers: list[np.ndarray],
    noise_power: float,
) -> list[np.ndarray]:
    """Definition-level SINRs computed from the raw beamformer matrices.

    Evaluates signal and interference powers through the actual
    ``combiner, channel, precoder`` products, including intra-group and
    inter-stream leakage; serves as a cross-check of the closed form.
    """
    mats = [h for h, _ in group.per_user]
    out = []
    for k, user in enumerate(solution.users):
        eff_own = user.combiner.conj().T @ mats[k].T @ user.precoder  # (J, J)
        signal = np.abs(np.diag(eff_own)) ** 2 * np.asarray(powers[k], dtype=float)
        interference = np.zeros(user.num_streams)
        cross = np.abs(eff_own) ** 2 * np.asarray(powers[k], dtype=float)[None, :]
        interference += cross.sum(axis=1) - np.diag(cross)
        for kk, other in enumerate(solution.users):
            if kk == k:
                continue
            eff = user.combiner.conj().T @ mats[k].T @ other.precoder
            interference += (np.abs(eff) ** 2 * np.asarray(powers[kk], dtype=float)[None, :]).sum(axis=1)
        out.append(signal / (noise_power + interference))
    return out


def zf_matrix(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ZF precoder and per-stream gains for a stacked ``(L, M)`` channel.

    Raises
    ------
    SingularMatrixError
        If the channel Gram matrix is not invertible.
    """
    gram = stacked.T @ stacked.conj()
    try:
        np.linalg.cholesky((gram + gram.conj().T) / 2.0)
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("channel Gram matrix is numerically singular")
    gains = 1.0 / np.real(np.diag(inv))
    if not np.all(np.isfinite(gains)) or np.any(gains <= 0):
        raise SingularMatrixError("channel Gram matrix is numerically singular")
    v = stacked.conj() @ inv * np.sqrt(gains)[None, :]
    return v, gains


def zf_imperfect_csit_sinr(
    coupling: np.ndarray,
    powers,
    noise_power: float,
) -> np.ndarray:
    """Per-user SINRs of single-antenna users under a possibly mismatched ZF.

    ``coupling[i, j]`` is user ``i``'s true channel times the unit-norm
    precoding column of stream ``j``, i.e. ``h.T @ v_hat`` for true channels
    ``h`` and a ZF precoder ``v_hat`` computed from estimated channels.
    Nulling the estimated cross channels leaves residual intra-group
    interference; cross-group terms are assumed cancelled from cached
    content and do not appear.  ``powers`` holds per-stream powers along its
    last axis and broadcasts, so a column of equal per-stream powers gives
    one row of SINRs per power point.
    """
    cross = np.abs(np.asarray(coupling)) ** 2
    powers = np.asarray(powers, dtype=float)
    received = np.sum(cross * powers[..., None, :], axis=-1)
    signal = np.diagonal(cross) * powers
    return signal / (noise_power + received - signal)


def zf_imperfect_csir_sinr(
    p_tot: float,
    num_groups: int,
    users_per_group: int,
    csir_error_var: float,
    estimated_coupling,
    noise_power: float,
):
    """SINR under equal power when coupling estimates carry Gaussian error.

    Residual interference from all other served streams enters through its
    average power ``per_stream_power * csir_error_var * (served - 1)``.
    ``estimated_coupling`` is each receiver's estimate of its own coupling
    coefficient; a column of ``p_tot`` values gives one row per power point.
    """
    served = num_groups * users_per_group
    p = p_tot / served
    interference = p * csir_error_var * (served - 1)
    est = np.abs(np.asarray(estimated_coupling)) ** 2
    return p * (est + csir_error_var) / (noise_power + interference)


@dataclass(frozen=True)
class MsvSolution:
    """Multicast and unicast beams of the multi-server baseline.

    ``multicast_gains[k']`` is the squared effective channel of the common
    stream at multicast user ``k'``; ``unicast_gains[k]`` that of unicast
    stream ``k`` at its own user.
    """

    multicast_beam: np.ndarray   # (L,)
    unicast_beams: np.ndarray    # (L, Q_uc)
    multicast_gains: np.ndarray  # (G,)
    unicast_gains: np.ndarray    # (Q_uc,)

    @property
    def num_unicast(self) -> int:
        return self.unicast_beams.shape[1]


def msv_beamformers(
    multicast_channels: np.ndarray,
    unicast_channels: np.ndarray,
    num_unicast: int,
) -> MsvSolution:
    """Null-steering beams for one multicast plus ``num_unicast`` streams.

    Channels are rows of the given ``(G, L)`` / ``(Q_uc, L)`` arrays.  The
    common beam is steered at the first multicast user inside the null
    space of all unicast channels (plain matched filter when there is
    nothing to null); each unicast beam nulls the first multicast user and
    the other unicast users.
    """
    h_mc = np.asarray(multicast_channels, dtype=complex)
    h_uc = np.asarray(unicast_channels, dtype=complex)
    L = h_mc.shape[1]
    if num_unicast > L - 1:
        raise InfeasibleDimensionError(
            f"{num_unicast} unicast streams exceed the {L - 1} null-space dimensions"
        )
    if h_uc.shape[0] < num_unicast:
        raise ValueError("not enough unicast channels supplied")
    uc_cols = h_uc[:num_unicast].T  # (L, Q_uc)

    if num_unicast == 0:
        f0 = h_mc[0].conj() / np.linalg.norm(h_mc[0])
    else:
        t0 = null_projector(uc_cols)
        f0 = t0 @ h_mc[0].conj()
        f0 /= np.linalg.norm(f0)

    beams = np.zeros((L, num_unicast), dtype=complex)
    for k in range(num_unicast):
        others = np.hstack([h_mc[0][:, None], np.delete(uc_cols, k, axis=1)])
        tk = null_projector(others)
        fk = tk @ uc_cols[:, k].conj()
        beams[:, k] = fk / np.linalg.norm(fk)

    mc_gains = np.abs(h_mc @ f0) ** 2
    uc_gains = np.abs(np.einsum("lk,lk->k", uc_cols, beams)) ** 2
    return MsvSolution(f0, beams, mc_gains, uc_gains)


def msv_rate_from_gains(
    multicast_gains: np.ndarray,
    unicast_gains: np.ndarray,
    p_tot: float,
    noise_power: float,
    coded_gain: int,
    cached_load: int,
    coherence_symbols: int,
    pilot_symbols: int,
) -> float:
    """Effective total rate of the multi-server baseline, in nats/s/Hz.

    Power splits equally over the ``num_unicast + 1`` streams.  The common
    stream is decoded by ``coded_gain`` users and runs at the worst of
    their effective channels; pilot overhead covers all
    ``num_unicast + 1 + cached_load`` served single-antenna users.

    Raises
    ------
    OverheadExceedsCoherenceError
        If those pilots would consume more than the coherence block.
    """
    streams = len(unicast_gains) + 1
    xi = csi_overhead(
        coherence_symbols, pilot_symbols, streams + cached_load
    ).overhead_factor
    p = p_tot / streams
    r_mc = coded_gain * np.min(np.log1p(p * np.asarray(multicast_gains) / noise_power))
    r_uc = float(np.sum(np.log1p(p * np.asarray(unicast_gains) / noise_power)))
    return xi * (r_mc + r_uc)


def msv_gains_fast(
    multicast_channels: np.ndarray,
    unicast_channels: np.ndarray,
    num_unicast: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Beam gains of :func:`msv_beamformers` without building every beam.

    The squared effective channel of a null-steered matched-filter beam
    equals the squared distance of the target (conjugated) channel from the
    span of the nulled ones, which is one diagonal entry of an inverse Gram
    matrix; only the common beam is formed explicitly for its gains at the
    non-targeted multicast users.
    """
    h_mc = np.asarray(multicast_channels, dtype=complex)
    h_uc = np.asarray(unicast_channels, dtype=complex)
    if num_unicast == 0:
        f0 = h_mc[0].conj() / np.linalg.norm(h_mc[0])
        return np.abs(h_mc @ f0) ** 2, np.zeros(0)
    stacked = np.concatenate([h_mc[:1], h_uc[:num_unicast]], axis=0).T
    _, gains = zf_matrix(stacked)
    u = h_uc[:num_unicast].T
    alpha = np.linalg.solve(u.T @ u.conj(), u.T @ h_mc[0].conj())
    f0 = h_mc[0].conj() - u.conj() @ alpha
    f0 /= np.linalg.norm(f0)
    return np.abs(h_mc @ f0) ** 2, gains[1:]


def msv_high_snr_gain_limit(num_tx_antennas: int, cached_load: int) -> float:
    """Limiting gain of the full-multiplexing baseline as power grows."""
    return (num_tx_antennas + cached_load) / num_tx_antennas
