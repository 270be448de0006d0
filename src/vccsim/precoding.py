"""Transmit precoders, receive combiners and per-symbol SINRs.

Three beamformer families are implemented:

* block-diagonalization with per-stream maximal-ratio combining (BD-MRC);
* zero-forcing (ZF), which diagonalizes the whole group channel;
* multicast/unicast null-steering beamformers for the bit-level
  multi-server (MSV) baseline.

BD-MRC and ZF share one kernel, the inverse of the group Gram matrix
``G = H.T @ H.conj()``, taken from the QR factor of ``H.conj()`` so that it
is as accurate as ``H`` itself.  ZF stream gains are ``1 / diag(inv(G))``.
By the Schur complement, the k-th ``M x M`` diagonal block of ``inv(G)`` is
the inverse of user k's projected matrix ``H_k.T @ T_k @ H_k.conj()``, with
``T_k`` the null projector of the other users' channels, so user k's BD-MRC
stream gains are the reciprocal eigenvalues of that block.

The Monte Carlo runners call only the fast paths, which return gains
without forming every beam: :func:`bd_mrc_gains` and :func:`zf_gains` on a
stack of groups, :func:`zf_matrix` and :func:`msv_gains_fast`, plus the
rate and SINR formulas :func:`msv_rate_from_gains`,
:func:`zf_imperfect_csit_sinr` and :func:`zf_imperfect_csir_sinr`.
:func:`bd_mrc_eigenvalues` applies the same kernel to one group of any
antenna counts.  A group whose Gram matrix is numerically singular, or
whose blocks give a non-finite gain or trip :data:`RANK_CUTOFF`, falls back
to the per-user Schur-complement path (safety code for singular draws),
which truncates rank-deficient streams and raises
:class:`InfeasibleDimensionError` for a user left with none.  The definition-level designs :func:`bd_mrc`,
:func:`sinr_from_matrices`, :func:`bd_mrc_sinr`, :func:`msv_beamformers`
and :func:`null_projector` are oracles: the tests check the fast paths
against them.

Channels follow the convention that a user with channel matrix ``H``
receives ``H.T @ x``, so a beam ``v`` is invisible to ``H`` iff
``H.T @ v == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
    "bd_mrc_gains",
    "bd_mrc_sinr",
    "sinr_from_matrices",
    "zf_matrix",
    "zf_gains",
    "zf_imperfect_csit_sinr",
    "zf_imperfect_csir_sinr",
    "msv_beamformers",
    "msv_rate_from_gains",
    "msv_gains_fast",
    "msv_high_snr_gain_limit",
]

# Eigenvalues below this fraction of the largest one count as zero rank.
RANK_CUTOFF = 1e-10
# Gram matrices whose eigenvalue spread exceeds this count as numerically
# singular: _gram_solve takes the pseudo-inverse, _gram_inverse flags them.
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


def _gram_inverse(h: np.ndarray) -> np.ndarray | None:
    """Inverse Gram matrix ``inv(H.T @ H.conj())`` of one ``(L, N)`` channel.

    The inverse comes from the triangular factor ``R`` of
    ``H.conj() = Q @ R`` (the Gram matrix's Cholesky factor), as
    ``inv(R) @ inv(R).conj().T``, which keeps the accuracy of ``H`` instead
    of squaring its condition number by forming the Gram matrix.  Returns
    ``None`` if the Gram matrix is numerically singular: a squared pivot of
    ``R`` at or below :data:`PINV_CUTOFF` times the largest one.
    """
    l_tx, n = h.shape
    if n > l_tx:
        return None
    # LAPACK's QR directly: numpy.linalg.qr costs several times more per call
    # on these small matrices.  R is the upper triangle of the first n rows.
    r = np.triu(lapack.zgeqrf(h.conj())[0][:n])
    pivots = np.abs(r.diagonal())
    if not pivots.min() ** 2 > PINV_CUTOFF * pivots.max() ** 2:
        return None
    r_inv = np.linalg.inv(r)
    return r_inv @ r_inv.conj().T


def _gram_inverses(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gram_inverse` over a ``(G, L, N)`` stack: ``(inv, ok)``, with
    the identity as a placeholder where ``ok`` is False."""
    n = h.shape[-1]
    inv = np.empty((h.shape[0], n, n), dtype=complex)
    ok = np.ones(h.shape[0], dtype=bool)
    for g, h_g in enumerate(h):
        inv_g = _gram_inverse(h_g)
        ok[g] = inv_g is not None
        inv[g] = inv_g if ok[g] else np.eye(n)
    return inv, ok


def _block_gains(blocks: np.ndarray) -> np.ndarray:
    """BD-MRC stream gains, descending, from diagonal blocks of ``inv(G)``."""
    return 1.0 / np.linalg.eigvalsh(blocks)


def _usable(gains: np.ndarray) -> np.ndarray:
    """Per user: every gain finite, positive and above the rank cutoff."""
    top = np.max(gains, axis=-1, keepdims=True)
    return np.all(np.isfinite(gains) & (gains > 0) & (gains > RANK_CUTOFF * top), axis=-1)


def bd_mrc_eigenvalues(group: GroupChannel) -> list[np.ndarray]:
    """Per-user BD-MRC stream gains without building the beamformers.

    Matches the eigenvalues of :func:`bd_mrc`: one Gram-matrix inverse per
    group, one small eigenproblem per user, with the per-user fallback of
    :func:`bd_mrc_gains` for singular or rank-deficient groups.
    """
    mats = [h for h, _ in group.per_user]
    inv = _gram_inverse(group.stacked())
    if inv is not None:
        edges = np.cumsum((0,) + group.antenna_counts)
        gains = [_block_gains(inv[a:b, a:b]) for a, b in zip(edges[:-1], edges[1:])]
        if all(_usable(g) for g in gains):
            return gains
    return _bd_eigs_generic(mats)


def bd_mrc_gains(h: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """BD-MRC stream gains of a stack of groups of ``m``-antenna users.

    ``h`` has shape ``(G, L, q * m)``: group g's users side by side, user k
    in columns ``k*m`` to ``(k+1)*m``.  Returns ``(gains, counts)`` with
    ``gains`` of shape ``(G, q, m)``, descending per user and zero past
    ``counts`` ``(G, q)``.  Groups failing the checks of the batched kernel
    go through the per-user path, which may truncate streams.

    Raises
    ------
    InfeasibleDimensionError
        If some user is left without a single positive-gain stream.
    """
    g_count, _, n = h.shape
    q = n // m
    inv, ok = _gram_inverses(h)
    blocks = np.diagonal(inv.reshape(g_count, q, m, q, m), axis1=1, axis2=3)
    gains = _block_gains(np.moveaxis(blocks, -1, 1))
    counts = np.full((g_count, q), m)
    for g in np.flatnonzero(~(ok & _usable(gains).all(axis=-1))):
        per_user = _bd_eigs_generic([h[g][:, k * m : (k + 1) * m] for k in range(q)])
        gains[g] = 0.0
        for k, w in enumerate(per_user):
            gains[g, k, : w.size] = w
            counts[g, k] = w.size
    return gains, counts


def _bd_eigs_generic(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Per-user Schur-complement path for singular or rank-deficient groups.

    A stream counts only above :data:`RANK_CUTOFF` times the user's own
    channel energy, so a user inside the span of the others, whose
    projected matrix holds rounding noise only, is left without streams.
    """
    out = []
    for k, h_k in enumerate(mats):
        small = _bd_small_matrix(h_k, _others(mats, k))
        w = np.linalg.eigvalsh(small)[::-1]
        j = int(np.sum(w > RANK_CUTOFF * np.sum(np.abs(h_k) ** 2)))
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
    inv = _gram_inverse(stacked)
    if inv is None:
        raise SingularMatrixError("channel Gram matrix is numerically singular")
    gains = 1.0 / inv.diagonal().real
    v = stacked.conj() @ inv * np.sqrt(gains)[None, :]
    return v, gains


def zf_gains(h: np.ndarray) -> np.ndarray:
    """ZF per-stream gains ``(G, N)`` of a stack of channels ``(G, L, N)``.

    Raises
    ------
    SingularMatrixError
        If some channel Gram matrix is not invertible.
    """
    inv, ok = _gram_inverses(h)
    if not ok.all():
        raise SingularMatrixError("channel Gram matrix is numerically singular")
    return 1.0 / np.diagonal(inv, axis1=1, axis2=2).real


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
