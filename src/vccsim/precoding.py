"""Transmit precoders, receive combiners and per-symbol SINRs.

Three beamformer families are implemented:

* block-diagonalization with per-stream maximal-ratio combining (BD-MRC);
* zero-forcing (ZF), which diagonalizes the whole group channel;
* multicast/unicast null-steering beamformers for the bit-level
  multi-server (MSV) baseline.

Every scheme shares one kernel, the inverse of the group Gram matrix
``G = H.T @ H.conj()``, taken from the QR factor of ``H.conj() = Q @ R`` so
that it is as accurate as ``H`` itself: ``inv(G) = inv(R) @ inv(R).conj().T``.
ZF stream gains are ``1 / diag(inv(G))``.  By the Schur complement, the k-th
``M x M`` diagonal block of ``inv(G)`` is the inverse of user k's projected
matrix ``H_k.T @ T_k @ H_k.conj()``, with ``T_k`` the null projector of the
other users' channels, so user k's BD-MRC stream gains are the reciprocal
eigenvalues of that block.  The MSV beams for ``n`` unicast streams are the
ZF precoder of the first ``n + 1`` columns of ``[mc_0, uc_1, ...]``: column
0 is the common beam, the others the unicast beams.

The kernel serves every column prefix from one factorization (Golub and
Van Loan, *Matrix Computations*, section 5.2): the factor of the first
``n`` columns of ``H.conj()`` is ``R[:n, :n]``, and the inverse of that
leading block of the triangular ``R`` is the leading block of ``inv(R)``.
So the Gram inverse of the first ``q`` users of a group, for every ``q``,
comes from one QR factorization and one ``inv(R)`` per group, both batched
over the stack with numpy (LAPACK ``zgeqrf`` and ``zgesv``).  One block
function, :func:`_prefix_blocks`, forms every user's ``M x M`` diagonal
block of every prefix Gram inverse: the outer products of the user's rows
of ``inv(R)``, column by column, contracted with a 0/1 prefix mask in one
matrix product.  BD-MRC gains are the reciprocal eigenvalues of those
blocks, in closed form for ``M <= 2`` and from LAPACK's ``eigvalsh`` for
larger blocks (:func:`_block_gains`), and ZF gains the ``M = 1`` case, the
reciprocal ``1 x 1`` blocks.
The couplings of a prefix's ZF precoder with a receiver are one row of
``(h.T @ H.conj()) @ inv(R)``, cut at the prefix size, times
``inv(R).conj().T``: every requested (prefix, receiver) pair is one row of
a single batched product.

The Monte Carlo loop calls only the fast paths, which return gains
without forming every beam, for a whole sweep of served-user counts:
:func:`bd_mrc_prefix_gains` and :func:`zf_prefix_gains` on the
:func:`prefix_factor` of a stack of groups, so that BD-MRC and ZF on the
same draw share one factorization, :func:`zf_prefix_couplings` on a stack
of groups at the (prefix, receiver) pairs a caller reads,
:func:`msv_gains_fast` on one multicast/unicast draw, and the
rate formula :func:`msv_rate_from_gains` over the (count, power) grid.
:func:`zf_matrix` is the full-prefix case of the same kernel.  A prefix
whose Gram matrix is numerically singular, or whose blocks give a
non-finite gain or trip :data:`RANK_CUTOFF`, falls back to the per-user
Schur-complement path for BD-MRC (safety code for singular draws), which
truncates rank-deficient streams and raises
:class:`InfeasibleDimensionError` for a user left with none; ZF and MSV
raise :class:`SingularMatrixError`.  :func:`bd_mrc_eigenvalues` is that
per-user path on one group, for users of any antenna counts.  The
definition-level designs :func:`bd_mrc`, :func:`sinr_from_matrices`,
:func:`bd_mrc_sinr`, :func:`msv_beamformers`, :func:`null_projector` and
the SINR formulas :func:`zf_imperfect_csit_sinr` and
:func:`zf_imperfect_csir_sinr` are oracles: the tests check the fast paths
against them.

Channels follow the convention that a user with channel matrix ``H``
receives ``H.T @ x``, so a beam ``v`` is invisible to ``H`` iff
``H.T @ v == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    "PrefixFactor",
    "prefix_factor",
    "bd_mrc_prefix_gains",
    "bd_mrc_sinr",
    "sinr_from_matrices",
    "zf_matrix",
    "zf_prefix_gains",
    "zf_prefix_couplings",
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
# singular: _gram_solve takes the pseudo-inverse, _prefix_inverse flags them.
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


def _prefix_inverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse QR factor of a ``(G, L, N)`` stack, valid for every prefix.

    Per group, ``H.conj() = Q @ R``, from one ``np.linalg.qr`` over the
    whole stack (LAPACK ``zgeqrf`` per group, without forming ``Q``).  The
    first ``n`` columns have factor ``R[:n, :n]``, whose inverse is the
    leading block of ``inv(R)``, so the Gram inverse of that prefix is
    ``r_inv[:n, :n] @ r_inv[:n, :n].conj().T``.  Returns ``(r_inv, valid)``:
    ``valid[g]`` is the longest prefix of group g whose Gram matrix is not
    numerically singular (every squared pivot of ``R`` above
    :data:`PINV_CUTOFF` times the largest; the ratio only falls as columns
    are added), and only that leading block of ``r_inv[g]`` is inverted,
    the rest is zero.
    """
    g_count, l_tx, n = h.shape
    k = min(l_tx, n)
    r = np.linalg.qr(h.conj(), mode="r")[..., :k, :k]
    pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    ok = (np.minimum.accumulate(pivots, axis=-1) ** 2
          > PINV_CUTOFF * np.maximum.accumulate(pivots, axis=-1) ** 2)
    valid = np.where(ok.all(axis=-1), k, np.argmin(ok, axis=-1))
    r_inv = np.zeros((g_count, n, n), dtype=complex)
    full = valid == k
    if full.any():
        r_inv[full, :k, :k] = np.linalg.inv(r[full])
    for g in np.flatnonzero(~full & (valid > 0)):
        r_inv[g, : valid[g], : valid[g]] = np.linalg.inv(r[g, : valid[g], : valid[g]])
    return r_inv, valid


class PrefixFactor(NamedTuple):
    """A ``(G, L, N)`` channel stack with the ``(r_inv, valid)`` of
    :func:`_prefix_inverse`, shared by every gain kernel of that draw."""

    h: np.ndarray
    r_inv: np.ndarray
    valid: np.ndarray


def prefix_factor(h: np.ndarray) -> PrefixFactor:
    """Factor a ``(G, L, N)`` stack once for :func:`bd_mrc_prefix_gains` and
    :func:`zf_prefix_gains`."""
    return PrefixFactor(h, *_prefix_inverse(h))


def _prefix_blocks(factor: PrefixFactor, m: int, q_values) -> np.ndarray:
    """Each user's ``m x m`` diagonal block of every prefix Gram inverse.

    User k holds columns ``k*m`` to ``(k+1)*m`` of ``factor.h``.  Returns
    shape ``(G, S, N // m, m, m)``: the block of user k in the Gram inverse
    of the first ``q * m`` columns, for the ``S`` entries q of ``q_values``,
    zero for users at or past q.  That block is the sum over the prefix
    columns c of the outer products ``r_inv[k rows, c] ⊗ conj(r_inv[k rows,
    c])``, so every block of every prefix is one product of a 0/1 prefix
    mask with the per-column outer products (a user past the prefix has no
    entries there, ``r_inv`` being upper triangular).
    """
    g_count, n, _ = factor.r_inv.shape
    qs = np.asarray(q_values)
    cols = int(qs.max()) * m
    # rows[i, c, g, k]: row k*m + i of r_inv[g] in column c.  With (i, j)
    # leading, numpy's loops run over every (column, group, user) at once;
    # a (column, group, user, i, j) layout is 2-3x slower at m = 2.
    rows = factor.r_inv[..., :cols].reshape(g_count, n // m, m, cols).transpose(2, 3, 0, 1).copy()
    outer = rows[:, None] * rows[None].conj()
    mask = (np.arange(cols) < qs[:, None] * m).astype(float)
    blocks = (mask @ outer.reshape(m, m, cols, -1).view(float)).view(complex)
    return blocks.reshape(m, m, qs.size, g_count, n // m).transpose(3, 2, 4, 0, 1)


def _block_gains(blocks: np.ndarray) -> np.ndarray:
    """BD-MRC stream gains, descending, from diagonal blocks of ``inv(G)``.

    The reciprocal eigenvalues of each Hermitian block, read from its lower
    triangle as ``np.linalg.eigvalsh`` reads it.  Blocks of one or two rows
    take closed forms; larger ones (fig2's and fig3-fig5's ``m = 4``, fig2's
    ``m = 12``) go to ``eigvalsh``.

    * ``m = 1``: the reciprocal real diagonal, bit for bit ``1 / eigvalsh``.
    * ``m = 2``, block ``[[a, .], [c, d]]``: ``lam_max = (a + d) / 2 +
      sqrt(((a - d) / 2)**2 + |c|**2)``.  The smaller root is taken as
      ``det / lam_max``, which does not cancel as ``(a + d) / 2 - sqrt(...)``
      does, so the gains are ``[lam_max / det, 1 / lam_max]``.  A block
      that rounds singular (``det <= 0``) gives an infinite or negative gain,
      which :func:`_usable` rejects.
    """
    m = blocks.shape[-1]
    if m == 1:
        return 1.0 / blocks[..., 0].real
    if m == 2:
        a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        c = blocks[..., 1, 0]
        c2 = c.real**2 + c.imag**2
        top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + c2)
        with np.errstate(divide="ignore"):
            return np.stack([top / (a * d - c2), 1.0 / top], axis=-1)
    return 1.0 / np.linalg.eigvalsh(blocks)


def _usable(gains: np.ndarray) -> np.ndarray:
    """Per user: every gain finite, positive and above the rank cutoff."""
    top = np.max(gains, axis=-1, keepdims=True)
    return np.all(np.isfinite(gains) & (gains > 0) & (gains > RANK_CUTOFF * top), axis=-1)


def bd_mrc_eigenvalues(group: GroupChannel) -> list[np.ndarray]:
    """Per-user BD-MRC stream gains without building the beamformers.

    Matches the eigenvalues of :func:`bd_mrc` for users of any antenna
    counts: the per-user Schur-complement path that
    :func:`bd_mrc_prefix_gains` falls back on, which truncates
    rank-deficient streams.
    """
    return _bd_eigs_generic([h for h, _ in group.per_user])


def bd_mrc_prefix_gains(
    factor: PrefixFactor, m: int, q_values
) -> tuple[np.ndarray, np.ndarray]:
    """BD-MRC stream gains of the first ``q`` users of each group, every q.

    ``factor.h`` has shape ``(G, L, q_top * m)``: group g's users side by
    side, user k in columns ``k*m`` to ``(k+1)*m``.  Returns ``(gains,
    counts)`` of shapes ``(G, S, q_top, m)`` and ``(G, S, q_top)`` for the ``S``
    entries of ``q_values``: gains descending per user and zero past each
    user's count, users at or past q with count 0.  The gains are the
    reciprocal eigenvalues of user k's block of the prefix Gram inverse
    (:func:`_prefix_blocks`), so one factorization serves every q.  For
    ``m <= 2`` they are closed forms (:func:`_block_gains`: the reciprocal
    diagonal at ``m = 1``; at ``m = 2`` the larger eigenvalue ``lam_max``
    from the quadratic formula and the smaller one as ``det / lam_max``);
    for larger ``m``, one batched ``eigvalsh`` over every valid cell.  A
    (group, q) cell whose prefix is singular, or whose blocks give an
    unusable gain, goes through the per-user path, which may truncate
    streams.

    Raises
    ------
    InfeasibleDimensionError
        If some user is left without a single positive-gain stream.
    """
    h, _, valid = factor
    g_count, _, n = h.shape
    q_top = n // m
    qs = np.asarray(q_values)
    served = np.arange(q_top) < qs[:, None]
    prefix_ok = valid[:, None] >= qs * m
    cells = prefix_ok[:, :, None] & served
    gains = np.zeros((g_count, qs.size, q_top, m))
    gains[cells] = _block_gains(_prefix_blocks(factor, m, qs)[cells])
    counts = np.where(cells, m, 0)
    unusable = np.zeros(cells.shape, dtype=bool)
    unusable[cells] = ~_usable(gains[cells])
    for g, s in zip(*np.nonzero(~prefix_ok | unusable.any(axis=-1))):
        q = qs[s]
        per_user = _bd_eigs_generic([h[g][:, k * m : (k + 1) * m] for k in range(q)])
        gains[g, s] = 0.0
        for k, w in enumerate(per_user):
            gains[g, s, k, : w.size] = w
            counts[g, s, k] = w.size
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


def zf_prefix_gains(factor: PrefixFactor, sizes) -> np.ndarray:
    """ZF per-stream gains of the first ``n`` columns of each channel in the
    factored ``(G, L, N)`` stack, for every ``n`` in ``sizes``: shape
    ``(G, S, N)``, zero past each prefix.  They are ``1 / diag`` of each
    prefix Gram inverse: the ``1 x 1`` blocks of :func:`_prefix_blocks`.

    Raises
    ------
    SingularMatrixError
        If the Gram matrix of some requested prefix is not invertible.
    """
    sizes = np.asarray(sizes)
    if np.any(factor.valid < sizes.max()):
        raise SingularMatrixError("channel Gram matrix is numerically singular")
    diag = _prefix_blocks(factor, 1, sizes)[..., 0, 0].real
    inside = np.arange(diag.shape[-1]) < sizes[:, None]
    return np.divide(1.0, diag, out=np.zeros_like(diag), where=inside)


def zf_matrix(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ZF precoder and per-stream gains for a stacked ``(L, M)`` channel.

    Raises
    ------
    SingularMatrixError
        If the channel Gram matrix is not invertible.
    """
    factor = prefix_factor(stacked[None])
    gains = zf_prefix_gains(factor, (stacked.shape[1],))[0, 0]
    r_inv = factor.r_inv[0]
    v = stacked.conj() @ (r_inv @ r_inv.conj().T) * np.sqrt(gains)[None, :]
    return v, gains


def zf_prefix_couplings(
    h: np.ndarray, h_hat: np.ndarray, pairs
) -> tuple[np.ndarray, np.ndarray]:
    """True-channel couplings of ZF precoders designed on estimates, at the
    requested (prefix size, receiver) pairs only.

    ``h`` is a ``(G, L, K)`` stack of ``K`` receivers' true channels and
    ``h_hat`` a ``(G, L, N)`` stack of the estimated channels the precoders
    are designed on.  ``pairs`` holds ``T`` pairs ``(n, k)``: receiver ``k``
    meets the ZF precoder ``V_n`` of the first ``n`` estimated columns
    (unit-norm columns, as in :func:`zf_matrix`) as ``h[:, :, k].T @ V_n``.
    Returns, per pair, the ZF gains of its prefix (as in
    :func:`zf_prefix_gains`) and its couplings, both of shape ``(G, T, N)``
    and zero past the pair's ``n`` streams.  With ``h_hat.conj() = Q @ R``
    and ``X = (h.T @ h_hat.conj()) @ inv(R)``, whose leading columns do not
    depend on the prefix, receiver k's couplings with the first ``n``
    streams are ``X[k, :n] @ inv(R)[:n, :n].conj().T`` times ``sqrt`` of the
    prefix's ZF gains along its streams.  As ``inv(R)`` is upper
    triangular, that is row k of X with its columns from ``n`` on set to
    zero, times ``inv(R).conj().T``: so all ``T`` pairs are one batched
    product of their masked rows, from one factorization.  Perfect CSI at
    the served users is ``h_hat = h``.

    Raises
    ------
    SingularMatrixError
        If the Gram matrix of some requested estimated prefix is not
        invertible.
    """
    sizes, receivers = np.asarray(pairs).reshape(-1, 2).T
    factor = prefix_factor(h_hat)
    distinct, per_pair = np.unique(sizes, return_inverse=True)
    gains = zf_prefix_gains(factor, distinct)[:, per_pair]
    r_inv = factor.r_inv
    x = h.swapaxes(-1, -2) @ h_hat.conj() @ r_inv
    rows = np.take(x, receivers, axis=1)
    rows *= np.arange(r_inv.shape[-1]) < sizes[:, None]
    coupling = rows @ r_inv.conj().swapaxes(-1, -2)
    coupling *= np.sqrt(gains)
    return gains, coupling


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
    unicast_counts,
    p_tot,
    noise_power: float,
    coded_gain: int,
    cached_load: int,
    coherence_symbols: int,
    pilot_symbols: int,
) -> np.ndarray:
    """Effective total rate of the multi-server baseline, in nats/s/Hz.

    Row ``s`` of the ``(..., S, G)`` multicast and ``(..., S, U)`` unicast
    gains serves ``unicast_counts[s]`` unicast streams, with unicast gains
    zero past that count (they add ``log1p(0) = 0``); ``p_tot`` holds ``P``
    total powers, and the result has shape ``(..., S, P)``.  Power splits
    equally over the ``count + 1`` streams.  The common stream is decoded by
    ``coded_gain`` users and runs at the worst of their effective channels;
    pilot overhead covers all ``count + 1 + cached_load`` served
    single-antenna users.

    Raises
    ------
    OverheadExceedsCoherenceError
        If those pilots would consume more than the coherence block.
    """
    streams = np.asarray(unicast_counts) + 1
    xi = np.array(
        [csi_overhead(coherence_symbols, pilot_symbols, n + cached_load) for n in streams]
    )
    p = (np.asarray(p_tot, dtype=float)[None, :] / streams[:, None])[..., None]
    mc = np.asarray(multicast_gains)[..., None, :]
    uc = np.asarray(unicast_gains)[..., None, :]
    r_mc = coded_gain * np.min(np.log1p(p * mc / noise_power), axis=-1)
    r_uc = np.sum(np.log1p(p * uc / noise_power), axis=-1)
    return xi[:, None] * (r_mc + r_uc)


def msv_gains_fast(
    multicast_channels: np.ndarray,
    unicast_channels: np.ndarray,
    unicast_counts,
) -> tuple[np.ndarray, np.ndarray]:
    """Beam gains of :func:`msv_beamformers` for every unicast count.

    The beams of ``n`` unicast streams are the ZF precoder of the first
    ``n + 1`` columns of ``[mc_0, uc_1, ..., uc_U]`` (channels as columns):
    column 0 is the common beam, steered at the first multicast user inside
    the null space of the unicast channels, and column ``k`` nulls the first
    multicast user and every other unicast user.  So one prefix
    factorization serves the whole sweep; a one-column prefix is the matched
    filter.  Returns the multicast gains ``(S, G)`` (squared couplings of
    the common beam at every multicast user, from the couplings at every
    (count, multicast user) pair) and the unicast gains ``(S, U)``, zero
    past each count.
    """
    h_mc = np.asarray(multicast_channels, dtype=complex)
    h_uc = np.asarray(unicast_channels, dtype=complex)
    stack = np.concatenate([h_mc[:1], h_uc], axis=0).T[None]
    g_mc = h_mc.shape[0]
    pairs = [(n + 1, k) for n in unicast_counts for k in range(g_mc)]
    gains, coupling = zf_prefix_couplings(h_mc.T[None], stack, pairs)
    return np.abs(coupling[0, :, 0].reshape(-1, g_mc)) ** 2, gains[0, ::g_mc, 1:]


def msv_high_snr_gain_limit(num_tx_antennas: int, cached_load: int) -> float:
    """Limiting gain of the full-multiplexing baseline as power grows."""
    return (num_tx_antennas + cached_load) / num_tx_antennas
