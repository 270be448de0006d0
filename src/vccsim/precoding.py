"""Stream gains and couplings of the transmit precoders, from one kernel.

Three beamformer families are covered:

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
matrix product per group, so that a group's bits do not depend on the
other groups of its stack.  BD-MRC gains are the reciprocal eigenvalues of
those blocks, in closed form for ``M <= 2`` and from LAPACK's ``eigvalsh``
for larger blocks (:func:`_block_gains`), and ZF gains the ``M = 1`` case,
the reciprocal ``1 x 1`` blocks.
The couplings of a prefix's ZF precoder with a receiver are one row of
``X = (h.T @ H.conj()) @ inv(R)``, cut at the prefix size, times
``inv(R).conj().T``: every served ``(q, user)`` pair of a q sweep is one row
of a single batched product.  MSV reads only the common beam, column 0 of
that product, so a multicast user's coupling with it is the sum of its row
of ``X`` times ``conj(inv(R)[0])`` over the prefix columns: every count is
one product with the sweep's 0/1 prefix mask.
Every array that depends only on the q sweep (the prefix masks, the served
users, the served pairs with their masks and starts) is built once per
process and sweep (:func:`_sweep`), read-only so that every call shares it;
the imperfect-CSI rules of :mod:`vccsim.experiments` read their pairs there.

The Monte Carlo loop calls only the fast paths, which return gains
without forming every beam, for a whole sweep of served-user counts:
:func:`bd_mrc_prefix_gains` and :func:`zf_prefix_gains` on the
:func:`prefix_factor` of a stack of groups, so that BD-MRC and ZF on the
same draw share one factorization, :func:`zf_prefix_couplings` on the
factor of a stack of estimated channels, at the served pairs of a q sweep,
:func:`msv_gains_fast` on one multicast/unicast draw, and the
rate formula :func:`msv_rate_from_gains` over the (count, power) grid, at
overhead factors its caller gives.
:func:`zf_matrix` is the full-prefix case of the same kernel.  A prefix
whose Gram matrix is numerically singular, or whose blocks give a
non-finite gain or trip :data:`RANK_CUTOFF`, falls back to the per-user
Schur-complement path for BD-MRC (safety code for singular draws), which
truncates rank-deficient streams and raises
:class:`InfeasibleDimensionError` for a user left with none; ZF and MSV
raise :class:`SingularMatrixError`.  :func:`bd_mrc_eigenvalues` is that
per-user path on one group, for users of any antenna counts.  The
definition-level beamformers and SINR formulas that the tests check these
paths against are in ``tests/oracles.py``, with a table of which fast path
each one checks.

Channels follow the convention that a user with channel matrix ``H``
receives ``H.T @ x``, so a beam ``v`` is invisible to ``H`` iff
``H.T @ v == 0``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .channel import GroupChannel
from .errors import InfeasibleDimensionError, SingularMatrixError

__all__ = [
    "bd_mrc_eigenvalues",
    "PrefixFactor",
    "prefix_factor",
    "bd_mrc_prefix_gains",
    "zf_matrix",
    "zf_prefix_gains",
    "zf_prefix_couplings",
    "msv_rate_from_gains",
    "msv_gains_fast",
]

# Eigenvalues below this fraction of the largest one count as zero rank.
RANK_CUTOFF = 1e-10
# Gram matrices whose eigenvalue spread exceeds this count as numerically
# singular: _gram_solve takes the pseudo-inverse, _prefix_inverse flags them.
PINV_CUTOFF = 1e-12


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
    the rest is zero.  Where ``N <= L`` and no group is singular, that is
    ``np.linalg.inv`` of the whole stack of ``R``, with no zero buffer.
    """
    g_count, l_tx, n = h.shape
    k = min(l_tx, n)
    r = np.linalg.qr(h.conj(), mode="r")[..., :k, :k]
    pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    ok = (np.minimum.accumulate(pivots, axis=-1) ** 2
          > PINV_CUTOFF * np.maximum.accumulate(pivots, axis=-1) ** 2)
    valid = np.where(ok.all(axis=-1), k, np.argmin(ok, axis=-1))
    full = valid == k
    if k == n and full.all():
        return np.linalg.inv(r), valid
    r_inv = np.zeros((g_count, n, n), dtype=complex)
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


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a table that every later call shares."""
    a.flags.writeable = False
    return a


def _key(values) -> tuple:
    """A sequence of sizes or counts as a hashable key of the cached tables."""
    return values if type(values) is tuple else tuple(np.asarray(values).tolist())


class _Sweep(NamedTuple):
    """The tables of a q sweep at ``m`` columns per user of an ``n``-column
    stack, which depend on nothing else (:func:`_sweep`).  The CSI rules
    read the table that :func:`zf_prefix_couplings` reads, at ``n = max(q)``."""

    columns: np.ndarray  # (S,): each prefix's columns, q * m
    served: np.ndarray  # (S, n // m) bool: user k inside the prefix
    mask: np.ndarray  # (max(S, 2), max(q) * m) 0/1: column c inside the prefix
    pairs: np.ndarray  # (2, T): each served pair's q index and user, q by q
    pair_mask: np.ndarray  # (T, n) bool: column c inside the pair's prefix
    starts: np.ndarray  # (S,): index of each q's first pair in pairs


@functools.lru_cache(maxsize=None)
def _sweep(q_values: tuple, m: int, n: int) -> _Sweep:
    """The :class:`_Sweep` of ``q_values``, built once per process and
    read-only."""
    qs = np.array(q_values)
    # A one-row mask takes BLAS's matrix-vector path, which rounds otherwise
    # than the matrix-matrix one; padded to two rows, a prefix's blocks do
    # not depend on which other prefixes are asked for.
    padded = np.resize(qs, max(qs.size, 2))
    mask = (np.arange(qs.max() * m) < padded[:, None] * m).astype(float)
    served = np.arange(n // m) < qs[:, None]
    pairs = np.array(np.nonzero(served))
    pair_mask = np.arange(n) < qs[pairs[0], None] * m
    sizes = served.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    return _Sweep(*map(_read_only, (qs * m, served, mask, pairs, pair_mask, starts)))


def _prefix_blocks(factor: PrefixFactor, m: int, q_values) -> np.ndarray:
    """Each user's ``m x m`` diagonal block of every prefix Gram inverse.

    User k holds columns ``k*m`` to ``(k+1)*m`` of ``factor.h``.  Returns
    shape ``(G, S, N // m, m, m)``: the block of user k in the Gram inverse
    of the first ``q * m`` columns, for the ``S`` entries q of ``q_values``,
    zero for users at or past q.  That block is the sum over the prefix
    columns c of the outer products ``r_inv[k rows, c] ⊗ conj(r_inv[k rows,
    c])``, so every block of every prefix of a group is one product of the
    sweep's 0/1 prefix mask (:func:`_sweep`) with the group's per-column
    outer products (a user past the prefix has no entries there, ``r_inv``
    being upper triangular).  Each group has a product of its own, as wide
    as its users: the bits of a product's columns depend on its width, so a
    group's blocks would otherwise depend on how many groups share its stack.
    """
    g_count, n, _ = factor.r_inv.shape
    sweep = _sweep(_key(q_values), m, n)
    cols = sweep.mask.shape[1]
    # rows[i, g, c, k]: row k*m + i of r_inv[g] in column c.  With (i, j)
    # leading, numpy's loops run over every (group, column, user) at once;
    # a (column, group, user, i, j) layout is 2-3x slower at m = 2.
    rows = factor.r_inv[..., :cols].reshape(g_count, n // m, m, cols).transpose(2, 0, 3, 1).copy()
    outer = rows[:, None] * rows[None].conj()
    blocks = (sweep.mask @ outer.view(float))[..., : sweep.columns.size, :].view(complex)
    return blocks.transpose(2, 3, 4, 0, 1)


def _block_gains(blocks: np.ndarray, where=True) -> np.ndarray:
    """BD-MRC stream gains, descending, from diagonal blocks of ``inv(G)``.

    The reciprocal eigenvalues of each Hermitian block at ``where``, read
    from its lower triangle as ``np.linalg.eigvalsh`` reads it, and zero
    elsewhere.  Blocks of one or two rows take closed forms over the whole
    array, dividing only at ``where``, so that no block outside it (a zero
    block of an unserved user) divides by zero; larger ones (fig2's and
    fig3-fig5's ``m = 4``, fig2's ``m = 12``) go to ``eigvalsh``, at
    ``where`` only.

    * ``m = 1``: the reciprocal real diagonal, bit for bit ``1 / eigvalsh``.
    * ``m = 2``, block ``[[a, .], [c, d]]``: ``lam_max = (a + d) / 2 +
      sqrt(((a - d) / 2)**2 + |c|**2)``.  The smaller root is taken as
      ``det / lam_max``, which does not cancel as ``(a + d) / 2 - sqrt(...)``
      does, so the gains are ``[lam_max / det, 1 / lam_max]``.  A block
      that rounds singular (``det <= 0``) gives an infinite or negative gain,
      which :func:`_usable` rejects.
    """
    m = blocks.shape[-1]
    where = np.broadcast_to(where, blocks.shape[:-2])
    gains = np.zeros(blocks.shape[:-1])
    if m == 1:
        np.divide(1.0, blocks[..., 0, 0].real, out=gains[..., 0], where=where)
    elif m == 2:
        a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        c = blocks[..., 1, 0]
        c2 = c.real**2 + c.imag**2
        top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + c2)
        with np.errstate(divide="ignore"):
            np.divide(top, a * d - c2, out=gains[..., 0], where=where)
        np.divide(1.0, top, out=gains[..., 1], where=where)
    else:
        gains[where] = 1.0 / np.linalg.eigvalsh(blocks[where])
    return gains


def _usable(gains: np.ndarray) -> np.ndarray:
    """Per user: every gain finite, positive and above the rank cutoff."""
    top = np.max(gains, axis=-1, keepdims=True)
    return np.all(np.isfinite(gains) & (gains > 0) & (gains > RANK_CUTOFF * top), axis=-1)


def bd_mrc_eigenvalues(group: GroupChannel) -> list[np.ndarray]:
    """Per-user BD-MRC stream gains without building the beamformers.

    Matches the eigenvalues of the BD-MRC design (``bd_mrc`` in
    ``tests/oracles.py``) for users of any antenna counts: the per-user Schur-complement path that
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
    from the quadratic formula and the smaller one as ``det / lam_max``),
    over the whole block array with divisions at the valid cells only; for
    larger ``m``, one batched ``eigvalsh`` over every valid cell.  A
    (group, q) cell whose prefix is singular, or whose blocks give an
    unusable gain, goes through the per-user path, which may truncate
    streams.

    Raises
    ------
    InfeasibleDimensionError
        If some user is left without a single positive-gain stream.
    """
    h, _, valid = factor
    sweep = _sweep(_key(q_values), m, h.shape[-1])
    prefix_ok = valid[:, None] >= sweep.columns
    cells = prefix_ok[:, :, None] & sweep.served
    gains = _block_gains(_prefix_blocks(factor, m, q_values), cells)
    counts = np.where(cells, m, 0)
    unusable = cells & ~_usable(gains)
    for g, s in zip(*np.nonzero(~prefix_ok | unusable.any(axis=-1))):
        q = sweep.columns[s] // m
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
    sweep = _sweep(_key(sizes), 1, factor.r_inv.shape[-1])
    if np.any(factor.valid < sweep.columns.max()):
        raise SingularMatrixError("channel Gram matrix is numerically singular")
    diag = _prefix_blocks(factor, 1, sizes)[..., 0, 0].real
    return np.divide(1.0, diag, out=np.zeros_like(diag), where=sweep.served)


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


def zf_prefix_couplings(h: np.ndarray, factor: PrefixFactor, q_values) -> np.ndarray:
    """True-channel couplings of ZF precoders designed on estimates, at the
    served pairs of a q sweep only.

    ``h`` is a ``(G, L, K)`` stack of the true channels of ``K >= max(q)``
    single-antenna users and ``factor`` the prefix factor
    (:func:`prefix_factor`) of ``h_hat``, a ``(G, L, N)`` stack of their
    estimates, which the precoders are designed on.  For each q of
    ``q_values`` and each user ``k < q`` (the served pairs, q by q, users
    ascending), user ``k`` meets the ZF precoder ``V_q`` of the first ``q``
    estimated columns (unit-norm columns, as in :func:`zf_matrix`) as
    ``h[:, :, k].T @ V_q``.  Returns the ``T`` served pairs' couplings,
    ``(G, T, N)``, zero past each pair's ``q`` streams.

    With ``h_hat.conj() = Q @ R`` and ``X = (h.T @ h_hat.conj()) @
    inv(R)``, whose leading columns do not depend on the prefix, user k's
    couplings with the first ``q`` streams are ``X[k, :q] @ inv(R)[:q,
    :q].conj().T`` times ``sqrt`` of the prefix's ZF gains along its
    streams.  As ``inv(R)`` is upper triangular, that is row k of X with its
    columns from ``q`` on set to zero, times ``inv(R).conj().T``: so all
    ``T`` pairs are one batched product of their masked rows, from one
    factorization.  Perfect CSI at the served users is ``factor =
    prefix_factor(h)``.

    X comes from a Gram row, which squares the prefix's condition number,
    so a coupling's relative error grows as about ``8*eps*cond(prefix)**2``.

    Raises
    ------
    SingularMatrixError
        If the Gram matrix of some estimated prefix is not invertible.
    """
    r_inv = factor.r_inv
    sweep = _sweep(_key(q_values), 1, r_inv.shape[-1])
    q_idx, users = sweep.pairs
    gains = zf_prefix_gains(factor, q_values)
    x = h.swapaxes(-1, -2) @ factor.h.conj() @ r_inv
    rows = np.take(x, users, axis=1)
    rows *= sweep.pair_mask
    coupling = rows @ r_inv.conj().swapaxes(-1, -2)
    coupling *= np.sqrt(gains)[:, q_idx]
    return coupling


def msv_rate_from_gains(
    multicast_gains: np.ndarray,
    unicast_gains: np.ndarray,
    unicast_counts,
    p_tot,
    noise_power: float,
    coded_gain: int,
    overhead_factors,
) -> np.ndarray:
    """Effective total rate of the multi-server baseline, in nats/s/Hz.

    Row ``s`` of the ``(..., S, G)`` multicast and ``(..., S, U)`` unicast
    gains serves ``unicast_counts[s]`` unicast streams, with unicast gains
    zero past that count (they add ``log1p(0) = 0``), at the overhead
    factor ``overhead_factors[s]`` of its served users; ``p_tot`` holds
    ``P`` total powers, and the result has shape ``(..., S, P)``.  Power
    splits equally over the ``count + 1`` streams.  The common stream is
    decoded by ``coded_gain`` users and runs at the worst of their effective
    channels.
    """
    streams = np.asarray(unicast_counts) + 1
    p = (np.asarray(p_tot, dtype=float)[None, :] / streams[:, None])[..., None]
    mc = np.asarray(multicast_gains)[..., None, :]
    uc = np.asarray(unicast_gains)[..., None, :]
    r_mc = coded_gain * np.min(np.log1p(p * mc / noise_power), axis=-1)
    r_uc = np.sum(np.log1p(p * uc / noise_power), axis=-1)
    return np.asarray(overhead_factors, dtype=float)[:, None] * (r_mc + r_uc)


def msv_gains_fast(
    multicast_channels: np.ndarray,
    unicast_channels: np.ndarray,
    unicast_counts,
) -> tuple[np.ndarray, np.ndarray]:
    """Beam gains of the MSV null-steering design (``msv_beamformers`` in
    ``tests/oracles.py``) for every unicast count.

    The beams of ``n`` unicast streams are the ZF precoder of the first
    ``n + 1`` columns of ``[mc_0, uc_1, ..., uc_U]`` (channels as columns):
    column 0 is the common beam, steered at the first multicast user inside
    the null space of the unicast channels, and column ``k`` nulls the first
    multicast user and every other unicast user.  So one prefix
    factorization serves the whole sweep; a one-column prefix is the matched
    filter.  Returns the multicast gains ``(S, G)``, the squared couplings
    of the common beam at every multicast user, and the unicast gains
    ``(S, U)``, zero past each count: the per-size ZF gains, one row per
    count.  Multicast user k's coupling with the common beam at count ``n``
    is column 0 of :func:`zf_prefix_couplings`' product, ``sqrt(g0) *
    sum(X[k, c] * conj(inv(R)[0, c]) for c <= n)`` with ``g0`` the common
    beam's ZF gain, so one product of those terms with the sweep's 0/1
    prefix mask serves every count, with that function's accuracy: user 0's
    gain, the common beam's ZF gain, was within 2.0e-10 of :func:`zf_matrix`'s
    over 25,000 random draws at L = 2..8.
    """
    h_mc = np.asarray(multicast_channels, dtype=complex)
    h_uc = np.asarray(unicast_channels, dtype=complex)
    stack = np.concatenate([h_mc[:1], h_uc], axis=0).T
    factor = prefix_factor(stack[None])
    sizes = tuple(n + 1 for n in _key(unicast_counts))
    gains = zf_prefix_gains(factor, sizes)[0]
    r_inv = factor.r_inv[0]
    mask = _sweep(sizes, 1, r_inv.shape[-1]).mask
    cols = mask.shape[1]
    terms = h_mc @ stack.conj() @ r_inv[:, :cols]
    terms *= r_inv[0, :cols].conj()
    common = (mask @ terms.T)[: len(sizes)] * np.sqrt(gains[:, :1])
    return np.abs(common) ** 2, gains[:, 1:]
