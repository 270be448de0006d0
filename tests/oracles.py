"""Definition-level oracles that the tests check the fast paths against.

No recipe runs these.  They build the beamformers and SINRs from their
definitions (explicit null projectors, eigen-directions, raw matrix
products), so that a test can compare the prefix Gram kernel of
:mod:`vccsim.precoding`, and the rate rules of :mod:`vccsim.experiments`,
with a computation of its own.

Each oracle, the fast path it checks, and whether it is independent of
that path (shares no code with it beyond numpy and LAPACK):

===========================  =================================================  ===========
oracle                       fast path it checks                                independent
===========================  =================================================  ===========
``bd_mrc``                   ``precoding.bd_mrc_prefix_gains``, and its         yes (1)
                             per-user fallback ``bd_mrc_eigenvalues``
``null_projector``           the Schur-complement blocks of the same paths,     yes (1)
                             through ``bd_mrc`` and ``msv_beamformers``
``hermitian_eig``            none: the eigen step of ``bd_mrc``                 --
``sinr_from_matrices``       the closed-form SINR ``power * eigenvalue /        yes
                             noise`` (``bd_mrc_sinr``) that the max-min-fair
                             rules of ``experiments`` assume
``bd_mrc_sinr``              that closed form, on the beams of ``bd_mrc``       yes
``zf_imperfect_csit_sinr``   the CSIT-error curve of ``experiments.CSI_ERROR``  yes
                             (``TestCsiRule`` in ``test_experiments.py``)
``zf_imperfect_csir_sinr``   its CSIR-error curves, the same way                yes
``msv_beamformers``          ``precoding.msv_gains_fast``                       yes
``msv_high_snr_gain_limit``  none: the MSV gain's high-SNR limit                --
                             ``(L + t) / L``, which criterion 5 states
``sample_group_channel``     none: it draws the groups these oracles take,      --
                             and the tests check its law
===========================  =================================================  ===========

(1) Apart from two pieces that they share with the BD-MRC path's
singular-draw fallback (``precoding._bd_eigs_generic``):
``precoding._gram_solve``, the solve-or-pseudo-inverse helper, and
``precoding.RANK_CUTOFF``.  They share nothing with the prefix kernel
(``_prefix_inverse`` and ``_prefix_blocks``) that every recipe runs.

Some oracles stay in the package, because the benchmark's tracer
(``bench/spans.py``) resolves them by name on the run-path modules.  They
move here once ROADMAP item 1 stops the tracer resolving them:

====================================  ===================================  ==========================
oracle in the package                 fast path it checks                  independent
====================================  ===================================  ==========================
``precoding.bd_mrc_eigenvalues``      ``precoding.bd_mrc_prefix_gains``    no: it is that kernel's
                                                                           own fallback path
``precoding.zf_matrix``               ``precoding.zf_prefix_gains`` and    no: the full-prefix case
                                      ``zf_prefix_couplings``              of the same kernel
``allocation.solve_mmf`` and          ``allocation.mmf_sum_rates``         no: both call
``allocation.UserRateFunction``                                            ``_mmf_root`` and
                                                                           ``_StreamTable``
``channel.sample_user_position``      ``channel.sample_user_pathlosses``   yes
``channel.substream``                 ``channel.substreams``               no: its one-key case
====================================  ===================================  ==========================

The independent side of the max-min-fair solve is acceptance criterion 2's
brute-force check of the KKT conditions, and the Brent roots of
``test_properties.py``.  That of ``channel.substream`` is
``numpy.random.SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vccsim.channel import GroupChannel, complex_gaussian
from vccsim.errors import InfeasibleDimensionError
from vccsim.precoding import RANK_CUTOFF, _gram_solve, _others

HERMITIAN_TOL = 1e-10


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises
    ------
    ValueError
        If ``a`` deviates from Hermitian by more than ``1e-10`` relative.
    """
    a = np.asarray(a, dtype=complex)
    scale = np.linalg.norm(a)
    if scale > 0 and np.linalg.norm(a - a.conj().T) > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


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


def msv_high_snr_gain_limit(num_tx_antennas: int, cached_load: int) -> float:
    """Limiting gain of the full-multiplexing baseline as power grows."""
    return (num_tx_antennas + cached_load) / num_tx_antennas


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
