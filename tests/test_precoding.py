import numpy as np
import pytest

from vccsim import precoding
from vccsim.channel import GroupChannel, complex_gaussian, sample_group_channel, substream
from vccsim.errors import (
    ContractViolationError,
    InfeasibleDimensionError,
    OverheadExceedsCoherenceError,
    SingularMatrixError,
)
from vccsim.precoding import (
    bd_mrc,
    bd_mrc_eigenvalues,
    bd_mrc_prefix_gains,
    bd_mrc_sinr,
    hermitian_eig,
    msv_beamformers,
    msv_gains_fast,
    msv_high_snr_gain_limit,
    msv_rate_from_gains,
    null_projector,
    sinr_from_matrices,
    zf_imperfect_csir_sinr,
    zf_imperfect_csit_sinr,
    zf_matrix,
    zf_prefix_gains,
)


def random_group(l, counts, betas, key):
    return sample_group_channel(l, counts, betas, substream(1000 + key, 0))


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(v @ v.conj().T, np.eye(3))

    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([4.0, 1.0]).astype(complex))
        assert np.allclose(w, [4.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_reconstruction(self):
        rng = substream(2, 0)
        b = complex_gaussian(rng, (6, 6))
        a = b @ b.conj().T
        w, v = hermitian_eig(a)
        rebuilt = v @ np.diag(w) @ v.conj().T
        assert np.linalg.norm(a - rebuilt) <= 1e-8 * np.linalg.norm(a)
        assert np.all(np.diff(w) <= 0)
        assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


class TestNullProjector:
    def test_empty_is_identity(self):
        t = null_projector(np.empty((5, 0), dtype=complex))
        assert np.array_equal(t, np.eye(5))

    def test_single_column(self):
        h = complex_gaussian(substream(3, 0), (6, 1))
        t = null_projector(h)
        assert np.abs(h.T @ t).max() < 1e-9 * np.linalg.norm(h)
        assert np.trace(t).real == pytest.approx(5.0, abs=1e-9)

    def test_duplicated_column_pseudo_inverse(self):
        h = complex_gaussian(substream(4, 0), (6, 1))
        t = null_projector(np.hstack([h, h]))
        assert np.trace(t).real == pytest.approx(5.0, abs=1e-8)
        assert np.abs(h.T @ t).max() < 1e-8

    def test_idempotent_hermitian(self):
        h = complex_gaussian(substream(5, 0), (8, 3))
        t = null_projector(h)
        assert np.linalg.norm(t @ t - t) <= 1e-10 * np.linalg.norm(t)
        assert np.linalg.norm(t - t.conj().T) <= 1e-10 * np.linalg.norm(t)
        assert np.trace(t).real == pytest.approx(5.0, abs=1e-8)


class TestBdMrc:
    def test_single_user_single_antenna_is_mrt(self):
        g = random_group(8, [1], [1.0], 1)
        h = g.per_user[0][0][:, 0]
        sol = bd_mrc(g)
        v = sol.users[0].precoder[:, 0]
        assert np.allclose(np.abs(np.vdot(v, h.conj() / np.linalg.norm(h))), 1.0)
        assert sol.users[0].eigenvalues[0] == pytest.approx(
            np.linalg.norm(h) ** 2, rel=1e-10
        )

    def test_single_user_eigenvalues_are_squared_singular_values(self):
        g = random_group(4, [2], [1.0], 2)
        h = g.per_user[0][0]
        sol = bd_mrc(g)
        svals = np.linalg.svd(h, compute_uv=False)
        assert np.allclose(sol.users[0].eigenvalues, np.sort(svals**2)[::-1], rtol=1e-10)

    def test_small_and_large_eigenproblems_agree(self):
        # the L x L projected covariance shares its nonzero spectrum with
        # the per-user small matrix the design actually decomposes
        g = random_group(8, [2, 2], [1.0, 0.5], 3)
        mats = [h for h, _ in g.per_user]
        sol = bd_mrc(g)
        for k in range(2):
            rest = mats[1 - k]
            t = null_projector(rest)
            big = t @ mats[k].conj() @ mats[k].T @ t
            w = np.sort(np.linalg.eigvalsh((big + big.conj().T) / 2).real)[::-1]
            small = sol.users[k].eigenvalues
            assert np.allclose(w[: small.size], small, rtol=1e-8)

    def test_nulling_properties(self):
        g = random_group(12, [2, 2, 1], [1.0, 2.0, 0.3], 4)
        mats = [h for h, _ in g.per_user]
        sol = bd_mrc(g)
        for k, user in enumerate(sol.users):
            for kk, other in enumerate(mats):
                if kk == k:
                    continue
                leak = np.abs(other.T @ user.precoder).max()
                assert leak <= 1e-9 * np.linalg.norm(other)
            eff = user.combiner.conj().T @ mats[k].T @ user.precoder
            off = np.abs(eff - np.diag(np.diag(eff)))
            assert off.max() <= 1e-9 * np.sqrt(user.eigenvalues.max())
            # column norms
            assert np.allclose(np.linalg.norm(user.precoder, axis=0), 1.0, atol=1e-12)
            assert np.allclose(np.linalg.norm(user.combiner, axis=0), 1.0, atol=1e-12)
            # combiner-aligned signal power equals the stream eigenvalue
            assert np.allclose(np.abs(np.diag(eff)) ** 2, user.eigenvalues, rtol=1e-9)

    def test_fast_eigenvalues_match_full_design(self):
        for key, counts in [(5, [1, 1, 1]), (6, [2, 2]), (7, [3, 1, 2])]:
            g = random_group(10, counts, [1.0] * len(counts), key)
            full = [u.eigenvalues for u in bd_mrc(g).users]
            fast = bd_mrc_eigenvalues(g)
            for a, b in zip(full, fast):
                assert np.allclose(a, b, rtol=1e-9)

    def test_closed_form_sinr_matches_definition(self):
        g = random_group(8, [2, 2], [1.0, 0.7], 8)
        sol = bd_mrc(g)
        rng = substream(9, 1)
        powers = [rng.uniform(0.1, 2.0, size=u.num_streams) for u in sol.users]
        closed = bd_mrc_sinr(sol, powers, 0.05)
        raw = sinr_from_matrices(g, sol, powers, 0.05)
        for a, b in zip(closed, raw):
            assert np.allclose(a, b, rtol=1e-8)

    def test_zero_power_zero_sinr(self):
        g = random_group(6, [2], [1.0], 10)
        sol = bd_mrc(g)
        out = bd_mrc_sinr(sol, [np.zeros(sol.users[0].num_streams)], 1.0)
        assert not out[0].any()

    def test_unit_sinr(self):
        g = random_group(6, [1], [1.0], 11)
        sol = bd_mrc(g)
        lam = sol.users[0].eigenvalues[0]
        out = bd_mrc_sinr(sol, [np.array([1.0 / lam])], 1.0)
        assert out[0][0] == pytest.approx(1.0, rel=1e-12)


class TestBdMrcGainsFallback:
    """Singular groups leave the batched kernel for the per-user path."""

    def _spy(self, monkeypatch):
        calls = []
        original = precoding._bd_eigs_generic

        def spy(mats):
            calls.append(len(mats))
            return original(mats)

        monkeypatch.setattr(precoding, "_bd_eigs_generic", spy)
        return calls

    def test_healthy_groups_stay_batched(self, monkeypatch):
        calls = self._spy(monkeypatch)
        h = complex_gaussian(substream(92, 0), (3, 8, 6))
        gains, counts = bd_mrc_prefix_gains(h, 2, (3,))
        assert calls == [] and np.all(counts == 2)

    def test_duplicated_column_truncates_like_bd_mrc(self, monkeypatch):
        calls = self._spy(monkeypatch)
        rng = substream(92, 1)
        a, b = complex_gaussian(rng, (6, 1)), complex_gaussian(rng, (6, 2))
        singular = np.hstack([a, a, b])  # user 0 receives one column twice
        h = np.stack([singular, complex_gaussian(rng, (6, 4))])
        gains, counts = bd_mrc_prefix_gains(h, 2, (2,))
        gains, counts = gains[:, 0], counts[:, 0]
        assert calls == [2]  # the singular group only
        assert counts.tolist() == [[1, 2], [2, 2]]
        for g in range(2):
            group = GroupChannel(((h[g][:, :2], 1.0), (h[g][:, 2:], 1.0)))
            for k, user in enumerate(bd_mrc(group).users):
                j = counts[g, k]
                assert np.allclose(gains[g, k, :j], user.eigenvalues, rtol=1e-9)
                assert not gains[g, k, j:].any()

    def test_prefixes_past_duplicated_column_fall_back(self, monkeypatch):
        # Column 5 (user 2's second) repeats column 0 (user 0's first): the
        # prefixes of one and two users stay batched, those of three and four
        # users fall back and cut one stream of users 0 and 2, as bd_mrc does.
        calls = self._spy(monkeypatch)
        h = complex_gaussian(substream(92, 3), (1, 10, 8))
        h[0, :, 5] = h[0, :, 0]
        q_values = (1, 2, 3, 4)
        gains, counts = bd_mrc_prefix_gains(h, 2, q_values)
        assert calls == [3, 4]
        assert counts[0].tolist() == [[2, 0, 0, 0], [2, 2, 0, 0], [1, 2, 1, 0], [1, 2, 1, 2]]
        for s, q in enumerate(q_values):
            group = GroupChannel(tuple((h[0][:, 2 * k : 2 * k + 2], 1.0) for k in range(q)))
            for k, user in enumerate(bd_mrc(group).users):
                j = counts[0, s, k]
                assert j == user.num_streams
                np.testing.assert_allclose(gains[0, s, k, :j], user.eigenvalues, rtol=1e-9)
                assert not gains[0, s, k, j:].any()
        assert zf_prefix_gains(h, (2, 4, 5)).shape == (1, 3, 8)
        for sizes in ((6,), (2, 8)):
            with pytest.raises(SingularMatrixError):
                zf_prefix_gains(h, sizes)

    def test_fully_dependent_user_infeasible(self):
        a = complex_gaussian(substream(92, 2), (6, 2))
        mix = np.array([[1.0, 2.0], [3.0, 4.0j]])
        h = np.hstack([a, a @ mix])[None]  # user 1 inside user 0's span
        with pytest.raises(InfeasibleDimensionError):
            bd_mrc_prefix_gains(h, 2, (2,))
        group = GroupChannel(((h[0][:, :2], 1.0), (h[0][:, 2:], 1.0)))
        with pytest.raises(InfeasibleDimensionError):
            bd_mrc_eigenvalues(group)


class TestZf:
    def test_single_user_single_antenna(self):
        g = random_group(1, [1], [1.0], 20)
        h = g.per_user[0][0][0, 0]
        v, gains = zf_matrix(g.stacked())
        assert gains[0] == pytest.approx(abs(h) ** 2, rel=1e-10)
        assert abs(v[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_channels_no_projection_loss(self):
        h1 = np.array([1.0, 1j, 0, 0], dtype=complex)
        h2 = np.array([0, 0, 2.0, -1j], dtype=complex)
        stacked = np.stack([h1, h2], axis=1)
        v, gains = zf_matrix(stacked)
        assert gains[0] == pytest.approx(np.linalg.norm(h1) ** 2, rel=1e-12)
        assert gains[1] == pytest.approx(np.linalg.norm(h2) ** 2, rel=1e-12)
        for k, h in enumerate((h1, h2)):
            cos = np.abs(np.vdot(v[:, k], h.conj())) / np.linalg.norm(h)
            assert cos == pytest.approx(1.0, rel=1e-12)

    def test_diagonalization_and_unit_columns(self):
        g = random_group(16, [2, 2], [1.0, 3.0], 21)
        v, gains = zf_matrix(g.stacked())
        eff = g.stacked().T @ v
        off = np.abs(eff - np.diag(np.diag(eff)))
        assert off.max() <= 1e-9 * np.abs(np.diag(eff)).min()
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.abs(np.diag(eff)) ** 2, gains, rtol=1e-10)

    def test_inverse_gain_expectation(self):
        # fading average of the inverse stream gain: 1 / (beta (L - M))
        l, m_total, beta = 16, 4, 2.0
        rng = substream(22, 0)
        inv_gains = []
        for _ in range(10_000):
            h = complex_gaussian(rng, (l, m_total), variance=beta)
            _, gains = zf_matrix(h)
            inv_gains.append(1.0 / gains[0])
        assert np.mean(inv_gains) == pytest.approx(1 / (beta * (l - m_total)), rel=0.03)

    def test_singular_gram_rejected(self):
        h = complex_gaussian(substream(23, 0), (6, 1))
        with pytest.raises(SingularMatrixError):
            zf_matrix(np.hstack([h, h]))


class TestZfImperfectCsit:
    def _channels(self, l, q, key):
        rng = substream(30 + key, 0)
        return complex_gaussian(rng, (l, q)), rng

    def test_perfect_estimate_no_interference(self):
        h, _ = self._channels(8, 3, 0)
        sinr = _csit_sinr(h, h, np.full(3, 2.0), 1.0)
        _, gains = zf_matrix(h)
        assert np.allclose(sinr, 2.0 * gains, rtol=1e-9)

    def test_interference_limited_ceiling(self):
        h, rng = self._channels(8, 3, 1)
        err = 0.1 * complex_gaussian(rng, (8, 3))
        h_hat = h - err
        sweep = [_csit_sinr(h, h_hat, np.full(3, p), 1.0) for p in
                 (1.0, 1e2, 1e4, 1e6, 1e8)]
        top = np.stack(sweep[-2:])
        # SINR saturates: the last power decade moves it by < 1%
        assert np.all(np.abs(top[1] - top[0]) <= 0.01 * top[1])

    def test_single_user_immune(self):
        h, rng = self._channels(8, 1, 2)
        h_hat = h - 0.3 * complex_gaussian(rng, (8, 1))
        for p in (1.0, 1e6):
            sinr = _csit_sinr(h, h_hat, np.array([p]), 1.0)
            expected = p * np.abs(h[:, 0] @ _unit(h_hat[:, 0].conj())) ** 2
            assert sinr[0] == pytest.approx(expected, rel=1e-9)

    def test_power_column_broadcasts(self):
        h, rng = self._channels(8, 3, 3)
        h_hat = h - 0.1 * complex_gaussian(rng, (8, 3))
        powers = np.array([0.5, 2.0, 40.0])
        rows = _csit_sinr(h, h_hat, powers[:, None], 0.3)
        assert rows.shape == (3, 3)
        for row, p in zip(rows, powers):
            assert np.array_equal(row, _csit_sinr(h, h_hat, np.full(3, p), 0.3))


def _csit_sinr(h, h_hat, powers, noise_power):
    v_hat, _ = zf_matrix(h_hat)
    return zf_imperfect_csit_sinr(h.T @ v_hat, powers, noise_power)


def _unit(x):
    return x / np.linalg.norm(x)


class TestZfImperfectCsir:
    def test_no_error_reduces_to_noise_only(self):
        sinr = zf_imperfect_csir_sinr(10.0, 2, 5, 0.0, 3.0 + 0j, 0.5)
        assert sinr == pytest.approx((10.0 / 10) * 9.0 / 0.5, rel=1e-12)

    def test_single_served_user_no_residual(self):
        sinr = zf_imperfect_csir_sinr(4.0, 1, 1, 0.2, 1.0 + 0j, 1.0)
        assert sinr == pytest.approx(4.0 * 1.2 / 1.0, rel=1e-12)

    def test_vectorized(self):
        est = np.array([1.0, 2.0, 0.5], dtype=complex)
        out = zf_imperfect_csir_sinr(6.0, 3, 1, 0.1, est, 1.0)
        p = 2.0
        expected = p * (np.abs(est) ** 2 + 0.1) / (1.0 + p * 0.1 * 2)
        assert np.allclose(out, expected, rtol=1e-12)


class TestMsv:
    def test_no_unicast_is_matched_filter(self):
        rng = substream(40, 0)
        mc = complex_gaussian(rng, (3, 8))
        sol = msv_beamformers(mc, np.empty((0, 8), dtype=complex), 0)
        expected = np.abs(mc[0] @ (mc[0].conj() / np.linalg.norm(mc[0]))) ** 2
        assert sol.multicast_gains[0] == pytest.approx(expected, rel=1e-12)
        assert sol.num_unicast == 0
        # the one-column prefix of the fast path is the same matched filter
        mg, ug = msv_gains_fast(mc, np.empty((0, 8), dtype=complex), [0])
        f0 = mc[0].conj() / np.linalg.norm(mc[0])
        np.testing.assert_allclose(mg[0], np.abs(mc @ f0) ** 2, rtol=1e-12)
        assert ug.shape == (1, 0)

    def test_two_antenna_unique_null_direction(self):
        rng = substream(41, 0)
        mc = complex_gaussian(rng, (2, 2))
        uc = complex_gaussian(rng, (1, 2))
        sol = msv_beamformers(mc, uc, 1)
        assert abs(uc[0] @ sol.multicast_beam) <= 1e-9
        # the 1-D null space fixes the beam up to phase
        null = np.array([uc[0, 1], -uc[0, 0]])
        cos = abs(np.vdot(sol.multicast_beam, _unit(null)))
        assert cos == pytest.approx(1.0, rel=1e-9)

    def test_orthogonality_invariants(self):
        rng = substream(42, 0)
        mc = complex_gaussian(rng, (4, 8))
        uc = complex_gaussian(rng, (7, 8))
        sol = msv_beamformers(mc, uc, 5)
        for k in range(5):
            assert abs(uc[k] @ sol.multicast_beam) <= 1e-9
            assert abs(mc[0] @ sol.unicast_beams[:, k]) <= 1e-9
            for j in range(5):
                if j != k:
                    assert abs(uc[j] @ sol.unicast_beams[:, k]) <= 1e-9

    def test_full_multiplexing_isotropy(self):
        # with no dimension left for beamforming the effective channels at
        # the non-targeted multicast users are unit-variance Gaussian
        rng = substream(43, 0)
        vals = []
        for i in range(4000):
            mc = complex_gaussian(rng, (2, 8))
            uc = complex_gaussian(rng, (7, 8))
            mg, _ = msv_gains_fast(mc, uc, [7])
            vals.append(mg[0, 1])
        assert np.mean(vals) == pytest.approx(1.0, rel=0.03)

    def test_fast_gains_match_beamformers(self):
        rng = substream(44, 0)
        mc = complex_gaussian(rng, (3, 8))
        uc = complex_gaussian(rng, (7, 8))
        counts = (0, 1, 3, 7)
        mg, ug = msv_gains_fast(mc, uc, counts)
        assert mg.shape == (4, 3) and ug.shape == (4, 7)
        for s, quc in enumerate(counts):
            sol = msv_beamformers(mc, uc, quc)
            assert np.allclose(sol.multicast_gains, mg[s], rtol=1e-9)
            assert np.allclose(sol.unicast_gains, ug[s, :quc], rtol=1e-9)
            assert not ug[s, quc:].any()

    def test_too_many_streams(self):
        rng = substream(45, 0)
        mc, uc = complex_gaussian(rng, (2, 4)), complex_gaussian(rng, (4, 4))
        with pytest.raises(InfeasibleDimensionError):
            msv_beamformers(mc, uc, 4)
        with pytest.raises(SingularMatrixError):
            msv_gains_fast(mc, uc, [1, 4])

    def test_rates_degenerate_and_zero_power(self):
        rng = substream(46, 0)
        mc = complex_gaussian(rng, (1, 4))
        uc = complex_gaussian(rng, (3, 4))
        sol = msv_beamformers(mc, uc, 2)
        gains = (sol.multicast_gains[None], sol.unicast_gains[None])
        (r, zero), = msv_rate_from_gains(*gains, [2], [2.0, 0.0], 1.0, 1, 0, 15000, 10)
        # single multicast user: min over one element
        expected_mc = np.log1p((2.0 / 3) * sol.multicast_gains[0])
        expected_uc = np.log1p((2.0 / 3) * sol.unicast_gains).sum()
        xi = 1 - 10 * 3 / 15000
        assert r == pytest.approx(xi * (expected_mc + expected_uc), rel=1e-12)
        assert zero == 0.0

    def test_sweep_rows_match_unpadded_calls(self):
        # zero-padded unicast gains add nothing: each row of the (count,
        # power) grid equals a call on that count's own gains alone
        rng = substream(48, 0)
        mc = complex_gaussian(rng, (3, 8))
        uc = complex_gaussian(rng, (7, 8))
        counts, powers = (0, 2, 5, 7), np.array([0.5, 4.0, 30.0])
        mg, ug = msv_gains_fast(mc, uc, counts)
        grid = msv_rate_from_gains(mg, ug, counts, powers, 1.0, 3, 2, 15000, 10)
        assert grid.shape == (4, 3)
        for s, n in enumerate(counts):
            alone = msv_rate_from_gains(
                mg[s : s + 1], ug[s : s + 1, :n], [n], powers, 1.0, 3, 2, 15000, 10
            )
            np.testing.assert_allclose(grid[s], alone[0], rtol=1e-13)

    def test_pilots_beyond_coherence_rejected(self):
        # 2 unicast + 1 common stream + 1 cached listener = 4 pilot slots
        mg, ug = np.ones((2, 2)), np.ones((2, 2))
        assert msv_rate_from_gains(mg[:1], ug[:1], [2], [1.0], 1.0, 2, 1, 40, 10)[0, 0] == 0.0
        # one count of the sweep over the block rejects the whole grid
        with pytest.raises(OverheadExceedsCoherenceError):
            msv_rate_from_gains(mg, ug, [1, 2], [1.0], 1.0, 2, 1, 39, 10)

    def test_high_snr_gain_limit(self):
        assert msv_high_snr_gain_limit(32, 5) == pytest.approx(1.15625, abs=0)

    def test_overhead_scales_with_served_users(self):
        rng = substream(47, 0)
        mc = complex_gaussian(rng, (3, 8))
        uc = complex_gaussian(rng, (7, 8))
        counts = (1, 4)
        mg, ug = msv_gains_fast(mc, uc, counts)
        with_pilots = msv_rate_from_gains(mg, ug, counts, [5.0], 1.0, 3, 2, 15000, 10)
        without = msv_rate_from_gains(mg, ug, counts, [5.0], 1.0, 3, 2, 15000, 0)
        # n unicast + 1 common stream + 2 cached listeners: 4 and 7 users
        for s, users in enumerate((4, 7)):
            assert with_pilots[s, 0] / without[s, 0] == pytest.approx(
                1 - 10 * users / 15000, rel=1e-12
            )
