import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from vccsim.channel import (
    MACRO,
    MICRO,
    CellGeometry,
    GroupChannel,
    corrupt_csit,
    csi_overhead,
    dbm_to_watts,
    geometry_preset,
    noise_power_watts,
    sample_user_pathlosses,
    sample_user_position,
    substream,
    substreams,
)
from vccsim.errors import InfeasibleDimensionError, OverheadExceedsCoherenceError

from oracles import sample_group_channel


class TestGeometry:
    def test_presets(self):
        assert geometry_preset("macro") is MACRO
        assert geometry_preset("Micro") is MICRO
        assert MACRO.inner_radius_m == 35.0 and MACRO.outer_radius_m == 500.0
        assert MICRO.pathloss_exponent == 3.0
        with pytest.raises(ValueError):
            geometry_preset("pico")

    def test_pathloss_at_100m(self):
        # arithmetic from the Macro constants: 10^-3.53 * 100^-3.76 = 10^-11.05
        assert MACRO.pathloss(100.0) == pytest.approx(10 ** -11.05, rel=1e-12)

    def test_pathloss_monotone(self):
        radii = np.linspace(MACRO.inner_radius_m, MACRO.outer_radius_m, 50)
        betas = [MACRO.pathloss(r) for r in radii]
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CellGeometry(100.0, 50.0, 3.0, 1e-3)
        with pytest.raises(ValueError):
            CellGeometry(10.0, 50.0, 1.5, 1e-3)


class TestUserPositions:
    def test_degenerate_annulus(self):
        geom = CellGeometry(100.0 - 1e-9, 100.0, 3.0, 1e-3)
        link = sample_user_position(geom, substream(0, 1))
        assert link.distance_m == pytest.approx(100.0, abs=1e-6)

    def test_fraction_beyond_300m(self):
        # uniform-over-area placement puts most users near the edge:
        # (500^2 - 300^2) / (500^2 - 35^2) = 0.6432
        rng = substream(123, 0)
        n = 200_000
        far = sum(sample_user_position(MACRO, rng).distance_m > 300.0 for _ in range(n))
        assert far / n == pytest.approx(0.6432, abs=0.01)

    def test_squared_distance_uniform(self):
        rng = substream(7, 0)
        r2 = np.array(
            [sample_user_position(MICRO, rng).distance_m ** 2 for _ in range(4000)]
        )
        lo, hi = MICRO.inner_radius_m ** 2, MICRO.outer_radius_m ** 2
        ks = stats.kstest((r2 - lo) / (hi - lo), "uniform")
        assert ks.pvalue > 1e-4

    def test_beta_matches_law(self):
        link = sample_user_position(MACRO, substream(3, 0))
        assert link.beta == pytest.approx(MACRO.pathloss(link.distance_m), rel=1e-12)

    @pytest.mark.parametrize("geom", [MACRO, MICRO])
    def test_array_sampler_matches_scalar_draws(self, geom):
        for loc in range(50):
            rng = substream(9, 0, loc)
            scalar = [sample_user_position(geom, rng).beta for _ in range(112)]
            assert np.array_equal(sample_user_pathlosses(geom, substream(9, 0, loc), 112), scalar)


class TestGroupChannel:
    def test_unit_variance_entries(self):
        g = sample_group_channel(64, [4], [1.0], substream(0, 5))
        h = g.per_user[0][0]
        draws = [
            sample_group_channel(64, [4], [1.0], substream(0, 5, i)).per_user[0][0]
            for i in range(400)
        ]
        power = np.mean([np.mean(np.abs(d) ** 2) for d in draws])
        assert power == pytest.approx(1.0, rel=0.02)
        assert h.shape == (64, 4)

    def test_scaled_variance(self):
        beta = 10 ** -11.05
        draws = [
            sample_group_channel(16, [8], [beta], substream(1, 6, i)).per_user[0][0]
            for i in range(200)
        ]
        power = np.mean([np.mean(np.abs(d) ** 2) for d in draws])
        assert power == pytest.approx(beta, rel=0.02)

    def test_columns_uncorrelated(self):
        g = sample_group_channel(2048, [2], [1.0], substream(2, 7))
        h = g.per_user[0][0]
        corr = abs(np.vdot(h[:, 0], h[:, 1])) / h.shape[0]
        assert corr < 0.1

    def test_infeasible_dimensions(self):
        with pytest.raises(InfeasibleDimensionError):
            sample_group_channel(3, [2, 2], [1.0, 1.0], substream(0, 8))
        with pytest.raises(InfeasibleDimensionError):
            GroupChannel(
                (
                    (np.zeros((3, 2), dtype=complex), 1.0),
                    (np.zeros((3, 2), dtype=complex), 1.0),
                )
            )

    def test_stacked_layout(self):
        g = sample_group_channel(8, [2, 3], [1.0, 2.0], substream(0, 9))
        assert g.stacked().shape == (8, 5)
        assert g.antenna_counts == (2, 3)
        assert g.betas == (1.0, 2.0)


class TestCsiOverhead:
    def test_table_values(self):
        # T=15000, pilots=10, 6 groups x 4 users x 4 antennas = 96 antennas
        factor = csi_overhead(15000, 10, 96)
        assert type(factor) is float and factor == pytest.approx(0.936, abs=1e-12)

    def test_no_pilots(self):
        assert csi_overhead(15000, 0, 96) == 1.0

    def test_exceeds_coherence(self):
        with pytest.raises(OverheadExceedsCoherenceError):
            csi_overhead(100, 10, 11)

    def test_linear_in_antennas_and_pilots(self):
        base = csi_overhead(15000, 10, 10)
        assert csi_overhead(15000, 10, 20) == pytest.approx(1 - 2 * (1 - base), abs=1e-12)
        assert csi_overhead(15000, 20, 10) == pytest.approx(1 - 2 * (1 - base), abs=1e-12)


class TestCsitError:
    def test_zero_error_exact(self):
        h = np.array([1 + 1j, 2 - 0.5j])
        h_hat, h_tilde = corrupt_csit(h, 0.0, substream(0, 10))
        assert np.array_equal(h_hat, h)
        assert not h_tilde.any()

    def test_error_variance(self):
        rng = substream(4, 11)
        h = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) / math.sqrt(2)
        _, h_tilde = corrupt_csit(h, 0.01, rng)
        assert np.mean(np.abs(h_tilde) ** 2) == pytest.approx(0.01, rel=0.02)

    def test_decomposition_bit_exact(self):
        rng = substream(5, 12)
        h = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2)
        h_hat, h_tilde = corrupt_csit(h, 0.05, rng)
        assert np.array_equal(h - h_hat - h_tilde, np.zeros(64))

    def test_estimate_error_uncorrelated(self):
        rng = substream(6, 13)
        h = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) / math.sqrt(2)
        h_hat, h_tilde = corrupt_csit(h, 0.25, rng)
        corr = np.mean(h_hat * np.conj(h_tilde))
        # sample cross-moment of independent terms: O(1/sqrt(n))
        assert abs(corr) < 5e-3

    def test_error_variance_exceeds_channel(self):
        with pytest.raises(ValueError):
            corrupt_csit(np.ones(4, dtype=complex), 2.0, substream(0, 14))


class TestPowerUnits:
    def test_noise_power(self):
        # -174 dBm/Hz over 20 MHz
        expected_dbm = -174 + 10 * math.log10(20e6)
        assert noise_power_watts() == pytest.approx(dbm_to_watts(expected_dbm), rel=1e-12)

    def test_dbm_round_trip(self):
        assert 10.0 * math.log10(dbm_to_watts(33.0)) + 30.0 == pytest.approx(33.0, abs=1e-12)


class TestSubstreams:
    def test_keyed_reproducibility(self):
        a = substream(99, 1, 2, 3).standard_normal(8)
        b = substream(99, 1, 2, 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = substream(99, 1, 2, 3).standard_normal(8)
        b = substream(99, 1, 2, 4).standard_normal(8)
        c = substream(98, 1, 2, 3).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    # Seeds past 2**128 take more than the pool's four words; key elements
    # from 2**32 on are split into several words, so keys differ in their
    # word counts.
    @settings(max_examples=200, deadline=None)
    @example(0, [])
    @example(2**128, [(2**32,), (0, 1, 2, 3, 2**64)])
    @given(
        st.integers(0, 2**130 + 5),
        st.lists(st.lists(st.integers(0, 2**70), min_size=1, max_size=5).map(tuple), max_size=8),
    )
    def test_substreams_match_seed_sequence(self, seed, keys):
        rngs = substreams(seed, keys)
        assert len(rngs) == len(keys)
        for key, rng in zip(keys, rngs):
            ss = np.random.SeedSequence(seed, spawn_key=key)
            words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert np.array_equal(words, ss.generate_state(4, np.uint64))
            assert np.array_equal(rng.random(4), np.random.default_rng(ss).random(4))

    def test_repeated_key_gets_fresh_generator(self):
        a, b = substreams(5, [(1, 2), (1, 2)])
        assert a is not b
        assert np.array_equal(a.standard_normal(4), b.standard_normal(4))

    def test_rejects_keys_seed_sequence_rejects(self):
        with pytest.raises(ValueError):
            substreams(0, [(1, -1)])
        with pytest.raises(TypeError):
            substreams(0, [(1, 1.5)])
        with pytest.raises(ValueError):
            substreams(-1, [(1,)])
