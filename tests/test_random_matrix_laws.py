"""Exact random-matrix laws of the Gram-block kernel under unit pathloss.

With i.i.d. CN(0, 1) channels (Rayleigh fading, unit pathloss) the kernel's
outputs have exact laws.  So these tests check the fast paths against
theory, not against another design on the same draw: a wrong variance in
:func:`complex_gaussian`, a mis-scaled column or a wrong prefix each moves
a law, while an oracle sharing that error would not see it.

* ZF: the gain of any stream of an ``n``-column prefix at ``L`` transmit
  antennas is Gamma(L - n + 1, 1), the classical ZF post-processing SNR law
  (Winters, Salz and Gitlin, IEEE Trans. Commun. 1994).  At full load,
  ``n = L``, it is Exp(1).
* BD-MRC: at prefix ``q``, user k's gains are the eigenvalues of a complex
  Wishart W_m(L - (q-1)m, I), so their sum is Gamma(m(L - (q-1)m), 1).
* MSV: with ``n`` unicast streams the beams are the ZF precoder of
  ``n + 1`` columns, so the common beam's gain at multicast user 0 and each
  unicast gain are Gamma(L - n, 1).  Any other multicast user's channel is
  independent of the unit-norm common beam, so its gain there is Exp(1).

Under pathloss, user k's columns are scaled by ``sqrt(beta_k)``, and every
gain above scales by ``beta_k``: ZF gain / beta_k is still Gamma(L - n + 1),
and the sum of user k's BD-MRC gains / beta_k still Gamma(m(L - (q-1)m)).
The pathloss tests draw through the simulator's own draw
(:func:`vccsim.experiments._group_factor`) with the macro geometry, so a
wrong pathloss scaling there moves these laws too.

The channels come from :func:`complex_gaussian` at pinned substreams.  ZF
and BD-MRC draws are batched through :func:`prefix_factor`, the draws on
the group axis; MSV draws go through :func:`msv_gains_fast` one by one.  Each
draw gives one sample per law, one stream or user chosen by the draw's
index, so the samples of a law are independent.  Each law is checked by a
one-sample Kolmogorov-Smirnov test that rejects at p < ``ALPHA`` = 1e-4.
With a fresh seed, a correct kernel would fail any one check with
probability 1e-4.  There are 53 checks here, so by the union bound the
whole file would fail with probability below 5.3e-3.
"""

import numpy as np
import pytest

from vccsim.channel import complex_gaussian, substream
from vccsim.experiments import Scenario, _group_factor, _location_betas
from vccsim.precoding import bd_mrc_prefix_gains, msv_gains_fast, prefix_factor, zf_prefix_gains

stats = pytest.importorskip("scipy.stats")

ALPHA = 1e-4
SEED = 20260118
# Draws per factored stack: bounds the kernel's outer products at fig2's
# m = 12 to about 22 MB.
CHUNK = 50


def _factors(draws: int, l_tx: int, n: int):
    """``draws`` unit-pathloss ``(L, n)`` channels, factored ``CHUNK`` at a time."""
    rng = substream(SEED, l_tx, n)
    return [
        prefix_factor(complex_gaussian(rng, (CHUNK, l_tx, n))) for _ in range(draws // CHUNK)
    ]


def _assert_gamma(samples: np.ndarray, shape: int) -> None:
    p = stats.kstest(samples, stats.gamma(shape).cdf).pvalue
    assert p > ALPHA, f"KS p-value {p:.1e} against Gamma({shape}, 1)"


@pytest.mark.parametrize(
    "l_tx, sizes",
    [(16, (1, 6, 15, 16)), (32, (2, 12, 24, 31, 32))],
    ids=["fig9-L16", "fig7-L32"],
)
def test_zf_stream_gain_is_gamma(l_tx, sizes):
    """9 checks; each full-load prefix (``n = L``) checks Exp(1)."""
    gains = np.concatenate([zf_prefix_gains(f, sizes) for f in _factors(1000, l_tx, max(sizes))])
    draw = np.arange(gains.shape[0])
    for s, n in enumerate(sizes):
        _assert_gamma(gains[draw, s, draw % n], l_tx - n + 1)


@pytest.mark.parametrize(
    "l_tx, m, q_top, draws",
    [(32, 2, 16, 1000), (24, 4, 6, 1000), (64, 12, 4, 500)],
    ids=["fig7-m2", "fig3-m4-full-load", "fig2-m12"],
)
def test_bd_gain_sum_is_gamma(l_tx, m, q_top, draws):
    """One check per q: 16, 6 and 4 checks."""
    q_values = np.arange(1, q_top + 1)
    gains = np.concatenate([
        bd_mrc_prefix_gains(f, m, q_values)[0] for f in _factors(draws, l_tx, q_top * m)
    ])
    draw = np.arange(gains.shape[0])
    for s, q in enumerate(q_values):
        _assert_gamma(gains[draw, s, draw % q].sum(axis=-1), m * (l_tx - (q - 1) * m))


def test_msv_gains_follow_gamma_and_exp():
    """Three checks per unicast count: 9 checks.  ``n = L - 1`` is full
    load, where Gamma(1, 1) is Exp(1)."""
    l_tx, g_mc, counts, draws = 16, 4, (1, 5, 15), 3000
    rng = substream(SEED, l_tx, g_mc)
    out = [
        msv_gains_fast(
            complex_gaussian(rng, (g_mc, l_tx)), complex_gaussian(rng, (max(counts), l_tx)), counts
        )
        for _ in range(draws)
    ]
    multicast = np.stack([mc for mc, _ in out])
    unicast = np.stack([uc for _, uc in out])
    draw = np.arange(draws)
    for s, n in enumerate(counts):
        _assert_gamma(multicast[:, s, 0], l_tx - n)
        _assert_gamma(unicast[draw, s, draw % n], l_tx - n)
        _assert_gamma(multicast[draw, s, 1 + draw % (g_mc - 1)], 1)


# fig7's antennas (L = 32, m = 2) in the macro cell: 5 groups of up to 16
# users, with each user's pathloss from the macro geometry.
MACRO = Scenario(
    geometry="macro", num_tx_antennas=32, antennas_per_user=2, users_per_group=None,
    baseline_users=None, seed=SEED,
)


def _macro_draws(locations: int):
    """Each location's groups, drawn and factored by the simulator, with
    their pathloss rows ``(G, q_top)``."""
    g, q_top = MACRO.coded_gain, MACRO.max_group_users()
    for loc in range(locations):
        betas = _location_betas(MACRO, g, q_top, loc)
        yield _group_factor(MACRO, g, q_top, loc, 0, betas), betas


def _pathloss_samples(kernel, locations: int = 200):
    """The kernel's outputs and the pathloss rows of 1000 macro draws
    (``locations`` times 5 groups), on one draw axis."""
    out, betas = zip(*((kernel(f), b) for f, b in _macro_draws(locations)))
    betas = np.concatenate(betas)
    # The pathloss spans decades, so a mis-scaled column would show.
    assert betas.max() > 100 * betas.min()
    return np.concatenate(out), betas


def test_zf_gain_over_pathloss_is_gamma():
    """5 checks, one per prefix; 32 columns is full load."""
    l_tx, m, sizes = MACRO.num_tx_antennas, MACRO.antennas_per_user, (2, 12, 24, 31, 32)
    gains, betas = _pathloss_samples(lambda f: zf_prefix_gains(f, sizes))
    draw = np.arange(gains.shape[0])
    for s, n in enumerate(sizes):
        col = draw % n
        _assert_gamma(gains[draw, s, col] / betas[draw, col // m], l_tx - n + 1)


def test_bd_gain_sum_over_pathloss_is_gamma():
    """4 checks, one per q."""
    l_tx, m, q_values = MACRO.num_tx_antennas, MACRO.antennas_per_user, (1, 6, 12, 16)
    gains, betas = _pathloss_samples(lambda f: bd_mrc_prefix_gains(f, m, q_values)[0])
    draw = np.arange(gains.shape[0])
    for s, q in enumerate(q_values):
        user = draw % q
        sums = gains[draw, s, user].sum(axis=-1)
        _assert_gamma(sums / betas[draw, user], m * (l_tx - (q - 1) * m))
