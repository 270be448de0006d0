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

* CSI couplings: :func:`~vccsim.channel.corrupt_csit` splits ``h`` into
  an estimate ``h_hat ~ CN(0, 1 - s2)`` and an independent error
  ``e ~ CN(0, s2)``.  So the ZF gain ``g_hat`` of the unit-norm beams
  designed on ``h_hat`` is ``(1 - s2)`` times Gamma(L - n + 1, 1); a user's
  own coupling is ``sqrt(g_hat)`` plus ``e``'s coupling with a unit-norm
  beam independent of it, CN(0, s2), independent of ``g_hat``; and each of
  the other ``n - 1`` beams adds ``s2`` to the mean interference power,
  ``s2 (n - 1)``.  With ``s2 = 0`` the own coupling is ``sqrt(g_hat)`` and
  the interference is zero, to rounding.
* Equal-power ZF rates under perfect CSI: a stream of ``G`` groups of ``q``
  single-antenna users gets the SNR ``a X``, ``a = P / (N0 G q)`` and ``X``
  the ZF gain, Gamma(L - q + 1, 1), so ``E[ln(1 + a X)] = e^{1/a}
  sum_{k=1}^{L-q+1} E_k(1/a)`` (the Gamma-fading capacity formula, as in
  Alouini and Goldsmith, IEEE Trans. Veh. Technol. 1999).  A point of the
  curve is ``xi G q`` times that, with the overhead factor ``xi = 1 -
  Theta G q / T``; the cacheless side has ``G = 1``.

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
index, so the samples of a law are independent.  CSI draws come from
the simulator's draw and coupling kernel (:func:`vccsim.experiments._csi_draws`
and :func:`vccsim.experiments._csi_error_kernel`), one sample per group of
each draw.  Each law is checked by a test that rejects at a false-alarm
rate of ``ALPHA`` = 1e-4: a one-sample Kolmogorov-Smirnov test of each
distribution, a Spearman rank test of independence, and a two-sided test
of a mean at ``|z| > 3.89`` (by the central limit theorem, over 3000
samples).  With a fresh seed, a correct kernel would fail any one check
with probability 1e-4.  There are 86 such checks here, and the rate check
fails with probability at most 1.1e-3 (its docstring), so by the union
bound the whole file would fail with probability below 9.7e-3.  The ``s2 =
0`` identities are bounds on rounding, which hold for any seed.
"""

from fractions import Fraction

import numpy as np
import pytest

from vccsim.channel import complex_gaussian, substream
from vccsim.experiments import _CSI_DRAW, _GROUP_DRAW, Scenario, _csi_error_kernel
from vccsim.precoding import (
    _sweep, bd_mrc_prefix_gains, msv_gains_fast, prefix_factor, zf_prefix_gains,
)
from vccsim.recipes import run_recipe

from csvrows import rendered_rows
from test_experiments import cell_draw, location_betas

stats = pytest.importorskip("scipy.stats")
special = pytest.importorskip("scipy.special")

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
    q_top = MACRO.max_group_users()
    for loc in range(locations):
        betas = location_betas(MACRO, q_top, loc)
        yield cell_draw(_GROUP_DRAW, MACRO, q_top, loc, 0, betas), betas


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


def _csi_samples(l_tx: int, sizes: tuple, csit_var: float, cells: int = 500, groups: int = 6):
    """Per prefix size ``n``: ``(n, g_hat, own, interference)`` of one
    served user per (cell, group), ``cells`` times ``groups`` samples,
    from the simulator's CSI draw and coupling kernel at unit pathloss."""
    scn = Scenario(
        geometry=None, noise_power=1.0, num_tx_antennas=l_tx, num_states=groups,
        cache_fraction=Fraction(groups - 1, groups), antennas_per_user=1,
        users_per_group=None, baseline_users=None, csit_error_var=csit_var, seed=SEED,
    )
    g_hat, own, interference = [], [], []
    for loc in range(cells):
        draws = cell_draw(_CSI_DRAW, scn, max(sizes), loc, 0)
        coupling, received = _csi_error_kernel(scn, sizes, draws)[:2]
        g_hat.append(zf_prefix_gains(draws[1], sizes))
        own.append(coupling)
        interference.append(received - (coupling.real ** 2 + coupling.imag ** 2))
    g_hat, own, interference = (np.concatenate(a) for a in (g_hat, own, interference))
    starts = _sweep(sizes, 1, max(sizes)).starts
    draw = np.arange(g_hat.shape[0])
    for s, n in enumerate(sizes):
        user = draw % n
        pair = starts[s] + user
        yield n, g_hat[draw, s, user], own[draw, pair], interference[draw, pair]


@pytest.mark.parametrize(
    "l_tx, sizes, csit_var",
    [(16, (1, 6, 16), 0.01), (8, (2, 5, 8), 0.2)],
    ids=["fig9-L16", "L8-var0.2"],
)
def test_csi_couplings_follow_their_laws(l_tx, sizes, csit_var):
    """Five checks per prefix size: 30 checks.  The largest size is full
    load; at ``n = 1`` the interference is zero."""
    z_max = stats.norm.isf(ALPHA / 2)
    for n, g_hat, own, interference in _csi_samples(l_tx, sizes, csit_var):
        _assert_gamma(g_hat / (1 - csit_var), l_tx - n + 1)
        error = own - np.sqrt(g_hat)
        for part in (error.real, error.imag):
            p = stats.kstest(part, stats.norm(scale=np.sqrt(csit_var / 2)).cdf).pvalue
            assert p > ALPHA, f"n={n}: KS p-value {p:.1e} against N(0, s2/2)"
        p = stats.spearmanr(g_hat, np.abs(error) ** 2).pvalue
        assert p > ALPHA, f"n={n}: own coupling error tracks g_hat, Spearman p {p:.1e}"
        stderr = interference.std(ddof=1) / np.sqrt(interference.size)
        gap = interference.mean() - csit_var * (n - 1)
        assert abs(gap) <= z_max * stderr, f"n={n}: mean interference off by {gap:.2e}"


def test_csi_couplings_without_error_are_exact():
    """One Gamma check per prefix size (3 checks); with ``h_hat = h`` the
    own coupling is ``sqrt(g_hat)`` and the interference zero, to rounding."""
    l_tx = 16
    for n, g_hat, own, interference in _csi_samples(l_tx, (1, 6, 16), 0.0):
        _assert_gamma(g_hat, l_tx - n + 1)
        np.testing.assert_allclose(own, np.sqrt(g_hat), rtol=1e-8, atol=0)
        assert np.all(np.abs(interference) <= 1e-8 * g_hat)


def test_perfect_csi_zf_rates_match_exact_expectation():
    """fig6's perfect-CSI curves through the whole recipe (overhead factor,
    SNR scaling, the per-q sums and the reduction over locations) against
    the exact expectation, at every point of ``vcc_zf_perfect`` (16 q by 9
    powers) and of both sides' best-q curves: 162 points.  The points share
    draws, so the bound is on the largest ``|z|``, ``z = (mean - exact) /
    stderr``: one point is past 4.5 with probability 6.8e-6 (a normal
    tail), so by the union bound all 162 stay inside it but with
    probability at most 1.1e-3."""
    theta, coherence, l_tx, groups = 10, 15000, 16, 6
    blocks, _ = run_recipe(
        "fig6", seed=0, n_locations=400, n_fadings=1,
        overrides={"pilot_symbols": theta, "coherence_symbols": coherence},
    )
    curves = {
        "vcc_zf_perfect": groups, "vcc_zf_perfect_opt": groups, "cacheless_zf_perfect_opt": 1,
    }
    z = []
    for row in rendered_rows(blocks):
        if row["scheme"] not in curves:
            continue
        g, q = curves[row["scheme"]], row["q"]
        a = 10.0 ** ((row["ptot_dbm"] - 30.0) / 10.0) / (g * q)
        k = np.arange(1, l_tx - q + 2)
        per_stream = np.exp(1.0 / a) * special.expn(k, 1.0 / a).sum()
        exact = (1.0 - theta * g * q / coherence) * g * q * per_stream
        z.append((row["mean_rate_nats"] - exact) / row["stderr"])
    assert len(z) == 16 * 9 + 2 * 9
    assert np.max(np.abs(z)) <= 4.5, f"largest |z| {np.max(np.abs(z)):.2f}"
