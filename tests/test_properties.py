"""Property tests: the batched fast paths against independent oracles.

* :func:`mmf_sum_rates` against a Brent root of the summed closed-form
  inverses of :class:`UserRateFunction`, a ragged batch of problems
  against each problem solved alone, the batches of several fadings in one
  call against one call per fading, a batch that its closed form settles
  in part against Brent roots, and the sign of the budget residual at the
  ends of the bracket that the root starts from (``solve_mmf(...).bracket``);
* :func:`mmf_sum_rates` on surrogate users, equal-gain rows, over a ragged
  batch with mixed stream counts, a zero factor and nonpositive budgets
  against each problem's closed form or Brent root;
* the full-prefix case of :func:`bd_mrc_prefix_gains` against the
  eigenvalues of the :func:`bd_mrc` beamformer design, and that of
  :func:`zf_prefix_gains` against :func:`zf_matrix` and a plain Gram-matrix
  inverse;
* the nested-prefix kernels :func:`bd_mrc_prefix_gains` and
  :func:`zf_prefix_gains` against the full-prefix case refactorizing each
  prefix on its own, and :func:`zf_prefix_couplings` at any set of
  (prefix, receiver) pairs, with more or fewer receivers than streams,
  against :func:`zf_matrix` on each prefix;
* the multi-server gains :func:`msv_gains_fast` over a sweep of unicast
  counts against the :func:`msv_beamformers` design at each count;
* the perfect-CSI and estimated-CSI rate rules of :mod:`vccsim.experiments`
  against their per-q definition, ``TestCsiRule._per_q_reference`` in
  ``test_experiments.py``.
"""

from fractions import Fraction

import numpy as np
import test_experiments
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vccsim import allocation, experiments
from vccsim.allocation import UserRateFunction, mmf_sum_rates, solve_mmf
from vccsim.channel import GroupChannel, complex_gaussian
from vccsim.precoding import (
    bd_mrc,
    bd_mrc_prefix_gains,
    msv_beamformers,
    msv_gains_fast,
    prefix_factor,
    zf_matrix,
    zf_prefix_couplings,
    zf_prefix_gains,
)

PROPERTY = settings(max_examples=50, deadline=None)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def pools(draw, one_stream=False, uniform=False):
    """Pooled users: descending gains per user, plus xi, n0 and powers."""
    n = draw(st.integers(1, 8))
    if one_stream or uniform:
        counts = [1 if one_stream else draw(st.integers(1, 4))] * n
    else:
        counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    gains = [
        sorted(draw(st.lists(_log_uniform(-2, 2), min_size=j, max_size=j)), reverse=True)
        for j in counts
    ]
    xi = draw(st.floats(0.5, 1.0))
    n0 = draw(_log_uniform(-1, 1))
    powers = draw(st.lists(_log_uniform(-3, 6), min_size=1, max_size=4))
    return gains, xi, n0, np.array(powers)


def _padded(gains):
    counts = np.array([len(g) for g in gains])
    table = np.zeros((len(gains), counts.max()))
    for row, g in zip(table, gains):
        row[: len(g)] = g
    return table, counts


def _budget_residual(fns, p):
    n = len(fns)
    return lambda r: sum(f.inverse(r / n) for f in fns) - p


def _brent_sum_rate(fns, p):
    if p <= 0:
        return 0.0
    residual = _budget_residual(fns, p)
    hi = 1.0
    while residual(hi) < 0:
        hi *= 2.0
    return brentq(residual, 0.0, hi, xtol=1e-30, rtol=1e-14)


@PROPERTY
@given(st.one_of(pools(), pools(one_stream=True)))
def test_rate_only_solver_matches_brent_root(pool):
    gains, xi, n0, powers = pool
    fns = [UserRateFunction(np.array(g), n0, xi) for g in gains]
    rates = mmf_sum_rates(*_padded(gains), [len(gains)], [xi], n0, powers)
    ref = np.array([_brent_sum_rate(fns, p) for p in powers])
    np.testing.assert_allclose(rates, [ref], rtol=1e-10, atol=0)


@st.composite
def batches(draw):
    """Ragged batches of pools with mixed, uniform and one-stream counts,
    each with its own xi, sharing n0 and powers with a zero and a negative
    budget."""
    pool_kinds = st.one_of(pools(), pools(uniform=True), pools(one_stream=True))
    problems = draw(st.lists(pool_kinds, min_size=1, max_size=5))
    _, _, n0, powers = problems[0]
    return [(g, xi) for g, xi, _, _ in problems], n0, np.append(powers, [0.0, -1.0])


@PROPERTY
@given(batches())
def test_batched_solver_matches_each_problem_alone_and_brent(batch):
    problems, n0, powers = batch
    gains, counts = _padded([g for pool, _ in problems for g in pool])
    sizes = [len(pool) for pool, _ in problems]
    rates = mmf_sum_rates(gains, counts, sizes, [xi for _, xi in problems], n0, powers)
    assert rates.shape == (len(problems), powers.size)
    for row, (pool, xi) in zip(rates, problems):
        alone = mmf_sum_rates(*_padded(pool), [len(pool)], [xi], n0, powers)[0]
        np.testing.assert_allclose(row, alone, rtol=1e-13, atol=0)
        fns = [UserRateFunction(np.array(g), n0, xi) for g in pool]
        ref = np.array([_brent_sum_rate(fns, p) for p in powers])
        np.testing.assert_allclose(row, ref, rtol=1e-10, atol=0)


@PROPERTY
@given(st.lists(batches(), min_size=1, max_size=4))
def test_one_solve_over_fadings_equals_one_solve_per_fading(fadings):
    # Each batch is one fading's problems; all share the first one's noise
    # and powers, as the fadings of one location do.
    _, n0, powers = fadings[0]
    per_fading = []
    for problems, _, _ in fadings:
        gains, counts = _padded([g for pool, _ in problems for g in pool])
        sizes = [len(pool) for pool, _ in problems]
        per_fading.append(
            mmf_sum_rates(gains, counts, sizes, [xi for _, xi in problems], n0, powers)
        )
    problems = [problem for batch, _, _ in fadings for problem in batch]
    gains, counts = _padded([g for pool, _ in problems for g in pool])
    together = mmf_sum_rates(
        gains, counts, [len(pool) for pool, _ in problems], [xi for _, xi in problems],
        n0, powers,
    )
    assert np.array_equal(together, np.concatenate(per_fading))


def test_closed_form_settles_part_of_a_batch(monkeypatch):
    # Uniform stream counts at high power keep every stream active, so the
    # closed form settles them; mixed counts, and uniform counts whose
    # weakest streams stay off at low power, are left to Newton.
    rng = np.random.default_rng(5)
    n0, xi = 0.5, 0.9

    def pool(counts):
        return [sorted(rng.uniform(0.1, 10.0, j), reverse=True) for j in counts]

    settled = [pool([j] * 4) for j in (2, 3, 4)]
    mixed = pool([1, 3, 2, 4])
    weak = [[8.0, 1e-6, 1e-6], [5.0, 2e-6, 1e-6]]
    problems = [settled[0], mixed, settled[1], weak, settled[2]]
    solved = []  # problem count of each Newton solve
    residual = allocation._budget_residual

    def spy(table, p):
        solved.append(table.sizes.size)
        return residual(table, p)

    monkeypatch.setattr(allocation, "_budget_residual", spy)
    for powers, newton in ((np.array([1e5, 1e6]), [2]), (np.array([1e-2, 1e6]), [5])):
        solved.clear()
        gains, counts = _padded([g for users in problems for g in users])
        sizes = [len(users) for users in problems]
        rates = mmf_sum_rates(gains, counts, sizes, [xi] * len(problems), n0, powers)
        assert solved == newton
        for row, users in zip(rates, problems):
            fns = [UserRateFunction(np.array(g), n0, xi) for g in users]
            ref = np.array([_brent_sum_rate(fns, p) for p in powers])
            np.testing.assert_allclose(row, ref, rtol=1e-10, atol=0)


@st.composite
def surrogate_batches(draw):
    """:func:`batches` as surrogate users, each user's streams all at its best
    gain, with one factor of at most one problem set to zero."""
    problems, n0, powers = draw(batches())
    factors = [[g[0] for g in pool] for pool, _ in problems]
    zeroed = draw(st.integers(-1, len(problems) - 1))
    if zeroed >= 0:
        factors[zeroed][draw(st.integers(0, len(factors[zeroed]) - 1))] = 0.0
    counts = [[len(g) for g in pool] for pool, _ in problems]
    return factors, counts, [xi for _, xi in problems], n0, powers


def _surrogate_rate_alone(factors, counts, xi, n0, p):
    """One problem's surrogate-user sum rate: 0 for a zero factor or budget,
    the closed form for one stream count, else a Brent root."""
    f, j, n = np.array(factors), np.array(counts), len(factors)
    if p <= 0 or np.any(f <= 0):
        return 0.0
    if np.all(j == j[0]):
        return xi * n * j[0] * np.log1p(p / (n0 * j[0] * np.sum(1.0 / f)))

    def residual(r):
        return np.sum(j * n0 / f * np.expm1(r / (xi * j * n))) - p

    hi = 1.0
    while residual(hi) < 0:
        hi *= 2.0
    return brentq(residual, 0.0, hi, xtol=1e-30, rtol=1e-14)


@PROPERTY
@given(surrogate_batches())
def test_surrogate_root_matches_each_problem_alone(batch):
    factors, counts, xis, n0, powers = batch
    flat_counts = np.array([j for js in counts for j in js])
    rows = np.repeat([[f] for fs in factors for f in fs], flat_counts.max(), axis=1)
    rates = mmf_sum_rates(rows, flat_counts, [len(fs) for fs in factors], xis, n0, powers)
    assert rates.shape == (len(factors), powers.size)
    for row, fs, js, xi in zip(rates, factors, counts, xis):
        ref = [_surrogate_rate_alone(fs, js, xi, n0, p) for p in powers]
        np.testing.assert_allclose(row, ref, rtol=1e-10, atol=0)


@PROPERTY
@given(st.one_of(pools(), pools(uniform=True), pools(one_stream=True)))
def test_budget_residual_changes_sign_across_bracket(pool):
    # The bracket ends straddle the root, so the solver's clamp to a bracket
    # end never fires on valid input.  Where an end is the root itself (one
    # stream, or equal gains), the residual is rounding noise on the scale of
    # the budget and the noise-to-gain terms that cancel in each inverse.
    gains, xi, n0, powers = pool
    fns = [UserRateFunction(np.array(g), n0, xi) for g in gains]
    cancelled = n0 * sum(1.0 / lam for g in gains for lam in g)
    for p in powers:
        lo, hi = solve_mmf(fns, p).bracket
        residual = _budget_residual(fns, p)
        rounding = 1e-12 * (p + cancelled)
        assert residual(lo) <= rounding
        assert residual(hi) >= -rounding


@st.composite
def group_stacks(draw):
    """Groups of ``q`` users with ``m`` antennas each, up to full load."""
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    l_tx = q * m + draw(st.integers(0, 4))
    num_groups = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    betas = 10.0 ** rng.uniform(-2.0, 0.0, size=(num_groups, q))
    h = complex_gaussian(rng, (num_groups, l_tx, q * m))
    return h * np.repeat(np.sqrt(betas), m, axis=1)[:, None, :], m, betas


@PROPERTY
@given(group_stacks())
def test_batched_bd_gains_match_beamformer_design(stack):
    h, m, betas = stack
    gains, counts = bd_mrc_prefix_gains(prefix_factor(h), m, (h.shape[-1] // m,))
    gains, counts = gains[:, 0], counts[:, 0]
    assert np.all(counts == m)
    for g, h_g in enumerate(h):
        q = h_g.shape[1] // m
        group = GroupChannel(tuple(
            (h_g[:, k * m : (k + 1) * m], float(betas[g, k])) for k in range(q)
        ))
        for k, user in enumerate(bd_mrc(group).users):
            np.testing.assert_allclose(
                gains[g, k], user.eigenvalues, rtol=1e-8, atol=1e-10 * gains[g].max()
            )


@PROPERTY
@given(group_stacks())
def test_batched_zf_gains_match_zf_matrix(stack):
    h, _, _ = stack
    gains = zf_prefix_gains(prefix_factor(h), (h.shape[-1],))[:, 0]
    for g, h_g in enumerate(h):
        np.testing.assert_array_equal(gains[g], zf_matrix(h_g)[1])
        gram_inv = np.linalg.inv(h_g.T @ h_g.conj())
        np.testing.assert_allclose(gains[g], 1.0 / np.diag(gram_inv).real, rtol=1e-8)


@PROPERTY
@given(group_stacks())
def test_prefix_bd_gains_match_each_prefix_alone(stack):
    h, m, _ = stack
    q_values = range(1, h.shape[-1] // m + 1)
    gains, counts = bd_mrc_prefix_gains(prefix_factor(h), m, q_values)
    for s, q in enumerate(q_values):
        ref_gains, ref_counts = bd_mrc_prefix_gains(prefix_factor(h[:, :, : q * m]), m, (q,))
        np.testing.assert_array_equal(counts[:, s, :q], ref_counts[:, 0])
        np.testing.assert_allclose(gains[:, s, :q], ref_gains[:, 0], rtol=1e-10, atol=0)
        assert not counts[:, s, q:].any() and not gains[:, s, q:].any()


@PROPERTY
@given(group_stacks())
def test_prefix_zf_gains_match_zf_matrix_on_each_prefix(stack):
    h, _, _ = stack
    sizes = range(1, h.shape[-1] + 1)
    gains = zf_prefix_gains(prefix_factor(h), sizes)
    for s, n in enumerate(sizes):
        for g, h_g in enumerate(h):
            np.testing.assert_allclose(gains[g, s, :n], zf_matrix(h_g[:, :n])[1], rtol=1e-10, atol=0)
        assert not gains[:, s, n:].any()


@PROPERTY
@given(group_stacks(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_prefix_couplings_with_other_receivers_match_zf_matrix(stack, k, seed):
    h_hat, _, _ = stack
    g_count, l_tx, n_top = h_hat.shape
    rng = np.random.default_rng(seed)
    h = complex_gaussian(rng, (g_count, l_tx, k))
    # every (size, receiver) pair, then a random subset in random order
    pairs = [(n, r) for n in range(1, n_top + 1) for r in range(k)]
    if rng.integers(2):
        pairs = [pairs[i] for i in rng.choice(len(pairs), rng.integers(1, len(pairs) + 1))]
    gains, coupling = zf_prefix_couplings(h, h_hat, pairs)
    sizes = [n for n, _ in pairs]
    np.testing.assert_array_equal(gains, zf_prefix_gains(prefix_factor(h_hat), sizes))
    assert coupling.shape == (g_count, len(pairs), n_top)
    for t, (n, r) in enumerate(pairs):
        for g in range(g_count):
            ref = h[g][:, r] @ zf_matrix(h_hat[g][:, :n])[0]
            np.testing.assert_allclose(
                coupling[g, t, :n], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max()
            )
        assert not coupling[:, t, n:].any()


@PROPERTY
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_msv_gains_match_beamformers_at_each_count(l_tx, num_multicast, seed):
    rng = np.random.default_rng(seed)
    mc = complex_gaussian(rng, (num_multicast, l_tx))
    uc = complex_gaussian(rng, (l_tx - 1, l_tx))
    counts = sorted({0, l_tx - 1, int(rng.integers(0, l_tx))})
    mg, ug = msv_gains_fast(mc, uc, counts)
    for s, n in enumerate(counts):
        sol = msv_beamformers(mc, uc, n)
        np.testing.assert_allclose(
            mg[s], sol.multicast_gains, rtol=1e-9, atol=1e-9 * sol.multicast_gains.max()
        )
        np.testing.assert_allclose(ug[s, :n], sol.unicast_gains, rtol=1e-9, atol=0)
        assert not ug[s, n:].any()


@st.composite
def csi_cases(draw):
    """A single-antenna scenario for the CSI rules, its job's groups and q
    sweep, and one location's draws.  CSIR variances always include 0."""
    l_tx = draw(st.integers(2, 10))
    num_states = draw(st.integers(1, 6))
    csir = draw(st.lists(st.floats(1e-4, 1.0), max_size=2))
    csir.insert(draw(st.integers(0, len(csir))), 0.0)
    scn = test_experiments.symmetric_scenario(
        num_tx_antennas=l_tx, num_states=num_states,
        cache_fraction=Fraction(draw(st.integers(0, num_states)), num_states),
        csit_error_var=draw(st.just(0.0) | st.floats(1e-4, 0.5)),
        csir_error_vars=tuple(csir), seed=draw(st.integers(0, 2**16)),
    )
    fixed = draw(st.none() | st.integers(1, scn.max_group_users()))
    q_values = scn.group_user_counts(fixed)
    loc, fad = draw(st.integers(0, 99)), draw(st.integers(0, 19))
    draws = experiments._csi_draws(scn, scn.coded_gain, max(q_values), loc, fad, None)
    return scn, scn.coded_gain, q_values, draws


@PROPERTY
@given(csi_cases())
def test_csi_rules_match_per_q_definition(case):
    rule_test = test_experiments.TestCsiRule
    np.testing.assert_allclose(
        rule_test.both_rules(*case), rule_test._per_q_reference(*case), rtol=1e-12, atol=0
    )
