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
  :func:`zf_prefix_gains`, on small stacks and at the recipes' shapes
  (``m`` = 2, 4 and 12), against the full-prefix case refactorizing each
  prefix on its own.  Both read one Gram-block kernel, so ZF equals the
  one-antenna BD-MRC gains exactly, and per served user the sum of the
  reciprocal BD-MRC gains equals that of its ``m`` ZF streams (the trace
  of its block);
* the closed-form gains of one- and two-row blocks in :func:`_block_gains`
  against ``1 / np.linalg.eigvalsh``: equal for one row, and within a
  tolerance that scales with the condition number for two;
* a group's bits, in :func:`prefix_factor`, :func:`_prefix_blocks`,
  :func:`bd_mrc_prefix_gains` and :func:`zf_prefix_gains`, against those of
  the same group factored alone, at ``m`` = 1, 2, 4 and 12: a job with fewer
  groups reads the first groups of a shared draw;
* the dense closed forms of :func:`bd_mrc_prefix_gains` at ``m <= 2``
  against the closed form on the gathered valid cells, bit for bit, also on
  stacks whose prefixes are singular or near it, which take the per-user
  path; and the inverse of an all-full-rank stack (one ``inv`` of the
  stack) against the general path of :func:`_prefix_inverse`;
* the triangular inverse by halving, :func:`_triangular_inverse`, on the
  ``R`` of generic and nearly dependent stacks, against
  ``np.linalg.inv``: its forward error within ``n * cond * eps`` of
  LAPACK's inverse, its residual within a small factor of LAPACK's own,
  and each matrix's bits the same alone as in its stack;
* :func:`zf_prefix_couplings` at the served pairs of any q sweep, q by q
  with users ascending, against :func:`zf_matrix` on each prefix, and the
  start of each q's pairs in the sweep table ``_sweep``, which the
  rate rules of :mod:`vccsim.experiments` read;
* the multi-server gains :func:`msv_gains_fast` over a sweep of unicast
  counts against the :func:`msv_beamformers` design at each count, and
  multicast user 0's against the ZF gain of its prefix;
* the perfect-CSI and estimated-CSI rate rules of :mod:`vccsim.experiments`
  against their per-q definition, ``TestCsiRule._per_q_reference`` in
  ``test_experiments.py``.
"""

from fractions import Fraction

import numpy as np
import pytest
import test_experiments
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vccsim import allocation, experiments
from vccsim.allocation import UserRateFunction, mmf_sum_rates, solve_mmf
from vccsim.channel import GroupChannel, complex_gaussian
from vccsim.errors import InfeasibleDimensionError
from vccsim.precoding import (
    _bd_eigs_generic,
    _block_gains,
    _prefix_blocks,
    _prefix_inverse,
    _sweep,
    _triangular_inverse,
    _usable,
    bd_mrc_prefix_gains,
    msv_gains_fast,
    prefix_factor,
    zf_matrix,
    zf_prefix_couplings,
    zf_prefix_gains,
)

from oracles import bd_mrc, msv_beamformers

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


def _scaled_stack(rng, l_tx, m, q, num_groups):
    """``(G, L, q*m)`` channels, user k's columns scaled by ``sqrt(beta_k)``."""
    betas = 10.0 ** rng.uniform(-2.0, 0.0, size=(num_groups, q))
    h = complex_gaussian(rng, (num_groups, l_tx, q * m))
    return h * np.repeat(np.sqrt(betas), m, axis=1)[:, None, :], m, betas


@st.composite
def group_stacks(draw):
    """Groups of ``q`` users with ``m`` antennas each, up to full load."""
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    l_tx = q * m + draw(st.integers(0, 4))
    num_groups = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _scaled_stack(rng, l_tx, m, q, num_groups)


# (L, m, q_top, G) of the recipes' BD-MRC draws: fig2 at m = 2, 4 and 12,
# fig7, and fig3 and fig5 up to full load.
RECIPE_SHAPES = [(64, 2, 4, 5), (64, 4, 4, 5), (64, 12, 4, 5), (32, 2, 16, 6), (24, 4, 6, 6)]


@st.composite
def recipe_stacks(draw):
    """Groups at the recipes' shapes, with random pathlosses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _scaled_stack(rng, *draw(st.sampled_from(RECIPE_SHAPES)))


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
@given(st.one_of(group_stacks(), recipe_stacks()))
def test_prefix_bd_gains_match_each_prefix_alone(stack):
    h, m, _ = stack
    q_values = range(1, h.shape[-1] // m + 1)
    factor = prefix_factor(h)
    gains, counts = bd_mrc_prefix_gains(factor, m, q_values)
    for s, q in enumerate(q_values):
        ref_gains, ref_counts = bd_mrc_prefix_gains(prefix_factor(h[:, :, : q * m]), m, (q,))
        np.testing.assert_array_equal(counts[:, s, :q], ref_counts[:, 0])
        np.testing.assert_allclose(gains[:, s, :q], ref_gains[:, 0], rtol=1e-10, atol=0)
        assert not counts[:, s, q:].any() and not gains[:, s, q:].any()
    # The trace identity: a user's BD-MRC block and its m ZF streams read one
    # block of the prefix Gram inverse, its eigenvalues and its diagonal.
    zf = zf_prefix_gains(factor, np.asarray(q_values) * m).reshape(gains.shape)
    served = counts > 0
    np.testing.assert_allclose(
        (1.0 / gains[served]).sum(axis=-1), (1.0 / zf[served]).sum(axis=-1), rtol=1e-12, atol=0
    )


@PROPERTY
@given(st.one_of(group_stacks(), recipe_stacks()))
def test_prefix_zf_gains_match_zf_matrix_on_each_prefix(stack):
    h, _, _ = stack
    sizes = range(1, h.shape[-1] + 1)
    factor = prefix_factor(h)
    gains = zf_prefix_gains(factor, sizes)
    # ZF is the one-antenna reading of the BD-MRC blocks.
    np.testing.assert_array_equal(bd_mrc_prefix_gains(factor, 1, sizes)[0][..., 0], gains)
    for s, n in enumerate(sizes):
        for g, h_g in enumerate(h):
            np.testing.assert_allclose(gains[g, s, :n], zf_matrix(h_g[:, :n])[1], rtol=1e-10, atol=0)
        assert not gains[:, s, n:].any()


@PROPERTY
@given(st.lists(st.tuples(_log_uniform(-8, 8), st.floats(-1.0, 1.0)), min_size=1, max_size=8))
def test_one_row_block_gains_equal_eigvalsh(entries):
    # eigvalsh reads only the real part of a diagonal entry.
    blocks = np.array([[[complex(re, im)]] for re, im in entries])
    np.testing.assert_array_equal(_block_gains(blocks), 1.0 / np.linalg.eigvalsh(blocks))


@st.composite
def shared_stacks(draw):
    """Stacks of 2-6 groups of ``q`` users at the recipes' ``m``, up to full
    load, with random pathlosses."""
    m = draw(st.sampled_from([1, 2, 4, 12]))
    q = draw(st.integers(1, 4 if m == 12 else 8))
    l_tx = q * m + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _scaled_stack(rng, l_tx, m, q, draw(st.integers(2, 6)))


def _gains_or_error(kernel, *args):
    try:
        return kernel(*args)
    except InfeasibleDimensionError:
        return None


@PROPERTY
@given(shared_stacks())
def test_a_group_reads_the_bits_it_has_alone(stack):
    # The bits of a matrix product's columns depend on its width, so a
    # product over every group of the stack would tie a group's bits to the
    # group count.
    h, m, _ = stack
    q_values = tuple(range(1, h.shape[-1] // m + 1))
    sizes = tuple(q * m for q in q_values)
    factor = prefix_factor(h)
    blocks = _prefix_blocks(factor, m, q_values)
    bd = _gains_or_error(bd_mrc_prefix_gains, factor, m, q_values)
    zf = zf_prefix_gains(factor, sizes) if factor.valid.min() == h.shape[-1] else None
    lone_bd = []
    for g in range(h.shape[0]):
        alone = prefix_factor(h[g : g + 1])
        for a, b in zip(alone, factor):
            np.testing.assert_array_equal(a[0], b[g])
        np.testing.assert_array_equal(_prefix_blocks(alone, m, q_values)[0], blocks[g])
        lone_bd.append(_gains_or_error(bd_mrc_prefix_gains, alone, m, q_values))
        if bd is not None:
            for a, b in zip(lone_bd[-1], bd):
                np.testing.assert_array_equal(a[0], b[g])
        if zf is not None:
            np.testing.assert_array_equal(zf_prefix_gains(alone, sizes)[0], zf[g])
    # the stack fails where and only where some group fails alone
    assert (bd is None) == any(out is None for out in lone_bd)


def _gathered_bd_gains(factor, m, q_values):
    """:func:`bd_mrc_prefix_gains` with its closed forms on the valid cells
    only: their blocks gathered, their gains and usability computed on the
    gathered array and scattered back."""
    h, _, valid = factor
    g_count, _, n = h.shape
    qs = np.asarray(q_values)
    prefix_ok = valid[:, None] >= qs * m
    cells = prefix_ok[:, :, None] & (np.arange(n // m) < qs[:, None])
    gains = np.zeros((*cells.shape, m))
    gains[cells] = _block_gains(_prefix_blocks(factor, m, qs)[cells])
    counts = np.where(cells, m, 0)
    unusable = np.zeros(cells.shape, dtype=bool)
    unusable[cells] = ~_usable(gains[cells])
    for g, s in zip(*np.nonzero(~prefix_ok | unusable.any(axis=-1))):
        per_user = _bd_eigs_generic([h[g][:, k * m : (k + 1) * m] for k in range(qs[s])])
        gains[g, s] = 0.0
        for k, w in enumerate(per_user):
            gains[g, s, k, : w.size] = w
            counts[g, s, k] = w.size
    return gains, counts


@st.composite
def dependent_stacks(draw):
    """Stacks at ``m`` = 1 or 2 where, in one group, the first column of one
    user is (``"singular"``) or nearly is (``"near"``, up to a relative
    1e-8 to 1e-3) a combination of the earlier users' columns, or no column
    is (``"generic"``); with the group and its column count."""
    m = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, _, _ = _scaled_stack(rng, q * m + draw(st.integers(0, 4)), m, q, draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["generic", "singular", "near"]))
    g = draw(st.integers(0, h.shape[0] - 1))
    if kind != "generic":
        user = draw(st.integers(1, q - 1))
        col = h[g, :, : user * m] @ complex_gaussian(rng, (user * m,))
        if kind == "near":
            noise = complex_gaussian(rng, col.shape)
            noise *= np.linalg.norm(col) / np.linalg.norm(noise)
            col += 10.0 ** draw(st.floats(-8.0, -3.0)) * noise
        h[g, :, user * m] = col
    return h, m, kind, g


@PROPERTY
@given(dependent_stacks())
def test_dense_bd_gains_equal_the_gathered_closed_form(case):
    h, m, kind, g = case
    q_values = tuple(range(1, h.shape[-1] // m + 1))
    factor = prefix_factor(h)
    if kind == "singular":
        assert factor.valid[g] < h.shape[-1]
    # As a block task runs them: no block outside the valid cells divides.
    with np.errstate(all="raise", under="ignore"):
        want = _gains_or_error(_gathered_bd_gains, factor, m, q_values)
        if want is None:
            with pytest.raises(InfeasibleDimensionError):
                bd_mrc_prefix_gains(factor, m, q_values)
            return
        got = bd_mrc_prefix_gains(factor, m, q_values)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@PROPERTY
@given(group_stacks())
def test_full_rank_inverse_equals_the_general_path(stack):
    h, _, _ = stack
    r_inv, valid = _prefix_inverse(h)
    assume(np.all(valid == h.shape[-1]))
    singular = h[:1].copy()
    singular[..., -1] = 0.0
    general_r_inv, general_valid = _prefix_inverse(np.concatenate([h, singular]))
    assert general_valid[-1] < h.shape[-1]
    np.testing.assert_array_equal(general_r_inv[:-1], r_inv)
    np.testing.assert_array_equal(general_valid[:-1], valid)


# Column counts at and around the halving's edges: leaves of at most 8
# columns, even and odd splits.
HALVING_EDGES = (8, 9, 16, 17, 32, 33, 48)


@PROPERTY
@given(
    n=st.one_of(st.sampled_from(HALVING_EDGES), st.integers(1, 48)),
    stack=st.integers(1, 6),
    extra=st.integers(0, 16),
    dependent=st.booleans(),
    log_gap=st.floats(-8.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=48, stack=6, extra=0, dependent=True, log_gap=-8.0, seed=3)
@example(n=33, stack=5, extra=2, dependent=False, log_gap=-2.0, seed=4)
def test_triangular_inverse_matches_lapack(n, stack, extra, dependent, log_gap, seed):
    # R of (n + extra, n) stacks; in a dependent stack one column is a
    # combination of the columns before it plus a relative 10**log_gap of
    # noise, which sets R's condition number (up to about 1e10).
    rng = np.random.default_rng(seed)
    h = complex_gaussian(rng, (stack, n + extra, n))
    if dependent and n > 1:
        j = int(rng.integers(1, n))
        col = np.einsum("gli,gi->gl", h[..., :j], complex_gaussian(rng, (stack, j)))
        noise = complex_gaussian(rng, col.shape)
        noise *= np.linalg.norm(col, axis=-1, keepdims=True) / np.linalg.norm(
            noise, axis=-1, keepdims=True
        )
        h[..., j] = col + 10.0 ** log_gap * noise
    r = np.linalg.qr(h, mode="r")
    got = _triangular_inverse(r)
    want = np.linalg.inv(r)
    eps = np.finfo(float).eps
    cond = np.linalg.cond(r)
    forward = np.abs(got - want).max(axis=(1, 2))
    assert np.all(forward <= n * cond * eps * np.abs(want).max(axis=(1, 2)))
    eye = np.eye(n)
    residual = np.abs(got @ r - eye).max(axis=(1, 2))
    lapack = np.abs(want @ r - eye).max(axis=(1, 2))
    assert np.all(residual <= 10.0 * np.maximum(lapack, n * eps))
    for g in range(stack):
        np.testing.assert_array_equal(_triangular_inverse(r[g:g + 1])[0], got[g])


@st.composite
def hermitian_pairs(draw):
    """Batches of Hermitian positive-definite 2 x 2 blocks, condition number
    up to 1e10: rotated diagonal matrices, diagonal blocks (c = 0) and
    blocks with equal diagonal entries (a = d)."""
    kind = draw(st.sampled_from(["rotated", "diagonal", "equal-diagonal"]))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-6.0, 6.0, n)
    cond = 10.0 ** rng.uniform(0.0, 10.0, n)
    phase = np.exp(2j * np.pi * rng.uniform(size=n))
    if kind == "equal-diagonal":  # eigenvalues a +- |c|
        a = d = scale
        c = scale * (cond - 1.0) / (cond + 1.0) * phase
    else:
        theta = rng.uniform(0.0, np.pi / 2, n) if kind == "rotated" else np.zeros(n)
        cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
        a, d = scale * (cos2 + sin2 / cond), scale * (sin2 + cos2 / cond)
        c = scale * (1.0 - 1.0 / cond) * np.sin(theta) * np.cos(theta) * phase
    return np.stack([np.stack([a, c.conj()], -1), np.stack([c, d], -1)], -2)


@PROPERTY
@given(hermitian_pairs())
def test_two_row_block_gains_match_eigvalsh(blocks):
    w = np.linalg.eigvalsh(blocks)
    # Both reciprocal eigenvalues move by a few eps times the condition
    # number, and by a few eps on a diagonal block, where the smaller root
    # det / lam_max = min(a, d) does not cancel as lam_max - 2 sqrt(...) would.
    cond = np.where(blocks[:, 1, 0] == 0, 1.0, w[:, 1] / w[:, 0])
    tol = 16 * np.finfo(float).eps * cond[:, None] / np.abs(w)
    for b in (blocks, np.tril(blocks)):  # only the lower triangle is read
        gains = _block_gains(b)
        assert np.all(np.abs(gains - 1.0 / w) <= tol)
        assert _usable(gains).all()


@PROPERTY
@given(group_stacks(), st.integers(0, 2**32 - 1))
def test_prefix_couplings_at_served_pairs_match_zf_matrix(stack, seed):
    h_hat, _, _ = stack
    g_count, l_tx, n_top = h_hat.shape
    rng = np.random.default_rng(seed)
    h = complex_gaussian(rng, (g_count, l_tx, n_top))
    # a random q sweep in random order, each column a single-antenna user
    sizes = rng.choice(np.arange(1, n_top + 1), rng.integers(1, n_top + 1), replace=False)
    q_values = tuple(sizes.tolist())
    pairs = [(q, k) for q in q_values for k in range(q)]
    # the rules of vccsim.experiments sum each q's coupling rows from here
    starts = [pairs.index((q, 0)) for q in q_values]
    np.testing.assert_array_equal(_sweep(q_values, 1, n_top).starts, starts)
    coupling = zf_prefix_couplings(h, prefix_factor(h_hat), q_values)
    assert coupling.shape == (g_count, len(pairs), n_top)
    for t, (q, k) in enumerate(pairs):
        for g in range(g_count):
            ref = h[g][:, k] @ zf_matrix(h_hat[g][:, :q])[0]
            np.testing.assert_allclose(
                coupling[g, t, :q], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max()
            )
        assert not coupling[:, t, q:].any()


@PROPERTY
@given(group_stacks(), st.integers(0, 2**32 - 1))
def test_prefix_gains_of_one_size_match_any_size_list(stack, seed):
    # a prefix's gains do not depend on the other sizes asked for with it,
    # bit for bit: one size alone rounds as it does among others
    h, m, _ = stack
    q_top = h.shape[-1] // m
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, q_top + 1))
    others = list(rng.integers(1, q_top + 1, rng.integers(1, 2 * q_top + 1))) + [q]
    at = others.index(q)
    factor = prefix_factor(h)
    np.testing.assert_array_equal(
        zf_prefix_gains(factor, [q * m])[:, 0],
        zf_prefix_gains(factor, [o * m for o in others])[:, at],
    )
    one, one_counts = bd_mrc_prefix_gains(factor, m, [q])
    many, many_counts = bd_mrc_prefix_gains(factor, m, others)
    np.testing.assert_array_equal(one[:, 0], many[:, at])
    np.testing.assert_array_equal(one_counts[:, 0], many_counts[:, at])


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
        # The common beam is the ZF beam of multicast user 0 in its prefix,
        # so user 0's gain is that beam's ZF gain.  Its coupling comes from a
        # row of the Gram matrix, so it moves by a few eps times the squared
        # condition number: at most 7.7 of that unit over 25,000 random
        # draws, where a flat rtol of 1e-12 failed on 0.18% of them.
        prefix = np.vstack([mc[:1], uc[:n]]).T
        g0 = zf_matrix(prefix)[1][0]
        tol = 16 * np.finfo(float).eps * np.linalg.cond(prefix) ** 2
        np.testing.assert_allclose(mg[s, 0], g0, rtol=tol, atol=0)


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
        cache_fraction=Fraction(draw(st.integers(0, num_states - 1)), num_states),
        csit_error_var=draw(st.just(0.0) | st.floats(1e-4, 0.5)),
        csir_error_vars=tuple(csir), seed=draw(st.integers(0, 2**16)),
    )
    fixed = draw(st.none() | st.integers(1, scn.max_group_users()))
    q_values = scn.group_user_counts(fixed)
    loc, fad = draw(st.integers(0, 99)), draw(st.integers(0, 19))
    draws = test_experiments.cell_draw(experiments._CSI_DRAW, scn, max(q_values), loc, fad)
    return scn, q_values, draws


@PROPERTY
@given(csi_cases())
def test_csi_rules_match_per_q_definition(case):
    rule_test = test_experiments.TestCsiRule
    np.testing.assert_allclose(
        rule_test.both_rules(*case), rule_test._per_q_reference(*case), rtol=1e-12, atol=0
    )
