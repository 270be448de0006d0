"""Monte Carlo harness for effective sum-rates and effective gains.

A scenario fixes the cell, antenna and caching parameters plus the power
sweep.  A :class:`Job` is one side of a comparison (the cache-aided groups
or the cacheless single group) with the schemes, or rules, run on it.  A
recipe hands all of its jobs to one :func:`_simulate` call, which plans
the run's shared draws once (:func:`_plan`), cuts the locations, in order,
into blocks of whole locations, ``_BLOCK_CELLS`` (location, fading) cells'
worth and at least one location, and runs one task per block
(:func:`_block_task`), on as many workers as are asked for, usable and
needed: the parent runs the first contiguous slice of the tasks and forks a
child for each other slice (:func:`_parallel_map`).  Each task runs every
job of the recipe over its block in the same four steps:

1. draw: the task gets the generator of every substream (below) it will
   read, bit-identical to one ``SeedSequence`` per key, from its worker,
   which seeds the blocks of its slice a chunk of blocks at a time
   (:func:`_seeded_blocks`).  It draws the pathlosses once per location
   and geometry, which every job on it reads (Sharing, below), and, shared
   draw by shared draw, makes the draw of its (location, fading) cells, in
   that order, at the largest served-user count ``q``, in stacks of at most
   :data:`_BLOCK_CELLS` cells, each from its cells' generators, and runs
   each of its kernels once on a stack before the next stack is drawn.
   BD-MRC and ZF use the same
   draw, the groups' channels with their prefix factor
   (:func:`~vccsim.precoding.prefix_factor`), so each (location, fading,
   group) channel is drawn and factored once; the imperfect-CSI draw comes
   with the factor of the transmitter's estimate.  A draw fills one buffer with
   one ``standard_normal`` call per substream, the doubles that
   :func:`~vccsim.channel.complex_gaussian` draws from it, in its order,
   and builds every array from that buffer in whole-stack expressions with
   the operations of ``complex_gaussian`` and
   :func:`~vccsim.channel.corrupt_csit`: the channels, the transmitter's
   estimates and the error draws, bit-identical to those functions'
   (:func:`_gaussians`).  A stack's per-group arrays put its cells on the
   group axis, ``(C*G, ...)``, cell by cell, so one factorization and one
   call of each kernel serve the stack, and the kernels hand back their
   outputs cells first, ``(C, G, ...)``.  Every factorization, inverse,
   product and eigenvalue call works matrix by matrix, so a cell gets the
   same bits in any stack, and as a stack holds at most
   :data:`_BLOCK_CELLS` cells, neither the draws nor the kernels grow with
   the block;
2. kernel: the stream gains of every ``q``-user prefix of those draws at
   once, per group (groups on axis 0).  For BD-MRC and ZF this is one
   nested-prefix Gram kernel over every group, one factorization per
   (group, cell) whatever the q sweep, whose per-user diagonal blocks of
   every prefix Gram inverse both read: BD-MRC their reciprocal
   eigenvalues (:func:`~vccsim.precoding.bd_mrc_prefix_gains`), ZF the
   reciprocal ``1 x 1`` blocks (:func:`~vccsim.precoding.zf_prefix_gains`);
   under imperfect CSI it is the ZF gains, or the couplings, of the q
   sweep's served ``(q, user)`` pairs only, q by q with users ascending
   (the couplings from :func:`~vccsim.precoding.zf_prefix_couplings`,
   whose sweep table :func:`~vccsim.precoding._sweep` the rules read too);
   MSV factors one multicast/unicast draw for every unicast count
   (:func:`~vccsim.precoding.msv_gains_fast`): the unicast gains are the
   prefix ZF gains, and the common beam's couplings one product with the
   sweep's prefix mask;
3. rates: one rate-rule call per (job, rule, block), for the rates of every
   curve the scheme owns over the block's cells, the q sweep and the power
   vector, from the kernel outputs of the job's groups at every cell, on a
   leading cell axis in (location, fading) order: a block of one stack
   reads the kernels' outputs as they are, a longer one their stacks'
   outputs copied into one array each, one kernel's arrays at a time.
   Every rule takes each served set's pilot overhead factor from
   :meth:`Scenario.overhead_factor`, in [0, 1]; a set whose pilots fill the
   coherence block has factor 0 and rate 0.
   Max-min-fair rules pose problems of one batched rate-only root solve
   (:func:`~vccsim.allocation.mmf_sum_rates`): each (cell, q) is one
   problem over the pooled users of every group, with that q's overhead
   factor.  The block solves the problems of every such rule of every job
   together (:func:`_solve_problems`): those that share a stream width go
   into one call, cut between problems at :data:`_SOLVE_USERS` pooled users,
   and are settled in closed form where they can be and otherwise in one
   Newton loop with the others.  Problems
   do not interact, so each gets the bits it has solved alone.  The
   fading-free curves pose the same problems on surrogate users, whose
   streams all share one gain: one problem per (stream-gain surrogate,
   location, q), which the closed form settles.  Equal-power ZF under
   imperfect CSI is two rules on one draw, and a recipe lists only the one
   whose curves it writes: :data:`CSI_PERFECT` takes its SINRs from the
   prefix ZF gains alone, and :data:`CSI_ERROR` from the couplings, for the
   CSIT curve and one curve per CSIR variance.  Both sum each q's served
   pairs with ``np.add.reduceat``.  The MSV rates
   (:func:`~vccsim.precoding.msv_rate_from_gains`) are an array expression
   over (q, power), each unicast count q's factor that of one group of
   ``q + coded_gain`` single-antenna users;
4. reduce: the task splits each rule's rates by location and takes each
   location's mean over its fadings, so only per-location means leave it,
   in location order; :func:`_simulate` reduces those to the mean and
   standard error over locations.

A scheme is a :class:`_Rule`: a channel draw (:class:`_Draw`), which lists
the ``(stream, group)`` of the substream keys ``(stream, loc, fad, group)``
it reads at each cell, ``streams(scenario)``, and draws a stack of cells
with ``make(scenario, q_top, cell_rngs, betas)`` from their generators, one
list per cell in key order;
a gain kernel ``kernel(scenario, q_values, draw)``; and a rate
rule ``rates(scenario, q_values, inputs)``; each reads the group count from
the scenario (``coded_gain``).  Fading-free analytic curves have neither a
draw nor a kernel, and run once per block, their inputs the pathloss rows of
its locations.  The tables a rule needs that depend only on the job
(per-stream SNRs, overhead factors) are built once per process, as are the
kernels' tables that depend only on the q sweep (prefix masks, served users,
served pairs; see :mod:`vccsim.precoding`), which the CSI rules read too, and
all are read-only.

Blocks.  At two or more fadings a block is one location, so paper-scale
runs keep one location's draws and rates per task; one-fading runs, where
per-call overhead outweighs the arithmetic of a rate solve, batch two
locations into each rate-rule call and each solve, and each draw and
kernel call.  A block's draws are cut into stacks of at most
:data:`_BLOCK_CELLS` cells, so the factor, the kernels and their memory do
not grow with the block: a 20-fading block is 10 stacks.  No matrix product
changes its width either: the cells sit on the product's batch axis, never
among its columns, whose bits depend on its width, so stacking moves no bit
of the CSV.  Nor does a
solve grow with the rules: it holds at most :data:`_SOLVE_USERS` pooled
users, unless one problem is larger, which at paper scale is about what
fig7's largest rule poses on its own.  A block runs with numpy raising on
division by zero, overflow and invalid operations, so such a fault fails
the run with an error that names the block's locations
(:func:`_block_task`).

Memory.  glibc's malloc moves its mmap and trim thresholds as a process
frees memory, and under those dynamic thresholds a block that frees enough
hands the top of the heap back to the kernel, which the next block faults
in again, page by page: 130 minor faults per run of fig8 at 2x1, and about
950 per location of fig7 at 20x20, at about 2 us each.  So
:func:`_simulate` pins both once per process (:func:`_pin_heap`), before it
cuts the tasks: ``mallopt(M_MMAP_THRESHOLD, 32 MiB)``, the cap the dynamic
threshold reaches on a 64-bit host, and ``mallopt(M_TRIM_THRESHOLD,
64 MiB)``, twice that, as the dynamic rule sets it.  Arrays below 32 MiB
then come from the heap, and up to 64 MiB of its free top stays mapped for
the next block, in the parent and in every forked slice, which inherits the
setting.  It moves no number.  Where libc cannot be looked up through
``ctypes`` or has no ``mallopt``, as on macOS, it does nothing.  Importing
the package sets nothing, and no option or variable controls it.

Sharing.  Once per run, before any block, the rules with a draw are
grouped by draw key (:func:`_plan`): their draw plus the fields it reads
(``L``, ``M``, ``geometry``, ``csit_error_var``) and ``q_top``, the largest
served count of the job.  Every job has the same seed (:func:`_simulate`
checks it).  Each draw is made once per stack of cells, by the first job
with the most groups among those that share the key, and each of its kernels
runs once per stack, for every rule that reads it with one q sweep; every job
takes its first ``coded_gain`` groups of the stacked output.  This is exact
because group g of a draw reads only the substreams ``(., loc, fad,
g)`` and every kernel works group by group.  The pathlosses are shared
too: each location's are drawn once per geometry, a site of the plan, for
as many users as the job on it with the most, ``G * q_top``, and each job
on it reads the first ``G_j * q_top_j`` as its rows ``(G_j, q_top_j)``.
The draw takes its values user by user, in order, so those are the job's
own draw of that many users, bit for bit, and the rows of group g are the
same in every job with the same ``q_top``.  So the cacheless job reads the
cache-aided group 0 wherever both sides have the same ``q_top`` (common
random numbers), and jobs whose ``q_top`` differs keep their own channel
draws.
The MSV draw is not per group (its multicast channels come from one
substream), so its key holds its group count and it is never sliced.

All randomness flows through keyed substreams of the master seed, and
results are reduced in location order, so the curves are bit-identical for
any worker count, block size and key budget.  The ``run_*`` functions are one-job
(or, for imperfect CSI, two-job) wrappers over the same builders.

Substream keys: ``(0, loc)`` user positions (one generator per geometry
and location, whatever the jobs on it), ``(1, loc, fad, group)`` fading,
``(2, loc, fad, group)`` transmitter CSI errors (drawn only at a positive
``csit_error_var``), ``(3, loc, fad, group)`` receiver coupling errors
(seeded and drawn only where a CSIR variance of the job that makes the
draw is positive), ``(4, loc, fad, 0|1)`` baseline-scheme channels.  A
key's generator is bit-identical to
``default_rng(SeedSequence(seed, spawn_key=key))``.  A worker seeds the
blocks of its slice in chunks of consecutive blocks, as many as fit in
:data:`_SEED_KEYS` keys and at least one, each chunk's keys in one
vectorized hashing pass (:func:`~vccsim.channel._spawn_states`): the hash
of the seed's own words is computed once, the chunk's key words are one
location's, which the run's plan holds as an integer array, repeated with
each location's index filled in, and they are mixed in as array
operations.  A block then only builds its generators from its rows of the
chunk's seed words, in key order, so a key costs a few microseconds instead
of the ``SeedSequence`` and generator of its own, and a one-fading run pays
for one pass per chunk, not one per block.

CSV.  A recipe's rows come as one block per curve (:class:`CsvBlock`,
from :func:`rows_for_curve` or :func:`rows_for_best`): its scenario and
scheme, and one list per column, the q and power-index columns and the
mean, stderr and gain columns, each taken from the curve's arrays with one
``tolist()``.  :func:`format_csv` renders them block by block.  A float
cell is empty for ``None`` and NaN and is otherwise the float's ``repr``,
the shortest text that parses back to the same double, so a reader of the
CSV gets every number exactly, the sign of zero, subnormals and infinities
included; count cells are ``str``.  ``mean_rate_bits`` is
``mean / math.log(2)``.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import os
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# UserRateFunction, solve_mmf, sample_user_position, substream,
# bd_mrc_eigenvalues and zf_matrix are on no run path; they stay importable
# here, where bench/spans.py resolves the names it traces, zf_mmf_bounds
# among them.  They are oracles of the fast paths, and the table in
# tests/oracles.py, where the other oracles live, says which path each checks.
# complex_gaussian and corrupt_csit stay for the tracer too: no run path
# calls them, as _gaussians and _csi_draws make their values bit for bit, one
# buffer per stack of cells, and the tests check the draws against them.
from .allocation import UserRateFunction, mmf_sum_rates, solve_mmf
from .channel import (
    _generators,
    _spawn_states,
    complex_gaussian,
    corrupt_csit,
    csi_overhead,
    dbm_to_watts,
    geometry_preset,
    noise_power_watts,
    sample_user_pathlosses,
    sample_user_position,
    substream,
)
from .errors import (
    InvalidConfigurationError,
    NumericalFaultError,
    UnsupportedConfigurationError,
)
from .precoding import (
    _read_only,
    _sweep,
    bd_mrc_eigenvalues,
    bd_mrc_prefix_gains,
    msv_gains_fast,
    msv_rate_from_gains,
    prefix_factor,
    zf_matrix,
    zf_prefix_couplings,
    zf_prefix_gains,
)

__all__ = [
    "coded_gain_of",
    "Scenario",
    "SchemeCurve",
    "Job",
    "BD_MRC",
    "BD_MRC_ASYM",
    "ZF",
    "ZF_BOUNDS",
    "zf_mmf_bounds",
    "CSI_PERFECT",
    "CSI_ERROR",
    "cache_aided_job",
    "cacheless_job",
    "msv_job",
    "imperfect_csi_jobs",
    "msv_original",
    "run_vcc_bd_mrc",
    "run_cacheless_bd_mrc",
    "run_vcc_zf",
    "run_msv",
    "run_imperfect_csi",
    "effective_gain",
    "CSV_COLUMNS",
    "CsvBlock",
    "rows_for_curve",
    "rows_for_best",
    "row_count",
    "gain_rows",
    "format_csv",
]


# The largest noise power and SNR a scenario accepts.  The max-min-fair
# solver's power sums scale with the noise power times the inverse gains,
# and with the total power (noise power times SNR) times the spread of the
# users' gains; past these bounds they can overflow.
NOISE_POWER_MAX_W = 1e100
SNR_MAX_DB = 1000.0


def coded_gain_of(num_states: int, cache_fraction) -> int:
    """The coded gain ``num_states * cache_fraction + 1``: the cache groups
    served at once, each of the others' subfiles cancelled from its cache.

    Raises
    ------
    InvalidConfigurationError
        Unless ``num_states >= 1`` and the product is an integer in ``[0,
        num_states)``.
    """
    if num_states < 1:
        raise InvalidConfigurationError(f"num_states {num_states} is below 1")
    gain = num_states * Fraction(cache_fraction)
    if gain.denominator != 1:
        raise InvalidConfigurationError(
            f"num_states * cache_fraction = {gain} is not an integer"
        )
    # A full cache (gain = num_states) leaves a coded gain above the
    # num_states cache states, so no delivery stage to schedule.
    if not 0 <= gain < num_states:
        raise InvalidConfigurationError(f"cache_fraction {cache_fraction} outside [0, 1)")
    return int(gain) + 1


@dataclass(frozen=True)
class Scenario:
    """Static parameters of one experiment.

    ``users_per_group`` (the served users per cache group) and
    ``baseline_users`` (the cacheless multiplexing gain) may be ``None`` to
    request per-point optimization.  ``geometry`` of ``None`` means
    statistically symmetric users with unit pathloss, in which case
    ``noise_power`` should usually be 1 so the sweep reads as transmit SNR.
    The noise power must be positive and at most :data:`NOISE_POWER_MAX_W`
    watts, and each power's SNR (power over noise) above 0 and at most
    :data:`SNR_MAX_DB` dB.
    """

    name: str = "custom"
    geometry: str | None = "macro"
    num_tx_antennas: int = 64
    num_states: int = 5
    cache_fraction: Fraction = Fraction(4, 5)
    antennas_per_user: int = 4
    users_per_group: int | None = 4
    baseline_users: int | None = None
    ptot_dbm: tuple[float, ...] = (30.0, 34.0, 38.0, 42.0, 46.0, 50.0)
    coherence_symbols: int = 15000
    pilot_symbols: int = 10
    noise_power: float = noise_power_watts()
    csit_error_var: float = 0.0
    csir_error_vars: tuple[float, ...] = ()
    n_locations: int = 1000
    n_fadings: int = 20
    seed: int = 0
    users_per_state: int | None = None
    # The coded gain, and the power sweep in watts and as SNR, set once from
    # the fields above.
    coded_gain: int = field(init=False, repr=False, compare=False)
    p_watts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    snr_db: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "coded_gain", coded_gain_of(self.num_states, self.cache_fraction)
        )
        if self.users_per_state is not None and self.users_per_state < 1:
            raise InvalidConfigurationError(
                f"users_per_state {self.users_per_state} is below 1"
            )
        if not self.ptot_dbm:
            raise InvalidConfigurationError("power sweep must be nonempty")
        if self.antennas_per_user < 1 or self.num_tx_antennas < self.antennas_per_user:
            raise InvalidConfigurationError(
                "need 1 <= antennas_per_user <= num_tx_antennas"
            )
        if self.n_locations < 1 or self.n_fadings < 1:
            raise InvalidConfigurationError("realization counts must be positive")
        if self.seed < 0:
            raise InvalidConfigurationError(f"seed {self.seed} is negative")
        # The cacheless counterpart has the same cap.
        cap = self.max_group_users()
        for key, count in (
            ("users_per_group", self.users_per_group), ("baseline_users", self.baseline_users)
        ):
            if count is not None and not 1 <= count <= cap:
                raise InvalidConfigurationError(f"{key} {count} outside 1..{cap}")
        if not 0 < self.noise_power < math.inf:
            raise InvalidConfigurationError(
                f"noise_power {self.noise_power} is not positive and finite"
            )
        self._set_power_sweep()
        if self.noise_power > NOISE_POWER_MAX_W:
            raise InvalidConfigurationError(
                f"noise_power {self.noise_power} is above {NOISE_POWER_MAX_W:g} W"
            )
        if self.coherence_symbols < 1 or self.pilot_symbols < 0:
            raise InvalidConfigurationError(
                "need coherence_symbols >= 1 and pilot_symbols >= 0"
            )
        # The pilots of the largest served set, cache-aided and cacheless
        # (one group, as in cacheless_counterpart, which is not built here
        # because its own check would build its counterpart again), must fit
        # the coherence block before any sampling starts.
        for num_groups, fixed in (
            (self.coded_gain, self.users_per_group), (1, self.baseline_users)
        ):
            self.overhead_factor(num_groups, max(self.group_user_counts(fixed)))
        # A variance of 1 (the channel's) leaves a zero channel estimate.
        if not 0 <= self.csit_error_var < 1:
            raise InvalidConfigurationError(
                f"csit_error_var {self.csit_error_var} outside [0, 1)"
            )
        for var in self.csir_error_vars:
            if not 0 <= var < math.inf:
                raise InvalidConfigurationError(
                    f"csir_error_vars entry {var} is negative or not finite"
                )
        if self.geometry is not None:
            try:
                geometry_preset(self.geometry)
            except ValueError as exc:
                raise InvalidConfigurationError(str(exc)) from exc

    def _set_power_sweep(self) -> None:
        """Set ``p_watts`` and ``snr_db``, rejecting any power that is not
        positive and finite in watts or whose SNR is not positive and at
        most :data:`SNR_MAX_DB`."""
        watts, snr = [], []
        for p in self.ptot_dbm:
            try:
                w = dbm_to_watts(p)
            except OverflowError:
                w = math.inf
            if not 0 < w < math.inf:
                raise InvalidConfigurationError(
                    f"ptot_dbm entry {p} is not a positive finite power in watts"
                )
            ratio = w / self.noise_power
            if not 0 < ratio <= 10.0 ** (SNR_MAX_DB / 10.0):
                raise InvalidConfigurationError(
                    f"ptot_dbm entry {p} over noise_power {self.noise_power} "
                    f"gives an SNR that is zero or above {SNR_MAX_DB:g} dB"
                )
            watts.append(w)
            snr.append(10.0 * math.log10(ratio))
        object.__setattr__(self, "p_watts", tuple(watts))
        object.__setattr__(self, "snr_db", tuple(snr))

    def max_group_users(self) -> int:
        """Per-group multiplexing cap: the whole-group antenna budget this
        simulator enforces, and the users available per state."""
        cap = self.num_tx_antennas // self.antennas_per_user
        # Null-space feasibility (ceil(L / M) users) never binds below this budget.
        return cap if self.users_per_state is None else min(cap, self.users_per_state)

    def group_user_counts(self, fixed: int | None) -> tuple[int, ...]:
        """Candidate served-user counts: the fixed value or the full sweep."""
        if fixed is not None:
            return (fixed,)
        return tuple(range(1, self.max_group_users() + 1))

    def cacheless_counterpart(self) -> "Scenario":
        """Same physical setup with a single group and no cache."""
        return dataclasses.replace(
            self,
            name=f"{self.name}-cacheless",
            num_states=1,
            cache_fraction=Fraction(0),
            users_per_group=self.baseline_users,
        )

    def overhead_factor(self, num_groups: int, q: int) -> float:
        """Overhead factor in [0, 1] of ``num_groups`` groups of ``q`` users:
        0, and so rate 0, where their pilots fill the coherence block.  The
        package's one caller of :func:`~vccsim.channel.csi_overhead`."""
        return csi_overhead(
            self.coherence_symbols, self.pilot_symbols, num_groups * q * self.antennas_per_user
        )


@dataclass(frozen=True)
class SchemeCurve:
    """Per-point statistics of one scheme over the power sweep."""

    scheme: str
    ptot_dbm: tuple[float, ...]
    q_values: tuple[int, ...]
    mean: np.ndarray    # (n_q, n_p) nats/s/Hz
    stderr: np.ndarray  # (n_q, n_p)

    def best(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per power point: argmax-q (smallest on ties), its mean and stderr."""
        idx = np.argmax(self.mean, axis=0)
        qs = np.asarray(self.q_values)[idx]
        cols = np.arange(self.mean.shape[1])
        return qs, self.mean[idx, cols], self.stderr[idx, cols]


_heap_pinned = False  # set by _pin_heap, and inherited by a forked child


def _pin_heap() -> None:
    """Pin glibc's mmap and trim thresholds, once per process (see Memory in
    the module docstring); do nothing, silently, where libc cannot be looked
    up or has no ``mallopt``."""
    global _heap_pinned
    if _heap_pinned:
        return
    _heap_pinned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: its dynamic cap on a 64-bit host
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as the dynamic rule sets it


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _parallel_map(fn, tasks, workers: int) -> list:
    """The results of ``tasks``, in order, from ``fn(slice)`` of each
    contiguous slice of them, over forked slices when more than one worker,
    usable CPU and task remain, and otherwise ``fn(tasks)``.  ``fn`` maps a
    list of tasks to the list of their results, so a worker can share work
    across its slice (:func:`_slice_task` seeds its blocks in few passes).

    The tasks are cut into that many contiguous slices whose sizes differ by
    at most one.  The parent is one of the workers: it forks a child per
    slice after the first (``os.fork``, one pipe each), runs the first slice
    itself, then reads each child's pickled results in slice order and reaps
    it.  So the results keep the tasks' order for any worker count, only
    results are pickled, not tasks, and no pool machinery is imported.

    A child's exception is raised here with its type and message, its
    traceback as the cause.  A child that dies without sending its whole
    result raises a ``RuntimeError`` naming its slice and wait status.  If
    anything here raises, the parent's own slice included, every child not
    yet reaped is killed and reaped first, so no run leaves a child behind.
    Where ``os`` has no ``fork``, the tasks run in-process.  A child inherits
    the parent's heap policy (:func:`_pin_heap`) with the rest of its memory.
    """
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    workers = min(workers, cpus, len(tasks))
    if workers < 2:
        return fn(tasks)
    size, extra = divmod(len(tasks), workers)
    ends = [i * size + min(i, extra) for i in range(workers + 1)]
    slices = [tasks[a:b] for a, b in zip(ends, ends[1:])]
    children = []  # (pid, read end of its pipe), in slice order, until reaped
    try:
        for index in range(1, workers):
            children.append(_fork_slice(fn, slices[index], index, children))
        out = fn(slices[0])
        for index in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            out += _slice_result(data, index, status)
        return out
    finally:
        import signal  # like traceback below, loaded only by runs that fork

        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_slice(fn, tasks, index: int, children) -> tuple:
    """Fork a child that sends slice ``index``'s results, or its exception,
    down a pipe and exits; return its pid and the pipe's read end.

    The child closes the read ends of the earlier ``children`` it inherits
    and leaves through ``os._exit`` whatever happens, so it never returns
    into the caller's stack, runs atexit handlers or flushes the stdio
    buffers it inherits.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            for _, pipe in children:
                pipe.close()
            with open(write, "wb") as pipe:
                pipe.write(_slice_message(fn, tasks, index))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _slice_message(fn, tasks, index: int) -> bytes:
    """The pickled ``(ok, payload)`` of one slice: ``(True, results)``, or
    ``(False, (exception, formatted traceback))``.  An exception that does
    not survive a pickle round trip is sent as a ``RuntimeError`` that
    carries the traceback instead."""
    try:
        return pickle.dumps((True, fn(tasks)), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        import traceback

        text = "".join(traceback.format_exception(exc))
        try:
            data = pickle.dumps((False, (exc, text)), pickle.HIGHEST_PROTOCOL)
            pickle.loads(data)  # a class that cannot be rebuilt from its args fails here
            return data
        except Exception:
            exc = RuntimeError(f"slice {index} raised an exception that does not pickle:\n{text}")
            return pickle.dumps((False, (exc, None)), pickle.HIGHEST_PROTOCOL)


def _slice_result(data: bytes, index: int, status: int) -> list:
    """Slice ``index``'s results from its child's message; raise the child's
    exception, or an error naming the slice and the child's wait status if
    the message is not whole."""
    try:
        ok, payload = pickle.loads(data)
    except Exception:
        how = (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
               else f"exit code {os.waitstatus_to_exitcode(status)}")
        raise RuntimeError(
            f"the child running slice {index} ended without its whole result "
            f"(wait status {status}, {how}; {len(data)} bytes received)"
        ) from None
    if ok:
        return payload
    exc, text = payload
    raise exc from (_ChildTraceback(text) if text else None)


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child."""

    def __str__(self) -> str:
        return "\n" + self.args[0].rstrip()


def _location_pathlosses(geometry: str | None, users: int, rngs) -> np.ndarray:
    """One location's pathlosses of ``users`` users: all 1 without a
    geometry, and otherwise drawn from the next generator of the iterator
    ``rngs``, that of the location's key ``(0, loc)``.  A job of ``G``
    groups and largest served count ``q_top`` reads the first ``G * q_top``
    as its rows ``(G, q_top)``: the draw takes its values one user at a
    time, in order, so they are those of a draw of that many users."""
    if geometry is None:
        return np.ones(users)
    return sample_user_pathlosses(geometry_preset(geometry), next(rngs), users)


def _group_streams(streams, scenario: Scenario) -> list[tuple[int, int]]:
    """The ``(stream, group)`` of a cell's keys, stream by stream, each over
    every group."""
    return [(s, g) for s in streams for g in range(scenario.coded_gain)]


def _fading_streams(scenario: Scenario) -> list[tuple[int, int]]:
    """Each group's fading stream: the keys of :func:`_group_factor`."""
    return _group_streams((1,), scenario)


def _gaussians(rngs, shape) -> np.ndarray:
    """Unit-variance complex Gaussians ``(len(rngs), *shape)``, one
    generator per row, bit-identical to ``complex_gaussian(rng, shape)`` of
    each.

    Each generator fills its row's real and then imaginary parts with one
    ``standard_normal`` call: the doubles, in the order, of the two calls
    :func:`~vccsim.channel.complex_gaussian` makes.  The complex values come
    from one expression over every row, with that function's operations."""
    normals = np.empty((len(rngs), 2, *shape))
    for out, rng in zip(normals, rngs):
        rng.standard_normal(out=out)
    return math.sqrt(0.5) * (normals[:, 0] + 1j * normals[:, 1])


def _curve_from_means(
    scheme: str, scenario: Scenario, q_values, loc_means: np.ndarray
) -> SchemeCurve:
    """Reduce per-location mean rates ``(n_loc, n_q, n_p)``, in location
    order, to a curve."""
    mean = loc_means.mean(axis=0)
    n_loc = loc_means.shape[0]
    if n_loc > 1:
        stderr = loc_means.std(axis=0, ddof=1) / math.sqrt(n_loc)
    else:
        stderr = np.full_like(mean, np.nan)
    return SchemeCurve(scheme, scenario.ptot_dbm, tuple(q_values), mean, stderr)


# ---------------------------------------------------------------------------
# Schemes: a channel draw, a gain kernel and a rate rule
# ---------------------------------------------------------------------------

class _Draw(NamedTuple):
    """A channel draw: ``streams(scenario)`` lists the ``(stream, group)``
    of the substream keys ``(stream, loc, fad, group)`` it reads at each
    (location, fading) cell, and ``make(scenario, q_top, cell_rngs,
    betas)`` draws a stack of ``C`` cells from their generators:
    ``cell_rngs`` holds one list per cell, in key order, and ``betas`` the
    cells' pathloss rows ``(C, G, q_top)``.  A per-group draw puts the cells
    on its group axis, ``(C*G, ...)``, cell by cell, and factors that stack
    once; its kernels return ``(C, G, ...)``.  The MSV draw and its kernel
    have the cells on a leading axis of their own."""

    streams: object
    make: object


class _Rule(NamedTuple):
    """A scheme: a channel draw (:class:`_Draw`) and a gain kernel (both
    ``None`` for fading-free curves) and a rate rule; see
    :func:`_block_task` for their signatures."""

    draw: object
    kernel: object
    rates: object


@functools.lru_cache(maxsize=None)
def _overhead_factors(scenario: Scenario, q_values) -> np.ndarray:
    """Each q's pilot overhead factor, built once per process."""
    g = scenario.coded_gain
    return _read_only(np.array([scenario.overhead_factor(g, q) for q in q_values]))


@functools.lru_cache(maxsize=None)
def _msv_overhead_factors(scenario: Scenario, q_values) -> np.ndarray:
    """Each unicast count n's pilot overhead factor, that of one group of
    ``n + coded_gain`` single-antenna users (the unicast users, the common
    stream's and the cached load), built once per process."""
    g = scenario.coded_gain
    return _read_only(np.array([scenario.overhead_factor(1, n + g) for n in q_values]))


# Kernels and solvers are looked up as module globals at call time, so a
# tracer (bench/spans.py) can wrap them.
def _group_factor(scenario: Scenario, q_top: int, cell_rngs, betas):
    """A stack of cells' groups ``(C*G, L, q_top*m)``, cell by cell, one
    generator per group, of unit-variance channels with user k's columns
    scaled by ``sqrt(beta_k)``, with their prefix factor: the draw of BD-MRC
    and ZF."""
    m = scenario.antennas_per_user
    units = _gaussians(
        [rng for rngs in cell_rngs for rng in rngs], (scenario.num_tx_antennas, q_top * m)
    )
    if scenario.geometry is not None:  # else every beta is 1, and x * 1.0 is x
        scale = np.repeat(np.sqrt(betas), m, axis=-1).reshape(len(units), 1, -1)
        units = units * scale
    return prefix_factor(units)


def _by_cell(scenario: Scenario, arrays) -> tuple:
    """Kernel outputs over a stack's groups ``(C*G, ...)``, cells leading:
    ``(C, G, ...)``, as the rate rules read them."""
    g = scenario.coded_gain
    return tuple(a.reshape(-1, g, *a.shape[1:]) for a in arrays)


def _bd_kernel(scenario: Scenario, q_values, factor):
    return _by_cell(scenario, bd_mrc_prefix_gains(factor, scenario.antennas_per_user, q_values))


def _zf_kernel(scenario: Scenario, q_values, factor):
    """ZF prefix gains per user, descending, with every stream counted."""
    m = scenario.antennas_per_user
    gains = zf_prefix_gains(factor, tuple(q * m for q in q_values))
    gains = np.sort(gains.reshape(*gains.shape[:2], -1, m), axis=-1)[..., ::-1]
    return _by_cell(scenario, (gains, np.full(gains.shape[:-1], m)))


class _MmfProblems(NamedTuple):
    """A rate rule's max-min-fair problems, still to solve: the gain rows
    ``(N, J)``, stream counts ``(N,)``, problem sizes ``(S,)`` and overhead
    factors ``(S,)`` of :func:`~vccsim.allocation.mmf_sum_rates`, and the
    rule's leading rate shape.  :func:`_solve_problems` reshapes their rates
    ``(S, P)`` to ``(*shape, P)``, which are the rule's rates."""

    rows: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    xi: np.ndarray
    shape: tuple[int, ...]


def _mmf_rates(scenario: Scenario, q_values, gains_counts) -> _MmfProblems:
    """The max-min-fair problems over every served user of every group, per
    fading and q, from prefix gains ``(F, G, S, q_top, m)`` and counts
    ``(F, G, S, q_top)``; their rates take the shape ``(1, F, n_q, n_p)``.

    Each (fading, q) is one problem, with that q's overhead factor, over the
    first q users of every group."""
    qs = np.asarray(q_values)
    gains, counts = (a.swapaxes(1, 2) for a in gains_counts)
    n_fad = counts.shape[0]
    served = np.broadcast_to(np.arange(counts.shape[-1]) < qs[:, None, None], counts.shape)
    # Served rows by flat index: a boolean mask that leaves out the stream
    # axis is several times slower.
    served_at = np.flatnonzero(served)
    return _MmfProblems(
        gains.reshape(-1, gains.shape[-1]).take(served_at, axis=0),
        counts.reshape(-1)[served_at], np.tile(scenario.coded_gain * qs, n_fad),
        np.tile(_overhead_factors(scenario, q_values), n_fad), (1, n_fad, qs.size),
    )


def _surrogate_rates(scenario: Scenario, q_values, betas, shifts) -> _MmfProblems:
    """The max-min-fair problems of surrogate users whose ``m`` streams all
    have gain ``beta * (L - q*m + shift)``, from pathloss rows ``(n_loc, G,
    q_top)``: the equal-gain rows of :func:`_mmf_rates`, with every (shift,
    location) on its fading axis.  Their rates take the shape
    ``(len(shifts), n_loc, n_q, n_p)``."""
    m = scenario.antennas_per_user
    room = scenario.num_tx_antennas - np.asarray(q_values) * m + np.asarray(shifts)[:, None]
    gains = betas[None, :, :, None] * room[:, None, None, :, None]
    gains = gains.reshape(-1, *gains.shape[2:])
    gains_counts = (np.broadcast_to(gains[..., None], (*gains.shape, m)), np.full(gains.shape, m))
    problems = _mmf_rates(scenario, q_values, gains_counts)
    return problems._replace(shape=(len(shifts), betas.shape[0], len(q_values)))


def _asym_rates(scenario: Scenario, q_values, betas) -> _MmfProblems:
    """Large-array BD-MRC limit: every stream gain at ``beta * (L - q*m + m)``."""
    return _surrogate_rates(scenario, q_values, betas, (scenario.antennas_per_user,))


def _zf_bound_rates(scenario: Scenario, q_values, betas) -> _MmfProblems:
    """Fading-averaged ZF bounds ``(lower, upper)``: stream gains ``beta *
    (L - q*m)`` and ``beta * (L - q*m + 1)``.  Each bound is the surrogate
    users' closed-form root, which does not decrease as every stream gain
    grows, so the upper bound is never below the lower one, bit for bit."""
    return _surrogate_rates(scenario, q_values, betas, (0, 1))


def zf_mmf_bounds(scenario: Scenario, q_values, betas) -> np.ndarray:
    """The ZF bounds of :data:`ZF_BOUNDS`, solved: lower, then upper, ``(2,
    n_loc, n_q, n_p)``, from pathloss rows ``(n_loc, G, q_top)``."""
    problems = [_zf_bound_rates(scenario, q_values, betas)]
    return _solve_problems(problems, scenario.noise_power, scenario.p_watts)[0]


# Pooled users per mmf_sum_rates call.  Consecutive problems of one stream
# width share a call until the next would take it past this many users; a
# problem is never split, so one that is larger on its own gets a call of
# its own.  The solver's work arrays grow with the call, so the cap keeps
# paper-scale calls at the size of the largest one rule makes on its own
# (fig7's 16,320 users at 20 fadings).
_SOLVE_USERS = 16384


def _solve_problems(batches: list[_MmfProblems], n0: float, p_watts) -> list[np.ndarray]:
    """Each batch's max-min-fair rates at noise power ``n0`` over the power
    vector ``p_watts``, in its shape.

    The batches that share a stream width are concatenated in order, and
    their problems cut into :func:`~vccsim.allocation.mmf_sum_rates` calls
    of at most :data:`_SOLVE_USERS` users.  Problems do not interact in the
    solve, so each gets the bits it has solved alone; a batch's rates come
    back as solved, reshaped to its ``shape``."""
    rates = [None] * len(batches)
    solves = {}  # stream width J -> indices of its batches
    for i, b in enumerate(batches):
        solves.setdefault(b.rows.shape[1], []).append(i)
    for members in solves.values():
        rows, counts, sizes, xi = (
            np.concatenate(a) for a in zip(*(batches[i][:4] for i in members))
        )
        # Each problem's first user, and the user count at the end.
        starts = np.concatenate([[0], np.cumsum(sizes)])
        cuts = [0]
        while cuts[-1] < sizes.size:
            s = cuts[-1]
            fit = int(np.searchsorted(starts, starts[s] + _SOLVE_USERS, side="right")) - 1
            cuts.append(max(s + 1, fit))
        solved = np.concatenate([
            mmf_sum_rates(
                rows[starts[s0]:starts[s1]], counts[starts[s0]:starts[s1]], sizes[s0:s1],
                xi[s0:s1], n0, np.asarray(p_watts),
            )
            for s0, s1 in zip(cuts, cuts[1:])
        ])
        ends = np.cumsum([batches[i].sizes.size for i in members])
        for i, r in zip(members, np.split(solved, ends[:-1])):
            rates[i] = r.reshape(*batches[i].shape, -1)
    return rates


def _csi_streams(scenario: Scenario) -> list[tuple[int, int]]:
    """Fading streams, then CSIT error streams if ``csit_error_var`` is
    positive and coupling error streams if a CSIR variance is: the rates
    read no coupling error at a variance of 0 (:func:`_csi_error_rates`)."""
    streams = [1] + [2] * (scenario.csit_error_var > 0) + [3] * any(scenario.csir_error_vars)
    return _group_streams(streams, scenario)


def _csi_draws(scenario: Scenario, q_top: int, cell_rngs, _):
    """Over a stack's groups ``(C*G, ...)``, cell by cell: true channels, the
    prefix factor of their transmitter-side estimate and, if a CSIR variance
    is positive, the receiver-side coupling error draws.

    The estimate is that of :func:`~vccsim.channel.corrupt_csit`, bit for
    bit: ``h - (var * h + sqrt(var * (1 - var)) * w)``, with ``w`` from the
    CSIT error substreams, and at ``var == 0`` the channel itself, with no
    ``w`` drawn."""
    g, var = scenario.coded_gain, scenario.csit_error_var

    def stream(i):  # the generators of a cell's i-th stream, cell by cell
        return [rng for rngs in cell_rngs for rng in rngs[i * g:(i + 1) * g]]

    split = 2 if var else 1  # the streams before the coupling errors'
    drawn = _gaussians(
        [rng for i in range(split) for rng in stream(i)], (scenario.num_tx_antennas, q_top)
    )
    cut = len(cell_rngs) * g
    h = drawn[:cut]
    factor = prefix_factor(h - (var * h + math.sqrt(var * (1.0 - var)) * drawn[cut:]) if var else h)
    if any(scenario.csir_error_vars):
        return h, factor, _gaussians(stream(split), (q_top,))
    return h, factor


@functools.lru_cache(maxsize=None)
def _pair_snr(scenario: Scenario, q_values) -> np.ndarray:
    """Each served pair's SNR per stream over the power vector, ``(T, P)``."""
    sweep = _sweep(q_values, 1, max(q_values))
    streams = scenario.coded_gain * sweep.columns[sweep.pairs[0]]
    return _read_only(np.asarray(scenario.p_watts) / (scenario.noise_power * streams[:, None]))


def _csi_sum_rates(scenario: Scenario, q_values, sinrs):
    """Per-q rates ``(n_curves, F, S, P)`` from served-pair SINRs
    ``(n_curves, F, G, T, P)``: summed over groups and each q's pairs, times
    that q's overhead factor.  Takes the rates' logs in ``sinrs``, which it
    overwrites."""
    xi = _overhead_factors(scenario, q_values)
    per_pair = np.log1p(sinrs, out=sinrs).sum(axis=2)
    starts = _sweep(q_values, 1, max(q_values)).starts
    return xi[:, None] * np.add.reduceat(per_pair, starts, axis=2)


def _csi_perfect_kernel(scenario: Scenario, q_values, draws):
    """Perfect-CSI ZF gains at the served pairs, ``(G, T)``, from the
    estimate's factor where ``csit_error_var == 0`` (the estimate is then
    the channel) and otherwise from the channel's own."""
    h, factor, *_ = draws
    if scenario.csit_error_var:
        factor = prefix_factor(h)
    q_idx, users = _sweep(q_values, 1, max(q_values)).pairs
    return _by_cell(scenario, (zf_prefix_gains(factor, q_values)[:, q_idx, users],))


def _csi_perfect_rates(scenario: Scenario, q_values, gains):
    """Equal-power ZF rates under perfect CSI, for every fading and q, from
    the gains ``(F, G, T)``.  The couplings are then ``diag(sqrt(g))``, so
    each stream's SINR is ``snr * g``."""
    snr = _pair_snr(scenario, q_values)
    return _csi_sum_rates(scenario, q_values, (snr * gains[0][..., None])[None])


def _csi_error_kernel(scenario: Scenario, q_values, draws):
    """At the served pairs, ``(G, T)`` each: each user's coupling with its
    own stream, its received power (the row sum of ``|coupling|**2`` over
    its prefix's streams) and, if drawn, its coupling error draw."""
    h, factor, *w = draws
    users = _sweep(q_values, 1, max(q_values)).pairs[1]
    rows = zf_prefix_couplings(h, factor, q_values)
    own = rows[:, np.arange(users.size), users]
    power = rows.real ** 2
    power += rows.imag ** 2
    return _by_cell(scenario, (own, power.sum(axis=-1), *(e[:, users] for e in w)))


def _csi_error_rates(scenario: Scenario, q_values, kernel_out):
    """Equal-power ZF rates under CSIT error, then under CSIT error plus each
    CSIR error variance, for every fading and q, from kernel outputs
    ``(F, G, T)``.  Inter-group residuals enter through their average power
    only."""
    own, received, *w = kernel_out
    snr = _pair_snr(scenario, q_values)
    signal = own.real ** 2
    signal += own.imag ** 2
    # One buffer for every curve's SINRs, filled curve by curve: the
    # numerator, then divided in place.
    sinrs = np.empty((1 + len(scenario.csir_error_vars), *own.shape, snr.shape[-1]))
    np.multiply(snr, signal[..., None], out=sinrs[0])
    den = np.multiply(snr, (received - signal)[..., None])
    den += 1.0
    sinrs[0] /= den
    sweep = _sweep(q_values, 1, max(q_values))
    others = (scenario.coded_gain * sweep.columns[sweep.pairs[0]] - 1)[:, None]
    for i, var in enumerate(scenario.csir_error_vars, start=1):
        if not var:
            # The exact limit, bit for bit: below, the estimate is own / 1.0
            # - 0.0 * w, which is own, and the denominator 1.0.
            np.multiply(snr, signal[..., None], out=sinrs[i])
            continue
        # Each receiver's estimate of its own coupling coefficient, and the
        # SINR with numerator and denominator scaled by 1 / (1 + var), so
        # that it stays finite for any finite variance.
        scale = 1.0 + var
        est = own / math.sqrt(scale)
        est -= math.sqrt(var / scale) * w[0]
        num = est.real ** 2
        num += est.imag ** 2
        num += var / scale
        np.multiply(snr, num[..., None], out=sinrs[i])
        sinrs[i] /= 1.0 / scale + snr * (var / scale) * others
    return _csi_sum_rates(scenario, q_values, sinrs)


def _msv_streams(scenario: Scenario) -> list[tuple[int, int]]:
    """The unicast pool's stream, then the multicast channels'."""
    return [(4, 0), (4, 1)]


def _msv_draws(scenario: Scenario, q_top: int, cell_rngs, _):
    """A stack of cells' multicast channels ``(C, G, L)`` and unicast pools
    ``(C, L-1, L)``."""
    l = scenario.num_tx_antennas
    uc_pool = _gaussians([rngs[0] for rngs in cell_rngs], (l - 1, l))
    mc = _gaussians([rngs[1] for rngs in cell_rngs], (scenario.coded_gain, l))
    return mc, uc_pool


def _msv_kernel(scenario: Scenario, q_values, draws):
    return msv_gains_fast(*draws, q_values)


def _msv_rates(scenario: Scenario, q_values, gains):
    return msv_rate_from_gains(
        *gains, q_values, scenario.p_watts, scenario.noise_power, scenario.coded_gain,
        _msv_overhead_factors(scenario, q_values),
    )[None]


_GROUP_DRAW = _Draw(_fading_streams, _group_factor)
_CSI_DRAW = _Draw(_csi_streams, _csi_draws)
_MSV_DRAW = _Draw(_msv_streams, _msv_draws)
BD_MRC = _Rule(_GROUP_DRAW, _bd_kernel, _mmf_rates)
ZF = _Rule(_GROUP_DRAW, _zf_kernel, _mmf_rates)
BD_MRC_ASYM = _Rule(None, None, _asym_rates)
ZF_BOUNDS = _Rule(None, None, _zf_bound_rates)
CSI_PERFECT = _Rule(_CSI_DRAW, _csi_perfect_kernel, _csi_perfect_rates)
CSI_ERROR = _Rule(_CSI_DRAW, _csi_error_kernel, _csi_error_rates)
_MSV = _Rule(_MSV_DRAW, _msv_kernel, _msv_rates)
# Draws whose group g reads only the substreams (., loc, fad, g), so that a
# job with fewer groups can take the first groups of another job's draw.
_PER_GROUP_DRAWS = frozenset({_GROUP_DRAW, _CSI_DRAW})


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class Job(NamedTuple):
    """One side of a comparison: the ``coded_gain`` groups of ``scenario``
    serving each count in ``q_values``, and the rules run on it, each paired
    with the names of the curves it writes.  A rule's stages are
    ``draw.make(scenario, q_top, cell_rngs, betas)``, ``kernel(scenario,
    q_values, draw)`` and ``rates(scenario, q_values, inputs)``
    (:func:`_block_task`)."""

    scenario: Scenario
    q_values: tuple[int, ...]
    rules: tuple[tuple[_Rule, tuple[str, ...]], ...]


def cache_aided_job(scenario: Scenario, *rules) -> Job:
    """The scenario's ``coded_gain`` groups, serving ``users_per_group``
    users each, or every feasible count if that is ``None``."""
    return Job(scenario, scenario.group_user_counts(scenario.users_per_group), rules)


def cacheless_job(scenario: Scenario, *rules) -> Job:
    """The cacheless MU-MIMO baseline: one group of the same physical setup,
    serving ``baseline_users`` users, or every feasible count."""
    return cache_aided_job(scenario.cacheless_counterpart(), *rules)


def msv_job(scenario: Scenario) -> Job:
    """The multi-server baseline over every unicast stream count
    ``1 .. L-1``, as the curve ``msv_modified``.

    The modified variant sweeps the unicast stream count for a better
    multiplexing/beamforming balance; :func:`msv_original` takes the
    original scheme, which always runs all ``L - 1`` streams, off the sweep.
    """
    if scenario.antennas_per_user != 1 or scenario.geometry is not None:
        raise UnsupportedConfigurationError(
            "multi-server baseline needs single-antenna users with unit pathloss"
        )
    l = scenario.num_tx_antennas
    if l < 2:
        raise InvalidConfigurationError(
            f"L (num_tx_antennas) {l} is below 2: the multi-server baseline needs "
            "a unicast stream"
        )
    # Every unicast count's pilots, as the rate rule reads them, must fit.
    q_values = tuple(range(1, l))
    _msv_overhead_factors(scenario, q_values)
    return Job(scenario, q_values, ((_MSV, ("msv_modified",)),))


def msv_original(modified: SchemeCurve) -> SchemeCurve:
    """The original multi-server scheme: the full-count row of the sweep."""
    return SchemeCurve(
        "msv", modified.ptot_dbm, modified.q_values[-1:], modified.mean[-1:],
        modified.stderr[-1:],
    )


def imperfect_csi_jobs(scenario: Scenario, *rules: _Rule) -> list[Job]:
    """Equal-power ZF rates under perfect or estimated CSI, cache-aided and
    cacheless, for the listed CSI rules.

    :data:`CSI_PERFECT` writes ``{side}_perfect``.  :data:`CSI_ERROR` writes
    ``{side}_csit``, under transmitter-side estimation error, and, on the
    cache-aided side, ``{side}_csit_csir{var:g}`` for each variance in
    ``csir_error_vars``, with receiver-side coupling error as well; two
    variances with one label are rejected.  Both rules share one draw per
    fading; any other rule is a ``KeyError``.  The cache-aided job comes
    first, so that it makes the draw both sides share (with its coupling
    errors), and the cacheless job reads its group 0.
    """
    if scenario.antennas_per_user != 1 or scenario.geometry is not None:
        raise UnsupportedConfigurationError(
            "imperfect-CSI study needs single-antenna users with unit pathloss"
        )
    labels = [f"{var:g}" for var in scenario.csir_error_vars]
    if len(set(labels)) != len(labels):
        raise InvalidConfigurationError(
            f"csir_error_vars {scenario.csir_error_vars} repeat a curve label: {labels}"
        )
    # Residual-coupling errors model imperfect cache-aided cancellation,
    # which the cacheless baseline does not perform.
    cacheless = dataclasses.replace(scenario, csir_error_vars=())
    jobs = []
    for prefix, side, build in (
        ("vcc_zf", scenario, cache_aided_job), ("cacheless_zf", cacheless, cacheless_job)
    ):
        names = {
            CSI_PERFECT: (f"{prefix}_perfect",),
            CSI_ERROR: (f"{prefix}_csit",
                        *(f"{prefix}_csit_csir{var:g}" for var in side.csir_error_vars)),
        }
        jobs.append(build(side, *((rule, names[rule]) for rule in rules)))
    return jobs


# ---------------------------------------------------------------------------
# The location loop and its reduction
# ---------------------------------------------------------------------------

def _draw_key(job: Job, draw):
    """What a draw reads besides the seed, location, fading and group count;
    a draw that is not per group is keyed with its group count as well."""
    s = job.scenario
    key = (draw, s.num_tx_antennas, s.antennas_per_user, s.geometry, s.csit_error_var,
           max(job.q_values))
    return key if draw in _PER_GROUP_DRAWS else key + (s.coded_gain,)


def _first_groups(arrays: tuple, made: int, num_groups: int) -> tuple:
    """The first ``num_groups`` groups (axis 1, after the cells) of arrays
    made for ``made``."""
    return arrays if made == num_groups else tuple(a[:, :num_groups] for a in arrays)


# (location, fading) cells per block task and per stack: a block holds this
# many cells' worth of whole locations, and at least one location, and draws
# its cells in stacks of at most this many.  A block's rate arrays grow with
# its cells, and a stack's draw and kernel arrays with its own, so both stay
# just large enough to pair up the locations of one-fading runs: at fig2's
# 20 fadings a stack of every cell of the block more than doubled the peak
# RSS.
_BLOCK_CELLS = 2

# Substream keys per hashing pass.  A worker seeds the blocks of its slice
# in chunks of consecutive blocks, as many as fit in this many keys and at
# least one, each chunk in one pass.  A chunk's seed words live until its
# last block is done, 32 bytes a key: at paper scale fig2 reads about 300
# keys per location, so a chunk holds 13 of its locations, and all of
# fig9's 32 one-fading locations (18 keys each) fit one chunk.
_SEED_KEYS = 4096


class _Shared(NamedTuple):
    """A draw that rules share (Sharing, in the module docstring): the
    :class:`_Draw`; its maker, the index of the first job with the most
    groups among those that read it; its readers ``(job, rule)`` by
    ``(kernel, q_values)``; and the number of keys it reads at a cell."""

    draw: _Draw
    maker: int
    readers: dict
    keys: int


class _Plan(NamedTuple):
    """What every block of a run reads besides its locations, built once
    per run (:func:`_plan`): the jobs; their sites, one ``(geometry,
    users)`` per geometry (``None`` included) in the order the jobs list
    them, with the most users ``G * q_top`` of any job on it; their shared
    draws (:class:`_Shared`) in the order their rules list them; and one
    location's keys, as 32-bit words ``(K, 4)`` with the location's word
    left 0, each key's word count ``(K,)``, and the slices of them (parts)
    that a block reads location by location, in its key order: each site
    with a geometry reads ``(0, loc)``, two words, and then each shared
    draw its keys ``(stream, loc, fad, group)`` cell by cell."""

    jobs: list
    sites: list
    shared: list
    words: np.ndarray
    counts: np.ndarray
    parts: list


def _plan(jobs) -> _Plan:
    """The :class:`_Plan` of ``jobs``: their rules with a draw grouped by
    draw key (:func:`_draw_key`)."""
    groups = [job.scenario.coded_gain for job in jobs]
    sites = {}  # geometry -> the most users of a job on it
    for job in jobs:
        users = job.scenario.coded_gain * max(job.q_values)
        sites[job.scenario.geometry] = max(users, sites.get(job.scenario.geometry, 0))
    shared = {}  # draw key -> [maker, readers]
    for ji, job in enumerate(jobs):
        for ri, (rule, _) in enumerate(job.rules):
            if rule.draw:
                entry = shared.setdefault(_draw_key(job, rule.draw), [ji, {}])
                if groups[ji] > groups[entry[0]]:
                    entry[0] = ji
                entry[1].setdefault((rule.kernel, job.q_values), []).append((ji, ri))
    n_fad = jobs[0].scenario.n_fadings
    cells = [key[0].streams(jobs[mi].scenario) for key, (mi, _) in shared.items()]
    parts = [[(0, 0, 0, 0)] for geometry in sites if geometry is not None]
    counts = [2] * len(parts)
    parts += [[(s, 0, fad, g) for fad in range(n_fad) for s, g in cell] for cell in cells]
    counts += [4] * len(cells)
    ends = np.cumsum([0, *map(len, parts)])
    return _Plan(
        list(jobs),
        list(sites.items()),
        [_Shared(key[0], mi, readers, len(cell))
         for (key, (mi, readers)), cell in zip(shared.items(), cells)],
        _read_only(np.array([k for p in parts for k in p], dtype=np.uint32).reshape(-1, 4)),
        _read_only(np.array([c for c, p in zip(counts, parts) for _ in p], dtype=int)),
        [slice(a, b) for a, b in zip(ends, ends[1:])],
    )


def _chunk_states(plan: _Plan, locs: range) -> np.ndarray:
    """The seed words ``(n_loc, K, 4)`` of the plan's keys at each location
    of ``locs``, in one :func:`~vccsim.channel._spawn_states` pass over
    the plan's words with each location's index as its word 1 (no run has
    2**32 locations)."""
    words = np.repeat(plan.words[None], len(locs), axis=0)
    words[..., 1] = np.arange(locs.start, locs.stop, dtype=np.uint32)[:, None]
    states = _spawn_states(
        plan.jobs[0].scenario.seed, words.reshape(-1, 4), np.tile(plan.counts, len(locs))
    )
    return states.reshape(words.shape)


def _seeded_blocks(plan: _Plan, blocks):
    """Yield each block of ``blocks``, consecutive ranges of locations, with
    its generators in key order, as :func:`_block_rates` reads them, each
    bit-identical to ``default_rng(SeedSequence(seed, spawn_key=key))``:
    part by part of the plan's keys, each at every location of the block.

    The blocks are seeded in chunks of consecutive blocks, as many as fit in
    :data:`_SEED_KEYS` keys and at least one, each chunk in one hashing pass
    (:func:`_chunk_states`); a block only builds its generators from its
    rows of its chunk's seed words."""
    per_block = len(plan.counts) * len(blocks[0]) if blocks else 0
    step = max(1, _SEED_KEYS // max(1, per_block))
    for c in range(0, len(blocks), step):
        chunk = blocks[c:c + step]
        start = chunk[0].start
        states = _chunk_states(plan, range(start, chunk[-1].stop))
        for locs in chunk:
            block = states[locs.start - start:locs.stop - start]
            yield locs, [
                rng for part in plan.parts for rng in _generators(block[:, part].reshape(-1, 4))
            ]


def _slice_task(plan: _Plan, blocks) -> list:
    """Each block of a worker's slice ``blocks``, seeded chunk by chunk
    (:func:`_seeded_blocks`), run by :func:`_block_task`, in order."""
    return [_block_task((plan, locs, rngs)) for locs, rngs in _seeded_blocks(plan, blocks)]


def _block_task(args) -> list[list[np.ndarray]]:
    """Every rule of every job over one block of whole locations, reduced
    over each location's fadings.

    ``args`` is ``(plan, locs, rngs)``: the run's :class:`_Plan`, the
    block's locations and its generators, in the key order of
    :func:`_seeded_blocks`.  ``rule.draw.make(scenario, q_top, cell_rngs,
    betas)`` draws a stack of (location, fading) cells' channels at the
    largest ``q``, each cell from the generators of its keys, one per
    ``(stream, group)`` of ``rule.draw.streams(scenario)``, and
    ``rule.kernel(scenario, q_values, draw)`` returns a tuple of arrays,
    the stack's cells on axis 0 (:class:`_Draw`).  Each shared draw of the
    plan is made by its maker; ``betas`` are the maker's pathloss rows at
    the cells' locations.  Shared draw by shared draw, the block's cells,
    in (location, fading) order, are drawn in stacks of at most
    :data:`_BLOCK_CELLS` cells, and each of the draw's kernels (one per
    kernel and ``q_values``) runs once on each stack
    (:func:`_kernel_outputs`).  Each rule that reads a kernel,
    ``rule.rates(scenario, q_values, inputs)``, then takes its job's first
    ``coded_gain`` groups (axis 1) of that kernel's outputs over the block's
    cells, which go before the next kernel's readers run.  A rate rule
    returns the rates of every curve, shape ``(n_curves, n_loc * n_fad,
    n_q, n_p)``; fading-free rules
    have no draw or kernel, run first, take the job's pathloss rows stacked
    over the block's locations, and return ``(n_curves, n_loc, n_q, n_p)``.
    A max-min-fair rule returns its problems (:class:`_MmfProblems`)
    instead, and the problems of every such rule of every job are solved
    together (:func:`_solve_problems`) at the first job's power grid, once
    the kernel outputs are dropped.  Every job has the same seed, fading
    count and power grid (:func:`_simulate` checks them).  Returns, per job
    and rule, each location's mean rates over its fadings, in location
    order, shape ``(n_curves, n_loc, n_q, n_p)``.

    The block runs with numpy raising on division by zero, overflow and
    invalid operations, underflow left silent: such a fault, which no
    scenario check foresaw, fails the run with a
    :class:`~vccsim.errors.NumericalFaultError` that names the block's
    locations, instead of warning and writing what it left.
    """
    plan, locs, rngs = args
    try:
        with np.errstate(all="raise", under="ignore"):
            return _block_rates(plan, locs, rngs)
    except FloatingPointError as exc:
        raise NumericalFaultError(
            f"floating-point fault in the block of locations {list(locs)}: {exc}"
        ) from exc


def _block_betas(plan: _Plan, n_loc: int, rngs) -> list[np.ndarray]:
    """Each job's pathloss rows ``(n_loc, G, q_top)`` at a block's
    locations, from the next generators of the iterator ``rngs``: one draw
    per site of the plan and location (:func:`_location_pathlosses`), of
    which each job on the site reads its first ``G * q_top`` values."""
    pathlosses = {
        geometry: [_location_pathlosses(geometry, users, rngs) for _ in range(n_loc)]
        for geometry, users in plan.sites
    }
    betas = []
    for job in plan.jobs:
        g, q_top = job.scenario.coded_gain, max(job.q_values)
        betas.append(np.stack([
            p[:g * q_top].reshape(g, q_top) for p in pathlosses[job.scenario.geometry]
        ]))
    return betas


def _kernel_outputs(shared: _Shared, maker: Job, betas: np.ndarray, n_fad: int, rngs) -> dict:
    """Each kernel's outputs ``(n_cells, ...)`` over a block's cells, in
    (location, fading) order, by ``(kernel, q_values)``: the shared draw is
    made by ``maker`` from its pathloss rows ``betas`` ``(n_loc, G, q_top)``
    and the next generators of the iterator ``rngs``, one stack of at most
    :data:`_BLOCK_CELLS` cells at a time, and each kernel runs once on each
    stack.  A block of one stack keeps the kernels' outputs as they are; a
    longer one copies them into one array per output, stack by stack, so
    the block holds each output once, not once per stack and again
    joined."""
    cell_betas = np.repeat(betas, n_fad, axis=0)
    n_cells, q_top = len(cell_betas), max(maker.q_values)
    outputs = {}
    for start in range(0, n_cells, _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, n_cells)
        cell_rngs = [[next(rngs) for _ in range(shared.keys)] for _ in range(start, stop)]
        draw = shared.draw.make(maker.scenario, q_top, cell_rngs, cell_betas[start:stop])
        for kernel, q_values in shared.readers:
            made = kernel(maker.scenario, q_values, draw)
            if stop - start == n_cells:  # the block is one stack
                outputs[kernel, q_values] = made
                continue
            if not start:
                outputs[kernel, q_values] = tuple(
                    np.empty((n_cells, *a.shape[1:]), a.dtype) for a in made
                )
            for out, a in zip(outputs[kernel, q_values], made):
                out[start:stop] = a
    return outputs


def _block_rates(plan: _Plan, locs, rngs) -> list[list[np.ndarray]]:
    """The body of :func:`_block_task`."""
    jobs = plan.jobs
    first = jobs[0].scenario
    groups = [job.scenario.coded_gain for job in jobs]
    rngs = iter(rngs)
    betas = _block_betas(plan, len(locs), rngs)
    out = [
        [None if rule.draw else rule.rates(job.scenario, job.q_values, job_betas)
         for rule, _ in job.rules]
        for job, job_betas in zip(jobs, betas)
    ]
    # Per shared draw: every kernel's outputs over the block's cells, each
    # handed to its readers and dropped before the next kernel's readers
    # run, and so before the solve.
    for s in plan.shared:
        outputs = _kernel_outputs(s, jobs[s.maker], betas[s.maker], first.n_fadings, rngs)
        for key, readers in s.readers.items():
            stacked = outputs.pop(key)
            for ji, ri in readers:
                job = jobs[ji]
                out[ji][ri] = job.rules[ri][0].rates(
                    job.scenario, job.q_values, _first_groups(stacked, groups[s.maker], groups[ji])
                )
            del stacked
    pending = [(ji, ri) for ji, job_out in enumerate(out) for ri, r in enumerate(job_out)
               if isinstance(r, _MmfProblems)]
    solved = _solve_problems([out[ji][ri] for ji, ri in pending], first.noise_power, first.p_watts)
    for (ji, ri), r in zip(pending, solved):
        out[ji][ri] = r
    # A fading-free rule's rates have one fading per location.
    return [
        [r.reshape(r.shape[0], len(locs), -1, *r.shape[2:]).mean(axis=2) for r in job_out]
        for job_out in out
    ]


def _simulate(jobs, workers: int) -> dict[str, SchemeCurve]:
    """Run every job at every location, one task per block of locations
    (:data:`_BLOCK_CELLS`), over ``workers`` forked slices; reduce the
    per-location means in location order.  It first pins the heap policy
    (:func:`_pin_heap`) and builds the run's :class:`_Plan`, so every forked
    slice inherits both; each slice seeds its blocks chunk by chunk
    (:func:`_slice_task`).

    Returns every job's curves by name; no two rules may write one name,
    and every job must have the same location and fading counts, noise
    power, power vector and seed."""
    names = [name for job in jobs for _, rule_names in job.rules for name in rule_names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"curve names written more than once: {repeated}")
    scenarios = [job.scenario for job in jobs]
    for what, values in (
        ("(location, fading) counts", {(s.n_locations, s.n_fadings) for s in scenarios}),
        ("(noise power, power vector)", {(s.noise_power, s.p_watts) for s in scenarios}),
        ("seeds", {s.seed for s in scenarios}),
    ):
        if len(values) != 1:
            raise ValueError(f"jobs differ in their {what}: {sorted(values)}")
    _pin_heap()
    n_loc, n_fad = scenarios[0].n_locations, scenarios[0].n_fadings
    size = max(1, _BLOCK_CELLS // n_fad)
    blocks = [range(n_loc)[start:start + size] for start in range(0, n_loc, size)]
    results = _parallel_map(functools.partial(_slice_task, _plan(jobs)), blocks, workers)
    curves = {}
    for ji, (scenario, q_values, rules) in enumerate(jobs):
        for ri, (_, names) in enumerate(rules):
            for ci, name in enumerate(names):
                loc_means = np.concatenate([b[ji][ri][ci] for b in results])
                curves[name] = _curve_from_means(name, scenario, q_values, loc_means)
    return curves


# ---------------------------------------------------------------------------
# One-job runners
# ---------------------------------------------------------------------------

def run_vcc_bd_mrc(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Simulated BD-MRC effective sum-rate under max-min-fair allocation.

    With ``users_per_group=None`` all feasible per-group user counts are
    evaluated on common random numbers.
    """
    return _simulate([cache_aided_job(scenario, (BD_MRC, ("vcc_bd_mrc",)))], workers)


def run_cacheless_bd_mrc(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Cacheless MU-MIMO baseline: the same pipeline with a single group."""
    return _simulate([cacheless_job(scenario, (BD_MRC, ("cacheless_bd_mrc",)))], workers)


def run_vcc_zf(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Simulated ZF max-min rate plus its fading-averaged analytic bounds."""
    job = cache_aided_job(
        scenario, (ZF, ("vcc_zf",)), (ZF_BOUNDS, ("vcc_zf_lower", "vcc_zf_upper"))
    )
    return _simulate([job], workers)


def run_msv(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Original and stream-count-swept multi-server baseline rates."""
    modified = _simulate([msv_job(scenario)], workers)["msv_modified"]
    return {"msv": msv_original(modified), "msv_modified": modified}


def run_imperfect_csi(scenario: Scenario, workers: int = 1) -> dict[str, SchemeCurve]:
    """Every curve of :func:`imperfect_csi_jobs`: both CSI rules."""
    return _simulate(imperfect_csi_jobs(scenario, CSI_PERFECT, CSI_ERROR), workers)


# ---------------------------------------------------------------------------
# Effective gains
# ---------------------------------------------------------------------------

def effective_gain(numerator: SchemeCurve, denominator: SchemeCurve) -> np.ndarray:
    """Ratio of the two sides' best mean rates (:meth:`SchemeCurve.best`)
    per power point: the ratio of maxima, not the maximum of ratios.  A
    curve at one fixed served-user count has that count as its best.  Where
    pilots fill the coherence block, a best rate is 0: a gain of 0 / 0 is
    NaN (an empty cell) and one of x / 0 is ``inf``, without a warning."""
    if numerator.ptot_dbm != denominator.ptot_dbm:
        raise InvalidConfigurationError("power grids differ between the two reports")
    with np.errstate(divide="ignore", invalid="ignore"):
        return numerator.best()[1] / denominator.best()[1]


# ---------------------------------------------------------------------------
# CSV assembly
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "scheme",
    "ptot_dbm",
    "snr_db",
    "q",
    "mean_rate_nats",
    "mean_rate_bits",
    "stderr",
    "gain",
    "gain_optimized",
    "n_locations",
    "n_fadings",
    "seed",
)


class CsvBlock(NamedTuple):
    """The CSV rows of one curve, one list per column.

    Row ``i`` is served-user count ``q[i]`` at power point ``i`` modulo the
    number of powers (an index into ``scenario.ptot_dbm``): rows are q by q.
    A gain column of ``None`` is empty in every row; a curve's block fills at
    most one of the two."""

    scenario: Scenario
    scheme: str
    q: list
    mean: list
    stderr: list
    gain: list | None = None
    gain_optimized: list | None = None


def rows_for_curve(curve: SchemeCurve, scenario: Scenario, gain=None) -> list[CsvBlock]:
    """One block of a row per (q, power point), q by q; ``gain`` fills the
    ``gain`` column, which only a single-q curve has.

    Raises
    ------
    ValueError
        If ``gain`` comes with a curve of more than one q.
    """
    if gain is not None and len(curve.q_values) != 1:
        raise ValueError(
            f"{curve.scheme}: a gain column needs a single-q curve, "
            f"not q in {list(curve.q_values)}"
        )
    n_p = len(curve.ptot_dbm)
    return [CsvBlock(
        scenario, curve.scheme,
        [q for q in curve.q_values for _ in range(n_p)],
        curve.mean.ravel().tolist(),
        curve.stderr.ravel().tolist(),
        gain=None if gain is None else np.asarray(gain, dtype=float).tolist(),
    )]


def rows_for_best(curve: SchemeCurve, scenario: Scenario, gain_opt=None) -> list[CsvBlock]:
    """One block of the best-q row per power point, as scheme
    ``<scheme>_opt``; ``gain_opt`` fills its ``gain_optimized`` column."""
    qs, means, errs = curve.best()
    return [CsvBlock(
        scenario, f"{curve.scheme}_opt", qs.tolist(), means.tolist(), errs.tolist(),
        gain_optimized=None if gain_opt is None else np.asarray(gain_opt, dtype=float).tolist(),
    )]


def row_count(blocks) -> int:
    """The number of CSV rows in ``blocks``."""
    return sum(len(block.mean) for block in blocks)


def gain_rows(blocks) -> list[tuple[str, float, float, int, float, float]]:
    """``(scheme, ptot_dbm, snr_db, q, mean_rate_nats, gain)`` of each row
    with a gain, in CSV order: the fixed-Q gain where the row has one, else
    the optimized one.  A NaN gain counts, though its cell is empty."""
    out = []
    for block in blocks:
        gains = block.gain if block.gain is not None else block.gain_optimized
        if gains is None:
            continue
        scn = block.scenario
        n_p = len(scn.ptot_dbm)
        out += [
            (block.scheme, scn.ptot_dbm[i % n_p], scn.snr_db[i % n_p], q, mean, g)
            for i, (q, mean, g) in enumerate(zip(block.q, block.mean, gains, strict=True))
        ]
    return out


def _cells(values) -> list[str]:
    """The CSV cells of a column of floats: empty for NaN, else ``repr``,
    which parses back to the same double."""
    return ["" if v != v else repr(v) for v in values]


def format_csv(blocks, header: dict | None = None) -> str:
    """Render blocks (from :func:`rows_for_curve` and :func:`rows_for_best`)
    as CSV text, block by block, with the columns of :data:`CSV_COLUMNS`.

    A scenario's power, SNR and count cells are formatted once for all its
    rows, and every other float cell column by column, by the rule of the
    module docstring; ``mean_rate_bits`` is ``mean / math.log(2)``.
    ``header`` entries are echoed as ``# key=value`` comment lines so a run
    is reproducible from its own output.
    """
    lines = [f"# {key}={value}" for key, value in (header or {}).items()]
    lines.append(",".join(CSV_COLUMNS))
    ln2 = math.log(2)
    scenario = None
    for block in blocks:
        if block.scenario is not scenario:
            scenario = block.scenario
            points = [
                f"{p},{s}" for p, s in zip(_cells(scenario.ptot_dbm), _cells(scenario.snr_db))
            ]
            counts = f"{scenario.n_locations},{scenario.n_fadings},{scenario.seed}"
        empty = [""] * len(block.mean)
        lines += [
            f"{block.scheme},{point},{q},{mean},{bits},{err},{gain},{gain_opt},{counts}"
            for point, q, mean, bits, err, gain, gain_opt in zip(
                points * (len(block.mean) // len(points)),
                block.q,
                _cells(block.mean),
                _cells([m / ln2 for m in block.mean]),
                _cells(block.stderr),
                empty if block.gain is None else _cells(block.gain),
                empty if block.gain_optimized is None else _cells(block.gain_optimized),
                strict=True,
            )
        ]
    return "\n".join(lines) + "\n"
