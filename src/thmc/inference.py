"""MLE fitting, the likelihood-ratio statistic, and the exact conditional test.

Both chain-model variants are log-linear in their configuration rows, so
fitting is Fisher scoring on the log-partition function with pseudo-inverse
steps for the redundant parametrization.  The asymptotic p-value uses the
closed-form chi-square tail for integer degrees of freedom, so the module
needs numpy only.  The exact test runs a Metropolis-Hastings chain over the
fiber of the observed table with the hypergeometric conditional
distribution pi(x) proportional to 1/prod x!, the distribution of a
multinomial sample given its sufficient statistic.
The chain's state is its count map, keyed by path code (the path's
encoding), plus the initial-state-1 count k, which alone sets L within a
fiber; the fiber is checked once per chain.
"""

from __future__ import annotations

import math
import numbers
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    MIN_T,
    PathTable,
    TransitionStat,
    Variant,
    configuration,
    decode,
    encode,
    initial_freq,
    suff_stat,
)
from .moves import MAX_SAMPLER_T, Family, Proposal, ProposalSampler, proposals

#: Fisher-scoring convergence tolerance on the Birch residual
#: ||b_obs - n E[b]||_inf, and the iteration budget; both are read at
#: each call.
BIRCH_TOL = 1e-8
FIT_MAX_ITER = 500
#: Width of the bins of :attr:`TestResult.histogram`, which lists the occupied
#: bins only.
HISTOGRAM_BIN_WIDTH = 0.1

_THETA_BOUNDARY = 1e3
_PROB_FLOOR = 1e-300
#: Sampled L values this close below the observed one count as ties: equal
#: exact L values can differ by up to about 1e-8 after boundary fits, while
#: distinct ones lie far apart (at least 0.012 on Klotz).
_LR_TIE_EPS = 1e-6


class FitError(RuntimeError):
    """Maximum-likelihood fitting failed to converge."""


@dataclass(frozen=True)
class FittedModel:
    """A fitted chain model: parameters, cell probabilities, and diagnostics.

    ``residual`` is the max-norm gap between observed and fitted expected
    sufficient statistics; it is below tolerance unless ``boundary_flag``
    marks an optimum on the boundary (some fitted probability -> 0).
    """

    theta: np.ndarray
    probs: np.ndarray
    residual: float
    boundary_flag: bool


def fit_mle(
    b: TransitionStat,
    T: int,
    k: int | None = None,
    theta0: np.ndarray | None = None,
) -> FittedModel:
    """Maximize the multinomial log-likelihood of a log-linear chain model.

    The fit reads a table of path length ``T`` only through its sufficient
    statistic: ``b`` for the model without initial parameters, plus the
    initial frequencies ``(k, n - k)`` for the model with them, which
    passing ``k`` selects; the total is ``n = b.total() / (T - 1)``.  A
    total that is not a positive multiple of ``T - 1`` belongs to no table
    and raises ``ValueError``.  So does a ``k`` that no table with
    statistic ``b`` has: over all paths ``b12 - b21 = k - l``, where ``l``
    counts the paths that end in state 1, so ``k`` must lie in ``[0, n]``
    and in ``[b12 - b21, n + b12 - b21]``.  These necessary conditions are
    all that is checked; they do not make every such ``(b, k)`` a table's.

    Fisher scoring with pseudo-inverse steps and step halving; at
    convergence the fitted expected sufficient statistic matches the
    observed one within ``BIRCH_TOL``, or within the rounding error of the
    statistic where that is larger.  ``theta0`` warm-starts the parameter
    vector (used to fit the larger model starting from the smaller one's
    optimum, which keeps the likelihood ordering exact).
    """
    variant = Variant.WITHOUT_INITIAL if k is None else Variant.WITH_INITIAL
    A = configuration(T, variant).astype(np.float64)
    n, rem = divmod(b.total(), T - 1)
    if n < 1 or rem:
        raise ValueError(f"b totals {b.total()}, not a positive multiple of T-1={T - 1}")
    shift = b.b12 - b.b21
    lo, hi = max(0, shift), min(n, n + shift)
    if k is not None and not lo <= k <= hi:
        raise ValueError(
            f"initial-state-1 count k={k} outside [{lo}, {hi}]: "
            f"no table of {n} paths with b12 - b21 = {shift} has it"
        )
    initial = () if k is None else (k, n - k)
    b_obs = np.array(b.as_tuple() + initial, dtype=np.float64)
    n = float(n)

    theta = np.zeros(A.shape[0]) if theta0 is None else np.asarray(theta0, float).copy()
    if theta.shape != (A.shape[0],):
        raise ValueError(f"theta0 must have shape ({A.shape[0]},)")

    def state(th: np.ndarray):
        logits = A.T @ th
        logz = _logsumexp(logits)
        p = np.exp(logits - logz)
        loglik = float(th @ b_obs - n * logz)
        return p, loglik

    def birch_gap(mean: np.ndarray) -> float:
        return float(np.abs(b_obs - n * mean).max())

    # n * (A @ p) sums 2**T rounded terms of total n * (T - 1), so it carries
    # a rounding error of order sqrt(2**T) units in the last place of that
    # total; on large tables (at T = 4, from about a million counts) this
    # floor exceeds BIRCH_TOL.
    floor = 4 * math.sqrt(A.shape[1]) * float(np.spacing(n * (T - 1)))
    tol = max(BIRCH_TOL, floor)
    p, loglik = state(theta)
    boundary = False
    prev_residual = math.inf
    iterations = 0
    stop = "the budget FIT_MAX_ITER is spent"
    for iterations in range(1, FIT_MAX_ITER + 1):
        mean = A @ p
        residual = birch_gap(mean)
        if residual < tol:
            break
        if np.abs(theta).max() > _THETA_BOUNDARY and residual <= prev_residual:
            boundary = True
            break
        prev_residual = residual
        cov = (A * p) @ A.T - mean[:, None] * mean
        step = _pinv(cov) @ (b_obs / n - mean)
        lam = 1.0
        # Near the optimum the likelihood gain drops below float resolution,
        # a few units in the last place of the log-likelihood; a shrinking
        # Birch residual still certifies progress.
        slack = max(1e-12, 16 * float(np.spacing(abs(loglik))))
        for _ in range(50):
            cand = theta + lam * step
            p_new, ll_new = state(cand)
            if ll_new > loglik or (
                ll_new >= loglik - slack and birch_gap(A @ p_new) < residual
            ):
                theta, p, loglik = cand, p_new, ll_new
                break
            lam *= 0.5
        else:
            # No improving step: either the optimum sits at the boundary or
            # the scoring direction is numerically exhausted.
            if np.abs(theta).max() > _THETA_BOUNDARY:
                boundary = True
            stop = "no step improved the fit"
            break
    else:
        # The budget ran out after a step, so the residual is the new fit's.
        residual = birch_gap(A @ p)
    if not (residual < tol or boundary):
        raise FitError(
            f"no convergence after {iterations} "
            f"iteration{'' if iterations == 1 else 's'}: {stop} "
            f"(residual {residual:.3e}, variant {variant.value})"
        )
    boundary = boundary or bool(p.min() < 1e-10)
    return FittedModel(
        theta=theta,
        probs=p,
        residual=residual,
        boundary_flag=boundary,
    )


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) with the maxima split out of the sum.

    The steps are those of ``scipy.special.logsumexp`` (1.17): the ``m``
    entries equal to the maximum are masked out, the rest are shifted,
    exponentiated and summed over the full-length array, and the sum is
    divided by ``m`` unless it is zero.  Following them exactly keeps every
    fit bit-identical.
    """
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def _pinv(a: np.ndarray) -> np.ndarray:
    """The pseudo-inverse ``numpy.linalg.pinv(a, rcond=1e-12)`` of a real
    square matrix, without the wrapper's argument handling.

    The steps are numpy's (2.x): the thin SVD, the cutoff at 1e-12
    times the largest singular value, the reciprocals of the values above
    it and zeros for the rest, then ``vt.T @ (s[:, None] * u.T)``.
    Following them exactly keeps every fit bit-identical.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    large = s > 1e-12 * s.max()
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.T @ (s[:, None] * u.T)


def _log_probs(fit: FittedModel) -> np.ndarray:
    """Log cell probabilities, floored only where the fit drove cells to zero."""
    return np.log(np.maximum(fit.probs, _PROB_FLOOR))


class _LikelihoodRatioEvaluator:
    """Likelihood-ratio values over the fiber of ``table``.

    The null fit depends on the table only through the transition
    statistic ``b``, so it is computed once; the alternative fit depends
    only on ``b`` plus the initial frequencies, so its value is cached per
    initial-state-1 count.  Warm-starting the alternative fit at the null
    optimum makes the likelihood ordering (and hence L >= 0) hold by
    construction.  ``cells`` (the counts by path code), ``k`` and ``L``
    are those of ``table`` itself.
    """

    def __init__(self, table: PathTable) -> None:
        self.table = table
        self.b = suff_stat(table)
        fit0 = fit_mle(self.b, table.T)
        self._logp0 = _log_probs(fit0)
        # The null optimum, embedded in the 6-row with-initial space.
        self._theta0 = np.concatenate([fit0.theta, np.zeros(2)])
        self._cache: dict[int, float] = {}
        self.cells = {encode(p): c for p, c in table.counts.items()}
        self.k = initial_freq(table)[0]
        self.L = self.value(self.cells, self.k)

    def value(self, cells: Mapping[int, int], k: int) -> float:
        """L of the fiber's tables with initial-state-1 count ``k``; on a
        cache miss the alternative model is fitted to ``(b, k)`` and its gap
        to the null summed over ``cells`` (counts by path code) in encoding
        order."""
        cached = self._cache.get(k)
        if cached is not None:
            return cached
        fit1 = fit_mle(self.b, self.table.T, k, theta0=self._theta0)
        logp1 = _log_probs(fit1)
        total = 0.0
        for idx, count in sorted(cells.items()):
            total += count * (logp1[idx] - self._logp0[idx])
        L = 2.0 * total
        if L < 0.0:
            if L < -1e-9:
                raise FitError(f"negative likelihood ratio {L:.3e}")
            L = 0.0
        self._cache[k] = L
        return L


def likelihood_ratio(table: PathTable) -> float:
    """Twice the log-likelihood gap between the with- and without-initial fits.

    Nonnegative up to numerical noise (the models are nested); tiny
    negative values are clamped to zero.
    """
    return _LikelihoodRatioEvaluator(table).L


def lr_df(T: int) -> int:
    """Degrees of freedom of the likelihood ratio: 1 for every ``T >= MIN_T``.

    The df is the rank of the with-initial configuration less that of the
    without-initial one, and this argument fixes it without building either
    matrix.  The two initial-state rows sum to the all-ones row, which is
    ``1/(T-1)`` times the sum of the four transition rows, so they add at
    most one to the rank.  They add exactly one: the paths
    ``(1,2,1,...,1)`` and ``(2,1,...,1,2)`` have the same transitions but
    different first states, so every combination of the transition rows
    takes one value on both columns, while the first initial-state row
    takes 1 on one and 0 on the other.
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    return 1


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with integer ``df``.

    With h = x/2 the tail has a closed form: for even df it is
    sum over k = 0, 2, ..., df-2 of h^(k/2) e^-h / Gamma(k/2 + 1), and for
    odd df it is erfc(sqrt(h)) plus the same sum over k = 1, 3, ..., df-2.
    The terms are evaluated in log space, so they neither overflow nor
    underflow early for large x and df.
    """
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    if not float(df).is_integer() or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df}")
    df = int(df)
    h = x / 2.0
    if h == 0:
        return 1.0
    if h == math.inf:
        return 0.0
    tail = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for k in range(df % 2, df, 2):
        tail += math.exp(0.5 * k * math.log(h) - h - math.lgamma(0.5 * k + 1))
    return tail


#: Decoded rows in a row with no accepted move after which
#: :meth:`_Chain.walk`, above the enumeration cap, screens the rest of a
#: block against its counts; read at each screen.  Screening again after
#: every accepted move made a dense T=7 table of 2,000 paths (acceptance
#: 0.32) 6 to 8 times slower, and 16 rows made one of 60 paths about 20%
#: slower; at 64 and 128 rows dense tables ran as fast as with no screen
#: after the first accepted move.
_RESCREEN = 64

#: No path code: codes are below 2**MAX_SAMPLER_T.
_NO_CODE = 1 << MAX_SAMPLER_T


class _Chain:
    """Metropolis-Hastings walk on the fiber of a starting table.

    The proposal is the symmetric family sampler; the stationary law is
    pi(x) proportional to 1/prod_w x(w)!.  Null proposals and rejected
    moves repeat the current state.  The acceptance ratio is computed in
    log space from the changed cells only.

    The walk starts at the evaluator's table.  Its state is the count map,
    keyed by path code as the proposals are, plus ``k``, the
    initial-state-1 count, which sets ``L`` within the fiber; a move shifts
    ``k`` by the deltas of its codes whose top bit (state at time 1) is 0.
    Proposals preserve the statistic by construction (the sampler checks
    every decoded draw); :meth:`check` confirms it once a walk is done.

    :meth:`walk` takes a block of draws at a time from the sampler and
    steps through its proposals in one loop.  Up to the enumeration cap
    that is every proposal of the block.  Above it the block is the
    decoder's arrays, and the walk steps through the rows that may fit: it
    screens the rest of a block against the counts in numpy once 64 rows
    in a row have passed with no accepted move (:meth:`_fitting`), and
    skips only proposals the MH step would reject without a random draw,
    so the walk, its random stream and its output are those of one step
    per proposal.  It records the steps as runs, not one by one: an
    ``(L, length)`` pair per stretch of consecutive steps with one L, or
    with one state when the caller also asks for the tables.  A walk takes
    exactly the steps it is asked for, so one that ends mid-block (a
    burn-in) leaves the rest of the block to the next walk.  The chain
    owns its sampler, and the sampler's generator, ``sampler.rng``, gives
    both the proposal blocks and each MH acceptance draw
    (``rng.random()``).
    """

    def __init__(
        self, evaluator: _LikelihoodRatioEvaluator, sampler: ProposalSampler
    ) -> None:
        self.evaluator = evaluator
        self.sampler = sampler
        self.counts = dict(evaluator.cells)
        self.k = evaluator.k
        self.L = evaluator.L
        # The step of the last move accepted in the current walk, and the
        # decoded rows handed out since the last accepted move (see
        # _fitting); none has been accepted yet.
        self._last = -1
        self._since = _RESCREEN

    def walk(
        self,
        steps: int,
        runs: list[tuple[float, int]] | None = None,
        tables: list[PathTable] | None = None,
    ) -> tuple[int, int]:
        """Take ``steps`` MH steps; return the counts of accepted moves and
        of null proposals among them.

        With ``runs``, append the steps' ``(L, length)`` runs to it: a run
        ends where L changes.  With ``tables`` too, a run ends at every
        accepted move instead, and each run's table is appended to
        ``tables``.  A move accepted at the first step leaves a run of
        length 0."""
        counts, value = self.counts, self.evaluator.value
        span, uniform = self.sampler.span, self.sampler.rng.random
        lgamma, exp = math.lgamma, math.exp
        top = 1 << (self.evaluator.table.T - 1)
        k, L = self.k, self.L
        accepted = nulls = 0
        done = start = 0
        self._last = -1
        if tables is not None:
            tables.append(self.table())
        while done < steps:
            block, first, stop = span(steps - done)
            slots, offset = block[0], done - first
            row, end = np.searchsorted(slots, (first, stop)).tolist()
            nulls += stop - first - (end - row)
            if len(block) == 2:
                at = (slots[row:end] + offset).tolist()
                batches: Iterable = (zip(at, block[1][row:end]),)
            else:
                batches = self._fitting(block, row, end, offset)
            for batch in batches:
                for i, proposal in batch:
                    changes = []
                    log_ratio = 0.0
                    shift = 0
                    for code, delta in proposal:
                        old = counts.get(code, 0)
                        new = old + delta
                        if new < 0:
                            break
                        changes.append((code, new))
                        log_ratio += lgamma(old + 1) - lgamma(new + 1)
                        if code < top:
                            shift += delta
                    else:
                        if log_ratio < 0 and uniform() >= exp(log_ratio):
                            continue
                        for code, new in changes:
                            if new:
                                counts[code] = new
                            else:
                                del counts[code]
                        accepted += 1
                        self._last = i
                        k += shift
                        moved_L = value(counts, k)
                        if runs is not None and (tables is not None or moved_L != L):
                            runs.append((L, i - start))
                            start = i
                            if tables is not None:
                                tables.append(self.table())
                        L = moved_L
            done += stop - first
        if runs is not None:
            runs.append((L, steps - start))
        self.k, self.L = k, L
        return accepted, nulls

    def _fitting(
        self, block: tuple, row: int, end: int, offset: int
    ) -> Iterator[list[tuple[int, Proposal]]]:
        """The proposals of rows ``row`` to ``end - 1`` of a decoded block
        that may fit the counts, in batches of ``(step, proposal)`` pairs in
        slot order.

        ``block`` is the sampler's block above the cap: the draw slot of
        each row, the entries' codes and sign-applied deltas, flat, and the
        rows' bounds.  A row's step is ``offset`` plus its slot.  Rows are
        handed out in order until ``_RESCREEN`` rows in a row, counted
        across blocks, have passed with no accepted move; the rest of the
        block is then screened against the counts at once (:meth:`_fits`),
        and only the rows that fit are handed out, one per batch, until one
        is accepted, which voids the screen.  Each batch holds consecutive
        rows, whose entries are read from the arrays at once
        (:func:`thmc.moves.proposals`).  The screen skips only rows whose
        proposals the MH step would reject without a random draw, so the
        walk and its random stream are those of every row handed out.  The
        walk keeps the step of its last accepted move in ``self._last``.
        """
        slots, codes, deltas, bounds = block
        since = self._since
        while row < end:
            screened = since >= _RESCREEN
            if screened:
                spans = [(r, r + 1) for r in self._fits(block, row, end)]
                row = end
            else:
                spans = [(row, min(end, row + _RESCREEN - since))]
                row = spans[0][1]
            for a, b in spans:
                at = (slots[a:b] + offset).tolist()
                last = self._last
                yield list(zip(at, proposals(codes, deltas, bounds[a : b + 1])))
                if self._last == last:
                    since += b - a
                    continue
                # Count the rows after the one accepted.
                since = b - 1 - a - bisect_left(at, self._last)
                if screened:
                    row = b
                    break
        self._since = since

    def _fits(self, block: tuple, row: int, end: int) -> list[int]:
        """The rows from ``row`` to ``end - 1`` of a decoded block that leave
        every count nonnegative: each entry's code is looked up in the
        sorted codes of the counts, ended by ``_NO_CODE``."""
        _, codes, deltas, bounds = block
        held = sorted(self.counts)
        support = np.array(held + [_NO_CODE])
        count = np.array([self.counts[c] for c in held] + [0])
        lo, hi = bounds[row], bounds[end]
        code = codes[lo:hi]
        at = np.searchsorted(support, code)
        short = count[at] * (support[at] == code) + deltas[lo:hi] < 0
        fits = ~np.logical_or.reduceat(short, bounds[row:end] - lo)
        return (row + np.flatnonzero(fits)).tolist()

    def table(self) -> PathTable:
        """The current state as a table of paths."""
        T = self.evaluator.table.T
        return PathTable(T, {decode(c, T): n for c, n in self.counts.items()})

    def check(self) -> None:
        """Raise if the counts left the starting table's fiber."""
        if suff_stat(self.table()) != self.evaluator.b:
            raise AssertionError("chain left its fiber")


#: Steps :func:`mh_chain` walks at a time; it holds the runs and tables of
#: that many steps.
_STREAM_STEPS = 4096


def _checked_seed(seed: int) -> int:
    """``seed`` as an int; raise unless it is a nonnegative integer.

    ``random.Random`` would take a float, a string or a bool, and gives -s
    the stream of s, so the chains check their seeds themselves.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise TypeError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def mh_chain(
    start: PathTable,
    steps: int,
    burnin: int = 0,
    seed: int | None = 0,
    weights: Mapping[Family | str, float] | None = None,
) -> Iterator[tuple[PathTable, float]]:
    """Stream the post-burn-in states of the fiber walk with their L values.

    Rejected and null proposals repeat the current state; the transition
    statistic is constant along the chain and is checked once the stream
    is exhausted.  The chain's proposal sampler draws from
    ``random.Random(seed)``, as do its acceptance draws, so identical
    inputs give an identical stream; ``seed`` is a nonnegative int
    (``ValueError`` if negative, ``TypeError`` if not an int or a bool),
    or None for fresh entropy.  ``weights`` are the family weights
    :class:`~thmc.moves.ProposalSampler` takes.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    rng = random.Random(None if seed is None else _checked_seed(seed))
    chain = _Chain(_LikelihoodRatioEvaluator(start), ProposalSampler(start.T, rng, weights))
    chain.walk(burnin)
    for done in range(0, steps, _STREAM_STEPS):
        runs: list[tuple[float, int]] = []
        tables: list[PathTable] = []
        chain.walk(min(_STREAM_STEPS, steps - done), runs, tables)
        for (L, length), table in zip(runs, tables):
            for _ in range(length):
                yield table, L
    chain.check()


@dataclass(frozen=True)
class TestResult:
    """Outcome of the exact conditional goodness-of-fit test."""

    L_observed: float
    df: int
    p_asymptotic: float
    p_exact: float
    samples: int
    burnin: int
    acceptance_rate: float
    null_proposal_rate: float
    seed: int
    histogram: tuple[tuple[float, int], ...]


def _histogram(runs: Sequence[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    """(bin lower bound, count) of each occupied bin of the ``(L, length)``
    runs' L values, each counted ``length`` times, in ascending order.

    Bin ``i`` holds the values in ``[i, i + 1)`` bin widths; ``L`` grows with
    the counts, so empty bins are left out.
    """
    bin_width = HISTOGRAM_BIN_WIDTH
    counts: Counter[int] = Counter()
    for L, length in runs:
        counts[int(L / bin_width)] += length
    return tuple((i * bin_width, counts[i]) for i in sorted(counts))


def exact_test(
    table: PathTable,
    steps: int = 10000,
    burnin: int = 5000,
    seed: int = 0,
    weights: Mapping[Family | str, float] | None = None,
    add_observed: bool = False,
    chains: int = 1,
) -> TestResult:
    """Exact conditional test of the no-initial-parameter model.

    Samples ``steps`` tables from the fiber of the observed table after
    ``burnin`` burn-in steps; the exact p-value is the proportion of
    samples whose likelihood ratio meets or exceeds the observed one
    (``add_observed`` switches to the (1 + count) / (steps + 1)
    convention).  With ``chains`` > 1 the samples are split over
    independent chains, run one after another and pooled in chain index
    order; diagnostics cover the post-burn-in phase.  Each chain has its
    own proposal sampler on its own generator; the samplers share the
    lookup tables of their T.

    One chain draws from ``random.Random(seed)``; with more, chain i draws
    from ``random.Random(f"{seed}/{i}")``, which does not depend on the
    number of chains, and only the first ``min(chains, steps)`` chains,
    those that get a sample, are seeded.  ``seed`` is a nonnegative int:
    ``ValueError`` if it is negative, ``TypeError`` if it is not an int or
    is a bool.  ``weights`` are the family weights
    :class:`~thmc.moves.ProposalSampler` takes; they are checked before
    the table is fitted.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    seed = _checked_seed(seed)
    # Chains past the steps-th get no sample, so they are not seeded.
    if chains == 1:
        rngs = [random.Random(seed)]
    else:
        rngs = [random.Random(f"{seed}/{i}") for i in range(min(chains, steps))]
    samplers = [ProposalSampler(table.T, rng, weights) for rng in rngs]
    evaluator = _LikelihoodRatioEvaluator(table)
    L_obs = evaluator.L
    base, rem = divmod(steps, len(samplers))

    runs: list[tuple[float, int]] = []
    accepted = nulls = 0
    for i, sampler in enumerate(samplers):
        chain = _Chain(evaluator, sampler)
        chain.walk(burnin)
        moved, null = chain.walk(base + (1 if i < rem else 0), runs)
        chain.check()
        accepted += moved
        nulls += null

    count = sum(length for L, length in runs if L >= L_obs - _LR_TIE_EPS)
    if add_observed:
        p_exact = (1 + count) / (steps + 1)
    else:
        p_exact = count / steps
    df = lr_df(table.T)
    return TestResult(
        L_observed=L_obs,
        df=df,
        p_asymptotic=chi2_sf(L_obs, df),
        p_exact=p_exact,
        samples=steps,
        burnin=burnin,
        acceptance_rate=accepted / steps,
        null_proposal_rate=nulls / steps,
        seed=seed,
        histogram=_histogram(runs),
    )
