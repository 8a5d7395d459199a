"""MLE fitting, the likelihood-ratio statistic, and the exact conditional test.

Both chain-model variants are log-linear in their configuration rows, so
fitting is Fisher scoring on the log-partition function with pseudo-inverse
steps for the redundant parametrization.  The asymptotic p-value uses the
closed-form chi-square tail for integer degrees of freedom, so the module
needs numpy only.  The exact test runs a Metropolis-Hastings chain over the
fiber of the observed table with the hypergeometric conditional
distribution pi(x) proportional to 1/prod x!, the distribution of a
multinomial sample given its sufficient statistic.
The chain's state is its count map plus the initial-state-1 count k, which
alone sets L within a fiber; the fiber is checked once per chain.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Path,
    PathTable,
    TransitionStat,
    Variant,
    configuration,
    encode,
    initial_freq,
    suff_stat,
)
from .moves import Family, ProposalSampler

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
    total that is not a positive multiple of ``T - 1``, or a ``k`` outside
    ``[0, n]``, belongs to no table and raises ``ValueError``.

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
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"initial-state-1 count k={k} outside [0, {n}]")
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

    def birch_gap(p: np.ndarray) -> float:
        return float(np.max(np.abs(b_obs - n * (A @ p))))

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
        residual = birch_gap(p)
        if residual < tol:
            break
        if np.max(np.abs(theta)) > _THETA_BOUNDARY and residual <= prev_residual:
            boundary = True
            break
        prev_residual = residual
        cov = (A * p) @ A.T - np.outer(mean, mean)
        step = np.linalg.pinv(cov, rcond=1e-12) @ (b_obs / n - mean)
        lam = 1.0
        # Near the optimum the likelihood gain drops below float resolution,
        # a few units in the last place of the log-likelihood; a shrinking
        # Birch residual still certifies progress.
        slack = max(1e-12, 16 * float(np.spacing(abs(loglik))))
        for _ in range(50):
            cand = theta + lam * step
            p_new, ll_new = state(cand)
            if ll_new > loglik or (
                ll_new >= loglik - slack and birch_gap(p_new) < residual
            ):
                theta, p, loglik = cand, p_new, ll_new
                break
            lam *= 0.5
        else:
            # No improving step: either the optimum sits at the boundary or
            # the scoring direction is numerically exhausted.
            if np.max(np.abs(theta)) > _THETA_BOUNDARY:
                boundary = True
            stop = "no step improved the fit"
            break
    residual = birch_gap(p)
    if not (residual < tol or boundary):
        raise FitError(
            f"no convergence after {iterations} "
            f"iteration{'' if iterations == 1 else 's'}: {stop} "
            f"(residual {residual:.3e}, variant {variant.value})"
        )
    boundary = boundary or bool(np.min(p) < 1e-10)
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
    a_max = np.max(a)
    top = a == a_max
    m = float(np.count_nonzero(top))
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


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
    construction.  ``k`` and ``L`` are those of ``table`` itself.
    """

    def __init__(self, table: PathTable) -> None:
        self.table = table
        self.b = suff_stat(table)
        fit0 = fit_mle(self.b, table.T)
        self._logp0 = _log_probs(fit0)
        # The null optimum, embedded in the 6-row with-initial space.
        self._theta0 = np.concatenate([fit0.theta, np.zeros(2)])
        self._cache: dict[int, float] = {}
        self.k = initial_freq(table)[0]
        self.L = self.value(table.counts, self.k)

    def value(self, counts: Mapping[Path, int], k: int) -> float:
        """L of the fiber's tables with initial-state-1 count ``k``; on a
        cache miss the alternative model is fitted to ``(b, k)`` and its gap
        to the null summed over ``counts`` in encoding order."""
        cached = self._cache.get(k)
        if cached is not None:
            return cached
        fit1 = fit_mle(self.b, self.table.T, k, theta0=self._theta0)
        logp1 = _log_probs(fit1)
        total = 0.0
        for idx, count in sorted((encode(p), c) for p, c in counts.items()):
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
    """Degrees of freedom: the rank gap between the two configuration matrices."""
    a0 = configuration(T, Variant.WITHOUT_INITIAL).astype(float)
    a1 = configuration(T, Variant.WITH_INITIAL).astype(float)
    rank0 = int(np.sum(np.linalg.svd(a0, compute_uv=False) > 1e-9))
    rank1 = int(np.sum(np.linalg.svd(a1, compute_uv=False) > 1e-9))
    return rank1 - rank0


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


class _Chain:
    """Metropolis-Hastings walk on the fiber of a starting table.

    The proposal is the symmetric family sampler; the stationary law is
    pi(x) proportional to 1/prod_w x(w)!.  Null proposals and rejected
    moves repeat the current state.  The acceptance ratio is computed in
    log space from the changed cells only.

    The walk starts at the evaluator's table.  Its state is the count map
    plus ``k``, the initial-state-1 count, which sets ``L`` within the
    fiber.  Moves preserve the statistic by construction (see
    :class:`Move`); :meth:`run` confirms it once, at the end.
    """

    def __init__(
        self,
        evaluator: _LikelihoodRatioEvaluator,
        rng: np.random.Generator,
        sampler: ProposalSampler,
    ) -> None:
        self.evaluator = evaluator
        self.rng = rng
        self.sampler = sampler
        self.counts = dict(evaluator.table.counts)
        self.k = evaluator.k
        self.L = evaluator.L
        self.accepted = 0
        self.null_proposals = 0

    def step(self) -> bool:
        """One MH step; True when a move was accepted."""
        proposal = self.sampler.sample(self.rng)
        if proposal is None:
            self.null_proposals += 1
            return False
        move, sign = proposal
        counts = self.counts
        changes: list[tuple[Path, int]] = []
        log_ratio = 0.0
        for path, delta in move.deltas:
            old = counts.get(path, 0)
            new = old + sign * delta
            if new < 0:
                return False
            changes.append((path, new))
            log_ratio += math.lgamma(old + 1) - math.lgamma(new + 1)
        if log_ratio < 0 and self.rng.random() >= math.exp(log_ratio):
            return False
        for path, new in changes:
            if new:
                counts[path] = new
            else:
                del counts[path]
        self.accepted += 1
        self.k += sign * move.initial_shift
        self.L = self.evaluator.value(counts, self.k)
        return True

    def run(self, burnin: int, steps: int) -> Iterator[bool]:
        """Take ``burnin`` steps, reset the counters, then take ``steps``
        steps, yielding after each whether it moved.  Once the steps are
        exhausted, raise if the counts left the starting table's fiber."""
        for _ in range(burnin):
            self.step()
        self.accepted = self.null_proposals = 0
        for _ in range(steps):
            yield self.step()
        if suff_stat(PathTable(self.evaluator.table.T, self.counts)) != self.evaluator.b:
            raise AssertionError("chain left its fiber")


def mh_chain(
    start: PathTable,
    steps: int,
    burnin: int = 0,
    seed: int | None = 0,
    weights: Mapping[Family | str, float] | Sequence[float] | None = None,
) -> Iterator[tuple[PathTable, float]]:
    """Stream the post-burn-in states of the fiber walk with their L values.

    Rejected and null proposals repeat the current state; the transition
    statistic is constant along the chain and is checked once the stream
    is exhausted.  Identical inputs give an identical stream.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    chain = _Chain(
        _LikelihoodRatioEvaluator(start),
        np.random.default_rng(seed),
        ProposalSampler(start.T, weights),
    )
    table = None
    for moved in chain.run(burnin, steps):
        if moved or table is None:
            table = PathTable(start.T, chain.counts)
        yield table, chain.L


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


def _histogram(values: Sequence[float]) -> tuple[tuple[float, int], ...]:
    """(bin lower bound, count) of each occupied bin, in ascending order.

    Bin ``i`` holds the values in ``[i, i + 1)`` bin widths; ``L`` grows with
    the counts, so empty bins are left out.
    """
    bin_width = HISTOGRAM_BIN_WIDTH
    counts = Counter(int(v / bin_width) for v in values)
    return tuple((i * bin_width, counts[i]) for i in sorted(counts))


def exact_test(
    table: PathTable,
    steps: int = 10000,
    burnin: int = 5000,
    seed: int = 0,
    weights: Mapping[Family | str, float] | Sequence[float] | None = None,
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
    order; diagnostics cover the post-burn-in phase.  The chains share one
    proposal sampler, and with it its memo of built moves.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    sampler = ProposalSampler(table.T, weights)
    evaluator = _LikelihoodRatioEvaluator(table)
    L_obs = evaluator.L

    if chains == 1:
        rngs = [np.random.default_rng(seed)]
    else:
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    base, rem = divmod(steps, chains)
    quotas = [base + (1 if i < rem else 0) for i in range(chains)]

    values: list[float] = []
    accepted = nulls = 0
    for rng, quota in zip(rngs, quotas):
        if quota == 0:
            continue
        chain = _Chain(evaluator, rng, sampler)
        values.extend(chain.L for _ in chain.run(burnin, quota))
        accepted += chain.accepted
        nulls += chain.null_proposals

    count = sum(1 for v in values if v >= L_obs - _LR_TIE_EPS)
    if add_observed:
        p_exact = (1 + count) / (len(values) + 1)
    else:
        p_exact = count / len(values)
    df = lr_df(table.T)
    return TestResult(
        L_observed=L_obs,
        df=df,
        p_asymptotic=chi2_sf(L_obs, df),
        p_exact=p_exact,
        samples=len(values),
        burnin=burnin,
        acceptance_rate=accepted / steps,
        null_proposal_rate=nulls / steps,
        seed=seed,
        histogram=_histogram(values),
    )
