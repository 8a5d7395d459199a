"""MLE fitting, the likelihood-ratio statistic, and the exact conditional test.

Both chain-model variants are log-linear in their configuration rows, so
fitting is Fisher scoring on the log-partition function with pseudo-inverse
steps for the redundant parametrization.  The exact test runs a
Metropolis-Hastings chain over the fiber of the observed table with the
hypergeometric conditional distribution pi(x) proportional to 1/prod x!,
the distribution of a multinomial sample given its sufficient statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import gammaincc, logsumexp

from .core import (
    PathTable,
    Variant,
    configuration,
    encode,
    initial_freq,
    suff_stat,
)
from .moves import Family, ProposalSampler, _normalize_weights

#: Fisher-scoring convergence tolerance on the Birch residual
#: ||b_obs - n E[b]||_inf.
BIRCH_TOL = 1e-8

_THETA_BOUNDARY = 1e3
_PROB_FLOOR = 1e-300
_LR_TIE_EPS = 1e-12


class FitError(RuntimeError):
    """Maximum-likelihood fitting failed to converge."""


@dataclass(frozen=True)
class FittedModel:
    """A fitted chain model: parameters, cell probabilities, and diagnostics.

    ``residual`` is the max-norm gap between observed and fitted expected
    sufficient statistics; it is below tolerance unless ``boundary_flag``
    marks an optimum on the boundary (some fitted probability -> 0).
    """

    variant: Variant
    theta: np.ndarray
    probs: np.ndarray
    residual: float
    boundary_flag: bool


def fit_mle(
    table: PathTable,
    variant: Variant = Variant.WITHOUT_INITIAL,
    tol: float = BIRCH_TOL,
    max_iter: int = 500,
    theta0: np.ndarray | None = None,
) -> FittedModel:
    """Maximize the multinomial log-likelihood of a log-linear chain model.

    Fisher scoring with pseudo-inverse steps and step halving; at
    convergence the fitted expected sufficient statistic matches the
    observed one within ``tol``.  ``theta0`` warm-starts the parameter
    vector (used to fit the larger model starting from the smaller one's
    optimum, which keeps the likelihood ordering exact).
    """
    if table.n < 1:
        raise ValueError("cannot fit an empty table")
    variant = Variant(variant)
    config = configuration(table.T, variant)
    A = config.matrix.astype(np.float64)
    x = table.to_dense().astype(np.float64)
    n = float(table.n)
    b_obs = A @ x

    theta = np.zeros(A.shape[0]) if theta0 is None else np.asarray(theta0, float).copy()
    if theta.shape != (A.shape[0],):
        raise ValueError(f"theta0 must have shape ({A.shape[0]},)")

    def state(th: np.ndarray):
        logits = A.T @ th
        logz = logsumexp(logits)
        p = np.exp(logits - logz)
        loglik = float(th @ b_obs - n * logz)
        return p, loglik

    def birch_gap(p: np.ndarray) -> float:
        return float(np.max(np.abs(b_obs - n * (A @ p))))

    p, loglik = state(theta)
    boundary = False
    converged = False
    prev_residual = math.inf
    for _ in range(max_iter):
        mean = A @ p
        residual = birch_gap(p)
        if residual < tol:
            converged = True
            break
        if np.max(np.abs(theta)) > _THETA_BOUNDARY and residual <= prev_residual:
            boundary = True
            break
        prev_residual = residual
        cov = (A * p) @ A.T - np.outer(mean, mean)
        step = np.linalg.pinv(cov, rcond=1e-12) @ (b_obs / n - mean)
        lam = 1.0
        for _ in range(50):
            cand = theta + lam * step
            p_new, ll_new = state(cand)
            # Near the optimum the likelihood gain drops below float
            # resolution; a shrinking Birch residual still certifies progress.
            if ll_new > loglik or (
                ll_new >= loglik - 1e-12 and birch_gap(p_new) < residual
            ):
                theta, p, loglik = cand, p_new, ll_new
                break
            lam *= 0.5
        else:
            # No improving step: either the optimum sits at the boundary or
            # the scoring direction is numerically exhausted.
            if np.max(np.abs(theta)) > _THETA_BOUNDARY:
                boundary = True
            break
    mean = A @ p
    residual = float(np.max(np.abs(b_obs - n * mean)))
    if residual < tol:
        converged = True
    if not converged and not boundary:
        raise FitError(
            f"no convergence after {max_iter} iterations "
            f"(residual {residual:.3e}, variant {variant.value})"
        )
    boundary = boundary or bool(np.min(p) < 1e-10)
    return FittedModel(
        variant=variant,
        theta=theta,
        probs=p,
        residual=residual,
        boundary_flag=boundary,
    )


def _log_probs(fit: FittedModel) -> np.ndarray:
    """Log cell probabilities, floored only where the fit drove cells to zero."""
    return np.log(np.maximum(fit.probs, _PROB_FLOOR))


def _pad_theta(theta: np.ndarray) -> np.ndarray:
    """Embed a 4-row parameter vector into the 6-row with-initial space."""
    return np.concatenate([theta, np.zeros(2)])


class _LikelihoodRatioEvaluator:
    """Likelihood-ratio values over one fiber.

    The null fit depends on the table only through the transition
    statistic, so it is computed once; the alternative fit depends only on
    the statistic plus the initial frequencies, so its value is cached per
    initial frequency.  Warm-starting the alternative fit at the null
    optimum makes the likelihood ordering (and hence L >= 0) hold by
    construction.
    """

    def __init__(self, table: PathTable) -> None:
        self.T = table.T
        self.b = suff_stat(table)
        self.fit0 = fit_mle(table, Variant.WITHOUT_INITIAL)
        self._logp0 = _log_probs(self.fit0)
        self._theta0 = _pad_theta(self.fit0.theta)
        self._cache: dict[int, float] = {}

    def value(self, table: PathTable) -> float:
        key = initial_freq(table)[0]
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        fit1 = fit_mle(table, Variant.WITH_INITIAL, theta0=self._theta0)
        logp1 = _log_probs(fit1)
        total = 0.0
        for path, count in table.items():
            idx = encode(path)
            total += count * (logp1[idx] - self._logp0[idx])
        L = 2.0 * total
        if L < 0.0:
            if L < -1e-9:
                raise FitError(f"negative likelihood ratio {L:.3e}")
            L = 0.0
        self._cache[key] = L
        return L


def likelihood_ratio(table: PathTable) -> float:
    """Twice the log-likelihood gap between the with- and without-initial fits.

    Nonnegative up to numerical noise (the models are nested); tiny
    negative values are clamped to zero.
    """
    return _LikelihoodRatioEvaluator(table).value(table)


def lr_df(T: int) -> int:
    """Degrees of freedom: the rank gap between the two configuration matrices."""
    a0 = configuration(T, Variant.WITHOUT_INITIAL).matrix.astype(float)
    a1 = configuration(T, Variant.WITH_INITIAL).matrix.astype(float)
    rank0 = int(np.sum(np.linalg.svd(a0, compute_uv=False) > 1e-9))
    rank1 = int(np.sum(np.linalg.svd(a1, compute_uv=False) > 1e-9))
    return rank1 - rank0


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution via the regularized
    incomplete gamma function."""
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return float(gammaincc(df / 2.0, x / 2.0))


class _Chain:
    """Metropolis-Hastings walk on the fiber of a starting table.

    The proposal is the symmetric family sampler; the stationary law is
    pi(x) proportional to 1/prod_w x(w)!.  Null proposals and rejected
    moves repeat the current state.  The acceptance ratio is computed in
    log space from the changed cells only.
    """

    def __init__(
        self,
        start: PathTable,
        rng: np.random.Generator,
        weights=None,
        evaluator: _LikelihoodRatioEvaluator | None = None,
    ) -> None:
        self.T = start.T
        self.rng = rng
        self.sampler = ProposalSampler(start.T, weights)
        self.evaluator = evaluator or _LikelihoodRatioEvaluator(start)
        self._b = suff_stat(start)
        self._counts = dict(start.counts)
        self.current = start
        self.current_L = self.evaluator.value(start)
        self.accepted = 0
        self.null_proposals = 0
        self.steps_taken = 0

    def step(self) -> tuple[PathTable, float]:
        self.steps_taken += 1
        proposal = self.sampler.sample(self.rng)
        if proposal is None:
            self.null_proposals += 1
            return self.current, self.current_L
        move, sign = proposal
        counts = self._counts
        changes: list[tuple[tuple, int, int]] = []
        feasible = True
        log_ratio = 0.0
        for path, delta in move.deltas:
            old = counts.get(path, 0)
            new = old + sign * delta
            if new < 0:
                feasible = False
                break
            changes.append((path, old, new))
            log_ratio += math.lgamma(old + 1) - math.lgamma(new + 1)
        if not feasible:
            return self.current, self.current_L
        if log_ratio < 0 and self.rng.random() >= math.exp(log_ratio):
            return self.current, self.current_L
        for path, _, new in changes:
            if new:
                counts[path] = new
            else:
                del counts[path]
        self.accepted += 1
        self.current = PathTable(self.T, counts)
        assert suff_stat(self.current) == self._b, "chain left its fiber"
        self.current_L = self.evaluator.value(self.current)
        return self.current, self.current_L

    def reset_diagnostics(self) -> None:
        self.accepted = 0
        self.null_proposals = 0
        self.steps_taken = 0


def mh_chain(
    start: PathTable,
    steps: int,
    burnin: int = 0,
    seed: int | None = 0,
    weights: Mapping[Family | str, float] | Sequence[float] | None = None,
) -> Iterator[tuple[PathTable, float]]:
    """Stream the post-burn-in states of the fiber walk with their L values.

    Rejected and null proposals repeat the current state; the transition
    statistic is constant along the chain.  Identical inputs give an
    identical stream.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    chain = _Chain(start, np.random.default_rng(seed), weights)
    for _ in range(burnin):
        chain.step()
    for _ in range(steps):
        yield chain.step()


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


def _histogram(values: Sequence[float], bin_width: float) -> tuple[tuple[float, int], ...]:
    top = max(values)
    nbins = int(top / bin_width) + 1
    counts = [0] * nbins
    for v in values:
        idx = min(int(v / bin_width), nbins - 1)
        counts[idx] += 1
    return tuple((i * bin_width, c) for i, c in enumerate(counts))


def exact_test(
    table: PathTable,
    steps: int = 10000,
    burnin: int = 5000,
    seed: int = 0,
    weights: Mapping[Family | str, float] | Sequence[float] | None = None,
    add_observed: bool = False,
    bin_width: float = 0.1,
    chains: int = 1,
) -> TestResult:
    """Exact conditional test of the no-initial-parameter model.

    Samples ``steps`` tables from the fiber of the observed table after
    ``burnin`` burn-in steps; the exact p-value is the proportion of
    samples whose likelihood ratio meets or exceeds the observed one
    (``add_observed`` switches to the (1 + count) / (steps + 1)
    convention).  With ``chains`` > 1 the samples are split over
    independent chains, run one after another and pooled in chain index
    order; diagnostics cover the post-burn-in phase.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    weights_vec = _normalize_weights(weights)
    evaluator = _LikelihoodRatioEvaluator(table)
    L_obs = evaluator.value(table)

    if chains == 1:
        rngs = [np.random.default_rng(seed)]
        quotas = [steps]
    else:
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
        base, rem = divmod(steps, chains)
        quotas = [base + (1 if i < rem else 0) for i in range(chains)]

    values: list[float] = []
    accepted = nulls = total = 0
    for rng, quota in zip(rngs, quotas):
        if quota == 0:
            continue
        chain = _Chain(table, rng, weights_vec, evaluator=evaluator)
        for _ in range(burnin):
            chain.step()
        chain.reset_diagnostics()
        values.extend(chain.step()[1] for _ in range(quota))
        accepted += chain.accepted
        nulls += chain.null_proposals
        total += chain.steps_taken

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
        acceptance_rate=accepted / total,
        null_proposal_rate=nulls / total,
        seed=seed,
        histogram=_histogram(values, bin_width),
    )
