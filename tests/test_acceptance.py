"""Acceptance suite: one test per shipped claim, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 1 checks the Klotz example against references
the test computes itself (an independent scipy fit and the exact conditional
law of the initial-state count); criterion 5a checks the fibers that type I
and crossing moves can connect, and that type II moves join them.  Their
docstrings give the evidence.
"""

import itertools
import math
import random
import time

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp
from scipy.stats import binom, chi2

from thmc import (
    Family,
    Fiber,
    PathTable,
    ProposalSampler,
    Variant,
    chi2_sf,
    configuration,
    connectivity,
    enumerate_fiber,
    exact_test,
    fit_mle,
    ingest,
    initial_freq,
    initial_frequency_classes,
    klotz_path,
    likelihood_ratio,
    lr_df,
    mh_chain,
    realizable_stats,
    suff_stat,
    sweep,
)
from thmc.fiber import disconnected
from thmc.inference import BIRCH_TOL

from conftest import random_table

ALL_FAMILIES = [f.value for f in Family]
#: Side of the torus on which _init1_law takes its 3-D DFT.
DFT_GRID = 48
FIRST_FOUR = ["type1", "crossing", "2x2", "type4"]


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())


def _path_features(T: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every path of {1,2}^T with its row (b12, b21, b22, starts in state 2).

    b11 is left out: a path's four transition counts sum to T-1, so it adds
    only a constant, which the normalization already carries.
    """
    paths = list(itertools.product((1, 2), repeat=T))
    column = {(1, 2): 0, (2, 1): 1, (2, 2): 2}
    features = np.zeros((len(paths), 4))
    for j, path in enumerate(paths):
        for step in zip(path, path[1:]):
            if step in column:
                features[j, column[step]] += 1
        features[j, 3] = path[0] == 2
    return paths, features


def _toric_fit(
    features: np.ndarray, stat: np.ndarray, n: int
) -> tuple[float, np.ndarray]:
    """Maximum of the toric log-likelihood theta.stat - n logsumexp(features theta).

    The negated objective is convex in theta, so one scipy BFGS run from
    zero finds the global maximum; returns it and its parameters.
    """

    def objective(theta):
        logits = features @ theta
        logz = logsumexp(logits)
        probs = np.exp(logits - logz)
        return n * logz - theta @ stat, n * (features.T @ probs) - stat

    res = minimize(
        objective, np.zeros(len(stat)), jac=True, method="BFGS", options={"gtol": 1e-9}
    )
    return -res.fun, res.x


def _init1_law(
    features: np.ndarray, theta0: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """P(k | b) for k = 0..n: the law of the initial-state-1 count on the fiber.

    P(k | b) is proportional to C(n,k) [z^b] A(z)^k B(z)^(n-k), where A and B
    sum z^b(w) over the paths starting in state 1 and in state 2.  Weighting
    each path by its null-fit probability turns this into
    Binomial(n, a)(k) * P(S_k = b), with a the fitted chance of starting in
    state 1 and S_k the summed (b12, b21, b22) of k paths drawn from the
    start-1 paths and n-k from the start-2 paths.  P(S_k = b) comes from a
    3-D DFT on a DFT_GRID^3 torus; the tilt centres S_k on b, so the mass
    that wraps around the torus is negligible.  On the Klotz table the 48^3
    grid gives exact p = 0.81013 and a 64^3 grid 0.81012.
    """
    grid = DFT_GRID
    logits = features[:, :3] @ theta0
    probs = np.exp(logits - logsumexp(logits))
    starts1 = features[:, 3] == 0
    a = probs[starts1].sum()
    exps = features[:, :3].astype(int) % grid
    cube1 = np.zeros((grid,) * 3)
    cube2 = np.zeros((grid,) * 3)
    np.add.at(cube1, tuple(exps[starts1].T), probs[starts1] / a)
    np.add.at(cube2, tuple(exps[~starts1].T), probs[~starts1] / (1 - a))
    # Characteristic functions of one start-1 and one start-2 path.
    with np.errstate(divide="ignore"):
        log1 = np.log(np.fft.ifftn(cube1).ravel() * grid**3)
        log2 = np.log(np.fft.ifftn(cube2).ravel() * grid**3)
    freqs = np.indices((grid,) * 3).reshape(3, -1)
    phase = np.exp(-2j * np.pi * ((b.astype(int) % grid) @ freqs) / grid)
    ks = np.arange(n + 1)
    density = np.array(
        [np.real(np.exp(k * log1 + (n - k) * log2) @ phase) for k in ks]
    ) / grid**3
    weights = binom.pmf(ks, n, a) * density
    return weights / weights.sum()


def _reference_test(table: PathTable) -> tuple[float, float, float]:
    """(L, exact conditional p-value, P(k_obs | b)) of a table, computed
    without thmc's fits or sampler.

    Given b, the likelihood ratio depends on a table only through its
    initial-state-1 count k, so the exact p-value is the P(k | b) mass of
    the k with L(k) >= L(k_obs).  That mass includes the atom P(k_obs | b)
    of the tables that tie with the observed one.  Values of k with mass
    below 1e-15 are skipped.
    """
    T, n = table.T, table.n
    paths, features = _path_features(T)
    stat = features.T @ np.array([table[p] for p in paths], dtype=float)
    ll0, theta0 = _toric_fit(features[:, :3], stat[:3], n)

    def lr(k: int) -> float:
        ll1, _ = _toric_fit(features, np.append(stat[:3], n - k), n)
        return 2.0 * (ll1 - ll0)

    k_obs = n - int(stat[3])
    L_obs = lr(k_obs)
    law = _init1_law(features, theta0, stat[:3], n)
    L = {k: lr(k) for k in range(n + 1) if law[k] > 1e-15 and k != k_obs}
    # The tail event must not hinge on fit error: no other k ties with k_obs.
    assert min(abs(v - L_obs) for v in L.values()) > 1e-6
    p = law[k_obs] + sum(law[k] for k, v in L.items() if v >= L_obs)
    return float(L_obs), float(p), float(law[k_obs])


class TestCriterion1:
    #: Tolerance on the 100k-sample p_exact (5k burn-in) on the Klotz
    #: table: about 3.2 standard deviations of its spread over seeds
    #: 0..95 on block-drawn proposals (SD 0.0188).
    P_EXACT_TOL = 0.06

    def test_klotz_reproduction(self):
        """Klotz example: L, asymptotic p, exact p and runtime, each checked
        against a reference this test computes itself.

        - L must match an independent scipy BFGS fit of both toric
          log-likelihoods to 1e-6.  Both ``fit_mle`` fits must also meet the
          Birch condition within ``BIRCH_TOL``; this repeats
          ``test_inference.py::test_klotz_birch_condition`` on purpose, so
          that the criterion's one line covers every part of the fit.
        - The asymptotic p must match scipy's chi-square(1) tail at that L.
        - A 100k-sample chain must give an exact p within ``P_EXACT_TOL``
          (0.06, about 3.2 measured standard deviations) of the exact
          conditional p-value, computed from the law of the initial-state-1
          count by a 3-D DFT.
        - That p must also lie nearer the exact p-value than the p-value
          that leaves out the tables tying with the observed one (the atom
          P(k_obs | b) = 0.0905), so that a strict ``L > L_obs`` count
          fails.  On block-drawn proposals, seeds 0..95 give a mean of
          0.8078 and an SD of 0.0188 (drawn one at a time: 0.8084 and
          0.0162 over the same seeds).  Seed 0 gives 0.7675, the lowest
          of seeds 0..31 and 2.3 measured SD below the exact value.
        - The default 10k-sample, 5k burn-in run must finish within 10 s.

        Values on the bundled table: L = 0.1121, asymptotic p = 0.7378,
        exact p = 0.8101 (48^3 and 64^3 DFT grids agree to 1.3e-5).  This
        test used to assert the published L = 0.1219, asymptotic
        p = 0.7270 and exact p in [0.61, 0.68].  None of these can come
        from this table under the models of ``thmc.core``: the independent
        fit gives L = 0.112098497, reversing the paths in time gives the
        same L, and the MCMC spread (SD 0.048 over 24 seeds at 10k samples,
        0.0149 over 32 seeds at 100k) puts [0.61, 0.68] far outside
        Monte Carlo noise around 0.8101.  The repository does not hold the
        source of the published numbers, so whether they come from another
        transcription of Klotz's table cannot be settled here.
        """
        start = time.perf_counter()
        table = ingest(klotz_path(), "M=1,F=2")
        result = exact_test(table, steps=10_000, burnin=5_000, seed=0)
        elapsed = time.perf_counter() - start

        long_run = exact_test(table, steps=100_000, burnin=5_000, seed=0)
        L_ref, p_ref, tie_mass = _reference_test(table)
        p_strict = p_ref - tie_mass
        residuals = [
            fit_mle(suff_stat(table), 4, k).residual
            for k in (None, initial_freq(table)[0])
        ]
        tol = self.P_EXACT_TOL

        checks = {
            f"L = {L_ref:.6f} +- 1e-6": abs(result.L_observed - L_ref) <= 1e-6,
            "Birch residuals < BIRCH_TOL": max(residuals) < BIRCH_TOL,
            "p_asymptotic = chi2.sf(L, 1) +- 1e-6": abs(
                result.p_asymptotic - chi2.sf(L_ref, 1)
            )
            <= 1e-6,
            f"p_exact (100k) = {p_ref:.4f} +- {tol:.3f}": abs(
                long_run.p_exact - p_ref
            )
            <= tol,
            f"p_exact (100k) nearer {p_ref:.4f} than {p_strict:.4f}": abs(
                long_run.p_exact - p_ref
            )
            < abs(long_run.p_exact - p_strict),
            "runtime < 10 s": elapsed < 10.0,
        }
        detail = (
            f"(L={result.L_observed:.4f}, p_asym={result.p_asymptotic:.4f}, "
            f"p_exact={long_run.p_exact:.4f} vs exact {p_ref:.4f}, "
            f"{elapsed:.1f}s)"
        )
        report("criterion 1 (example reproduction)", all(checks.values()), detail)
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, f"failed: {failed} {detail}"


class TestCriterion2:
    def test_full_move_set_connects_everything(self):
        start = time.perf_counter()
        bad = []
        total = 0
        for T in (3, 4, 5):
            reports = sweep(T, 4, ALL_FAMILIES)
            total += len(reports)
            bad += disconnected(reports)
        elapsed = time.perf_counter() - start
        ok = not bad and elapsed < 300.0
        report(
            "criterion 2 (full-basis sweep T=3..5, n<=4)",
            ok,
            f"({total} fibers, {len(bad)} disconnected, {elapsed:.1f}s)",
        )
        assert not bad, [r.b.as_tuple() for r in bad]
        assert elapsed < 300.0


class TestCriterion3:
    def test_indispensable_sliding_move(self):
        start = time.perf_counter()
        fib = enumerate_fiber(3, (2, 2, 0, 2))
        without = connectivity(
            fib, ["type1", "crossing", "2x2", "type4", "type2"]
        )
        full = connectivity(fib, ALL_FAMILIES)
        elapsed = time.perf_counter() - start
        ok = (
            len(fib) == 2
            and without.n_components == 2
            and full.n_components == 1
            and elapsed < 1.0
        )
        report(
            "criterion 3 (indispensability at T=3)",
            ok,
            f"(size={len(fib)}, without={without.n_components}, "
            f"with={full.n_components}, {elapsed:.2f}s)",
        )
        assert len(fib) == 2
        assert without.n_components == 2
        assert full.n_components == 1
        assert elapsed < 1.0


class TestCriterion4:
    def test_first_four_families_split_by_initial_frequency(self):
        start = time.perf_counter()
        reports = sweep(4, 3, FIRST_FOUR)
        mismatches = []
        for rep in reports:
            fib = enumerate_fiber(4, rep.b)
            if set(rep.components) != set(initial_frequency_classes(fib)):
                mismatches.append(rep.b.as_tuple())
        elapsed = time.perf_counter() - start
        ok = not mismatches and elapsed < 120.0
        report(
            "criterion 4 (initial-preserving families, T=4, n<=3)",
            ok,
            f"({len(reports)} fibers, {len(mismatches)} mismatches, {elapsed:.1f}s)",
        )
        assert not mismatches, mismatches
        assert elapsed < 120.0


class TestCriterion5:
    def test_b11_zero_under_type1_and_crossing(self):
        """Type I and crossing moves connect every initial-frequency class of
        every b11 = 0 fiber, and adding type II moves connects the whole
        fiber (T=3..5, n <= 4).

        Each class (the tables of one fiber with the same initial
        frequencies, as given by ``initial_frequency_classes``) is a fiber of
        the model with initial parameters, and is checked as its own
        ``Fiber`` under type I and crossing moves alone.  Type II is a
        degree-1 move that changes the initial frequencies; with it the
        whole fiber of the model without initial parameters must be
        connected.  This is the paper's split of the basis: moves of the
        model with initial parameters, plus moves that change the initial
        frequencies.  A class or fiber that splits fails the test.

        The per-class half overlaps
        ``test_b11_zero_components_are_start_end_classes``: since
        b12 - b21 = x1 - xT, a fiber's (initial, final) classes are
        its initial-frequency classes, so a fiber whose components are
        those classes has every class connected.  The type II half is what
        that test does not cover.

        This test used to ask type I and crossing moves alone to connect the
        whole fiber of the model without initial parameters.  Both families
        preserve the initial frequencies (criterion 7 asserts it), so they
        can never join tables whose initial frequencies differ: 164 of the 285 b11 = 0 fibers came out
        disconnected, the smallest at T=3, b=(0,1,1,0), the single-path
        tables 121 and 212.  The paper's abstract does not say which fibers
        the criterion meant.  Adding ``deg3-sliding`` instead of type II
        leaves the 164 split, since every sliding move needs a 1->1
        transition.
        """
        start = time.perf_counter()
        bad = []
        split = []
        fibers = 0
        classes = 0
        for T in (3, 4, 5):
            for b in realizable_stats(T, 4):
                if b.b11 != 0:
                    continue
                fib = enumerate_fiber(T, b)
                fibers += 1
                for cls in initial_frequency_classes(fib):
                    part = Fiber(T, b, tuple(fib.cells[i] for i in cls))
                    rep = connectivity(part, ["type1", "crossing"])
                    classes += 1
                    if not rep.connected:
                        bad.append(rep)
                rep = connectivity(fib, ["type1", "crossing", "type2"])
                if not rep.connected:
                    split.append(rep)
        elapsed = time.perf_counter() - start
        ok = not bad and not split and elapsed < 120.0
        report(
            "criterion 5a (b11=0: classes under type1+crossing, fibers with type2)",
            ok,
            f"({fibers} fibers, {classes} classes, {len(bad)} disconnected "
            f"classes, {len(split)} disconnected fibers, {elapsed:.1f}s)",
        )
        for name, reps in (("classes", bad), ("fibers with type2", split)):
            assert not reps, (
                f"{len(reps)} disconnected {name}, e.g. "
                + ", ".join(
                    f"T={r.T} b={r.b.as_tuple()} "
                    f"sizes={r.component_sizes}"
                    for r in reps[:3]
                )
            )
        assert elapsed < 120.0

    def test_b11_zero_components_are_start_end_classes(self):
        """What actually holds: under {type1, crossing} every b11 = 0 fiber
        splits exactly into its (initial-frequency, final-frequency)
        classes."""
        start = time.perf_counter()
        mismatches = []
        for T in (3, 4, 5):
            reports = sweep(
                T, 4, ["type1", "crossing"], stat_filter=lambda b: b.b11 == 0
            )
            for rep in reports:
                fib = enumerate_fiber(T, rep.b)
                classes: dict = {}
                for i, t in enumerate(fib.elements):
                    x1 = sum(c for p, c in t.items() if p[0] == 1)
                    xT = sum(c for p, c in t.items() if p[-1] == 1)
                    classes.setdefault((x1, xT), []).append(i)
                expected = {tuple(v) for v in classes.values()}
                if set(rep.components) != expected:
                    mismatches.append((T, rep.b.as_tuple()))
        elapsed = time.perf_counter() - start
        report(
            "criterion 5a' (b11=0 components = start/end classes)",
            not mismatches,
            f"({elapsed:.1f}s)",
        )
        assert not mismatches, mismatches

    def test_b21_zero_under_type4_crossing_sliding(self):
        start = time.perf_counter()
        bad = []
        total = 0
        for T in (3, 4, 5):
            reports = sweep(
                T,
                4,
                ["type4", "crossing", "deg3-sliding"],
                stat_filter=lambda b: b.b21 == 0,
            )
            total += len(reports)
            bad += disconnected(reports)
        elapsed = time.perf_counter() - start
        ok = not bad and elapsed < 120.0
        report(
            "criterion 5b (b21=0 fibers, type4+crossing+sliding)",
            ok,
            f"({total} fibers, {len(bad)} disconnected, {elapsed:.1f}s)",
        )
        assert not bad, [(r.T, r.b.as_tuple()) for r in bad[:5]]
        assert elapsed < 120.0


class TestCriterion6:
    def test_sampler_matches_conditional_distribution(self):
        start_table = PathTable(3, {(1, 1, 2): 1, (2, 2, 1): 1})
        fib = enumerate_fiber(3, (1, 1, 1, 1))
        assert len(fib) == 2
        weights = np.array(
            [
                1.0 / math.prod(math.factorial(c) for _, c in t.items())
                for t in fib.elements
            ]
        )
        exact = weights / weights.sum()
        counts = {t: 0 for t in fib.elements}
        t0 = time.perf_counter()
        for table, _ in mh_chain(start_table, steps=1_000_000, seed=0):
            counts[table] += 1
        elapsed = time.perf_counter() - t0
        empirical = np.array([counts[t] / 1_000_000 for t in fib.elements])
        tv = 0.5 * float(np.abs(empirical - exact).sum())
        report(
            "criterion 6 (sampler vs conditional law)",
            tv <= 0.02,
            f"(TV={tv:.4f}, {elapsed:.0f}s)",
        )
        assert tv <= 0.02, f"total variation {tv}"


class TestCriterion7:
    DRAWS_PER_FAMILY = 4_000

    def test_sampled_proposals_are_exact_moves(self):
        # A proposal is the (path code, delta) entries of a signed move; it
        # names no family, so each family is drawn alone.
        start = time.perf_counter()
        checked = 0
        for T in range(4, 9):
            config = configuration(T, Variant.WITHOUT_INITIAL)
            rng = random.Random(100 + T)
            for fam in Family:
                sampler = ProposalSampler(T, rng, {fam: 1.0})
                for _ in range(self.DRAWS_PER_FAMILY):
                    entries = sampler.sample()
                    if entries is None:
                        continue
                    z = np.zeros(config.shape[1], dtype=np.int64)
                    for code, delta in entries:
                        z[code] = delta
                    assert not (config @ z).any(), (T, fam, entries)
                    # Codes below 2**(T-1) are the paths that start in state 1.
                    shift = int(z[: 1 << (T - 1)].sum())
                    if fam in (Family.TYPE2_DEG1, Family.DEG3_SLIDING):
                        assert abs(shift) == 1
                    else:
                        assert shift == 0
                    checked += 1
        elapsed = time.perf_counter() - start
        report(
            "criterion 7 (proposal validity, T=4..8)",
            True,
            f"({checked} non-null of {5 * len(Family) * self.DRAWS_PER_FAMILY} draws, "
            f"{elapsed:.0f}s)",
        )
        assert checked > 5 * len(Family) * self.DRAWS_PER_FAMILY // 10


class TestCriterion8:
    def test_numerics(self):
        start = time.perf_counter()
        table = ingest(klotz_path(), "M=1,F=2")
        residuals = [
            fit_mle(suff_stat(table), 4, k).residual
            for k in (None, initial_freq(table)[0])
        ]
        dfs = [lr_df(T) for T in range(3, 9)]
        sf_gap = abs(chi2_sf(0.1219, 1) - 0.7270)
        rng = np.random.default_rng(8)
        min_lr = math.inf
        for _ in range(1_000):
            t = random_table(rng, 4, int(rng.integers(1, 40)))
            min_lr = min(min_lr, likelihood_ratio(t))
        elapsed = time.perf_counter() - start
        checks = {
            "birch residuals < 1e-8": max(residuals) < 1e-8,
            "df == 1 for T=3..8": dfs == [1] * 6,
            "sf(0.1219, 1) within 5e-5 of 0.7270": sf_gap <= 5e-5,
            "lr >= 0 on 1000 random tables": min_lr >= 0.0,
        }
        report(
            "criterion 8 (numerical suite)",
            all(checks.values()),
            f"(residual={max(residuals):.2e}, sf_gap={sf_gap:.1e}, "
            f"min_lr={min_lr:.2e}, {elapsed:.0f}s)",
        )
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, failed
