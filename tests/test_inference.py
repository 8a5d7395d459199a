import hashlib
import itertools
import math
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from thmc import (
    PathTable,
    TransitionStat,
    inference,
    Variant,
    chi2_sf,
    configuration,
    enumerate_fiber,
    exact_test,
    fit_mle,
    initial_freq,
    initial_frequency_classes,
    likelihood_ratio,
    lr_df,
    mh_chain,
    suff_stat,
    swap_states,
    transitions,
)
from thmc import moves
from thmc.core import MIN_T, all_paths, decode, encode
from thmc.fiber import table_text
from thmc.moves import ProposalSampler

from conftest import random_table

# Likelihood ratio of the bundled dataset, frozen after verification with an
# independent multi-start BFGS maximization of both model log-likelihoods
# (agreement to 1e-11; Birch residuals < 1e-9 for both fits).
KLOTZ_LR = 0.112098497

TWO_ELEMENT_START = PathTable(3, {(1, 1, 2): 1, (2, 2, 1): 1})


#: A start above the enumeration cap with one path of code 0 (all ones) and
#: one of code 1 (all ones, then a 2), as TWO_ELEMENT_START has at T=3.
ABOVE_CAP_START = PathTable(7, {(1,) * 7: 1, (1,) * 6 + (2,): 1})


@pytest.fixture()
def fiber_breaking_proposal(monkeypatch):
    """Make every proposal +1 on code 0 (all ones) and -1 on code 1 (all
    ones, then a 2).

    The move is feasible on TWO_ELEMENT_START and on ABOVE_CAP_START and
    keeps the initial frequencies, but changes the transition statistic,
    which no real proposal can do (the sampler's decoder checks every draw
    against it).  The chain takes its proposals through
    ``ProposalSampler.span``: a block of draw slots that each give the
    move, with the list of their proposals up to the enumeration cap, and
    with the decoded block's arrays above it.
    """
    fake = ((0, 1), (1, -1))

    def span(self, m):
        m = min(m, moves._BLOCK)
        if self.T <= moves.ENUMERATION_T_CAP:
            return (np.arange(m), [fake] * m), 0, m
        block = (np.arange(m), np.tile([0, 1], m), np.tile([1, -1], m), 2 * np.arange(m + 1))
        return block, 0, m

    monkeypatch.setattr(ProposalSampler, "span", span)


@pytest.fixture()
def call_counts(monkeypatch):
    """Count calls to the fits and statistics the inference layer makes."""
    counts = {"fit_mle": 0, "suff_stat": 0}
    for name in counts:
        original = getattr(inference, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(inference, name, counted)
    return counts


class TestFitMle:
    def test_uniform_table_gives_uniform_probs(self):
        t = PathTable(4, {p: 1 for p in all_paths(4)})
        for k in (None, initial_freq(t)[0]):
            fit = fit_mle(suff_stat(t), 4, k)
            assert np.allclose(fit.probs, 1 / 16, atol=1e-12)
            assert abs(fit.probs.sum() - 1.0) < 1e-12
            assert not fit.boundary_flag

    def test_klotz_birch_condition(self, klotz):
        for k in (None, initial_freq(klotz)[0]):
            fit = fit_mle(suff_stat(klotz), 4, k)
            assert fit.residual < 1e-8
            assert not fit.boundary_flag

    def test_birch_matches_observed_rows(self, klotz):
        from thmc import configuration

        fit = fit_mle(suff_stat(klotz), 4, initial_freq(klotz)[0])
        a = configuration(4, Variant.WITH_INITIAL)
        dense = np.zeros(16)
        for path, count in klotz.items():
            dense[encode(path)] = count
        fitted = klotz.n * (a @ fit.probs)
        assert np.allclose(fitted, a @ dense, atol=1e-8)

    def test_single_flat_path_is_boundary(self):
        fit = fit_mle(TransitionStat(3, 0, 0, 0), 4)
        assert fit.boundary_flag
        assert fit.probs[0] > 1 - 1e-6

    # A zero scoring step never improves the fit, so the first iteration
    # stalls long before the iteration budget.
    def test_stall_is_named_in_the_error(self, klotz, monkeypatch):
        monkeypatch.setattr(inference, "_pinv", np.zeros_like)
        with pytest.raises(
            inference.FitError,
            match=r"^no convergence after 1 iteration: no step improved the fit ",
        ):
            fit_mle(suff_stat(klotz), 4)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="positive multiple"):
            fit_mle(TransitionStat(0, 0, 0, 0), 3)

    @pytest.mark.parametrize("k, shape", [(None, 4), (98, 6)])
    def test_theta0_of_another_shape_rejected(self, klotz, k, shape):
        with pytest.raises(ValueError, match=rf"^theta0 must have shape \({shape},\)$"):
            fit_mle(suff_stat(klotz), 4, k, theta0=np.zeros(5))

    # No table of path length 4 has a statistic total that is not a
    # multiple of 3.
    @pytest.mark.parametrize("k", [None, 0])
    def test_total_off_the_path_length_rejected(self, k):
        with pytest.raises(ValueError, match="positive multiple"):
            fit_mle(TransitionStat(2, 1, 1, 0), 4, k)

    # Klotz has b12 - b21 = 14 over n = 177 paths, and b12 - b21 = k - l,
    # where l counts the paths that end in state 1, so k lies in [14, 177].
    @pytest.mark.parametrize("k", [-1, 178])
    def test_initial_count_outside_the_table_rejected(self, klotz, k):
        with pytest.raises(ValueError, match=r"outside \[14, 177\]"):
            fit_mle(suff_stat(klotz), 4, k)

    @pytest.mark.parametrize("k", [14, 177])
    def test_initial_count_at_either_end_fits(self, klotz, k):
        fit = fit_mle(suff_stat(klotz), 4, k)
        assert fit.probs.shape == (16,)

    # No table has these k; fitted from the chain's warm start, some would
    # stall with FitError and others end in a boundary fit.
    def test_initial_count_no_table_has_rejected(self, klotz):
        b = suff_stat(klotz)
        theta0 = np.concatenate([fit_mle(b, 4).theta, np.zeros(2)])
        for k in range(14):
            with pytest.raises(ValueError, match=r"outside \[14, 177\]: no table"):
                fit_mle(b, 4, k, theta0=theta0)

    def test_every_realised_initial_count_fits(self):
        seen = set()
        for T in (3, 4, 5):
            for n in (1, 2, 3):
                for paths in itertools.combinations_with_replacement(all_paths(T), n):
                    table = PathTable(T, Counter(paths))
                    seen.add((T, suff_stat(table), initial_freq(table)[0]))
        assert len(seen) == 1124
        for T, b, k in seen:
            fit_mle(b, T, k)


class TestLikelihoodRatio:
    def test_klotz_value(self, klotz):
        assert abs(likelihood_ratio(klotz) - KLOTZ_LR) < 1e-6

    def test_swap_symmetric_table_gives_zero(self):
        t = PathTable(3, {(1, 1, 2): 3, (2, 2, 1): 3, (1, 2, 1): 2, (2, 1, 2): 2})
        assert t == swap_states(t)
        assert likelihood_ratio(t) <= 1e-9

    def test_single_flat_path_gives_zero(self):
        assert likelihood_ratio(PathTable(4, {(1, 1, 1, 1): 1})) <= 1e-7

    # L is homogeneous of degree 1 in the counts: scaling the table scales
    # both maximized log-likelihoods, and so their gap, by the same factor.
    @pytest.mark.parametrize("scale", [10**2, 10**3, 10**5, 10**7])
    def test_scales_with_the_counts(self, klotz, scale):
        scaled = PathTable(4, {p: c * scale for p, c in klotz.items()})
        expected = scale * likelihood_ratio(klotz)
        assert abs(likelihood_ratio(scaled) - expected) <= 1e-9 * expected

    # The chain caches L by the initial-state-1 count k, because within a
    # fiber L depends on a table only through k: every table of one
    # initial-frequency class must give the same L.
    @pytest.mark.parametrize("T, b", [
        (3, (2, 2, 1, 1)), (4, (2, 2, 2, 3)), (4, (3, 3, 2, 4)), (5, (2, 3, 3, 4)),
    ])
    def test_constant_on_initial_frequency_classes(self, T, b):
        fib = enumerate_fiber(T, b)
        classes = initial_frequency_classes(fib)
        assert len(classes) > 1 and len(classes) < len(fib)
        for members in classes:
            values = [likelihood_ratio(fib.elements[i]) for i in members]
            assert max(values) - min(values) <= 1e-9

    # Equal tables give bit-identical L whatever order their counts came
    # in, because the sum over cells runs in encoding order.
    def test_independent_of_count_order(self, rng):
        for _ in range(100):
            t = random_table(rng, 5, int(rng.integers(5, 60)))
            flipped = PathTable(5, list(reversed(t.items())))
            assert flipped == t
            assert likelihood_ratio(flipped) == likelihood_ratio(t)

    def test_nonnegative_on_random_tables(self, rng):
        for _ in range(50):
            t = random_table(rng, 4, int(rng.integers(1, 40)))
            assert likelihood_ratio(t) >= 0.0


class TestDegreesOfFreedom:
    # The rank gap of the two configurations is the definition that
    # lr_df's closed form stands in for.
    def test_all_T(self):
        for T in range(3, 13):
            rank1 = np.linalg.matrix_rank(configuration(T, Variant.WITH_INITIAL))
            rank0 = np.linalg.matrix_rank(configuration(T, Variant.WITHOUT_INITIAL))
            assert lr_df(T) == rank1 - rank0 == 1

    # The two paths lr_df's docstring names share their transitions but not
    # their first state, so the initial rows add exactly one to the rank.
    def test_witness_pair(self):
        for T in range(3, 41):
            ones = (1,) * (T - 3)
            a, b = (1, 2, 1) + ones, (2, 1) + ones + (2,)
            assert transitions(a) == transitions(b)
            assert a[0] != b[0]

    def test_builds_no_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lr_df built or factored a matrix")

        monkeypatch.setattr(inference, "configuration", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        # Past DENSE_T_CAP, where a 2**T-column matrix is refused.
        assert lr_df(40) == 1
        with pytest.raises(ValueError, match=f"T must be >= {MIN_T}"):
            lr_df(2)


class TestChi2Sf:
    def test_reference_value(self):
        assert abs(chi2_sf(0.1219, 1) - 0.7270) < 5e-5

    def test_at_zero(self):
        for df in (1, 2, 5):
            assert chi2_sf(0.0, df) == 1.0

    def test_at_infinity(self):
        for df in (1, 2, 5):
            assert chi2_sf(math.inf, df) == 0.0

    def test_quantile(self):
        # 3.841459 is the 95% point of the one-degree chi-square
        assert abs(chi2_sf(3.841459, 1) - 0.05) < 1e-6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.5, 1)

    def test_agrees_with_scipy_distribution(self):
        from scipy.stats import chi2

        xs = np.concatenate([[0.1, 1.0, 5.0, 20.0], np.linspace(0.01, 800, 321)])
        for x in xs:
            for df in range(1, 12):
                assert abs(chi2_sf(x, df) - chi2.sf(x, df)) < 1e-12, (x, df)
        # Log-space terms keep large df from underflowing to 0.
        assert chi2_sf(4000.0, 4000) == pytest.approx(chi2.sf(4000.0, 4000), rel=1e-11)

    @pytest.mark.parametrize("df", [1.5, 0, -1])
    def test_df_must_be_integer_at_least_one(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi2_sf(1.0, df)


class TestLogSumExp:
    """The fit's log-partition must equal scipy's bit for bit, so L is unchanged."""

    def test_bit_identical_to_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(6)
        arrays = [np.zeros(1 << T) for T in (3, 4, 12)]
        for T in range(3, 13):
            for _ in range(10):
                arrays.append(rng.normal(size=1 << T) * rng.uniform(0.1, 50))
                ties = rng.integers(-3, 3, size=1 << T) * rng.uniform(0.1, 5)
                ties[rng.choice(1 << T, size=2, replace=False)] = ties.max()
                arrays.append(ties)
        for a in arrays:
            assert float(inference._logsumexp(a)).hex() == float(logsumexp(a)).hex()


class TestPinv:
    """The Newton step's pseudo-inverse must equal numpy's bit for bit, so
    every fit, and with it L, is unchanged."""

    def test_bit_identical_to_numpy(self, klotz, monkeypatch):
        pinv, seen = inference._pinv, []

        def recording(a):
            seen.append(a.copy())
            return pinv(a)

        # The covariances of the null fit and of the alternative fit, warm
        # started as the chain's are, at every k a chain on the Klotz table
        # can visit.  Summed over a table's paths, (first state is 1) minus
        # (last state is 1) is b12 - b21, so every table of the fiber has
        # k >= b12 - b21 = 14.
        monkeypatch.setattr(inference, "_pinv", recording)
        evaluator = inference._LikelihoodRatioEvaluator(klotz)
        b = evaluator.b
        for k in range(b.b12 - b.b21, klotz.n + 1):
            fit_mle(b, 4, k, theta0=evaluator._theta0)
        assert {a.shape for a in seen} == {(4, 4), (6, 6)}
        # Rank 2 of 4: the cutoff zeroes two singular values.
        v = np.arange(1.0, 5.0)
        seen.append(np.outer(v, v) + np.outer(v[::-1], v[::-1]))
        for a in seen:
            got, want = pinv(a), np.linalg.pinv(a, rcond=1e-12)
            assert [x.hex() for x in got.ravel().tolist()] == [
                x.hex() for x in want.ravel().tolist()
            ]


class TestMhChain:
    def test_statistic_constant_along_chain(self):
        start = PathTable(3, {(1, 1, 2): 1, (2, 2, 1): 1})
        b = suff_stat(start)
        for table, _ in mh_chain(start, steps=500, seed=0):
            assert suff_stat(table) == b

    def test_chain_moves_from_klotz(self, klotz):
        seen = set()
        for table, _ in mh_chain(klotz, steps=1000, seed=0):
            seen.add(table)
        assert len(seen) > 1

    def test_two_element_fiber_frequencies(self):
        # exact conditional weights from the fiber: both tables have unit
        # factorial products, so the target is uniform
        start = PathTable(3, {(1, 1, 2): 1, (2, 2, 1): 1})
        fib = enumerate_fiber(3, (1, 1, 1, 1))
        weights = {
            t: 1.0 / math.prod(math.factorial(c) for _, c in t.items())
            for t in fib.elements
        }
        total = sum(weights.values())
        assert {w / total for w in weights.values()} == {0.5}
        counts = {t: 0 for t in fib.elements}
        for table, _ in mh_chain(start, steps=100_000, seed=0):
            counts[table] += 1
        frac = counts[start] / 100_000
        assert abs(frac - 0.5) < 0.02

    def test_kernel_is_exactly_in_detailed_balance(self):
        # Build the full transition matrix of the walk on a nontrivial fiber
        # from every proposal draw, read from the sampler's lookup tables,
        # and check detailed balance against the hypergeometric law exactly.
        from thmc import moves
        from thmc.moves import Family

        T = 4
        fib = enumerate_fiber(T, (3, 2, 2, 2))
        states = list(fib.elements)
        index = {t.items(): i for i, t in enumerate(states)}
        sampler = ProposalSampler(T, random.Random(0))

        proposals = []
        for fam_weight, fam in zip(sampler.weights, Family):
            table = moves._lookup_table(T, fam)
            assert len(table) == int(np.prod(sampler._highs[fam]))
            share = fam_weight / len(table)
            for entries in table.tolist():
                proposals.append((share, entries))
        assert abs(sum(p for p, _ in proposals) - 1.0) < 1e-12

        weights = np.array(
            [
                1.0 / math.prod(math.factorial(c) for _, c in t.items())
                for t in states
            ]
        )
        pi = weights / weights.sum()
        n = len(states)
        P = np.zeros((n, n))
        for i, state in enumerate(states):
            current = {encode(p): c for p, c in state.counts.items()}
            for prob, entries in proposals:
                if entries is None:
                    P[i, i] += prob
                    continue
                nxt = dict(current)
                feasible = True
                for code, delta in entries:
                    c = nxt.get(code, 0) + delta
                    if c < 0:
                        feasible = False
                        break
                    nxt[code] = c
                if not feasible:
                    P[i, i] += prob
                    continue
                key = tuple((decode(code, T), c) for code, c in sorted(nxt.items()) if c)
                j = index[key]
                log_ratio = sum(
                    math.lgamma(current.get(code, 0) + 1) - math.lgamma(nxt[code] + 1)
                    for code, _ in entries
                )
                accept = min(1.0, math.exp(log_ratio))
                P[i, j] += prob * accept
                P[i, i] += prob * (1 - accept)

        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() < 1e-15
        assert np.abs(pi @ P - pi).max() < 1e-12

    # sha256 over "table_text\tL" lines of the stream, recorded when the
    # chains began to draw from random.Random in place of a numpy
    # Generator; pins both the random stream and every L
    # value bit for bit.  The T=9 table lies above the sampler's
    # enumeration cap, so its proposals are decoded block by block.  The
    # ids name the cases, so a new pin leaves the test names as they are.
    @pytest.mark.parametrize("start, kwargs, digest", [
        ("klotz", dict(steps=3000, burnin=500, seed=0),
         "19524d35f1f7c7e270913fc5f8b549cdbdd98222282a7b9cab22c0bf62a25499"),
        ("two-element", dict(steps=20_000, seed=0),
         "3b1853d2809c428061801a9dccf9f316417fcd4d1e5f0c188d79cdcc0ad06097"),
        ("random-T9", dict(steps=3000, burnin=500, seed=0),
         "bdd045b47229aa4ee288414029857384e2082a7c23d89cd5c9617f22fb948cc5"),
    ], ids=["klotz", "two-element", "random-T9"])
    def test_stream_digest(self, klotz, start, kwargs, digest):
        table = {
            "klotz": klotz,
            "two-element": TWO_ELEMENT_START,
            "random-T9": random_table(np.random.default_rng(9), 9, 80),
        }[start]
        h = hashlib.sha256()
        for t, L in mh_chain(table, **kwargs):
            h.update(f"{table_text(t)}\t{float(L)!r}\n".encode())
        assert h.hexdigest() == digest

    def test_leaving_the_fiber_raises(self, fiber_breaking_proposal):
        with pytest.raises(AssertionError, match="chain left its fiber"):
            list(mh_chain(TWO_ELEMENT_START, steps=10, seed=0))

    def test_leaving_the_fiber_above_the_cap_raises(self, fiber_breaking_proposal):
        with pytest.raises(AssertionError, match="chain left its fiber"):
            list(mh_chain(ABOVE_CAP_START, steps=10, seed=0))

    def test_invalid_arguments(self):
        start = PathTable(3, {(1, 1, 2): 1})
        with pytest.raises(ValueError):
            list(mh_chain(start, steps=0))
        with pytest.raises(ValueError):
            list(mh_chain(start, steps=1, burnin=-1))

    # random.Random takes all of these, and gives -1 the stream of 1.
    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (1.0, TypeError), ("3", TypeError), (False, TypeError),
    ])
    def test_seed_must_be_a_nonnegative_int(self, seed, error):
        with pytest.raises(error, match="seed"):
            next(mh_chain(TWO_ELEMENT_START, steps=10, seed=seed))

    def test_no_seed_draws_from_fresh_entropy(self):
        assert len(list(mh_chain(TWO_ELEMENT_START, steps=50, seed=None))) == 50


def one_step_test(table, steps, burnin, seed, chains):
    """``exact_test``'s chain-derived fields, recomputed one proposal at a
    time: each step calls ``ProposalSampler.sample`` and applies the MH rule
    to that proposal alone, and every post-burn-in step's L is kept.  L is
    ``likelihood_ratio`` of the first table visited with each
    initial-state-1 count.  Each chain has a sampler on its own
    generator."""
    if chains == 1:
        rngs = [random.Random(seed)]
    else:
        rngs = [random.Random(f"{seed}/{i}") for i in range(min(chains, steps))]
    base, rem = divmod(steps, len(rngs))
    L_of_k: dict[int, float] = {}
    values: list[float] = []
    accepted = nulls = 0
    for i, rng in enumerate(rngs):
        sampler = ProposalSampler(table.T, rng)
        counts = {encode(p): c for p, c in table.items()}
        k = initial_freq(table)[0]
        L = L_of_k.setdefault(k, likelihood_ratio(table))
        for step in range(burnin + base + (1 if i < rem else 0)):
            proposal = sampler.sample()
            moved = False
            if proposal is not None:
                new = {c: counts.get(c, 0) + d for c, d in proposal}
                if min(new.values()) >= 0:
                    log_ratio = sum(
                        math.lgamma(counts.get(c, 0) + 1) - math.lgamma(n + 1)
                        for c, n in new.items()
                    )
                    moved = log_ratio >= 0 or rng.random() < math.exp(log_ratio)
            if moved:
                counts.update(new)
                k += sum(d for c, d in proposal if c < 1 << (table.T - 1))
                if k not in L_of_k:
                    current = {decode(c, table.T): n for c, n in counts.items() if n}
                    L_of_k[k] = likelihood_ratio(PathTable(table.T, current))
                L = L_of_k[k]
            if step >= burnin:
                values.append(L)
                accepted += moved
                nulls += proposal is None
    L_obs = likelihood_ratio(table)
    width = inference.HISTOGRAM_BIN_WIDTH
    bins = Counter(int(v / width) for v in values)
    return {
        "p_exact": sum(v >= L_obs - inference._LR_TIE_EPS for v in values) / steps,
        "histogram": tuple((i * width, bins[i]) for i in sorted(bins)),
        "acceptance_rate": accepted / steps,
        "null_proposal_rate": nulls / steps,
    }


class TestExactTest:
    def test_reproducible(self, klotz):
        a = exact_test(klotz, steps=500, burnin=100, seed=9)
        b = exact_test(klotz, steps=500, burnin=100, seed=9)
        assert a == b

    def test_table_alone_in_fiber(self):
        t = PathTable(3, {(1, 1, 1): 1})
        result = exact_test(t, steps=200, burnin=50, seed=0)
        assert result.p_exact == 1.0

    def test_doubling_steps_is_stable(self, klotz):
        a = exact_test(klotz, steps=10_000, burnin=5_000, seed=3)
        b = exact_test(klotz, steps=20_000, burnin=5_000, seed=3)
        # binomial 3-sigma bound, inflated for chain autocorrelation
        sigma = math.sqrt(a.p_exact * (1 - a.p_exact) / 10_000) * 12
        assert abs(a.p_exact - b.p_exact) < 3 * sigma + 0.05

    def test_add_observed_convention(self, klotz):
        plain = exact_test(klotz, steps=400, burnin=100, seed=5)
        augmented = exact_test(klotz, steps=400, burnin=100, seed=5, add_observed=True)
        count = round(plain.p_exact * 400)
        assert augmented.p_exact == pytest.approx((1 + count) / 401)

    def test_diagnostics_consistent(self, klotz):
        result = exact_test(klotz, steps=2_000, burnin=500, seed=7)
        assert 0 < result.acceptance_rate < 1
        assert 0 < result.null_proposal_rate < 1
        assert result.acceptance_rate + result.null_proposal_rate <= 1
        assert result.samples == 2_000
        assert sum(c for _, c in result.histogram) == 2_000

    def test_multichain_pooling(self, klotz):
        pooled = exact_test(klotz, steps=1_000, burnin=200, seed=11, chains=4)
        assert pooled.samples == 1_000
        again = exact_test(klotz, steps=1_000, burnin=200, seed=11, chains=4)
        assert pooled == again

    # Only the first min(chains, steps) chains get a sample, so only those
    # are seeded: seeding 10**9 chains would allocate for minutes first.
    def test_chains_past_the_steps_not_seeded(self, klotz, monkeypatch):
        seeded = []
        Random = random.Random

        def recorded(seed):
            seeded.append(seed)
            if len(seeded) > 5:
                raise AssertionError(f"seeded {len(seeded)} chains for 5 samples")
            return Random(seed)

        monkeypatch.setattr(random, "Random", recorded)
        many = exact_test(klotz, steps=5, burnin=0, seed=2, chains=10**9)
        monkeypatch.undo()
        assert seeded == [f"2/{i}" for i in range(5)]
        assert many == exact_test(klotz, steps=5, burnin=0, seed=2, chains=5)

    # Each chain's generator and sampler are built as the chain starts, so
    # at most the last chain's sampler is alive beside the current one's.
    # The figures were recorded when every sampler was built up front.
    def test_samplers_built_as_each_chain_starts(self, klotz, monkeypatch):
        alive = weakref.WeakSet()
        most = 0
        init = ProposalSampler.__init__

        def recorded(self, *args, **kwargs):
            nonlocal most
            init(self, *args, **kwargs)
            alive.add(self)
            most = max(most, len(alive))

        monkeypatch.setattr(ProposalSampler, "__init__", recorded)
        result = exact_test(klotz, steps=300, burnin=0, seed=1, chains=50)
        assert most <= 2
        assert (result.p_exact, result.acceptance_rate, result.null_proposal_rate) == (
            283 / 300, 54 / 300, 227 / 300,
        )

    # Chain i's seed does not depend on the number of chains; one chain
    # draws from the seed itself.  At seed 2 the first draws of the chains
    # and of the seed's own generator give different diagnostics.
    def test_more_chains_than_steps_keep_the_stream(self, klotz):
        five = exact_test(klotz, steps=3, burnin=0, seed=2, chains=5)
        assert five == exact_test(klotz, steps=3, burnin=0, seed=2, chains=3)
        assert five != exact_test(klotz, steps=3, burnin=0, seed=2, chains=1)

    def test_histogram_bins(self, klotz):
        result = exact_test(klotz, steps=1_000, burnin=200, seed=13)
        lowers = [lo for lo, _ in result.histogram]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert all(lo == round(lo / 0.1) * 0.1 for lo in lowers)
        assert all(c > 0 for _, c in result.histogram)
        assert sum(c for _, c in result.histogram) == result.samples

    # L scales with the counts (about 1.1e6 here), so one row per 0.1 of
    # the largest L would be some 10**7 rows, nearly all of them empty.
    def test_histogram_of_huge_counts_stays_small(self, klotz):
        scaled = PathTable(4, {p: c * 10**7 for p, c in klotz.items()})
        result = exact_test(scaled, steps=200, burnin=50, seed=7)
        assert 0 < len(result.histogram) <= 200

    def test_leaving_the_fiber_raises(self, fiber_breaking_proposal):
        with pytest.raises(AssertionError, match="chain left its fiber"):
            exact_test(TWO_ELEMENT_START, steps=10, burnin=0, seed=0)

    def test_leaving_the_fiber_above_the_cap_raises(self, fiber_breaking_proposal):
        with pytest.raises(AssertionError, match="chain left its fiber"):
            exact_test(ABOVE_CAP_START, steps=10, burnin=0, seed=0)

    # The chain walks a block of proposals per loop and keeps L as runs; the
    # burn-in (1,000 steps) and the chains end mid-block (blocks hold 2,048
    # draws).  Klotz's proposals come from lookup tables; the T=9 table lies
    # above the enumeration cap, so its blocks are decoded as drawn.
    @pytest.mark.parametrize("case, seed, chains", [
        ("klotz", 4, 1),
        ("random-T9", 4, 1),
        ("klotz", 6, 3),
    ])
    def test_runs_match_one_step_at_a_time(self, klotz, case, seed, chains):
        table = klotz if case == "klotz" else random_table(np.random.default_rng(9), 9, 80)
        result = exact_test(table, steps=2500, burnin=1000, seed=seed, chains=chains)
        expected = one_step_test(table, 2500, 1000, seed, chains)
        assert {name: getattr(result, name) for name in expected} == expected
        assert result.acceptance_rate > 0

    # One null fit, then one fit per initial-state-1 count the seed-7 chain
    # visits; the count depends on the random stream.
    def test_klotz_fits_once_per_initial_count(self, klotz, call_counts):
        exact_test(klotz, seed=7)
        assert call_counts["fit_mle"] == 21

    def test_klotz_checks_the_statistic_once(self, klotz, call_counts):
        # once for the fiber's statistic, once for the chain's final counts
        exact_test(klotz, seed=7)
        assert call_counts["suff_stat"] == 2

    # (T, n, table seed, chain steps, SD of p_exact over chain seeds).
    @pytest.mark.parametrize("T, n, table_seed, steps, sd", [
        (4, 12, 14, 50_000, 0.023),
        (4, 10, 4, 50_000, 0.031),
        (5, 6, 10, 100_000, 0.035),
    ])
    def test_p_exact_matches_the_exact_law(self, T, n, table_seed, steps, sd):
        """On seeded random tables, a chain's p_exact lies within 4 SD of
        the exact conditional p-value.

        The exact value enumerates the fiber: each table weighs 1/prod x!,
        and L depends on a table only through its initial-state-1 count k,
        so L is computed once per k, from the first table with that k.  The
        exact p-values are 0.6569, 0.1751 and 0.5525, and the L of every
        other k lies at least 0.23 from the observed one, so no tie hinges
        on fit error.  The SDs were measured with 2,000 burn-in steps on
        block-drawn proposals, over chain seeds 0..31 for the T=4 tables
        (0.023 and 0.031) and 0..95 for the T=5 one (0.035).  Proposals
        drawn one at a time gave 0.019 and 0.030 over seeds 0..11 and 0.033
        over 0..95.  Seed 0 gives 0.6258, 0.2163 and 0.5679 on block-drawn
        proposals, and 0.6593, 0.1778 and 0.5282 drawn one at a time.
        """
        table = random_table(np.random.default_rng(table_seed), T, n)
        half = 1 << (T - 1)
        mass: dict[int, float] = {}
        first: dict[int, tuple[int, ...]] = {}
        for cells in enumerate_fiber(T, suff_stat(table)).cells:
            k = sum(c < half for c in cells)
            weight = 1 / math.prod(math.factorial(cells.count(c)) for c in set(cells))
            mass[k] = mass.get(k, 0.0) + weight
            first.setdefault(k, cells)
        L = {}
        for k, cells in first.items():
            counts = {decode(c, T): cells.count(c) for c in cells}
            L[k] = likelihood_ratio(PathTable(T, counts))
        k_obs = initial_freq(table)[0]
        assert min(abs(v - L[k_obs]) for k, v in L.items() if k != k_obs) > 1e-6
        p_exact = sum(m for k, m in mass.items() if L[k] >= L[k_obs]) / sum(mass.values())
        result = exact_test(table, steps=steps, burnin=2_000, seed=0)
        assert abs(result.p_exact - p_exact) <= 4 * sd, (result.p_exact, p_exact)

    # Every table in these fibers has the same exact L (6 ln 2 for the
    # first, 0 for the second), but boundary fits give values up to about
    # 1e-10 apart; each sample ties with the observed table, so p is 1.
    @pytest.mark.parametrize("counts", [
        {(1, 1, 1): 1, (1, 2, 2): 2},
        {(1, 2, 1): 1},
    ])
    def test_exact_ties_count_as_extreme(self, counts):
        result = exact_test(PathTable(3, counts), steps=2000, burnin=100, seed=1)
        assert result.p_exact == 1.0

    # Weights are divided by their sum, so weights of any scale give the
    # same sampler weights and the same test.
    def test_weights_of_any_scale_give_one_test(self, klotz):
        whole = {"type2": 1, "deg3-sliding": 1}
        half = {"type2": 0.5, "deg3-sliding": 0.5}
        rng = random.Random(0)
        weights = ProposalSampler(klotz.T, rng, whole).weights
        assert weights == ProposalSampler(klotz.T, rng, half).weights
        assert weights == (0, 0, 0, 0, 0.5, 0.5)
        result = exact_test(klotz, steps=2_000, burnin=500, seed=3, weights=whole)
        assert result == exact_test(klotz, steps=2_000, burnin=500, seed=3, weights=half)
        assert result.acceptance_rate > 0

    # The weights are checked before the table is fitted.
    def test_bad_weights_raise_before_the_fit(self, klotz, call_counts):
        with pytest.raises(ValueError, match="positive, finite sum"):
            exact_test(klotz, steps=10, weights={"type1": 0})
        with pytest.raises(TypeError, match="mapping"):
            exact_test(klotz, steps=10, weights=[1, 0, 0, 0, 0, 0])
        assert call_counts["fit_mle"] == 0

    def test_argument_validation(self, klotz):
        with pytest.raises(ValueError):
            exact_test(klotz, steps=0)
        with pytest.raises(ValueError):
            exact_test(klotz, steps=10, chains=0)

    def test_negative_burnin_rejected(self, klotz):
        with pytest.raises(ValueError, match="^burnin must be >= 0, got -1$"):
            exact_test(klotz, steps=10, burnin=-1)

    # random.Random takes all of these, and gives -1 the stream of 1.
    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (1.0, TypeError), ("3", TypeError), (True, TypeError),
        (None, TypeError),
    ])
    def test_seed_must_be_a_nonnegative_int(self, klotz, seed, error):
        with pytest.raises(error, match="seed"):
            exact_test(klotz, steps=10, burnin=0, seed=seed)

    def test_numpy_integer_seed_is_its_int(self, klotz):
        result = exact_test(klotz, steps=50, burnin=0, seed=np.int64(4))
        assert result == exact_test(klotz, steps=50, burnin=0, seed=4)
        assert type(result.seed) is int


def seeded_paths(T: int, n: int) -> PathTable:
    """n paths of length T, each state drawn from ``random.Random(T * n)``."""
    rng = random.Random(T * n)
    return PathTable(T, Counter(
        tuple(rng.choice((1, 2)) for _ in range(T)) for _ in range(n)
    ))


def reference_walk(chain, steps, runs=None, tables=None):
    """``_Chain.walk`` one proposal at a time: each step takes one proposal
    through ``ProposalSampler.sample`` and applies the MH rule to it alone.
    Returns the walk's counts of accepted moves and of nulls, and leaves
    the chain's counts, k and L where the walk would."""
    counts, top = chain.counts, 1 << (chain.evaluator.table.T - 1)
    accepted = nulls = start = 0
    if tables is not None:
        tables.append(chain.table())
    for i in range(steps):
        proposal = chain.sampler.sample()
        if proposal is None:
            nulls += 1
            continue
        new = {c: counts.get(c, 0) + d for c, d in proposal}
        if min(new.values()) < 0:
            continue
        log_ratio = 0.0
        for c, n in new.items():
            log_ratio += math.lgamma(counts.get(c, 0) + 1) - math.lgamma(n + 1)
        if log_ratio < 0 and chain.sampler.rng.random() >= math.exp(log_ratio):
            continue
        for c, n in new.items():
            if n:
                counts[c] = n
            else:
                del counts[c]
        accepted += 1
        chain.k += sum(d for c, d in proposal if c < top)
        L = chain.evaluator.value(counts, chain.k)
        if runs is not None and (tables is not None or L != chain.L):
            runs.append((chain.L, i - start))
            start = i
            if tables is not None:
                tables.append(chain.table())
        chain.L = L
    if runs is not None:
        runs.append((chain.L, steps - start))
    return accepted, nulls


class TestScreenedWalk:
    """Above the enumeration cap the walk screens each decoded block against
    the counts and steps only through the rows that can fit; every
    accepted move, null, run, final count and k must be those of the MH
    rule applied to one proposal at a time."""

    @staticmethod
    def walks(table, seed, plan, chains=1):
        """Walk ``plan``'s ``(steps, runs, tables)`` walks on each of
        ``chains`` chains, one chain after another, each on a sampler of
        its own generator, with ``_Chain.walk`` and with
        ``reference_walk``; return the records of both."""
        if chains == 1:
            seeds = [seed]
        else:
            seeds = [f"{seed}/{i}" for i in range(chains)]
        records = []
        for walk in (inference._Chain.walk, reference_walk):
            evaluator = inference._LikelihoodRatioEvaluator(table)
            record = []
            for s in seeds:
                sampler = ProposalSampler(table.T, random.Random(s))
                chain = inference._Chain(evaluator, sampler)
                for steps, with_runs, with_tables in plan:
                    runs = [] if with_runs else None
                    tables = [] if with_tables else None
                    moved = walk(chain, steps, runs, tables)
                    record.append((moved, runs, tables))
                record.append((chain.counts, chain.k, chain.L))
            records.append(record)
        return records

    # The burn-in of 1,000 steps ends mid-block (blocks hold 2,048 draws),
    # as does the 5,000-step walk after it.  The dense tables accept
    # 32%, 14% and 5% of their steps; the T=12 table about one in a
    # thousand, so the walk is long enough for it to accept some.
    @pytest.mark.parametrize("T, n", [(7, 2000), (8, 300), (7, 60), (9, 80), (12, 30)])
    def test_runs_match_the_reference(self, T, n):
        table = random_table(np.random.default_rng(T), T, n) if T >= 9 else seeded_paths(T, n)
        walked, expected = self.walks(table, 3, [(1000, False, False), (5000, True, False)])
        assert walked == expected
        (accepted, _), _, _ = walked[1]
        assert accepted > 0

    # A screen after every accepted move (0) and after every row that is
    # not accepted (1) hand out the same rows as the default.
    @pytest.mark.parametrize("rescreen", [0, 1, 64])
    @pytest.mark.parametrize("T, n", [(7, 60), (12, 30)])
    def test_rescreen_policy_keeps_the_walk(self, monkeypatch, T, n, rescreen):
        monkeypatch.setattr(inference, "_RESCREEN", rescreen)
        table = seeded_paths(T, n) if T < 9 else random_table(np.random.default_rng(T), T, n)
        walked, expected = self.walks(table, 5, [(700, False, False), (3000, True, True)])
        assert walked == expected

    def test_two_chains_each_on_its_own_sampler(self):
        walked, expected = self.walks(
            seeded_paths(8, 300), 11, [(300, False, False), (1500, True, False)], chains=2
        )
        assert walked == expected

    # mh_chain asks for the tables of each run, walking 4,096 steps at a
    # time after the burn-in.
    def test_mh_chain_matches_the_reference(self):
        table = seeded_paths(7, 60)
        chain = inference._Chain(
            inference._LikelihoodRatioEvaluator(table),
            ProposalSampler(table.T, random.Random(2)),
        )
        reference_walk(chain, 300)
        runs, tables = [], []
        reference_walk(chain, 5000, runs, tables)
        expected = [(t, L) for (L, length), t in zip(runs, tables) for _ in range(length)]
        assert list(mh_chain(table, steps=5000, burnin=300, seed=2)) == expected
        assert len(set(t for t, _ in expected)) > 10


def net_change(T: int, proposal: tuple) -> list[int]:
    """The change a proposal makes to (b11, b12, b21, b22) and to the mass."""
    net = [0] * 5
    for code, delta in proposal:
        path = decode(code, T)
        for a, b in zip(path, path[1:]):
            net[2 * a + b - 3] += delta
        net[4] += delta
    return net


class TestProposalForm:
    """A proposal is the signed move itself: the ``(code, delta)`` entries
    to add, in code order."""

    # Up to the cap the walk hands out the listed proposals of each block's
    # draws; above it, the batches of _fitting.
    @pytest.mark.parametrize("T", [4, 7, 12])
    def test_every_proposal_handed_out_is_a_move(self, monkeypatch, T):
        handed = []
        span, fitting = ProposalSampler.span, inference._Chain._fitting

        def recorded_span(self, m):
            block, first, stop = span(self, m)
            if len(block) == 2:
                row, end = np.searchsorted(block[0], (first, stop))
                handed.extend(block[1][row:end])
            return block, first, stop

        def recorded_fitting(self, *args):
            for batch in fitting(self, *args):
                handed.extend(p for _, p in batch)
                yield batch

        monkeypatch.setattr(ProposalSampler, "span", recorded_span)
        monkeypatch.setattr(inference._Chain, "_fitting", recorded_fitting)
        exact_test(seeded_paths(T, 60), steps=3000, burnin=0, seed=T)
        walked = len(handed)
        sampler = ProposalSampler(T, random.Random(T))
        sampled = [p for p in (sampler.sample() for _ in range(3000)) if p is not None]
        assert walked > 64 and len(sampled) > 300
        for proposal in handed + sampled:
            codes = [c for c, _ in proposal]
            assert all(a < b for a, b in zip(codes, codes[1:])), proposal
            assert 0 <= codes[0] and codes[-1] < 1 << T
            assert all(d != 0 for _, d in proposal), proposal
            assert net_change(T, proposal) == [0] * 5, proposal
