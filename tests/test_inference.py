import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from thmc import (
    PathTable,
    TransitionStat,
    inference,
    Variant,
    chi2_sf,
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
)
from thmc.core import all_paths, encode
from thmc.fiber import table_text
from thmc.moves import ProposalSampler

from conftest import random_table

# Likelihood ratio of the bundled dataset, frozen after verification with an
# independent multi-start BFGS maximization of both model log-likelihoods
# (agreement to 1e-11; Birch residuals < 1e-9 for both fits).
KLOTZ_LR = 0.112098497

TWO_ELEMENT_START = PathTable(3, {(1, 1, 2): 1, (2, 2, 1): 1})


@pytest.fixture()
def fiber_breaking_proposal(monkeypatch):
    """Make every proposal +1 on 111 and -1 on 112.

    The move is feasible on TWO_ELEMENT_START and keeps the initial
    frequencies, but changes the transition statistic, which no real move
    can do (Move validates against it).
    """
    fake = SimpleNamespace(deltas=(((1, 1, 1), 1), ((1, 1, 2), -1)), initial_shift=0)
    monkeypatch.setattr(ProposalSampler, "sample", lambda self, rng: (fake, 1))


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
        monkeypatch.setattr(np.linalg, "pinv", lambda a, rcond: np.zeros_like(a))
        with pytest.raises(
            inference.FitError,
            match=r"^no convergence after 1 iteration: no step improved the fit ",
        ):
            fit_mle(suff_stat(klotz), 4)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="positive multiple"):
            fit_mle(TransitionStat(0, 0, 0, 0), 3)

    # No table of path length 4 has a statistic total that is not a
    # multiple of 3.
    @pytest.mark.parametrize("k", [None, 0])
    def test_total_off_the_path_length_rejected(self, k):
        with pytest.raises(ValueError, match="positive multiple"):
            fit_mle(TransitionStat(2, 1, 1, 0), 4, k)

    @pytest.mark.parametrize("k", [-1, 178])
    def test_initial_count_outside_the_table_rejected(self, klotz, k):
        with pytest.raises(ValueError, match=r"outside \[0, 177\]"):
            fit_mle(suff_stat(klotz), 4, k)

    @pytest.mark.parametrize("k", [0, 177])
    def test_initial_count_at_either_end_fits(self, klotz, k):
        fit = fit_mle(suff_stat(klotz), 4, k)
        assert fit.probs.shape == (16,)


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
    def test_all_T(self):
        for T in range(3, 9):
            assert lr_df(T) == 1


class TestChi2Sf:
    def test_reference_value(self):
        assert abs(chi2_sf(0.1219, 1) - 0.7270) < 5e-5

    def test_at_zero(self):
        for df in (1, 2, 5):
            assert chi2_sf(0.0, df) == 1.0

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
        # by enumerating every proposal draw, and check detailed balance
        # against the hypergeometric law exactly.
        import itertools

        from thmc.core import encode
        from thmc.moves import Family, MoveError, ProposalSampler

        T = 4
        fib = enumerate_fiber(T, (3, 2, 2, 2))
        states = list(fib.elements)
        index = {t.items(): i for i, t in enumerate(states)}
        sampler = ProposalSampler(T)

        proposals = []
        for fam_weight, fam in zip(sampler.weights, Family):
            highs = sampler._highs[fam]
            share = fam_weight / int(np.prod(highs))
            for combo in itertools.product(*[range(int(h)) for h in highs]):
                draw = np.array(combo)
                try:
                    move = sampler._build(fam, draw)
                except MoveError:
                    move = None
                proposals.append((share, move, 1 if draw[-1] == 0 else -1))
        assert abs(sum(p for p, _, _ in proposals) - 1.0) < 1e-12

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
            current = dict(state.counts)
            for prob, move, sign in proposals:
                if move is None:
                    P[i, i] += prob
                    continue
                nxt = dict(current)
                feasible = True
                for path, delta in move.deltas:
                    c = nxt.get(path, 0) + sign * delta
                    if c < 0:
                        feasible = False
                        break
                    nxt[path] = c
                if not feasible:
                    P[i, i] += prob
                    continue
                key = tuple(
                    sorted(
                        ((p, c) for p, c in nxt.items() if c),
                        key=lambda kv: encode(kv[0]),
                    )
                )
                j = index[key]
                log_ratio = sum(
                    math.lgamma(current.get(p, 0) + 1) - math.lgamma(nxt[p] + 1)
                    for p, _ in move.deltas
                )
                accept = min(1.0, math.exp(log_ratio))
                P[i, j] += prob * accept
                P[i, i] += prob * (1 - accept)

        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() < 1e-15
        assert np.abs(pi @ P - pi).max() < 1e-12

    # sha256 over "table_text\tL" lines of the stream, recorded before the
    # chain state became a count map plus k; pins both the random stream
    # and every L value bit for bit.
    @pytest.mark.parametrize("start, kwargs, digest", [
        ("klotz", dict(steps=3000, burnin=500, seed=0),
         "3c0d5a8479860f6e4e225b447474d0326a2776aa2803bade6de7404ec322c16c"),
        ("two-element", dict(steps=20_000, seed=0),
         "03e298728801f62f39458cea9d5c3b42e45bfc584f3f7193f9d8b4ac27aef0b7"),
    ])
    def test_stream_digest(self, klotz, start, kwargs, digest):
        table = klotz if start == "klotz" else TWO_ELEMENT_START
        h = hashlib.sha256()
        for t, L in mh_chain(table, **kwargs):
            h.update(f"{table_text(t)}\t{float(L)!r}\n".encode())
        assert h.hexdigest() == digest

    def test_leaving_the_fiber_raises(self, fiber_breaking_proposal):
        with pytest.raises(AssertionError, match="chain left its fiber"):
            list(mh_chain(TWO_ELEMENT_START, steps=10, seed=0))

    def test_invalid_arguments(self):
        start = PathTable(3, {(1, 1, 2): 1})
        with pytest.raises(ValueError):
            list(mh_chain(start, steps=0))
        with pytest.raises(ValueError):
            list(mh_chain(start, steps=1, burnin=-1))


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

    def test_klotz_fits_once_per_initial_count(self, klotz, call_counts):
        exact_test(klotz, seed=7)
        assert call_counts["fit_mle"] == 22

    def test_klotz_checks_the_statistic_once(self, klotz, call_counts):
        # once for the fiber's statistic, once for the chain's final counts
        exact_test(klotz, seed=7)
        assert call_counts["suff_stat"] == 2

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

    def test_argument_validation(self, klotz):
        with pytest.raises(ValueError):
            exact_test(klotz, steps=0)
        with pytest.raises(ValueError):
            exact_test(klotz, steps=10, chains=0)
