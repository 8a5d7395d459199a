import itertools
import math

import numpy as np
import pytest

from thmc import (
    Family,
    Move,
    MoveError,
    NegativityViolation,
    PathTable,
    ProposalSampler,
    apply_move,
    crossing_swap,
    deg3_sliding,
    enumerate_family,
    initial_freq,
    move_graph,
    suff_stat,
    two_by_two_swap,
    type1_deg1,
    type2_deg1,
    type4_move,
)
from thmc import moves
from thmc.core import all_paths


def as_dict(move: Move) -> dict:
    return dict(move.deltas)


def sides(move: Move) -> tuple[PathTable, PathTable]:
    """The positive and the negated negative part of a move, as tables."""
    positive = PathTable(move.T, {p: d for p, d in move.deltas if d > 0})
    negative = PathTable(move.T, {p: -d for p, d in move.deltas if d < 0})
    return positive, negative


def both_sides_stat(move: Move):
    positive, negative = sides(move)
    return suff_stat(positive), suff_stat(negative)


class TestMoveValidation:
    # +121 -212 is the type II rotation at T=3; each case breaks one check.
    VALID = (((1, 2, 1), 1), ((2, 1, 2), -1))

    def test_valid_reference(self):
        assert Move(3, Family.TYPE2_DEG1, self.VALID).degree == 1

    @pytest.mark.parametrize("deltas, match", [
        ((), "zero move"),
        ((((1, 2, 1), 1), ((1, 2, 2), 0), ((2, 1, 2), -1)), "nonzero"),
        ((((2, 1, 2), -1), ((1, 2, 1), 1)), "sorted"),
        ((((1, 2, 1, 1), 1), ((2, 1, 2), -1)), "length"),
        ((((1, 2), 1), ((2, 1, 2), -1)), "length"),
        ((((1, 2, 3), 1), ((2, 1, 2), -1)), "1 or 2"),
        ((((1, 2, 1), 2), ((2, 1, 2), -1)), "unbalanced"),
        ((((1, 1, 1), 1), ((2, 2, 2), -1)), "transition statistic"),
        ((((1, 1, 2), 1), ((1, 2, 2), -1)), "transition statistic"),
    ])
    def test_rejects(self, deltas, match):
        with pytest.raises(ValueError, match=match):
            Move(3, Family.TYPE2_DEG1, deltas)


# The constructors check their family's conditions only; each of these
# passes them, so the state 3 reaches Move, the one check of path states.
@pytest.mark.parametrize("build", [
    lambda: type1_deg1((1, 2, 1, 3, 1), 1, 3, 5),
    lambda: crossing_swap((1, 1, 3), (2, 1, 2), 2),
    lambda: crossing_swap((1, 1, 2), (2, 1, 3), 2),
    lambda: two_by_two_swap(5, "A", 1, 3, suffix1=(3,), suffix2=(1,)),
    lambda: two_by_two_swap(5, "B", 1, 3, suffix1=(1,), suffix2=(3,)),
    lambda: type4_move(5, 1, 2, (), (3, 1), (1,), (2,)),
    lambda: type4_move(5, 1, 2, (), (2, 1), (3,), (2,)),
    lambda: type2_deg1((1, 2, 3, 1), 2),
])
def test_constructors_reject_state_3(build):
    with pytest.raises(ValueError, match="1 or 2, got 3"):
        build()


class TestType1:
    def test_reference_example(self):
        m = type1_deg1((1, 1, 2, 1), 1, 2, 4)
        assert as_dict(m) == {(1, 1, 2, 1): 1, (1, 2, 1, 1): -1}

    def test_example_statistic(self):
        m = type1_deg1((1, 1, 2, 1), 1, 2, 4)
        pos, neg = both_sides_stat(m)
        assert pos.as_tuple() == neg.as_tuple() == (1, 1, 1, 0)

    def test_flat_path_rejected(self):
        with pytest.raises(MoveError):
            type1_deg1((1, 1, 1, 1), 1, 2, 4)

    def test_zero_move_rejected(self):
        # the reordered segment reproduces the path itself
        with pytest.raises(MoveError):
            type1_deg1((1, 2, 1, 2, 1), 1, 3, 5)

    def test_graph_matches_reference_figure(self):
        g = move_graph(type1_deg1((1, 1, 2, 1), 1, 2, 4))
        assert g.steps == ((1, -1, 0, 0), (0, 1, -1, 0), (-1, 0, 1, 0))

    def test_preserves_initial(self):
        for m in enumerate_family(4, Family.TYPE1_DEG1):
            assert m.initial_shift == 0
            assert m.degree == 1


class TestCrossingSwap:
    def test_reference_example(self):
        m = crossing_swap((2, 1, 1, 2), (1, 1, 2, 2), 2)
        assert as_dict(m) == {
            (2, 1, 1, 2): 1,
            (1, 1, 2, 2): 1,
            (2, 1, 2, 2): -1,
            (1, 1, 1, 2): -1,
        }
        pos, neg = both_sides_stat(m)
        assert pos.as_tuple() == neg.as_tuple() == (2, 2, 1, 1)

    def test_graph_has_no_edges(self):
        m = crossing_swap((2, 1, 1, 2), (1, 1, 2, 2), 2)
        assert move_graph(m).is_empty()
        for m in enumerate_family(4, Family.CROSSING):
            assert move_graph(m).is_empty()

    def test_not_meeting(self):
        with pytest.raises(MoveError):
            crossing_swap((1, 2, 1), (2, 1, 2), 2)

    def test_identical_paths_give_zero_move(self):
        with pytest.raises(MoveError):
            crossing_swap((1, 2, 1), (1, 2, 1), 2)


class TestTwoByTwoSwap:
    def test_T4_example(self):
        m = two_by_two_swap(4, "A", 1, 3, (), (), (), (), (), ())
        assert as_dict(m) == {
            (1, 1, 1, 2): 1,
            (2, 2, 2, 1): 1,
            (1, 2, 2, 2): -1,
            (2, 1, 1, 1): -1,
        }
        pos, neg = both_sides_stat(m)
        assert pos.as_tuple() == neg.as_tuple() == (2, 1, 1, 2)

    def test_T3_example(self):
        m = two_by_two_swap(3, "A", 1, 2)
        assert as_dict(m) == {
            (1, 1, 2): 1,
            (2, 2, 1): 1,
            (1, 2, 2): -1,
            (2, 1, 1): -1,
        }
        pos, neg = both_sides_stat(m)
        assert pos.as_tuple() == neg.as_tuple() == (1, 1, 1, 1)

    def test_degree_always_two(self):
        for T in (3, 4, 5):
            for m in enumerate_family(T, Family.TWO_BY_TWO):
                assert m.degree == 2
                assert m.initial_shift == 0

    def test_graph_pattern(self):
        m = two_by_two_swap(4, "A", 1, 3, (), (), (), (), (), ())
        g = move_graph(m)
        assert g.steps[0] == (1, -1, -1, 1)
        assert g.steps[2] == (-1, 1, 1, -1)
        assert g.steps[1] == (0, 0, 0, 0)

    def test_pattern_b_overlap_conflict(self):
        with pytest.raises(MoveError):
            two_by_two_swap(4, "B", 1, 2, (), (), (2,), (), (), (1,))

    def test_matching_contexts_give_zero_move(self):
        with pytest.raises(MoveError):
            two_by_two_swap(4, "A", 1, 3, (1,), (), (), (1,), (), ())


class TestType4:
    def test_coincident_paths_example(self):
        m = type4_move(4, 1, 2, (), (2,), (1,), ())
        assert as_dict(m) == {
            (1, 1, 2, 2): 2,
            (1, 1, 1, 2): -1,
            (1, 2, 2, 2): -1,
        }
        pos, neg = both_sides_stat(m)
        assert pos.as_tuple() == neg.as_tuple() == (2, 2, 0, 2)

    def test_T5_disjoint_matches_reference_figure(self):
        m = type4_move(5, 1, 3, (), (2, 2), (2, 2), ())
        assert m.degree == 2
        g = move_graph(m)
        assert g.steps == (
            (1, -1, 0, 0),
            (0, 1, 0, -1),
            (-1, 1, 0, 0),
            (0, -1, 0, 1),
        )

    def test_preserves_initial(self):
        for m in enumerate_family(5, Family.TYPE4):
            assert m.initial_shift == 0
            assert m.degree <= 2

    def test_window_out_of_range(self):
        with pytest.raises(MoveError):
            type4_move(4, 1, 3, (), (2,), (2, 2), ())
        with pytest.raises(MoveError):
            type4_move(4, 2, 2, (1,), (), (1,), ())

    def test_needs_T_at_least_4(self):
        with pytest.raises(MoveError):
            type4_move(3, 1, 2, (), (), (), ())


class TestType2:
    def test_reference_example(self):
        m = type2_deg1((1, 2, 1, 1), 2)
        assert as_dict(m) == {(1, 2, 1, 1): 1, (2, 1, 1, 2): -1}

    def test_statistic_and_initial_shift(self):
        m = type2_deg1((1, 2, 1, 1), 2)
        pos, neg = both_sides_stat(m)
        assert pos.as_tuple() == neg.as_tuple() == (1, 1, 1, 0)
        assert m.initial_shift == 1
        positive, negative = sides(m)
        assert initial_freq(positive) == (1, 0)
        assert initial_freq(negative) == (0, 1)

    def test_flat_path_rejected(self):
        with pytest.raises(MoveError):
            type2_deg1((1, 1, 1, 1), 2)

    def test_open_path_rejected(self):
        with pytest.raises(MoveError):
            type2_deg1((1, 2, 1, 2), 2)


class TestDeg3Sliding:
    def test_reference_T3(self):
        m = deg3_sliding(3, 1, 1, 1)
        assert as_dict(m) == {
            (1, 1, 1): 1,
            (1, 2, 2): 2,
            (1, 1, 2): -2,
            (2, 2, 2): -1,
        }

    def test_T4_example(self):
        m = deg3_sliding(4, 1, 2, 2)
        assert as_dict(m) == {
            (1, 1, 1, 1): 1,
            (1, 2, 2, 2): 1,
            (1, 1, 2, 2): 1,
            (2, 2, 2, 2): -1,
            (1, 1, 1, 2): -2,
        }

    def test_T4_graph_matches_reference_figure(self):
        g = move_graph(deg3_sliding(4, 1, 2, 2))
        assert g.steps == ((0, 1, 0, -1), (-1, 1, 0, 0), (1, -2, 0, 1))

    def test_u_constraint_boundary(self):
        with pytest.raises(MoveError):
            deg3_sliding(4, 1, 2, 3)

    def test_statistic_closed_form(self):
        for T in (3, 4, 5, 6):
            for a in range(1, T):
                for b in range(a, T - a):
                    for u in range(b, T - a):
                        m = deg3_sliding(T, a, b, u)
                        pos, neg = both_sides_stat(m)
                        assert pos == neg
                        assert pos.as_tuple() == (
                            T + a + b - 3, 2, 0, 2 * (T - 1) - a - b
                        )
                        assert m.degree == 3
                        assert m.initial_shift == 1

    def test_time_reverse_graph(self):
        g = move_graph(deg3_sliding(4, 1, 2, 2, time_reverse=True))
        assert g.steps == ((1, 0, -2, 1), (-1, 0, 1, 0), (0, 0, 1, -1))


class TestMoveGraphTotals:
    def test_sums_to_zero(self):
        for fam in Family:
            for m in enumerate_family(4, fam):
                assert move_graph(m).total() == (0, 0, 0, 0)


class TestDegreesByFamily:
    def test_degree_bounds(self):
        bounds = {
            Family.TYPE1_DEG1: (1, 1),
            Family.CROSSING: (2, 2),
            Family.TWO_BY_TWO: (2, 2),
            Family.TYPE4: (1, 2),
            Family.TYPE2_DEG1: (1, 1),
            Family.DEG3_SLIDING: (3, 3),
        }
        for T in (3, 4, 5):
            for fam, (lo, hi) in bounds.items():
                for m in enumerate_family(T, fam):
                    assert lo <= m.degree <= hi, (T, fam, m)


class TestApply:
    def test_indispensable_pair(self):
        table = PathTable(3, {(1, 1, 1): 1, (1, 2, 2): 2})
        other = apply_move(table, deg3_sliding(3, 1, 1, 1), sign=-1)
        assert other == PathTable(3, {(1, 1, 2): 2, (2, 2, 2): 1})
        assert suff_stat(other) == suff_stat(table)

    def test_involution(self):
        table = PathTable(3, {(1, 1, 1): 1, (1, 2, 2): 2})
        m = deg3_sliding(3, 1, 1, 1)
        assert apply_move(apply_move(table, m, -1), m, +1) == table

    def test_negativity_violation(self):
        with pytest.raises(NegativityViolation) as err:
            apply_move(PathTable(3), deg3_sliding(3, 1, 1, 1), +1)
        assert err.value.path in {(1, 1, 2), (2, 2, 2)}

    def test_T_mismatch(self):
        with pytest.raises(ValueError):
            apply_move(PathTable(4), deg3_sliding(3, 1, 1, 1))


class TestEnumeration:
    def test_deg3_T3_is_base_plus_state_swap(self):
        moves = enumerate_family(3, Family.DEG3_SLIDING)
        assert len(moves) == 2
        keys = {frozenset(as_dict(m).items()) for m in moves}
        base = {(1, 1, 1): 1, (1, 2, 2): 2, (1, 1, 2): -2, (2, 2, 2): -1}
        # the state-swapped image, sign-normalized so the smallest path is positive
        swapped = {(1, 1, 1): 1, (2, 2, 1): 2, (2, 1, 1): -2, (2, 2, 2): -1}
        assert keys == {frozenset(base.items()), frozenset(swapped.items())}

    def test_every_enumerated_move_is_valid(self):
        for T in (3, 4, 5):
            for fam in Family:
                for m in enumerate_family(T, fam):
                    pos, neg = both_sides_stat(m)
                    assert pos == neg

    def test_type2_count_matches_direct_enumeration(self):
        # oracle: distinct rotations of non-flat cycles, deduplicated by the
        # unordered pair {path, rotation}
        T = 4
        pairs = set()
        for path in all_paths(T):
            if path[0] != path[-1]:
                continue
            for t in range(2, T):
                if path[t - 1] == path[0]:
                    continue
                rotated = path[t - 1 : T - 1] + path[:t]
                pairs.add(frozenset([path, rotated]))
        assert len(enumerate_family(T, Family.TYPE2_DEG1)) == len(pairs) == 4

    def test_no_type1_or_type4_at_T3(self):
        assert enumerate_family(3, Family.TYPE1_DEG1) == []
        assert enumerate_family(3, Family.TYPE4) == []

    def test_dedup_up_to_sign(self):
        for fam in Family:
            moves = enumerate_family(4, fam)
            keys = {m.canonical_items() for m in moves}
            assert len(keys) == len(moves)
            for m in moves:
                negated = Move(m.T, m.family, tuple((p, -d) for p, d in m.deltas))
                assert negated.canonical_items() in keys

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_family(7, Family.CROSSING)

    def test_swap_equivariance(self):
        # swapping all states in any move's paths gives a valid same-family move
        from thmc.core import encode

        for fam in Family:
            for m in enumerate_family(4, fam):
                swapped = sorted(
                    ((tuple(3 - s for s in p), d) for p, d in m.deltas),
                    key=lambda kv: encode(kv[0]),
                )
                rebuilt = Move(m.T, m.family, tuple(swapped))
                assert rebuilt.degree == m.degree


class RecordingRng:
    """A Generator stand-in that records the highs and rows of every
    ``integers`` call.

    ``random(size)`` returns ``u`` in every entry when one is given, so a
    test can pick the family slice the draws land in.
    """

    def __init__(self, seed: int, u: float | None = None) -> None:
        self.rng = np.random.default_rng(seed)
        self.u = u
        self.highs: list = []
        self.rows: list = []

    def random(self, size=None):
        if self.u is None:
            return self.rng.random(size)
        return np.full(size, self.u) if size is not None else self.u

    def integers(self, low, high, size=None):
        rows = self.rng.integers(low, high, size=size)
        self.highs.append(high)
        self.rows.append(rows)
        return rows


def drawn_families(sampler: ProposalSampler, rng: RecordingRng) -> list[Family]:
    """The family of each ``integers`` call, one call per family and block."""
    return [next(f for f in Family if sampler._highs[f] is h) for h in rng.highs]


class TestProposalSampler:
    def test_top_of_unit_interval_draws_last_family(self):
        # The default weights add up to 1 - 2**-53, the largest value
        # random() returns, so that draw lies on the last cumulative bound.
        sampler = ProposalSampler(4)
        assert np.cumsum(sampler.weights)[-1] == np.nextafter(1.0, 0.0)
        rng = RecordingRng(0, u=np.nextafter(1.0, 0.0))
        sampler.sample(rng)
        assert drawn_families(sampler, rng) == [Family.DEG3_SLIDING]

    @pytest.mark.parametrize("shortfall, u", [
        (0.0, float(np.nextafter(1.0, 0.0))),
        (5e-10, 1 - 1e-10),
    ])
    def test_zero_weight_last_family_never_drawn(self, shortfall, u):
        # Weights may sum to 1 - 1e-9; draws above the sum go to the last
        # family with positive weight, never to a zero-weight one.
        weights = [0.2, 0.2, 0.2, 0.2, 0.2 - shortfall, 0.0]
        sampler = ProposalSampler(4, weights)
        top = RecordingRng(0, u=u)
        sampler.sample(top)
        assert drawn_families(sampler, top) == [Family.TYPE2_DEG1]
        rng = RecordingRng(1)
        for _ in range(20_000):
            sampler.sample(rng)
        assert Family.DEG3_SLIDING not in drawn_families(sampler, rng)

    def test_block_draws_keep_the_per_draw_law(self):
        # Over 200k draws at T=4: each family's share of the rows, and the
        # share of null proposals, lie within 5 SD of the law of one draw at
        # a time, and the memo holds for each row drawn the move (or null)
        # a fresh sampler builds from it.
        T, draws = 4, 200_000
        sampler = ProposalSampler(T)
        rng = RecordingRng(14)
        nulls = sum(sampler.sample(rng) is None for _ in range(draws))
        fresh = ProposalSampler(T)
        null_law = 0.0
        by_family = dict.fromkeys(Family, 0)
        for fam, rows in zip(drawn_families(sampler, rng), rng.rows):
            by_family[fam] += len(rows)
            for row in rows.tolist():
                key = (fam, tuple(row[:-1]))
                assert sampler._cache[key] == fresh._try_build(fam, row)
        rows_drawn = -(-draws // moves._BLOCK) * moves._BLOCK
        assert sum(by_family.values()) == rows_drawn
        for fam, w in zip(Family, sampler.weights):
            space = list(itertools.product(*map(range, sampler._highs[fam][:-1])))
            null_share = sum(fresh._try_build(fam, d + (0,)) is None for d in space)
            null_law += w * null_share / len(space)
            sd = math.sqrt(w * (1 - w) / rows_drawn)
            assert abs(by_family[fam] / rows_drawn - w) < 5 * sd
        sd = math.sqrt(null_law * (1 - null_law) / draws)
        assert abs(nulls / draws - null_law) < 5 * sd

    def test_alternating_generators_is_deterministic(self):
        # A call with the other generator drops the rest of the block, so
        # the proposals depend only on the seeds and the order of calls.
        def run():
            sampler = ProposalSampler(4)
            rngs = np.random.default_rng(1), np.random.default_rng(2)
            order = [0, 1, 1, 0, 0, 0, 1] * 40
            return [sampler.sample(rngs[i]) for i in order]

        first, second = run(), run()
        assert first == second
        # The first call with the second generator starts from its seed.
        assert first[1] == ProposalSampler(4).sample(np.random.default_rng(2))
        assert sum(p is not None for p in first) > 20

    @pytest.mark.parametrize("T", [3, 4, 5, 6])
    def test_memoised_draws_match_fresh_builds(self, T):
        memo, fresh = ProposalSampler(T), ProposalSampler(T)
        # Without its memo a sampler builds every draw, as above the cap.
        fresh._cache = None
        rng_memo, rng_fresh = np.random.default_rng(T), np.random.default_rng(T)
        families = set()
        draws = 20_000
        for _ in range(draws):
            prop = memo.sample(rng_memo)
            assert prop == fresh.sample(rng_fresh)
            if prop is not None:
                families.add(prop[0].family)
        assert families == {f for f in Family if enumerate_family(T, f)}
        assert 0 < len(memo._cache) < draws

    @pytest.mark.parametrize("T", [7, 12])
    def test_no_memo_above_enumeration_cap(self, T):
        sampler = ProposalSampler(T)
        rng = np.random.default_rng(T)
        for _ in range(5_000):
            sampler.sample(rng)
        assert sampler._cache is None

    def test_sign_is_fair(self):
        rng = np.random.default_rng(1)
        sampler = ProposalSampler(4)
        signs = []
        for _ in range(100_000):
            prop = sampler.sample(rng)
            if prop is not None:
                signs.append(prop[1])
        frac = sum(1 for s in signs if s == 1) / len(signs)
        assert abs(frac - 0.5) < 0.01

    def test_validity_over_draws_T4(self):
        rng = np.random.default_rng(2)
        sampler = ProposalSampler(4)
        seen = 0
        for _ in range(100_000):
            prop = sampler.sample(rng)
            if prop is None:
                continue
            move, sign = prop
            assert sign in (1, -1)
            pos, neg = both_sides_stat(move)
            assert pos == neg
            seen += 1
        assert seen > 10_000

    def test_indispensable_move_is_reachable_at_T3(self):
        rng = np.random.default_rng(3)
        target = dict(deg3_sliding(3, 1, 1, 1).deltas)
        weights = {Family.DEG3_SLIDING: 1.0}
        sampler = ProposalSampler(3, weights)
        for k in range(100_000):
            prop = sampler.sample(rng)
            if prop is not None and as_dict(prop[0]) == target:
                return
        pytest.fail("indispensable sliding move never proposed in 1e5 draws")

    def test_symmetric_distribution_over_signed_moves(self):
        # q(z) = q(-z): for every unsigned move, +1 and -1 draws should balance
        rng = np.random.default_rng(4)
        sampler = ProposalSampler(3)
        tallies: dict = {}
        for _ in range(60_000):
            prop = sampler.sample(rng)
            if prop is None:
                continue
            move, sign = prop
            items = move.canonical_items()
            orientation = sign if items == move.deltas else -sign
            plus, minus = tallies.get(items, (0, 0))
            tallies[items] = (
                plus + (orientation == 1),
                minus + (orientation == -1),
            )
        for items, (plus, minus) in tallies.items():
            total = plus + minus
            if total < 200:
                continue
            assert abs(plus - minus) < 5 * np.sqrt(total)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ProposalSampler(4, {Family.TYPE1_DEG1: 0.5})
        with pytest.raises(ValueError):
            ProposalSampler(4, [1, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("weights", [
        {"type1": float("nan")},
        {"type1": float("nan"), "type2": 1.0},
        {"type1": float("inf")},
        [float("inf"), 0, 0, 0, 0, 0],
        [float("-inf"), 1, 0, 0, 0, 0],
    ])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            ProposalSampler(4, weights)

    @pytest.mark.parametrize("weights, bad", [
        ({"type1": 1.0, "typo": 3.0}, "'typo'"),
        ({"type1": 0.5, "TYPE2": 0.5}, "'TYPE2'"),
        ({Family.TYPE1_DEG1: 0.5, "deg3": 0.25, "x": 0.25}, "'deg3', 'x'"),
    ])
    def test_unknown_weight_keys_named(self, weights, bad):
        with pytest.raises(ValueError, match=bad):
            ProposalSampler(4, weights)

    def test_weight_keys_by_token_or_family(self):
        by_token = ProposalSampler(4, {"type1": 0.25, "deg3-sliding": 0.75})
        by_family = ProposalSampler(4, {Family.TYPE1_DEG1: 0.25,
                                        Family.DEG3_SLIDING: 0.75})
        assert by_token.weights == by_family.weights == (0.25, 0, 0, 0, 0, 0.75)

    def test_initial_shift_split_by_family(self):
        rng = np.random.default_rng(5)
        sampler = ProposalSampler(5)
        for _ in range(20_000):
            prop = sampler.sample(rng)
            if prop is None:
                continue
            move, _ = prop
            if move.family in (Family.TYPE2_DEG1, Family.DEG3_SLIDING):
                assert abs(move.initial_shift) == 1
            else:
                assert move.initial_shift == 0
