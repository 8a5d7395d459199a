import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
from thmc import _decode, moves
from thmc.core import all_paths, decode, encode


def as_dict(move: Move) -> dict:
    return dict(move.deltas)


def coded(move: Move) -> tuple:
    """A move's deltas with each path coded, as the sampler proposes them."""
    return tuple((encode(p), d) for p, d in move.deltas)


def sides(move: Move) -> tuple[PathTable, PathTable]:
    """The positive and the negated negative part of a move, as tables."""
    positive = PathTable(move.T, {p: d for p, d in move.deltas if d > 0})
    negative = PathTable(move.T, {p: -d for p, d in move.deltas if d < 0})
    return positive, negative


def both_sides_stat(move: Move):
    positive, negative = sides(move)
    return suff_stat(positive), suff_stat(negative)


def entries_stats(T: int, entries: tuple):
    """Statistics of the positive and negated negative parts of a proposal."""
    positive = PathTable(T, {decode(c, T): d for c, d in entries if d > 0})
    negative = PathTable(T, {decode(c, T): -d for c, d in entries if d < 0})
    return suff_stat(positive), suff_stat(negative)


def initial_shift(T: int, entries: tuple) -> int:
    """Change of the initial-state-1 count: the deltas of codes whose top
    bit, the state at time 1, is 0."""
    return sum(d for c, d in entries if c < 1 << (T - 1))


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
# passes them, so the state 3 reaches Move, which checks path states.
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

    @pytest.mark.parametrize("fam", list(Family))
    @pytest.mark.parametrize("T", [3, 4, 5, 6])
    def test_lists_the_moves_the_sampler_proposes(self, T, fam):
        # The sign +1 slots of the sampler's lookup table hold every move it
        # can draw; the enumeration lists each once, in the sign whose first
        # delta is positive, sorted.
        table = moves._lookup_table(T, fam)
        assert {p[1] for p in table[::2] if p is not None} <= {1}
        drawn = {p[0] for p in table[::2] if p is not None}
        canonical = {e if e[0][1] > 0 else tuple((c, -d) for c, d in e) for e in drawn}
        assert [coded(m) for m in enumerate_family(T, fam)] == sorted(canonical)

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
        # a time, and the lookup table holds for each row drawn the proposal
        # (or null) a fresh decoder gives for it.
        T, draws = 4, 200_000
        sampler = ProposalSampler(T)
        rng = RecordingRng(14)
        nulls = sum(sampler.sample(rng) is None for _ in range(draws))
        fresh = _decode.Decoder(T)
        null_law = 0.0
        by_family = dict.fromkeys(Family, 0)
        for fam, rows in zip(drawn_families(sampler, rng), rng.rows):
            by_family[fam] += len(rows)
            decoded = [None] * len(rows)
            index, entries = merged_entries(fresh, [(fam, rows)])
            for i, e in zip(index, entries):
                decoded[i] = (e, 1 - 2 * int(rows[i, -1]))
            table = sampler._tables[fam]
            assert [table[i] for i in (rows @ fresh.strides[fam]).tolist()] == decoded
        rows_drawn = -(-draws // moves._BLOCK) * moves._BLOCK
        assert sum(by_family.values()) == rows_drawn
        for fam, w in zip(Family, sampler.weights):
            table = sampler._tables[fam]
            null_law += w * sum(p is None for p in table) / len(table)
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
        tabled, fresh = ProposalSampler(T), ProposalSampler(T)
        # Without its lookup tables a sampler decodes every block, as above
        # the cap.
        fresh._tables = None
        rng_tabled, rng_fresh = RecordingRng(T), np.random.default_rng(T)
        for _ in range(20_000):
            assert tabled.sample(rng_tabled) == fresh.sample(rng_fresh)
        # Every family with moves at T gave a proposal.
        strides, tables = tabled._decoder.strides, tabled._tables
        families = {
            fam
            for fam, rows in zip(drawn_families(tabled, rng_tabled), rng_tabled.rows)
            if any(tables[fam][i] is not None for i in (rows @ strides[fam]).tolist())
        }
        assert families == {f for f in Family if enumerate_family(T, f)}
        # Each table covers its family's whole draw space, and is the table
        # _lookup_table builds.
        for fam, table in tabled._tables.items():
            assert len(table) == int(np.prod(tabled._highs[fam]))
            assert table == moves._lookup_table(T, fam)
        assert fresh._tables is None

    @pytest.mark.parametrize("T", [7, 12])
    def test_no_memo_above_enumeration_cap(self, T, monkeypatch):
        def no_table(T, family):
            raise AssertionError(f"lookup table built at T={T}")

        monkeypatch.setattr(moves, "_lookup_table", no_table)
        sampler = ProposalSampler(T)
        rng = np.random.default_rng(T)
        for _ in range(5_000):
            sampler.sample(rng)
        assert sampler._tables is None

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
            entries, sign = prop
            assert sign in (1, -1)
            pos, neg = entries_stats(4, entries)
            assert pos == neg
            seen += 1
        assert seen > 10_000

    def test_indispensable_move_is_reachable_at_T3(self):
        rng = np.random.default_rng(3)
        target = coded(deg3_sliding(3, 1, 1, 1))
        weights = {Family.DEG3_SLIDING: 1.0}
        sampler = ProposalSampler(3, weights)
        for k in range(100_000):
            prop = sampler.sample(rng)
            if prop is not None and prop[0] == target:
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
            entries, sign = prop
            if entries[0][1] > 0:
                items, orientation = entries, sign
            else:
                items, orientation = tuple((c, -d) for c, d in entries), -sign
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
        # A proposal names no family, so each family is drawn alone.
        rng = np.random.default_rng(5)
        for fam in Family:
            sampler = ProposalSampler(5, {fam: 1.0})
            shifts = set()
            for _ in range(4_000):
                prop = sampler.sample(rng)
                if prop is not None:
                    shifts.add(abs(initial_shift(5, prop[0])))
            if fam in (Family.TYPE2_DEG1, Family.DEG3_SLIDING):
                assert shifts == {1}
            else:
                assert shifts == {0}

    def test_path_codes_past_int64_rejected(self):
        with pytest.raises(ValueError, match="int64") as info:
            ProposalSampler(moves.MAX_SAMPLER_T + 1)
        assert "\n" not in str(info.value)
        sampler = ProposalSampler(moves.MAX_SAMPLER_T)
        rng = np.random.default_rng(0)
        props = [p for p in (sampler.sample(rng) for _ in range(256)) if p]
        for entries, _ in props:
            pos, neg = entries_stats(moves.MAX_SAMPLER_T, entries)
            assert pos == neg
        assert props


class ScalarOracle:
    """Decode one parameter draw with the public family constructors.

    The slot layout is the sampler's: fair bits are states (0 for state 1),
    times are offsets into their admissible ranges, and the sign slot comes
    last.  Returns the constructor's move, or None where it raises
    ``MoveError``.
    """

    def __init__(self, T: int) -> None:
        self.T = T
        self.triples = list(itertools.combinations(range(1, T + 1), 3))
        self.pairs = [(t0, t1) for t0 in range(1, T - 1) for t1 in range(t0 + 1, T)]

    @staticmethod
    def runs(bits, *lengths):
        out, pos = [], 0
        for n in lengths:
            out.append(tuple(b + 1 for b in bits[pos:pos + n]))
            pos += n
        return out

    def __call__(self, fam: Family, d: list) -> Move | None:
        T = self.T
        try:
            if fam is Family.TYPE1_DEG1:
                return type1_deg1(self.runs(d, T)[0], *self.triples[d[T]])
            if fam is Family.CROSSING:
                p1, p2 = self.runs(d, T, T)
                return crossing_swap(p1, p2, d[2 * T] + 1)
            if fam is Family.TWO_BY_TWO:
                t0, t1 = self.pairs[d[1]]
                mid = max(t1 - t0 - 2, 0)
                lengths = (t0 - 1, mid, T - t1 - 1)
                ctx = self.runs(d[2:-1], *lengths, *lengths)
                return two_by_two_swap(T, "AB"[d[0]], t0, t1, *ctx)
            if fam is Family.TYPE4:
                if T < 4:
                    return None
                t0, t1 = d[1] + 1, d[2] + 1
                ctx = self.runs(d[3:-1], t0 - 1, T - t0 - 2, t1 - 1, T - t1 - 2)
                return type4_move(T, t0, t1, *ctx, swap_states=bool(d[0]))
            if fam is Family.TYPE2_DEG1:
                return type2_deg1(self.runs(d, T)[0], d[T] + 2)
            return deg3_sliding(T, d[0] + 1, d[1] + 1, d[2] + 1,
                                state_swap=bool(d[3]), time_reverse=bool(d[4]))
        except MoveError:
            return None


def merged_entries(decoder, parts) -> tuple[list, list]:
    """The numbers of the rows of ``parts`` that give a move, and the
    ``(code, delta)`` entries of each, from the decoder's flat arrays."""
    index, codes, deltas, starts = decoder.merged(parts)
    pairs = list(zip(codes.tolist(), deltas.tolist()))
    bounds = starts.tolist() + [len(pairs)]
    return index.tolist(), [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])]


def decoded(decoder, fam: Family, draws: np.ndarray) -> list:
    """The decoder's entries for each row of ``draws``, None where null."""
    out = [None] * len(draws)
    index, entries = merged_entries(decoder, [(fam, draws)])
    for i, e in zip(index, entries):
        out[i] = e
    return out


def draw_space(highs: np.ndarray) -> np.ndarray:
    """Every draw of a family, sign slot 0."""
    space = list(itertools.product(*map(range, highs[:-1].tolist())))
    return np.array([d + (0,) for d in space], dtype=np.int64).reshape(len(space), -1)


class TestDecoder:
    """The array decoder against the scalar constructors, draw by draw."""

    @pytest.mark.parametrize("T", [3, 4, 5])
    def test_full_draw_spaces_match_the_constructors(self, T):
        decoder, oracle = _decode.Decoder(T), ScalarOracle(T)
        for fam in Family:
            draws = draw_space(decoder.highs[fam])
            want = [oracle(fam, d) for d in draws.tolist()]
            assert decoded(decoder, fam, draws) == [
                None if m is None else coded(m) for m in want
            ]
            # The lookup table holds the same entries with both signs.
            table = moves._lookup_table(T, fam)
            assert table[::2] == [None if m is None else (coded(m), 1) for m in want]
            assert table[1::2] == [None if m is None else (coded(m), -1) for m in want]

    @pytest.mark.parametrize("T", [6, 9, 12, 16, 24])
    def test_seeded_draws_match_the_constructors(self, T):
        decoder, oracle = _decode.Decoder(T), ScalarOracle(T)
        rng = np.random.default_rng(T)
        for fam in Family:
            highs = decoder.highs[fam]
            draws = rng.integers(0, highs, size=(20_000, len(highs)))
            got = decoded(decoder, fam, draws)
            for d, entries in zip(draws.tolist(), got):
                move = oracle(fam, d)
                assert entries == (None if move is None else coded(move)), (fam, d)
            assert any(got) or fam is Family.TYPE4 and T < 4

    @staticmethod
    def unmerged(codes, deltas):
        """A merge step that sorts each row and drops its zero padding, but
        leaves equal codes apart."""
        rows, width = codes.shape
        order = np.argsort(codes, axis=1)
        codes = np.take_along_axis(codes, order, axis=1).ravel()
        deltas = np.take_along_axis(deltas, order, axis=1).ravel()
        keep = deltas != 0
        return codes[keep], deltas[keep], np.repeat(np.arange(rows), width)[keep]

    @pytest.mark.parametrize("fam", [Family.CROSSING, Family.DEG3_SLIDING])
    def test_unmerged_rows_fail_the_check(self, monkeypatch, fam):
        # Two crossing paths that are equal give four equal codes; a sliding
        # move with a = b names one single-step path twice.
        monkeypatch.setattr(_decode, "merge", self.unmerged)
        decoder = _decode.Decoder(4)
        with pytest.raises(AssertionError, match="codes out of order"):
            merged_entries(decoder, [(fam, draw_space(decoder.highs[fam]))])

    #: Pattern A with (1,1) in place of (1,2) at t1: it breaks the statistic.
    CORRUPT_A = (((1, 1), (1, 1)), ((2, 2), (2, 1)))

    def test_corrupted_2x2_template_fails_the_check(self, monkeypatch):
        monkeypatch.setitem(moves._2X2_WINDOWS, "A", self.CORRUPT_A)
        decoder = _decode.Decoder(5)
        draws = draw_space(decoder.highs[Family.TWO_BY_TWO])
        with pytest.raises(AssertionError, match="transition statistic"):
            merged_entries(decoder, [(Family.TWO_BY_TWO, draws)])

    def test_the_check_holds_under_python_O(self):
        # The two faults above, in a child interpreter run with -O, which
        # strips assert statements: the check's raises remain.
        script = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from test_moves import (
                Family, TestDecoder, _decode, draw_space, merged_entries, moves
            )

            def decode(T, fam):
                decoder = _decode.Decoder(T)
                try:
                    merged_entries(decoder, [(fam, draw_space(decoder.highs[fam]))])
                except AssertionError as exc:
                    print(exc)

            print("optimize", sys.flags.optimize)
            merge, _decode.merge = _decode.merge, TestDecoder.unmerged
            decode(4, Family.CROSSING)
            _decode.merge = merge
            moves._2X2_WINDOWS["A"] = TestDecoder.CORRUPT_A
            decode(5, Family.TWO_BY_TWO)
        """)
        tests = Path(__file__).resolve().parent
        result = subprocess.run(
            [sys.executable, "-O", "-c", script, str(tests)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(tests.parent / "src")},
        )
        lines = result.stdout.splitlines()
        assert len(lines) == 3 and lines[0] == "optimize 1"
        assert "codes out of order" in lines[1]
        assert "transition statistic" in lines[2]
