import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
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
from thmc.core import MIN_T, all_paths, decode, encode


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


def negated(entries: tuple) -> tuple:
    """The proposal of the opposite sign: each delta negated."""
    return tuple((c, -d) for c, d in entries)


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
        # can draw, and the sign -1 slots their negations; the enumeration
        # lists each once, in the sign whose first delta is positive, sorted.
        table = moves._lookup_table(T, fam)
        assert table[1::2].tolist() == [None if e is None else negated(e) for e in table[::2]]
        drawn = {e for e in table[::2] if e is not None}
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


class RecordingRng(random.Random):
    """A ``random.Random`` whose block draws are recorded: the highs and
    rows of every :func:`thmc._decode.bounded` call made with it, while
    ``TestProposalSampler``'s fixture wraps the draw helpers.

    With ``u``, :func:`thmc._decode.uniforms` returns ``u`` in every entry,
    so a test can pick the family slice the draws land in.
    """

    def __init__(self, seed: int, u: float | None = None) -> None:
        super().__init__(seed)
        self.u = u
        self.highs: list = []
        self.rows: list = []


def drawn_families(sampler: ProposalSampler, rng: RecordingRng) -> list[Family]:
    """The family of each ``bounded`` call, one call per family and block."""
    return [next(f for f in Family if sampler._highs[f] is h) for h in rng.highs]


class TestProposalSampler:
    @pytest.fixture(autouse=True)
    def record_draws(self, monkeypatch):
        """Wrap the sampler's draw helpers so a ``RecordingRng`` records
        its draws and may fix its uniforms."""
        bounded, uniforms = _decode.bounded, _decode.uniforms

        def recorded(rng, highs, m):
            rows = bounded(rng, highs, m)
            if isinstance(rng, RecordingRng):
                rng.highs.append(highs)
                rng.rows.append(rows)
            return rows

        def fixed(rng, n):
            if isinstance(rng, RecordingRng) and rng.u is not None:
                return np.full(n, rng.u)
            return uniforms(rng, n)

        monkeypatch.setattr(_decode, "bounded", recorded)
        monkeypatch.setattr(_decode, "uniforms", fixed)

    def test_top_of_unit_interval_draws_last_family(self):
        # The default weights add up to 1 - 2**-53, the largest value
        # uniforms() returns, so that draw lies on the last cumulative bound.
        rng = RecordingRng(0, u=np.nextafter(1.0, 0.0))
        sampler = ProposalSampler(4, rng)
        assert np.cumsum(sampler.weights)[-1] == np.nextafter(1.0, 0.0)
        sampler.sample()
        assert drawn_families(sampler, rng) == [Family.DEG3_SLIDING]

    @pytest.mark.parametrize("shortfall, u", [
        (0.0, float(np.nextafter(1.0, 0.0))),
        (5e-10, 1 - 1e-10),
    ])
    def test_zero_weight_last_family_never_drawn(self, shortfall, u):
        # Weights divided by their sum may add up to a hair off 1; draws
        # above the sum go to the last family with positive weight, never
        # to a zero-weight one.
        weights = dict(zip(Family, [0.2, 0.2, 0.2, 0.2, 0.2 - shortfall, 0.0]))
        top = RecordingRng(0, u=u)
        sampler = ProposalSampler(4, top, weights)
        sampler.sample()
        assert drawn_families(sampler, top) == [Family.TYPE2_DEG1]
        rng = RecordingRng(1)
        sampler = ProposalSampler(4, rng, weights)
        for _ in range(20_000):
            sampler.sample()
        assert Family.DEG3_SLIDING not in drawn_families(sampler, rng)

    def test_block_draws_keep_the_per_draw_law(self):
        # Over 200k draws at T=4: each family's share of the rows, and the
        # share of null proposals, lie within 5 SD of the law of one draw at
        # a time, and the lookup table holds for each row drawn the proposal
        # (or null) a fresh decoder gives for it.
        T, draws = 4, 200_000
        rng = RecordingRng(14)
        sampler = ProposalSampler(T, rng)
        nulls = sum(sampler.sample() is None for _ in range(draws))
        fresh = _decode.Decoder(T)
        null_law = 0.0
        by_family = dict.fromkeys(Family, 0)
        for fam, rows in zip(drawn_families(sampler, rng), rng.rows):
            by_family[fam] += len(rows)
            decoded = [None] * len(rows)
            index, entries = merged_entries(fresh, [(fam, rows)])
            for i, e in zip(index, entries):
                decoded[i] = e
            table = moves._lookup_table(T, fam)
            assert [table[i] for i in (rows @ fresh.strides[fam]).tolist()] == decoded
        rows_drawn = -(-draws // moves._BLOCK) * moves._BLOCK
        assert sum(by_family.values()) == rows_drawn
        for fam, w in zip(Family, sampler.weights):
            table = moves._lookup_table(T, fam)
            null_law += w * sum(p is None for p in table) / len(table)
            sd = math.sqrt(w * (1 - w) / rows_drawn)
            assert abs(by_family[fam] / rows_drawn - w) < 5 * sd
        sd = math.sqrt(null_law * (1 - null_law) / draws)
        assert abs(nulls / draws - null_law) < 5 * sd

    def test_alternating_samplers_keep_their_own_streams(self):
        # A sampler draws from its own generator alone, so two samplers
        # called alternately, past the end of a block, hand out exactly
        # the proposals each hands out on its own.
        samplers = [ProposalSampler(4, random.Random(seed)) for seed in (1, 2)]
        handed: list[list] = [[], []]
        for i in [0, 1, 1, 0, 0, 0, 1] * 700:
            handed[i].append(samplers[i].sample())
        for seed, got in zip((1, 2), handed):
            alone = ProposalSampler(4, random.Random(seed))
            assert got == [alone.sample() for _ in got]
        assert min(len(got) for got in handed) > moves._BLOCK
        assert handed[0][:100] != handed[1][:100]
        assert sum(p is not None for p in handed[0]) > 20

    @pytest.mark.parametrize("T", [3, 4, 5, 6])
    def test_memoised_draws_match_fresh_builds(self, T, monkeypatch):
        rng_tabled = RecordingRng(T)
        tabled = ProposalSampler(T, rng_tabled)
        drawn = [tabled.sample() for _ in range(20_000)]
        # With the cap below T a sampler decodes every block, as above the
        # cap, and never reads the lookup tables.
        with monkeypatch.context() as patch:
            patch.setattr(moves, "ENUMERATION_T_CAP", MIN_T - 1)
            fresh = ProposalSampler(T, random.Random(T))
            assert [fresh.sample() for _ in range(20_000)] == drawn
            assert len(fresh._block) == 4
        # Every family with moves at T gave a proposal.
        strides = tabled._decoder.strides
        families = {
            fam
            for fam, rows in zip(drawn_families(tabled, rng_tabled), rng_tabled.rows)
            if any(moves._lookup_table(T, fam)[i] is not None
                   for i in (rows @ strides[fam]).tolist())
        }
        assert families == {f for f in Family if enumerate_family(T, f)}
        # Each table covers its family's whole draw space, and is the table
        # a fresh build of _lookup_table gives.
        for fam in Family:
            table = moves._lookup_table(T, fam)
            assert len(table) == int(np.prod(tabled._highs[fam]))
            assert table.tolist() == moves._lookup_table.__wrapped__(T, fam).tolist()
        # A block lists the slots of its draws that give a move and the
        # table's own proposals for them, gathered by flat draw index, so
        # draws of one move share one tuple.  Every draw of a block with
        # u = 0.25 is a crossing draw.
        rng = RecordingRng(T, u=0.25)
        sampler = ProposalSampler(T, rng)
        (slots, drawn), _, _ = sampler.span(moves._BLOCK)
        table = moves._lookup_table(T, Family.CROSSING)
        flat = (rng.rows[0] @ sampler._decoder.strides[Family.CROSSING]).tolist()
        assert len(flat) == moves._BLOCK
        assert slots.tolist() == [i for i, f in enumerate(flat) if table[f] is not None]
        assert all(p is table[flat[i]] for i, p in zip(slots, drawn))
        assert len({id(p) for p in drawn}) < len(drawn)

    @pytest.mark.parametrize("T", [7, 12])
    def test_no_memo_above_enumeration_cap(self, T, monkeypatch):
        def no_table(T, family):
            raise AssertionError(f"lookup table built at T={T}")

        monkeypatch.setattr(moves, "_lookup_table", no_table)
        sampler = ProposalSampler(T, random.Random(T))
        for _ in range(5_000):
            sampler.sample()
        assert len(sampler._block) == 4

    def test_sign_is_fair(self):
        # With a fair sign, q(z) = q(-z), and one of z and -z has a positive
        # first delta: half the proposals do.
        sampler = ProposalSampler(4, random.Random(1))
        signs = []
        for _ in range(100_000):
            prop = sampler.sample()
            if prop is not None:
                signs.append(1 if prop[0][1] > 0 else -1)
        frac = sum(1 for s in signs if s == 1) / len(signs)
        assert abs(frac - 0.5) < 0.01

    def test_validity_over_draws_T4(self):
        sampler = ProposalSampler(4, random.Random(2))
        seen = 0
        for _ in range(100_000):
            prop = sampler.sample()
            if prop is None:
                continue
            entries = prop
            assert all(d != 0 for _, d in entries)
            pos, neg = entries_stats(4, entries)
            assert pos == neg
            seen += 1
        assert seen > 10_000

    def test_indispensable_move_is_reachable_at_T3(self):
        target = coded(deg3_sliding(3, 1, 1, 1))
        weights = {Family.DEG3_SLIDING: 1.0}
        sampler = ProposalSampler(3, random.Random(3), weights)
        for k in range(100_000):
            prop = sampler.sample()
            if prop in (target, negated(target)):
                return
        pytest.fail("indispensable sliding move never proposed in 1e5 draws")

    def test_symmetric_distribution_over_signed_moves(self):
        # q(z) = q(-z): for every unsigned move, +1 and -1 draws should balance
        sampler = ProposalSampler(3, random.Random(4))
        tallies: dict = {}
        for _ in range(60_000):
            prop = sampler.sample()
            if prop is None:
                continue
            if prop[0][1] > 0:
                items, orientation = prop, 1
            else:
                items, orientation = negated(prop), -1
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
        # Each weight is divided by the sum: weights that add up to 0.5
        # give the weights of their double.
        rng = random.Random(0)
        half = ProposalSampler(4, rng, {Family.TYPE1_DEG1: 0.125, Family.TYPE4: 0.375})
        whole = ProposalSampler(4, rng, {Family.TYPE1_DEG1: 0.25, Family.TYPE4: 0.75})
        assert half.weights == whole.weights == (0.25, 0, 0, 0.75, 0, 0)
        with pytest.raises(TypeError, match="mapping"):
            ProposalSampler(4, rng, [1, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("weights", [
        {"type1": float("nan")},
        {"type1": float("nan"), "type2": 1.0},
        {"type1": float("inf")},
        dict(zip(Family, [float("inf"), 0, 0, 0, 0, 0])),
        dict(zip(Family, [float("-inf"), 1, 0, 0, 0, 0])),
    ])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            ProposalSampler(4, random.Random(0), weights)

    # The first unknown key is named, as ``thmc test --weights`` names it.
    @pytest.mark.parametrize("weights, bad", [
        ({"type1": 1.0, "typo": 3.0}, "'typo'"),
        ({"type1": 0.5, "TYPE2": 0.5}, "'TYPE2'"),
        ({Family.TYPE1_DEG1: 0.5, "deg3": 0.25, "x": 0.25}, "'deg3'"),
    ])
    def test_unknown_weight_keys_named(self, weights, bad):
        with pytest.raises(ValueError, match=f"^unknown family {bad}; expected one of") as info:
            ProposalSampler(4, random.Random(0), weights)
        assert "'x'" not in str(info.value)

    def test_weight_keys_by_token_or_family(self):
        rng = random.Random(0)
        by_token = ProposalSampler(4, rng, {"type1": 0.25, "deg3-sliding": 0.75})
        by_family = ProposalSampler(4, rng, {Family.TYPE1_DEG1: 0.25,
                                             Family.DEG3_SLIDING: 0.75})
        assert by_token.weights == by_family.weights == (0.25, 0, 0, 0, 0, 0.75)

    def test_initial_shift_split_by_family(self):
        # A proposal names no family, so each family is drawn alone.
        rng = random.Random(5)
        for fam in Family:
            sampler = ProposalSampler(5, rng, {fam: 1.0})
            shifts = set()
            for _ in range(4_000):
                prop = sampler.sample()
                if prop is not None:
                    shifts.add(abs(initial_shift(5, prop)))
            if fam in (Family.TYPE2_DEG1, Family.DEG3_SLIDING):
                assert shifts == {1}
            else:
                assert shifts == {0}

    def test_path_codes_past_int64_rejected(self):
        with pytest.raises(ValueError, match="int64") as info:
            ProposalSampler(moves.MAX_SAMPLER_T + 1, random.Random(0))
        assert "\n" not in str(info.value)
        rng = RecordingRng(0)
        sampler = ProposalSampler(moves.MAX_SAMPLER_T, rng)
        props = [p for p in (sampler.sample() for _ in range(256)) if p]
        for entries in props:
            pos, neg = entries_stats(moves.MAX_SAMPLER_T, entries)
            assert pos == neg
        assert props
        # Whole paths are codes up to 2**62, so the block takes 64-bit
        # words: a 32-bit word could give no path code past 2**32.
        for highs, rows in zip(rng.highs, rng.rows):
            assert rows.dtype == np.int64 and ((rows >= 0) & (rows < highs)).all()
        crossing = drawn_families(sampler, rng).index(Family.CROSSING)
        assert rng.rows[crossing][:, :2].max() >= 1 << 32
        _, codes, _, _ = sampler._block
        assert ((codes >= 0) & (codes < 1 << moves.MAX_SAMPLER_T)).all()


class FairBitOracle:
    """Decode one parameter draw with the public family constructors, in
    the slot layout the sampler used before whole paths were drawn as one
    code: every path and context state is a fair bit (0 for state 1), times
    are offsets into their admissible ranges, and the sign slot comes last.
    Returns the constructor's move, or None where it raises ``MoveError``.
    """

    def __init__(self, T: int) -> None:
        self.T = T
        self.triples = list(itertools.combinations(range(1, T + 1), 3))
        self.pairs = [(t0, t1) for t0 in range(1, T - 1) for t1 in range(t0 + 1, T)]

    def highs(self, fam: Family) -> np.ndarray:
        """The number of values of each slot of a draw, sign slot last."""
        T, ctx = self.T, [2] * (2 * (self.T - 3))
        return np.array({
            Family.TYPE1_DEG1: [2] * T + [len(self.triples)],
            Family.CROSSING: [2] * (2 * T) + [T],
            Family.TWO_BY_TWO: [2, len(self.pairs)] + ctx,
            Family.TYPE4: [2, T - 2, T - 2] + ctx if T >= 4 else [],
            Family.TYPE2_DEG1: [2] * T + [T - 2],
            Family.DEG3_SLIDING: [T - 1, T - 1, T - 1, 2, 2],
        }[fam] + [2])

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


class ScalarOracle(FairBitOracle):
    """Decode one parameter draw in the sampler's slot layout with the
    public family constructors.

    The layout is the fair-bit one, except that a whole path of a type I,
    crossing or type II draw, and each context of a type IV draw, is one
    slot holding the code of its states, time 1 as the top bit.  The
    oracle spreads each such code into its fair bits and decodes the draw
    as :class:`FairBitOracle` does.
    """

    def __call__(self, fam: Family, d: list) -> Move | None:
        T = self.T
        lengths = {
            Family.TYPE1_DEG1: {0: T},
            Family.CROSSING: {0: T, 1: T},
            Family.TYPE4: {3: T - 3, 4: T - 3},
            Family.TYPE2_DEG1: {0: T},
        }.get(fam, {})
        bits = []
        for i, v in enumerate(d):
            n = lengths.get(i)
            bits.extend([v] if n is None else [(v >> (n - 1 - j)) & 1 for j in range(n)])
        return super().__call__(fam, bits)


def merged_entries(decoder, parts) -> tuple[list, list]:
    """The numbers of the rows of ``parts`` that give a move, and the
    ``(code, delta)`` entries of each, from the decoder's flat arrays."""
    index, codes, deltas, starts = decoder.merged(parts)
    pairs = list(zip(codes.tolist(), deltas.tolist()))
    bounds = starts.tolist() + [len(pairs)]
    return index.tolist(), [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])]


def decoded(decoder, fam: Family, draws: np.ndarray) -> list:
    """The decoder's entries for each row of ``draws``, signed by its sign
    slot, None where null."""
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
            assert table[::2].tolist() == [None if m is None else coded(m) for m in want]
            assert table[1::2].tolist() == [None if m is None else negated(coded(m)) for m in want]

    @pytest.mark.parametrize("T", [*range(3, 13), moves.MAX_SAMPLER_T])
    def test_2x2_tables_match_a_loop_over_time_pairs(self, T):
        # The decoder builds its 2x2 tables with array operations; this loop
        # builds them one time pair, pattern and side at a time, in Python
        # ints, which cannot wrap at the longest path the sampler takes.
        pairs = [(t0, t1) for t0 in range(1, T - 1) for t1 in range(t0 + 1, T)]
        weights = np.zeros((len(pairs), 2 * (T - 3), 2), dtype=np.int64)
        exchanged = np.zeros(len(pairs), dtype=np.int64)
        forced = np.zeros((2, len(pairs), 2), dtype=np.int64)
        fits = np.ones((2, len(pairs)), dtype=bool)
        for q, (t0, t1) in enumerate(pairs):
            free = [t for t in range(1, T + 1) if t not in (t0, t0 + 1, t1, t1 + 1)]
            for side in range(2):
                for j, t in enumerate(free):
                    weights[q, side * len(free) + j, side] = 1 << (T - t)
            exchanged[q] = ((1 << (t1 - t0)) - 1) << (T - t1)
            for p, pattern in enumerate("AB"):
                for side, (w0, w1) in enumerate(moves._2X2_WINDOWS[pattern]):
                    states = {t0: w0[0], t0 + 1: w0[1], t1 + 1: w1[1]}
                    if t1 > t0 + 1:
                        states[t1] = w1[0]
                    elif w0[1] != w1[0]:
                        fits[p, q] = False
                    forced[p, q, side] = sum((s - 1) << (T - t) for t, s in states.items())
        decoder = _decode.Decoder(T)
        for got, want in [(decoder.weights, weights), (decoder.exchanged, exchanged),
                          (decoder.forced, forced), (decoder.fits, fits)]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all()

    @pytest.mark.parametrize("T", [3, 4, 5])
    def test_law_matches_the_fair_bit_layout(self, T):
        # Each signed proposal (or null) is drawn from as many draws of the
        # sampler's layout as of the fair-bit one: a code uniform in
        # [0, 2**L) is L fair bits.  The fair-bit counts come from the
        # constructors; the sampler's from the decoder and the lookup table.
        decoder, oracle = _decode.Decoder(T), FairBitOracle(T)
        for fam in Family:
            old = Counter()
            for d in draw_space(oracle.highs(fam)).tolist():
                move = oracle(fam, d)
                for e in [None] * 2 if move is None else [coded(move), negated(coded(move))]:
                    old[e] += 1
            new = Counter()
            for entries in decoded(decoder, fam, draw_space(decoder.highs[fam])):
                for e in [None] * 2 if entries is None else [entries, negated(entries)]:
                    new[e] += 1
            assert new == old
            assert Counter(moves._lookup_table(T, fam).tolist()) == old

    # q(z) = q(-z) exactly: over the whole draw space, sign slot included,
    # each signed move is proposed by as many draws as its negation, in
    # both block forms, the lookup tables' and the decoded arrays' (as
    # above the cap), which propose the same moves.
    @pytest.mark.parametrize("T", [3, 4, 5])
    def test_each_signed_move_as_often_as_its_negation(self, monkeypatch, T):
        for fam in Family:
            plus = draw_space(_decode.Decoder(T).highs[fam])
            minus = plus.copy()
            minus[:, -1] = 1
            space = np.vstack([plus, minus])
            monkeypatch.setattr(moves, "_BLOCK", len(space))
            monkeypatch.setattr(_decode, "bounded", lambda rng, highs, m: space)
            sampler = ProposalSampler(T, random.Random(0), {fam: 1.0})
            forms = []
            for cap in (T, MIN_T - 1):
                # With the cap below T the sampler decodes its block.
                with monkeypatch.context() as patch:
                    patch.setattr(moves, "ENUMERATION_T_CAP", cap)
                    block, _, _ = sampler.span(len(space))
                drawn = Counter(block[1] if len(block) == 2 else moves.proposals(*block[1:]))
                assert all(drawn[negated(e)] == n for e, n in drawn.items())
                forms.append(drawn)
            assert forms[0] == forms[1]
            assert set(forms[0]) == {
                e for m in enumerate_family(T, fam) for e in (coded(m), negated(coded(m)))
            }

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
                want = None if move is None else coded(move)
                # A draw whose sign slot is 1 gives the negated move.
                if want and d[-1]:
                    want = negated(want)
                assert entries == want, (fam, d)
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


class WordStream:
    """A ``random.Random`` stand-in whose ``randbytes`` hands out the given
    words, one list per call, as little-endian words of ``size`` bytes; it
    records the number of bytes each call asks for."""

    def __init__(self, *calls, size: int = 4) -> None:
        self.calls = list(calls)
        self.size = size
        self.asked: list[int] = []

    def randbytes(self, n: int) -> bytes:
        self.asked.append(n)
        words = self.calls.pop(0)
        assert n == self.size * len(words)
        return np.array(words, dtype=f"<u{self.size}").tobytes()


class TestDraws:
    """The sampler's draw helpers, on crafted and on every word."""

    def test_uniforms_are_the_top_53_bits(self):
        words = WordStream([0, 1 << 11, 2**64 - 1, 3 << 62], size=8)
        got = _decode.uniforms(words, 4)
        assert got.tolist() == [0.0, 2.0**-53, 1 - 2.0**-53, 0.75]
        assert words.asked == [32]

    def test_rejected_cells_are_drawn_again_in_place(self):
        # Highs 3, 2 and 5 mask the words to 2, 1 and 3 bits.  Round one
        # leaves cell (0, 0) at 3 and cell (1, 2) at 7; round two draws
        # both again, in row-major order, and keeps (1, 2) out of range;
        # round three draws (1, 2) alone.  No other cell moves.
        highs = np.array([3, 2, 5])
        words = WordStream(
            [0xFFFF_FFFF, 0xFFFF_FFFE, 0x0000_0104, 0x0000_0002, 0x0000_0001, 0xFFFF_FFFF],
            [0x0000_0005, 0x0000_000E],
            [0x0000_00F9],
        )
        cells = _decode.bounded(words, highs, 2)
        assert cells.dtype == np.int64
        assert cells.tolist() == [[1, 0, 4], [2, 1, 1]]
        assert words.asked == [24, 8, 4] and not words.calls

    def test_no_redraw_when_every_cell_fits(self):
        highs = np.array([4, 2, 1])
        words = WordStream([7, 3, 9, 4, 2, 8])
        assert _decode.bounded(words, highs, 2).tolist() == [[3, 1, 0], [0, 0, 0]]
        assert words.asked == [24]

    @pytest.mark.parametrize("high", [math.comb(7, 3), 7 - 2, 2, 1, 8])
    def test_every_pair_of_words_gives_an_exactly_uniform_law(self, high):
        # Every pair (w1, w2) of words one bit wider than the mask: w1 is
        # the cell's first word, w2 the word it takes if w1 is out of
        # range.  Among the pairs that end within these two rounds each
        # value below the high comes up equally often, so the law of the
        # cell is exactly uniform; a third word (0) ends the rest.
        span = 2 << max(high - 1, 0).bit_length()
        first, second = np.divmod(np.arange(span * span), span)
        mask = span // 2 - 1
        again = (first & mask) >= high
        rest = (second[again] & mask) >= high
        calls = [first, second[again], np.zeros(rest.sum(), dtype=np.int64)]
        words = WordStream(*(c.tolist() for c in calls if len(c)))
        cells = _decode.bounded(words, np.array([high]), span * span)[:, 0]
        assert not words.calls
        ended = np.ones(len(cells), dtype=bool)
        ended[np.flatnonzero(again)[rest]] = False
        counts = Counter(cells[ended].tolist())
        assert sorted(counts) == list(range(high))
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("T, size", [(32, 4), (33, 8), (moves.MAX_SAMPLER_T, 8)])
    def test_word_width_follows_the_largest_high(self, T, size):
        # Up to highs of 2**32 the words are 32-bit, past them 64-bit; at
        # MAX_SAMPLER_T the top words give path codes of 2**62 - 1.
        highs = _decode.Decoder(T).highs[Family.CROSSING]
        top = (1 << 8 * size) - 1
        words = WordStream([top, top, 1, 0], size=size)
        cells = _decode.bounded(words, highs, 1)
        assert cells.tolist() == [[(1 << T) - 1, (1 << T) - 1, 1, 0]]
        assert words.asked == [4 * size]
