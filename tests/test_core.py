import numpy as np
import pytest

from thmc import (
    PathTable,
    Variant,
    configuration,
    decode,
    encode,
    initial_freq,
    suff_stat,
    swap_states,
    transitions,
)
from thmc.core import all_paths, as_path, parse_path, path_str

from conftest import random_table

# The published family-sex table with M -> 1, F -> 2.
KLOTZ_ROWS = {
    "1111": 8, "1112": 14, "1121": 13, "1122": 19,
    "1211": 11, "1212": 9, "1221": 11, "1222": 13,
    "2111": 13, "2112": 11, "2121": 9, "2122": 9,
    "2211": 10, "2212": 8, "2221": 9, "2222": 10,
}


def naive_transitions(path):
    """Independent transition counter used as the oracle throughout."""
    out = [0, 0, 0, 0]
    for t in range(len(path) - 1):
        out[(path[t] - 1) * 2 + (path[t + 1] - 1)] += 1
    return tuple(out)


class TestPaths:
    def test_validation(self):
        assert as_path([1, 2, 1]) == (1, 2, 1)
        with pytest.raises(ValueError):
            as_path([1, 2])  # too short
        with pytest.raises(ValueError):
            as_path([1, 3, 1])
        with pytest.raises(ValueError):
            as_path([1, 2, 1], T=4)

    def test_parse_and_render(self):
        assert parse_path("1121") == (1, 1, 2, 1)
        assert path_str((1, 1, 2, 1)) == "1121"
        with pytest.raises(ValueError):
            parse_path("11x1")

    def test_encode_convention(self):
        assert encode((1, 1, 1, 1)) == 0
        assert encode((1, 2, 1)) == 2
        assert decode(2, 3) == (1, 2, 1)

    # Paths of one length are sorted as tuples wherever encoding order is
    # meant: move deltas, family listings and table items.
    @pytest.mark.parametrize("T", range(3, 11))
    def test_tuple_order_is_encoding_order(self, T):
        assert [encode(p) for p in sorted(all_paths(T))] == list(range(2**T))

    def test_encode_decode_roundtrip_T4(self):
        for idx, path in enumerate(all_paths(4)):
            assert encode(path) == idx
            assert decode(idx, 4) == path

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode(2 ** 4, 4)
        with pytest.raises(ValueError):
            decode(-1, 4)


class TestTransitions:
    def test_simple(self):
        assert transitions((1, 2, 2, 2)).as_tuple() == (0, 1, 0, 2)

    def test_flat(self):
        for T in (3, 5, 9):
            assert transitions((1,) * T).as_tuple() == (T - 1, 0, 0, 0)

    def test_equal_statistic_pair(self):
        assert transitions((1, 2, 1, 1)).as_tuple() == (1, 1, 1, 0)
        assert transitions((2, 1, 1, 2)).as_tuple() == (1, 1, 1, 0)

    def test_against_oracle(self, rng):
        for _ in range(200):
            T = int(rng.integers(3, 9))
            path = tuple(int(s) for s in rng.integers(1, 3, size=T))
            assert transitions(path).as_tuple() == naive_transitions(path)


class TestPathTable:
    def test_counts_and_n(self):
        t = PathTable(3, {(1, 1, 1): 1, (1, 2, 2): 2})
        assert t.n == 3
        assert t[(1, 2, 2)] == 2
        assert t[(2, 2, 2)] == 0
        assert len(t) == 2

    def test_zero_counts_dropped_negative_rejected(self):
        t = PathTable(3, {(1, 1, 1): 0, (1, 2, 2): 1})
        assert (1, 1, 1) not in t
        with pytest.raises(ValueError):
            PathTable(3, {(1, 1, 1): -1})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            PathTable(3, {(1, 1, 1, 1): 1})

    def test_equality_and_hash(self):
        a = PathTable(3, {(1, 1, 2): 2, (2, 2, 2): 1})
        b = PathTable(3, [((2, 2, 2), 1), ((1, 1, 2), 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PathTable(3, {(1, 1, 2): 2})

    def test_immutability(self):
        t = PathTable(3, {(1, 1, 1): 1})
        with pytest.raises(AttributeError):
            t.n = 5
        with pytest.raises(TypeError):
            t.counts[(2, 2, 2)] = 1

    def test_from_paths(self):
        t = PathTable.from_paths([(1, 2, 2), (1, 2, 2), (1, 1, 1)])
        assert t == PathTable(3, {(1, 2, 2): 2, (1, 1, 1): 1})


class TestSuffStat:
    def test_empty_table(self):
        assert suff_stat(PathTable(3)).as_tuple() == (0, 0, 0, 0)

    def test_klotz(self, klotz):
        # Oracle: direct summation over the sixteen published rows.
        expect = [0, 0, 0, 0]
        for text, count in KLOTZ_ROWS.items():
            path = parse_path(text)
            for k, v in enumerate(naive_transitions(path)):
                expect[k] += count * v
        assert tuple(expect) == (142, 136, 122, 131)
        assert suff_stat(klotz).as_tuple() == (142, 136, 122, 131)
        assert 142 + 136 + 122 + 131 == 3 * 177 == 3 * klotz.n

    def test_small_table(self):
        t = PathTable(3, {(1, 1, 1): 1, (1, 2, 2): 2})
        assert suff_stat(t).as_tuple() == (2, 2, 0, 2)

    def test_total_identity_random(self, rng):
        for _ in range(50):
            T = int(rng.integers(3, 7))
            t = random_table(rng, T, int(rng.integers(1, 30)))
            assert suff_stat(t).total() == (T - 1) * t.n


class TestInitialFreq:
    def test_klotz(self, klotz):
        m_initial = sum(c for text, c in KLOTZ_ROWS.items() if text[0] == "1")
        f_initial = sum(c for text, c in KLOTZ_ROWS.items() if text[0] == "2")
        assert (m_initial, f_initial) == (98, 79)
        assert initial_freq(klotz) == (98, 79)

    def test_concentrated(self):
        assert initial_freq(PathTable(3, {(1, 1, 1): 3})) == (3, 0)

    def test_swap_symmetry(self, rng):
        for _ in range(25):
            t = random_table(rng, 4, int(rng.integers(1, 20)))
            i1, i2 = initial_freq(t)
            assert initial_freq(swap_states(t)) == (i2, i1)


class TestStateSwapEquivariance:
    def test_suff_stat(self, rng):
        for _ in range(25):
            t = random_table(rng, 5, int(rng.integers(1, 20)))
            b = suff_stat(t)
            assert suff_stat(swap_states(t)) == b.swapped()
            assert b.swapped().as_tuple() == (b.b22, b.b21, b.b12, b.b11)


class TestFinalFrequencyIdentity:
    def test_b21_minus_b12(self, rng):
        # paths entering state 1 minus paths leaving it: b21 - b12 = x^T_1 - x^1_1
        for _ in range(50):
            T = int(rng.integers(3, 7))
            t = random_table(rng, T, int(rng.integers(1, 25)))
            b = suff_stat(t)
            x1_first = sum(c for p, c in t.items() if p[0] == 1)
            x1_last = sum(c for p, c in t.items() if p[-1] == 1)
            assert b.b21 - b.b12 == x1_last - x1_first


class TestConfiguration:
    def test_column_for_121(self):
        col = configuration(3, Variant.WITHOUT_INITIAL)[:, encode((1, 2, 1))]
        assert tuple(col) == (0, 1, 1, 0)

    def test_ranks_T3(self):
        a0 = configuration(3, Variant.WITHOUT_INITIAL)
        a1 = configuration(3, Variant.WITH_INITIAL)
        assert a0.shape == (4, 8) and a1.shape == (6, 8)
        assert np.linalg.matrix_rank(a0) == 4
        assert np.linalg.matrix_rank(a1) == 5

    def test_column_sums(self):
        for T in (3, 4, 5):
            config = configuration(T, Variant.WITH_INITIAL)
            assert (config[:4].sum(axis=0) == T - 1).all()
            assert (config[4:].sum(axis=0) == 1).all()

    def test_matches_suff_stat(self, rng):
        for T in (3, 4, 5):
            config = configuration(T, Variant.WITHOUT_INITIAL)
            for _ in range(10):
                t = random_table(rng, T, int(rng.integers(1, 20)))
                dense = np.zeros(1 << T, dtype=np.int64)
                for path, count in t.items():
                    dense[encode(path)] = count
                assert tuple(config @ dense) == suff_stat(t).as_tuple()

    def test_rejects_small_T(self):
        with pytest.raises(ValueError):
            configuration(2, Variant.WITHOUT_INITIAL)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("T", range(3, 11))
    def test_matches_per_path_loop(self, T, variant):
        rows = 6 if variant is Variant.WITH_INITIAL else 4
        expected = np.zeros((rows, 1 << T), dtype=np.int64)
        for j, path in enumerate(all_paths(T)):
            for a, c in zip(path, path[1:]):
                expected[(a - 1) * 2 + (c - 1), j] += 1
            if variant is Variant.WITH_INITIAL:
                expected[4 + path[0] - 1, j] = 1
        config = configuration(T, variant)
        assert config.dtype == np.int64
        assert not config.flags.writeable
        assert np.array_equal(config, expected)
