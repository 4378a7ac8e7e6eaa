"""Multi-index enumeration and shift maps."""

import numpy as np
import pytest

from momentmg import OrderTable, moment_count


def test_moment_count_reference_values():
    assert moment_count(10) == 286
    assert moment_count(26) == 3654
    assert moment_count(0) == 1
    assert moment_count(1) == 4


def test_moment_count_rejects_negative():
    with pytest.raises(ValueError):
        moment_count(-1)


def test_rank_of_origin():
    assert OrderTable(5).rank((0, 0, 0)) == 0


def test_rank_unrank_roundtrip_exhaustive():
    # all 56 indices of order 5
    assert moment_count(5) == 56
    t = OrderTable(5)
    for r in range(56):
        assert t.rank(t.unrank(r)) == r


def test_enumeration_is_graded_prefix():
    t5, t3 = OrderTable(5), OrderTable(3)
    n3 = moment_count(3)
    assert np.array_equal(t5.alphas[:n3], t3.alphas)
    assert np.all(np.diff(t5.degree) >= 0)


def test_degree_offsets_match_moment_count():
    t = OrderTable(6)
    for k in range(7):
        assert t.degree_offset[k + 1] == moment_count(k)


def test_shift_down_matches_manual_lookup():
    rng = np.random.default_rng(3)
    t = OrderTable(4)
    w = rng.normal(size=t.count)
    for d in range(3):
        shifted = t.shift_down(w, d)
        for r, a in enumerate(t.alphas):
            b = list(a)
            b[d] -= 1
            expect = w[t.rank(b)] if b[d] >= 0 else 0.0
            assert shifted[r] == expect


def test_six_shift_gather_matches_manual_lookup():
    # the re-centring series gathers alpha - e_d (rows 0-2) and
    # alpha - 2 e_d (rows 3-5); undefined shifts point at the appended zero
    t = OrderTable(5)
    assert t._shift6.shape == (6, t.count)
    for r, a in enumerate(t.alphas):
        for c in range(6):
            b = list(a)
            b[c % 3] -= 1 + c // 3
            expect = t.rank(b) if b[c % 3] >= 0 else t.count
            assert t._shift6[c, r] == expect


@pytest.mark.parametrize("M", [2, 5, 10])
def test_chains_match_manual_lookup(M):
    # chain p of axis d holds the alphas with the other two indices fixed to
    # the p-th pair (s, t), s-major, at position alpha_d; padding is rank 0
    t = OrderTable(M)
    pairs = [(s, q) for s in range(M + 1) for q in range(M + 1 - s)]
    assert t.chain_rank.shape == (3, len(pairs), M + 1)
    for d in range(3):
        for p, (s, q) in enumerate(pairs):
            for k in range(M + 1):
                inside = k <= M - s - q
                assert t.chain_mask[p, k] == float(inside)
                if not inside:
                    assert t.chain_rank[d, p, k] == 0
                    continue
                a = [s, q]
                a.insert(d, k)
                r = t.rank(a)
                assert t.chain_rank[d, p, k] == r
                assert t.chain_pos[d, r] == p * (M + 1) + k


@pytest.mark.parametrize("M", range(2, 27))
def test_unit_and_degree2_diagonal_ranks_are_fixed(M):
    # states._enforce_admissibility slices these ranks without a lookup
    t = OrderTable(M)
    assert t.r_unit.tolist() == [1, 2, 3]
    assert t.r_unit2.tolist() == [4, 7, 9]


def test_rank_rejects_out_of_range():
    t = OrderTable(3)
    with pytest.raises(IndexError):
        t.rank((4, 0, 0))
    with pytest.raises(ValueError):
        t.rank((-1, 0, 0))
