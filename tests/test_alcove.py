import time

import pytest
from hypothesis import example, given, settings, strategies as st

from verlinde_gl import alcove
from verlinde_gl.alcove import (
    GLWeight,
    add_box,
    chi_rotate,
    det_power,
    is_admissible,
    ladder_weight,
    level_rank_D,
    level_rank_D_inverse,
    level_rank_degree_zero,
    psi_data,
    remove_box,
    tensor_with_V,
    transpose_partition,
    wedge_to_weight,
    weight_ladder,
)
from verlinde_gl.enumeration import admissible_tuples
from verlinde_gl.errors import ValidationError
from verlinde_gl.superweights import second_block


# Primes beyond the p <= 11 windows that the suites sweep.
PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def admissible_weights(draw):
    """An admissible weight of any rank at a prime 5..31."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, p - 1))
    offsets = draw(st.lists(st.integers(0, p - n), min_size=n, max_size=n))
    top = draw(st.integers(-3 * p, 3 * p))
    return GLWeight(tuple(top - x for x in sorted(offsets)), p)


def test_is_admissible_examples():
    assert is_admissible((6, 5, 2), 3, 7)
    assert is_admissible((0, 0, 0), 3, 7)
    assert not is_admissible((5, 0, 0), 3, 7)
    assert not is_admissible((0, 1, 0), 3, 7)
    with pytest.raises(ValidationError):
        is_admissible((1, 0), 3, 7)


def test_add_box_examples():
    assert add_box(GLWeight((0, 0, 0), 7), 0).entries == (1, 0, 0)
    assert add_box(GLWeight((4, 0, 0), 7), 6).entries == (4, 1, 0)
    assert add_box(GLWeight((4, 0, 0), 7), 4) is None


def test_remove_box_examples():
    assert remove_box(GLWeight((1, 0, 0), 7), 0).entries == (0, 0, 0)
    assert remove_box(GLWeight((4, 1, 0), 7), 6).entries == (4, 0, 0)
    # The only removable box of the zero weight sits at the bottom row.
    removable = {c for c in range(7) if remove_box(GLWeight((0, 0, 0), 7), c)}
    assert removable == {(0 - 3) % 7}


def test_add_remove_adjoint_on_window():
    for rank, p in ((2, 5), (3, 7)):
        for entries in admissible_tuples(rank, p, -p, p):
            lam = GLWeight(entries, p)
            for c in range(p):
                up = add_box(lam, c)
                if up is not None:
                    assert remove_box(up, c) == lam
                down = remove_box(lam, c)
                if down is not None:
                    assert add_box(down, c) == lam


def _box_hits(lam, c, step):
    """Every admissible lam + step*e_i whose moved box has content c mod p."""
    p, n = lam.p, lam.n
    hits = []
    for i, x in enumerate(lam.entries):
        content = x - i if step > 0 else x - i - 1
        cand = lam.entries[:i] + (x + step,) + lam.entries[i + 1 :]
        if (content - c) % p == 0 and is_admissible(cand, n, p):
            hits.append(GLWeight(cand, p))
    return hits


@settings(max_examples=300, deadline=None)
@given(admissible_weights())
def test_box_contents_distinct_and_moves_unique(lam):
    p, n = lam.p, lam.n
    # The added-box contents lam_i - i are distinct mod p (spread below p).
    assert len({(x - i) % p for i, x in enumerate(lam.entries)}) == n
    for c in range(p):
        for step, move in ((1, add_box), (-1, remove_box)):
            hits = _box_hits(lam, c, step)
            assert len(hits) <= 1
            assert move(lam, c) == (hits[0] if hits else None)


def test_tensor_with_V():
    assert [w.entries for w in tensor_with_V(GLWeight((0, 0, 0), 7))] == [(1, 0, 0)]
    assert [w.entries for w in tensor_with_V(GLWeight((4, 0, 0), 7))] == [(4, 1, 0)]
    lam = GLWeight((2, 1, 0), 7)
    # Oracle: raw enumeration of lam + e_i with the alcove filter.
    expected = []
    for i in range(3):
        cand = list(lam.entries)
        cand[i] += 1
        if is_admissible(tuple(cand), 3, 7):
            expected.append(tuple(cand))
    assert [w.entries for w in tensor_with_V(lam)] == expected == [(3, 1, 0), (2, 2, 0), (2, 1, 1)]
    # Union-over-contents route agrees.
    by_content = {add_box(lam, c).entries for c in range(7) if add_box(lam, c)}
    assert by_content == set(expected)


def _tensor_with_V_reference(lam):
    """The former loop: is_admissible on each lam + e_i, then GLWeight's own check."""
    out = []
    for i in range(lam.n):
        cand = list(lam.entries)
        cand[i] += 1
        if is_admissible(tuple(cand), lam.n, lam.p):
            out.append(GLWeight(tuple(cand), lam.p))
    return out


@settings(max_examples=500, deadline=None)
@given(admissible_weights())
@example(GLWeight((4, 0, 0), 7))  # spread at its bound: e_0 would widen it
@example(GLWeight((3,), 5))  # rank one: e_0 is always a summand
def test_tensor_with_V_summand_count(lam):
    out = tensor_with_V(lam)
    assert 1 <= len(out) <= lam.n
    assert out == _tensor_with_V_reference(lam)


def test_tensor_with_V_checks_each_summand_once(monkeypatch):
    # The O(1) neighbour test decides each summand; no full scan runs, not
    # even GLWeight's (tests/test_trusted.py rebuilds every summand checked).
    calls = []

    def counted(entries, n, p):
        calls.append(entries)
        return is_admissible(entries, n, p)

    for entries, p in [((2, 1, 0), 7), ((0, 0, 0), 7), ((4, 0, 0), 7), ((9, 8, 8, 5, 5, 5), 11), ((3,), 5)]:
        lam = GLWeight(entries, p)
        with monkeypatch.context() as patched:
            patched.setattr(alcove, "is_admissible", counted)
            out = tensor_with_V(lam)
        assert calls == [] and out == _tensor_with_V_reference(lam)


def test_phi_wedge_examples():
    # The wedge of a simple is the residue set and loop exponent of its ladder.
    residues, s = weight_ladder((0, 0), 5)
    assert set(residues) == {0, 4} and s == -1
    residues, s = weight_ladder((0, 0, 0), 7)
    assert set(residues) == {0, 6, 5} and s == -2
    assert weight_ladder((5,), 5) == ([0], 1)


def test_phi_wedge_bijective_on_window():
    for rank, p in ((1, 5), (2, 5), (3, 5), (2, 7), (3, 7)):
        seen = {}
        for entries in admissible_tuples(rank, p, -p, p):
            residues, s = weight_ladder(entries, p)
            assert len(set(residues)) == rank
            key = (frozenset(residues), s)
            assert key not in seen, f"collision {entries} vs {seen[key]}"
            seen[key] = entries
            assert wedge_to_weight(set(residues), s, p).entries == entries


@settings(max_examples=300, deadline=None)
@given(admissible_weights(), st.integers(1, 30))
def test_wedge_roundtrip_hypothesis(lam, m):
    p = lam.p
    residues, s = weight_ladder(lam.entries, p)
    assert wedge_to_weight(set(residues), s, p) == lam
    # lam as the second block of a super weight with first block of rank m.
    nu = lam.entries
    block = second_block(nu, m)
    assert second_block(block, m) == nu
    residues, r = weight_ladder(block, p)
    assert ladder_weight(residues, r, p) == block
    # The ladder of the block is the second block's (j - m) - nu_j, reversed.
    contents = [j - m - y for j, y in enumerate(nu, 1)]
    assert residues[::-1] == [c % p for c in contents]
    assert r == sum(c // p for c in contents)


def test_chi_rotate():
    assert chi_rotate(GLWeight((2, 2, 2, 1), 7), 2).entries == (5, 4, 2, 2)
    lam = GLWeight((3, 1, 0), 7)
    assert chi_rotate(lam, 0) == lam
    assert chi_rotate(chi_rotate(lam, 2), -2) == lam
    for entries in admissible_tuples(4, 7, -7, 7):
        lam = GLWeight(entries, 7)
        full = chi_rotate(lam, 4)
        assert full.entries == tuple(x + 3 for x in entries)


def _chi_stepwise(entries, k, p):
    """chi_rotate one step at a time, the definition."""
    n = len(entries)
    entries = list(entries)
    for _ in range(max(k, 0)):
        entries = [entries[-1] + (p - n)] + entries[:-1]
    for _ in range(max(-k, 0)):
        entries = entries[1:] + [entries[0] - (p - n)]
    return tuple(entries)


def test_chi_rotate_matches_stepwise():
    for p in (5, 7):
        for n in range(1, p):
            for entries in admissible_tuples(n, p, -2, 2):
                lam = GLWeight(entries, p)
                for k in range(-3 * n, 3 * n + 1):
                    assert chi_rotate(lam, k).entries == _chi_stepwise(entries, k, p)


@settings(max_examples=300, deadline=None)
@given(admissible_weights())
def test_chi_power_n_is_det_power(lam):
    # chi^n = det^(p-n): n single steps add p - n to every entry.
    p, n = lam.p, lam.n
    out = lam
    for _ in range(n):
        out = chi_rotate(out, 1)
    assert out.entries == tuple(x + p - n for x in lam.entries)


def test_chi_rotate_large_k_is_immediate():
    lam = GLWeight((3, 1, 0), 7)
    start = time.perf_counter()
    far = chi_rotate(lam, 10**8)
    back = chi_rotate(far, -(10**8))
    assert time.perf_counter() - start < 1.0
    assert back == lam
    assert chi_rotate(lam, 3 * 10**8).entries == tuple(x + 4 * 10**8 for x in lam.entries)


def test_psi_data():
    t = psi_data(3, 7)
    assert (t.a, t.b) == (-1, 1)
    assert t.psi_weight.entries == (3, -1, -1)
    t = psi_data(2, 5)
    assert (t.a, t.b) == (-1, 1)
    assert t.psi_weight.entries == (2, -1)
    t = psi_data(1, 7)
    assert (t.a, t.b) == (1, 0)
    assert t.psi_weight.entries == (1,)
    assert det_power(3, 7, 2).entries == (2, 2, 2)


def test_psi_has_degree_one_exhaustive():
    for p in PRIMES:
        for n in range(1, p):
            t = psi_data(n, p)
            assert t.a * n + t.b * (p - n) == 1 and 0 <= t.b < n
            assert t.psi_weight.degree == 1
            assert t.psi_weight == chi_rotate(det_power(n, p, t.a), t.b)


def test_transpose_partition():
    assert transpose_partition((4, 3, 0)) == (2, 2, 2, 1)
    assert transpose_partition(()) == ()
    assert transpose_partition((1, 1)) == (2,)


def transpose_by_columns(parts):
    """The conjugate counted column by column, width x rank steps: the oracle."""
    width = parts[0] if parts else 0
    return tuple(sum(1 for x in parts if x > j) for j in range(width))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=10), st.booleans())
def test_transpose_partition_matches_the_column_count(parts, ordered):
    # Unsorted input too: both read the width off parts[0].
    if ordered:
        parts.sort(reverse=True)
    assert transpose_partition(tuple(parts)) == transpose_by_columns(tuple(parts))


def test_level_rank_examples():
    image, parity = level_rank_D(GLWeight((6, 5, 2), 7))
    assert image.entries == (5, 4, 2, 2) and parity == 1
    image, parity = level_rank_D(GLWeight((0, 0, 0), 7))
    assert image.entries == (0, 0, 0, 0) and parity == 0
    image, parity = level_rank_D(GLWeight((1, 0), 5))
    assert image.entries == (1, 0, 0) and parity == 1
    back, parity = level_rank_D_inverse(GLWeight((5, 4, 2, 2), 7))
    assert back.entries == (6, 5, 2) and parity == 1
    back, parity = level_rank_D_inverse(GLWeight((0, 0, 0, 0), 7))
    assert back.entries == (0, 0, 0) and parity == 0
    back, parity = level_rank_D_inverse(GLWeight((1, 0, 0), 5))
    assert back.entries == (1, 0) and parity == 1


def test_level_rank_roundtrip_exhaustive():
    for p in (5, 7):
        for rank in range(1, p):
            for entries in admissible_tuples(rank, p, -p, p):
                lam = GLWeight(entries, p)
                image, parity = level_rank_D(lam)
                assert parity == lam.degree % 2
                back, _ = level_rank_D(image)
                assert back == lam
                inv, _ = level_rank_D_inverse(image)
                assert inv == lam


@settings(max_examples=300, deadline=None)
@given(admissible_weights())
def test_level_rank_involution_hypothesis(lam):
    image, parity = level_rank_D(lam)
    assert image.n == lam.p - lam.n and parity == lam.degree % 2
    assert level_rank_D(image)[0] == lam
    assert level_rank_D_inverse(image)[0] == lam


def test_level_rank_degree_zero_oracle():
    for p in (5, 7):
        for rank in range(1, p):
            for entries in admissible_tuples(rank, p, -p, p):
                if sum(entries) != 0:
                    continue
                lam = GLWeight(entries, p)
                image, _ = level_rank_D(lam)
                assert image == level_rank_degree_zero(lam)
