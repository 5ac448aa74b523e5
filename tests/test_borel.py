import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from verlinde_gl import borel
from verlinde_gl.alcove import GLWeight
from verlinde_gl.borel import (
    GLXShape,
    TupleWeight,
    _inverse,
    _swap_adjacent,
    borel_translate,
    conjugate_relabel,
    is_w_dominant,
    odd_reflect_pair,
    w_dominance_leq,
    w_integrable,
)
from verlinde_gl.errors import ContractError, ValidationError


def tw(p, types, parts):
    shape = GLXShape(p, tuple(types))
    return TupleWeight(shape, tuple(GLWeight(tuple(e), p) for e in parts))


def test_shape_and_tuple_validation():
    with pytest.raises(ValidationError):
        GLXShape(5, (0,))
    with pytest.raises(ValidationError):
        GLXShape(5, ())
    with pytest.raises(ValidationError):
        tw(5, (1, 2), [(0,), (0,)])  # rank mismatch
    shape = GLXShape(5, (2, 1))
    assert not shape.is_canonical
    assert GLXShape(5, (1, 1, 2)).blocks() == [range(0, 2), range(2, 3)]


def test_w_dominance():
    lam = tw(5, (1, 1), [(1,), (3,)])
    assert w_dominance_leq(lam, lam, (0, 1))
    assert is_w_dominant((3, 1), (0, 1))
    assert not is_w_dominant((1, 3), (0, 1))
    assert is_w_dominant((1, 3), (1, 0))  # read in w^-1 order: 3, 1


def test_w_integrable():
    lam = tw(5, (1, 1), [(1,), (3,)])
    assert not w_integrable(lam, (0, 1))
    assert w_integrable(lam, (1, 0))
    lam2 = tw(5, (1, 1), [(3,), (1,)])
    assert w_integrable(lam2, (0, 1))
    assert not w_integrable(lam2, (1, 0))
    # Degrees interact within blocks only.
    lam3 = tw(5, (1, 2), [(0,), (3, 3)])
    assert w_integrable(lam3, (0, 1)) and w_integrable(lam3, (1, 0))


def test_conjugate_relabel():
    lam = tw(5, (1, 1), [(1,), (3,)])
    assert conjugate_relabel(lam, (1, 0)).parts[0].entries == (3,)
    ident = conjugate_relabel(tw(5, (1, 1), [(3,), (1,)]), (0, 1))
    assert [g.entries for g in ident.parts] == [(3,), (1,)]
    # 3-cycle inside one block: position q receives the part of w^-1(q).
    lam3 = tw(5, (2, 2, 2), [(0, 0), (3, 3), (2, 2)])
    w = (2, 0, 1)
    out = conjugate_relabel(lam3, w)
    assert [g.entries for g in out.parts] == [(3, 3), (2, 2), (0, 0)]
    with pytest.raises(ContractError):
        conjugate_relabel(tw(5, (1, 2), [(0,), (0, 0)]), (1, 0))
    with pytest.raises(ContractError):
        conjugate_relabel(tw(5, (1, 1), [(1,), (3,)]), (0, 1))


def test_odd_reflect_pair_typical():
    # types (1, 4) at p=5: the super label of ((1), b) is (1|0), reflecting to (0|1).
    small = GLWeight((1,), 5)
    big = GLWeight((0, 0, 0, 0), 5)
    out_small, out_big = odd_reflect_pair(small, big, "to_sigma")
    assert out_small.entries == (0,)
    assert out_big.entries == (1, 0, 0, 0)
    back = odd_reflect_pair(out_small, out_big, "to_standard")
    assert back == (small, big)
    with pytest.raises(ValidationError):
        odd_reflect_pair(big, small, "to_sigma")
    with pytest.raises(ValidationError):
        odd_reflect_pair(small, big, "sideways")


def test_odd_reflect_roundtrip_window():
    from verlinde_gl.enumeration import admissible_tuples

    p = 5
    for tsmall, tbig in ((1, 2), (1, 4), (2, 3)):
        for a in admissible_tuples(tsmall, p, -2, 2):
            for b in admissible_tuples(tbig, p, -2, 2):
                small, big = GLWeight(a, p), GLWeight(b, p)
                there = odd_reflect_pair(small, big, "to_sigma")
                assert odd_reflect_pair(there[0], there[1], "to_standard") == (small, big)
                back = odd_reflect_pair(small, big, "to_standard")
                assert odd_reflect_pair(back[0], back[1], "to_sigma") == (small, big)
                # Total degree survives the reflection in both directions.
                total = small.degree + big.degree
                assert there[0].degree + there[1].degree == total
                assert back[0].degree + back[1].degree == total


def test_borel_translate_identity_and_w0():
    lam = tw(5, (1, 1, 2), [(3,), (1,), (2, 0)])
    ident = tuple(range(lam.shape.k))
    assert borel_translate(lam, ident) == lam
    lam2 = tw(5, (1, 1, 2), [(1,), (3,), (2, 0)])
    w = (1, 0, 2)
    assert borel_translate(lam2, w) == conjugate_relabel(lam2, w)
    with pytest.raises(ContractError):
        borel_translate(tw(5, (1, 1), [(1,), (3,)]), (0, 1))


def test_borel_translate_single_odd_reflection():
    # The input labels the swapped Borel (big type first), so the pair is a
    # sigma label; the standard label is the typical shift (1|0) + beta.
    lam = tw(5, (1, 4), [(1,), (0, 0, 0, 0)])
    out = borel_translate(lam, (1, 0))
    assert [g.entries for g in out.parts] == [(2,), (0, 0, 0, -1)]
    # Oracle: sigma label of the result equals the input pair as a super label.
    from verlinde_gl.borel import _pair_to_super
    from verlinde_gl.caps import standard_to_sigma

    kappa = standard_to_sigma(_pair_to_super(out.parts[0], out.parts[1]))
    assert kappa == _pair_to_super(lam.parts[0], lam.parts[1])


def test_borel_translate_composition_on_w0():
    rng = random.Random(11)
    p = 5
    for _ in range(200):
        k = rng.randint(2, 4)
        lam_parts = [(rng.randint(-2, 2),) for _ in range(k)]
        lam = tw(p, (1,) * k, lam_parts)
        w1 = list(range(k))
        w2 = list(range(k))
        rng.shuffle(w1)
        rng.shuffle(w2)
        w1, w2 = tuple(w1), tuple(w2)
        w12 = tuple(w1[w2[i]] for i in range(k))  # (w1 w2)(i) = w1(w2(i))
        if not (w_integrable(lam, w12) and w_integrable(lam, w2)):
            continue
        step = borel_translate(lam, w2)
        if not w_integrable(step, w1):
            continue
        assert borel_translate(lam, w12) == borel_translate(step, w1)


def test_factorization_independence_samples():
    rng = random.Random(3)
    p = 5
    hits = 0
    for _ in range(300):
        types = tuple(sorted(rng.randint(1, p - 1) for _ in range(rng.randint(2, 4))))
        shape = GLXShape(p, types)
        w = list(range(shape.k))
        rng.shuffle(w)
        w = tuple(w)
        parts = []
        for t in types:
            top = rng.randint(-2, 2)
            entries = [top]
            for _ in range(t - 1):
                entries.append(rng.randint(max(entries[-1] - 1, top - (p - t)), entries[-1]))
            parts.append(tuple(entries))
        lam = tw(p, types, parts)
        if not w_integrable(lam, w):
            continue
        hits += 1
        left = borel_translate(lam, w)
        right = borel_translate(lam, w, rightmost_first=True)
        assert left == right, f"factorization discrepancy at types={types}, w={w}"
    assert hits > 50


@pytest.mark.parametrize("types", [(2, 2), (1, 3)])
def test_swap_adjacent_is_an_involution(types):
    # s_q^2 = id, from either order of the two summands.  On (1, 3) the
    # small-type-left start takes the odd_reflect_pair(x, y, "to_sigma")
    # branch, which borel_translate never reaches: it swaps only inverted
    # neighbours of a canonical shape, so the big type is always on the left.
    from verlinde_gl.borel import _swap_adjacent
    from verlinde_gl.enumeration import admissible_tuples

    p = 5
    shape = GLXShape(p, types)
    firsts, seconds = ([GLWeight(e, p) for e in admissible_tuples(t, p, -2, 2)] for t in types)
    for x in firsts:
        for y in seconds:
            for start in ([(0, x), (1, y)], [(1, y), (0, x)]):
                entries = list(start)
                _swap_adjacent(entries, 0, shape)
                assert [i for i, _ in entries] == [i for i, _ in reversed(start)]
                _swap_adjacent(entries, 0, shape)
                assert entries == start


def _rescan_translate(lam, w, rightmost_first):
    """Reference: rescan every summand after each swap and take the leftmost (or rightmost) inversion."""
    if not w_integrable(lam, w):
        raise ContractError("weight is not w-integrable")
    inv = _inverse(w)
    entries = [(inv[q], lam.parts[inv[q]]) for q in range(lam.shape.k)]
    while True:
        inversions = [q for q in range(lam.shape.k - 1) if entries[q][0] > entries[q + 1][0]]
        if not inversions:
            return TupleWeight(lam.shape, tuple(part for _, part in entries))
        borel._swap_adjacent(entries, inversions[-1] if rightmost_first else inversions[0], lam.shape)


def _outcome(translate, lam, w, rightmost_first):
    try:
        return translate(lam, w, rightmost_first=rightmost_first)
    except (ContractError, ValidationError) as exc:
        return type(exc), str(exc)


@st.composite
def borel_probes(draw):
    """A canonical shape of up to 6 summands at p <= 13, admissible parts and a permutation w.

    Half the draws arrange each isotypic block's parts by w, so the weight is
    w-integrable; the others keep the drawn order and may be refused.
    """
    p = draw(st.sampled_from((5, 7, 11, 13)))
    types = tuple(sorted(draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6))))
    parts = []
    for t in types:
        entries = [draw(st.integers(-p, p))]
        for _ in range(t - 1):
            entries.append(draw(st.integers(max(entries[-1] - 2, entries[0] - (p - t)), entries[-1])))
        parts.append(GLWeight(tuple(entries), p))
    w = tuple(draw(st.permutations(range(len(types)))))
    if draw(st.booleans()):
        for block in GLXShape(p, types).blocks():
            by_degree = sorted((parts[i] for i in block), key=lambda g: -g.degree)
            for i, part in zip(sorted(block, key=lambda i: w[i]), by_degree):
                parts[i] = part
    return TupleWeight(GLXShape(p, types), tuple(parts)), w


@settings(max_examples=300, deadline=None)
@given(borel_probes())
def test_borel_translate_matches_the_rescan_loop(probe):
    # Insertion sort from either end makes the rescan loop's swaps in its
    # order, one _swap_adjacent call per inversion of w, with equal outcomes.
    lam, w = probe
    inversions = sum(w[a] > w[b] for a, b in combinations(range(len(w)), 2))
    calls = []

    def recording_swap(entries, q, shape):
        calls.append(q)
        _swap_adjacent(entries, q, shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(borel, "_swap_adjacent", recording_swap)
        for rightmost_first in (False, True):
            want = _outcome(_rescan_translate, lam, w, rightmost_first)
            want_swaps = calls[:]
            calls.clear()
            assert _outcome(borel_translate, lam, w, rightmost_first) == want
            assert calls == want_swaps
            if isinstance(want, TupleWeight):
                assert len(calls) == inversions
            calls.clear()
