from itertools import product

import pytest

from verlinde_gl.enumeration import admissible_tuples, monotone_tuples, residue_representatives

WINDOWS = [(-5, 5), (-2, 2), (0, 0), (-1, 4), (3, 1)]


def nonincreasing_by_brute_force(rank, lo, hi, spread):
    """Every nonincreasing tuple of the box, largest first (reverse lexicographic)."""
    box = product(range(lo, hi + 1), repeat=rank)
    keep = [
        t
        for t in box
        if all(t[k] >= t[k + 1] for k in range(rank - 1)) and (spread is None or not t or t[0] - t[-1] <= spread)
    ]
    return sorted(keep, reverse=True)


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("window", WINDOWS)
def test_tuple_enumerations_match_brute_force_order(p, window):
    # The serganova sweep shares walk states between consecutive nus, so the
    # order of the enumerations is part of their contract, not just the set.
    lo, hi = window
    for rank in range(1, 5):
        assert admissible_tuples(rank, p, lo, hi) == nonincreasing_by_brute_force(rank, lo, hi, p - rank)
        assert monotone_tuples(rank, lo, hi) == nonincreasing_by_brute_force(rank, lo, hi, None)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_residue_representatives_match_brute_force_order(p, rank):
    # The representative of a residue tuple starts in [0, p) and keeps each
    # later entry in (prev - p, prev]; the list runs over residue tuples in
    # lexicographic order.
    box = product(range(-rank * p, p), repeat=rank)
    reps = [
        t
        for t in box
        if 0 <= t[0] < p and all(t[k] - p < t[k + 1] <= t[k] for k in range(rank - 1))
    ]
    want = sorted(reps, key=lambda t: tuple(x % p for x in t))
    assert residue_representatives(rank, p) == want
