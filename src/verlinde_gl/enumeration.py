"""Weight-window enumeration shared by the test suites and the CLI selfcheck.

Windows are inclusive integer intervals [lo, hi] applied entrywise.  The
default window for a characteristic p is [-p, p], covering every residue
pattern a width-2p window can produce.
"""

from __future__ import annotations

from itertools import accumulate, combinations_with_replacement, product
from typing import Iterator

from .fusion import check_prime
from .superweights import SuperShape, SuperWeight, _trusted_weight

# The suites sweep windows whose size grows like p^p: at p = 11 the
# serganova suite alone would check about 2.6e8 pairs.
SELFCHECK_MAX_P = 7


def default_window(p: int) -> tuple[int, int]:
    return (-p, p)


def admissible_tuples(rank: int, p: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All nonincreasing tuples in [lo, hi]^rank with spread at most p - rank."""
    check_prime(p)
    return _nonincreasing_tuples(rank, lo, hi, p - rank)


def monotone_tuples(rank: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All nonincreasing tuples in [lo, hi]^rank (no spread bound)."""
    return _nonincreasing_tuples(rank, lo, hi, None)


def _nonincreasing_tuples(rank: int, lo: int, hi: int, spread: int | None) -> list[tuple[int, ...]]:
    """Nonincreasing tuples in [lo, hi]^rank, largest first, with first - last <= spread if given."""
    if spread is None or rank == 0:
        return list(combinations_with_replacement(range(hi, lo - 1, -1), rank))
    return [
        (top,) + rest
        for top in range(hi, lo - 1, -1)
        for rest in combinations_with_replacement(range(top, max(lo, top - spread) - 1, -1), rank - 1)
    ]


def super_shapes(p: int) -> list[tuple[int, int]]:
    """All (m, n) with m, n >= 1 and m + n < p."""
    check_prime(p)
    return [(m, n) for m in range(1, p - 1) for n in range(1, p - m)]


def window_weights(
    p: int, window: tuple[int, int] | None = None, shapes: list[tuple[int, int]] | None = None
) -> Iterator[SuperWeight]:
    """Yield every windowed admissible pair as a SuperWeight: by shape, then mu, then nu.

    Each tuple is admissible by construction, so the weights skip
    SuperWeight's checks (see superweights); each shape is validated once.
    """
    lo, hi = window if window is not None else default_window(p)
    for m, n in shapes if shapes is not None else super_shapes(p):
        shape = SuperShape(m, n, p)
        nus = admissible_tuples(n, p, lo, hi)
        for mu in admissible_tuples(m, p, lo, hi):
            for nu in nus:
                yield _trusted_weight(shape, mu, nu)


def super_suite(
    p: int, window: tuple[int, int] | None = None, shapes: list[tuple[int, int]] | None = None
) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """The weights of window_weights as (m, n, mu, nu) tuples, for callers that unpack them."""
    for lam in window_weights(p, window, shapes):
        yield lam.shape.m, lam.shape.n, lam.mu, lam.nu


def residue_representatives(rank: int, p: int) -> list[tuple[int, ...]]:
    """One monotone representative per residue tuple in [0, p)^rank, in lexicographic order.

    Entrywise residues determine the whole Serganova/Shapovalov dynamics;
    the representative keeps each entry in (prev - p, prev].
    """
    check_prime(p)
    return [tuple(accumulate(cs, lambda x, c: x - (x - c) % p)) for cs in product(range(p), repeat=rank)]
