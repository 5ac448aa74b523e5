"""Weight-window enumeration shared by the test suites and the CLI selfcheck.

Windows are inclusive integer intervals [lo, hi] applied entrywise.  The
default window for a characteristic p is [-p, p], covering every residue
pattern a width-2p window can produce.
"""

from __future__ import annotations

from typing import Iterator

from .fusion import check_prime


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
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        if len(prefix) == rank:
            out.append(tuple(prefix))
            return
        upper = prefix[-1] if prefix else hi
        lower = lo if spread is None or not prefix else max(lo, prefix[0] - spread)
        for x in range(upper, lower - 1, -1):
            prefix.append(x)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def super_shapes(p: int) -> list[tuple[int, int]]:
    """All (m, n) with m, n >= 1 and m + n < p."""
    check_prime(p)
    return [(m, n) for m in range(1, p - 1) for n in range(1, p - m)]


def super_suite(
    p: int, window: tuple[int, int] | None = None, shapes: list[tuple[int, int]] | None = None
) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """Yield (m, n, mu, nu) over all shapes and windowed admissible pairs."""
    lo, hi = window if window is not None else default_window(p)
    for m, n in shapes if shapes is not None else super_shapes(p):
        mus = admissible_tuples(m, p, lo, hi)
        nus = admissible_tuples(n, p, lo, hi)
        for mu in mus:
            for nu in nus:
                yield m, n, mu, nu


def residue_representatives(rank: int, p: int) -> list[tuple[int, ...]]:
    """One monotone representative per residue tuple in [0, p)^rank.

    Entrywise residues determine the whole Serganova/Shapovalov dynamics;
    the representative keeps each entry in (prev - p, prev].
    """
    check_prime(p)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], residues: list[int]) -> None:
        if len(residues) == rank:
            out.append(tuple(prefix))
            return
        for c in range(p):
            if prefix:
                x = prefix[-1] - ((prefix[-1] - c) % p)
            else:
                x = c
            prefix.append(x)
            residues.append(c)
            extend(prefix, residues)
            prefix.pop()
            residues.pop()

    extend([], [])
    return out
