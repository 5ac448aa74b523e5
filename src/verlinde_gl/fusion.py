"""Fusion combinatorics of the semisimple Verlinde category Ver_p.

Simple objects are indexed 1..p-1 (the object with index n has categorical
dimension n).  Only the label-level data is modeled: fusion multiplicities
and parity (membership in the even subcategory); every L_n is self-dual.
Fusion follows the truncated Clebsch-Gordan rule

    L_i (x) L_j  =  (+)_{k=1}^{min(i, j, p-i, p-j)}  L_{|i-j| + 2k - 1}.
"""

from __future__ import annotations

from .errors import ValidationError


def is_prime(p: int) -> bool:
    """Deterministic primality by trial division (inputs are desk-scale)."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# is_prime divides up to sqrt(p); above this bound every p is refused
# before the division starts, so each check stays under 500 steps.
MAX_P = 10**6


def check_prime(p: int) -> int:
    """Validate the characteristic: an odd prime with 5 <= p <= MAX_P."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValidationError(f"p must be an integer, got {p!r}")
    if p < 5:
        raise ValidationError(f"p must be at least 5, got {p}")
    if p > MAX_P:
        raise ValidationError(f"p must be at most {MAX_P}, got {p}")
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    return p


def check_simple_index(n: int, p: int) -> int:
    """Validate a simple-object index: 1 <= n <= p-1."""
    if not 1 <= n <= p - 1:
        raise ValidationError(f"simple-object index {n} out of range 1..{p - 1}")
    return n


def fuse_simples(i: int, j: int, p: int) -> list[int]:
    """Indices of the simple summands of L_i (x) L_j, sorted ascending.

    The rule never produces multiplicities above one, so a sorted list of
    distinct indices is a faithful multiset.
    """
    check_prime(p)
    check_simple_index(i, p)
    check_simple_index(j, p)
    # |i - j| + 1, |i - j| + 3, .., up to min(i + j, 2p - i - j) - 1 <= p - 1.
    top = min(i, j, p - i, p - j)
    return [abs(i - j) + 2 * k - 1 for k in range(1, top + 1)]


def is_even_object(n: int, p: int) -> bool:
    """Whether L_n lies in the even subcategory (odd categorical dimension)."""
    check_simple_index(n, check_prime(p))
    return n % 2 == 1
