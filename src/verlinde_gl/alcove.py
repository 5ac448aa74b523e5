"""Simple-object combinatorics of the Verlinde category of GL_n.

Simples are labeled by admissible weights: nonincreasing integer vectors
lambda of length n with lambda_1 - lambda_n <= p - n (the fundamental
alcove).  This module implements box addition/removal by content residue,
tensoring with the vector object V, the invertible objects det / chi / psi,
level-rank duality between ranks n and p-n, and the wedge dictionary
between simples and wedges of residue basis vectors with a loop exponent:
weight_ladder reads a simple's wedge, wedge_to_weight checks a wedge and
returns its simple.

Convention used throughout: the content ladder of lambda is the vector
c_i = lambda_i + 1 - i, which is strictly decreasing with total spread < p
for admissible lambda.  Writing c_i = a_i + p*s_i with 0 <= a_i < p gives
pairwise distinct residues a_i and the loop exponent s = sum(s_i).

This is the one residue ladder of the package: weight_ladder is the forward
map (weight -> residues and loop exponent) and ladder_weight its inverse
(residue set and loop exponent -> weight); they are the only code that
writes the content offset i - 1.  wedge_to_weight and the box moves here,
superweights.residue_data and the diagram codec in diagrams.py all go
through this pair; the second block of a super weight enters it through
the involution superweights.second_block.  A box of content c moves
residue c to c + 1 when added and back when removed.

Weights are validated once, where they enter: GLWeight, det_power and
wedge_to_weight check theirs.  The box moves, tensor_with_V, chi_rotate and
level_rank_D derive weights from valid ones, admissible by an argument each
function states, and build them unchecked in _trusted_gl.

Note on symmetric powers: S^k V vanishes for k = p - n + 1 (its dimension is
divisible by p), so chi = S^(p-n) V is the top nonzero symmetric power; no
symmetric-power operation is exposed beyond the chi construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate, count
from operator import sub
from typing import NamedTuple

from .errors import ValidationError
from .fusion import check_prime


def _as_tuple(values: Iterable, name: str) -> tuple:
    """values as a tuple; ValidationError naming it when it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {values!r}") from None


def is_admissible(entries: tuple[int, ...] | list[int], n: int, p: int) -> bool:
    """Whether a length-n vector is nonincreasing with spread at most p-n."""
    if len(entries) != n:
        raise ValidationError(f"expected {n} entries, got {len(entries)}")
    if n < 1 or n > p - 1:
        raise ValidationError(f"rank {n} out of range 1..{p - 1}")
    if any(entries[i] < entries[i + 1] for i in range(n - 1)):
        return False
    return entries[0] - entries[-1] <= p - n


class GLWeight(NamedTuple("GLWeight", [("entries", tuple[int, ...]), ("p", int)])):
    """An admissible highest weight for GL_n in characteristic p.

    A tuple: it equals, hashes and iterates as (entries, p).  Pickle and copy
    rebuild it through __new__; namedtuple's _make and _replace skip it.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...], p: int) -> GLWeight:
        check_prime(p)
        entries = _as_tuple(entries, "entries")
        if not all(type(x) is int for x in entries):
            raise ValidationError(f"{entries} must have integer entries")
        if not is_admissible(entries, len(entries), p):
            raise ValidationError(f"{entries} is not admissible for rank {len(entries)}, p={p}")
        return tuple.__new__(cls, (entries, p))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)


def _trusted_gl(entries: tuple[int, ...], p: int) -> GLWeight:
    """A GLWeight without its checks, for weights the library derives from
    valid labels: entries a tuple of ints admissible at the valid prime p."""
    return tuple.__new__(GLWeight, (entries, p))


class InvertibleTriple(NamedTuple):
    """The invertible objects det, chi and the degree-one generator psi."""

    det_weight: GLWeight
    chi_weight: GLWeight
    a: int
    b: int
    psi_weight: GLWeight


def _move_box(lam: GLWeight, c: int, step: int) -> GLWeight | None:
    """lam + step*e_i (step = 1 or -1) for the row i whose moved box has content c mod p.

    On the residue ladder, adding a box of content c moves residue c to
    c + 1 and removing one moves c + 1 to c; a move across p-1 -> 0 carries
    into the loop exponent.  None (a value, not an error) when no row has
    the source residue, or the target is taken: the move leaves the alcove.
    Otherwise the residues stay distinct, and ladder_weight of distinct
    residues is admissible, so the result skips GLWeight's checks.
    """
    if type(c) is not int:
        raise ValidationError(f"content must be an integer, got {c!r}")
    p = lam.p
    residues, s = weight_ladder(lam.entries, p)
    lo, hi = c % p, (c + 1) % p
    source, target = (lo, hi) if step > 0 else (hi, lo)
    if source not in residues or target in residues:
        return None
    residues[residues.index(source)] = target
    return _trusted_gl(ladder_weight(residues, s + (step if lo == p - 1 else 0), p), p)


def add_box(lam: GLWeight, c: int) -> GLWeight | None:
    """The admissible lam + e_i whose added box has content c mod p, if any."""
    return _move_box(lam, c, 1)


def remove_box(lam: GLWeight, c: int) -> GLWeight | None:
    """The admissible mu with add_box(mu, c) == lam, if any."""
    return _move_box(lam, c, -1)


# tensor_with_V decides each summand by an O(1) neighbour test but copies n
# entries per summand; with distinct entries every row takes a box: rank 2,000
# takes 0.06 s, 3,000 0.15 s and 4,000 0.27 s (2-CPU host, Python 3.11; under
# 1 ms with equal entries, one summand).  Larger ranks are refused.
TENSOR_WITH_V_MAX_RANK = 4_000


def tensor_with_V(lam: GLWeight) -> list[GLWeight]:
    """Summands of V_lam (x) V: all admissible lam + e_i, in index order.

    The neighbour test decides admissibility, so the summands skip
    GLWeight's checks.  Ranks above TENSOR_WITH_V_MAX_RANK raise
    ValidationError.
    """
    if lam.n > TENSOR_WITH_V_MAX_RANK:
        raise ValidationError(f"rank {lam.n} exceeds TENSOR_WITH_V_MAX_RANK = {TENSOR_WITH_V_MAX_RANK}")
    e, n, p = lam.entries, lam.n, lam.p
    out = []
    for i in range(n):
        # lam + e_i stays nonincreasing iff e[i-1] > e[i]; only i = 0 widens the spread.
        if e[i - 1] > e[i] if i else e[0] + 1 - e[-1] <= p - n:
            out.append(_trusted_gl(e[:i] + (e[i] + 1,) + e[i + 1 :], p))
    return out


def weight_ladder(entries: Iterable[int], p: int) -> tuple[list[int], int]:
    """Residues a_i and loop exponent s of the contents c_i = entries_i - (i - 1).

    c_i = a_i + p*s_i with 0 <= a_i < p; the residues follow the order of
    entries and s = sum(s_i).
    """
    residues, s = [], 0
    for c in map(sub, entries, count()):
        q, a = divmod(c, p)
        residues.append(a)
        s += q
    return residues, s


def ladder_weight(residues: Iterable[int], s: int, p: int) -> tuple[int, ...]:
    """The nonincreasing weight whose content ladder has these residues and loop exponent.

    With s = n*q + k (0 <= k < n) the k smallest residues, descending, head
    the ladder with offset p*(q+1); the others follow with offset p*q.  The
    spread stays below p, so this inverts weight_ladder on every admissible
    weight.
    """
    desc = sorted(residues, reverse=True)
    q, k = divmod(s, len(desc))
    head, tail = p * (q + 1), p * q
    contents = desc[len(desc) - k :] + desc[: len(desc) - k]
    return tuple([c + (head if i < k else tail) + i for i, c in enumerate(contents)])


def wedge_to_weight(residues: frozenset[int] | set[int], s: int, p: int) -> GLWeight:
    """Inverse of weight_ladder from the residue set and loop exponent."""
    n = len(residues)
    if n < 1 or n > p - 1:
        raise ValidationError(f"residue set size {n} out of range 1..{p - 1}")
    if any(not 0 <= a < p for a in residues):
        raise ValidationError(f"residues must lie in 0..{p - 1}: {sorted(residues)}")
    return GLWeight(ladder_weight(residues, s, p), p)


def chi_rotate(lam: GLWeight, k: int) -> GLWeight:
    """Tensor k times with the invertible chi = S^{p-n}V (k < 0: with its dual).

    One forward step is the rotation lam -> (lam_n + p - n, lam_1, ..,
    lam_{n-1}); n steps add p-n to every entry, matching chi^n = det^{p-n}.
    With k = q*n + r (0 <= r < n) that is r steps and q full turns.  A step
    keeps the weight admissible: lam_n + p - n >= lam_1 heads the new
    weight and is at most p - n above its new last entry lam_{n-1} >= lam_n,
    so the result skips GLWeight's checks.
    """
    if type(k) is not int:
        raise ValidationError(f"chi power must be an integer, got {k!r}")
    p, n = lam.p, lam.n
    turns, steps = divmod(k, n)
    entries = lam.entries
    if steps:
        entries = tuple(x + (p - n) for x in entries[n - steps :]) + entries[: n - steps]
    return _trusted_gl(tuple([x + turns * (p - n) for x in entries]), p)


def det_power(n: int, p: int, a: int) -> GLWeight:
    """Weight of det^a: the constant vector (a, .., a)."""
    check_prime(p)
    if not 1 <= n <= p - 1:
        raise ValidationError(f"rank {n} out of range 1..{p - 1}")
    return GLWeight((a,) * n, p)


def psi_data(n: int, p: int) -> InvertibleTriple:
    """det, chi and the unique degree-one invertible psi = det^a (x) chi^b.

    (a, b) is the unique solution of a*n + b*(p-n) = 1 with 0 <= b < n,
    which exists since n and p-n are coprime.  det_power checks p and n.
    """
    det_w = det_power(n, p, 1)
    chi_w = GLWeight(((p - n),) + (0,) * (n - 1), p)
    b = next(b for b in range(n) if (1 - b * (p - n)) % n == 0)
    a = (1 - b * (p - n)) // n
    return InvertibleTriple(det_w, chi_w, a, b, chi_rotate(det_power(n, p, a), b))


def transpose_partition(parts: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Conjugate partition (nonnegative nonincreasing input, zeros allowed)."""
    if any(x < 0 for x in parts):
        raise ValidationError(f"partition entries must be nonnegative: {parts}")
    return _transpose(parts)


def _transpose(parts: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """transpose_partition without its nonnegativity scan."""
    width = parts[0] if parts else 0
    at_value = [0] * (width + 1)  # the parts at each value, clamped at width
    for x in parts:
        at_value[min(x, width)] += 1
    return tuple(accumulate(at_value[:0:-1]))[::-1]  # entry j: the parts above j


def level_rank_D(lam: GLWeight) -> tuple[GLWeight, int]:
    """Level-rank image of a rank-n simple: a rank p-n weight and a parity.

    Shift to the polynomial weight mu = lam - lam_n*(1,..,1), transpose,
    read the transpose as a rank p-n weight and twist back by chi^{lam_n}.
    The parity is deg(lam) mod 2 (the super-twist bookkeeping).  mu has n
    parts, the largest lam_1 - lam_n <= p - n, so its transpose has at most
    p - n parts, each at most n: padded with zeros it is admissible at rank
    p - n and skips GLWeight's checks.  mu is nonnegative by construction,
    so its transpose skips transpose_partition's scan.
    """
    p, n = lam.p, lam.n
    base = lam.entries[-1]
    mu = tuple(x - base for x in lam.entries)
    mt = _transpose(mu)  # mu_1 = lam_1 - lam_n <= p - n parts
    image = _trusted_gl(mt + (0,) * (p - n - len(mt)), p)
    return chi_rotate(image, base), lam.degree % 2


# D is an involution (D(D(lam)) == lam for every admissible lam), so the
# preimage under level-rank duality is the image.
level_rank_D_inverse = level_rank_D


def level_rank_degree_zero(lam: GLWeight) -> GLWeight:
    """Independent degree-zero oracle: transpose the positive/negative parts.

    A degree-zero weight is the pair (alpha, beta) of its positive parts and
    negated-reversed negative parts; the image is the weight assembled from
    (alpha^t, beta^t) at rank p-n.
    """
    if lam.degree != 0:
        raise ValidationError("degree-zero oracle needs a degree-zero weight")
    p, n = lam.p, lam.n
    alpha = tuple(x for x in lam.entries if x > 0)
    beta = tuple(-x for x in reversed(lam.entries) if x < 0)
    # at has lam_1 parts and bt has -lam_n, at most p - n together.
    at, bt = transpose_partition(alpha), transpose_partition(beta)
    rank = p - n
    entries = at + (0,) * (rank - len(at) - len(bt)) + tuple(-x for x in reversed(bt))
    return GLWeight(entries, p)
