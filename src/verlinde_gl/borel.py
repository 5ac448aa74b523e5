"""Relabeling of simple GL(X)-modules between Borel subgroups.

X decomposes into simple summands X_1, .., X_k with types (dimensions) read
off a shape; the canonical arrangement lists types nondecreasing.  A
permutation w places summand i at position w(i) and thereby picks a Borel;
borel_translate converts a w-highest-weight label into the standard one.

Permutations of equal-type summands act by plain entry permutation.  An
adjacent swap of distinct types (m, r), m < r, is an odd reflection: the
two affected parts are bridged into a super label (mu | nu) of
GL(L_m | L_n), n = p - r, through level-rank duality on the rank-r part,
and converted with the lowest-weight machinery of the caps module.

Labels are validated where they enter: GLXShape, TupleWeight and the
permutation checks.  What this module derives from valid labels is built
unchecked, each for a reason its function states: the bridge's super
weight, shape and parts, and the tuple weights of conjugate_relabel and
borel_translate (_trusted_tuple).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import _Layer
from .alcove import GLWeight, _as_tuple, _trusted_gl, level_rank_D
from .errors import ContractError, ValidationError
from .fusion import MAX_P, check_prime

# Only odd reflections read the cap calculus and super weights.
caps, superweights = _Layer("caps", globals()), _Layer("superweights", globals())


class GLXShape(NamedTuple("GLXShape", [("p", int), ("types", tuple[int, ...])])):
    """Summand types of X = X_1 + .. + X_k, each in 1..p-1."""

    __slots__ = ()

    def __new__(cls, p: int, types: tuple[int, ...]) -> GLXShape:
        check_prime(p)
        types = _as_tuple(types, "types")
        if not types:
            raise ValidationError("shape needs at least one summand")
        if any(type(t) is not int or not 1 <= t <= p - 1 for t in types):
            raise ValidationError(f"types must lie in 1..{p - 1}: {types}")
        return tuple.__new__(cls, (p, types))

    @property
    def k(self) -> int:
        return len(self.types)

    @property
    def is_canonical(self) -> bool:
        return all(self.types[i] <= self.types[i + 1] for i in range(self.k - 1))

    def blocks(self) -> list[range]:
        """Maximal runs of equal type, as index ranges."""
        out = []
        start = 0
        for i in range(1, self.k + 1):
            if i == self.k or self.types[i] != self.types[start]:
                out.append(range(start, i))
                start = i
        return out


class TupleWeight(NamedTuple("TupleWeight", [("shape", GLXShape), ("parts", tuple[GLWeight, ...])])):
    """One admissible part per summand, part i of rank types[i]."""

    __slots__ = ()

    def __new__(cls, shape: GLXShape, parts: tuple[GLWeight, ...]) -> TupleWeight:
        if not isinstance(shape, GLXShape):
            raise ValidationError(f"shape must be a GLXShape, got {shape!r}")
        parts = _as_tuple(parts, "parts")
        if len(parts) != shape.k:
            raise ValidationError(f"expected {shape.k} parts, got {len(parts)}")
        for i, part in enumerate(parts):
            if not isinstance(part, GLWeight):
                raise ValidationError(f"part {i} must be a GLWeight, got {part!r}")
            if part.p != shape.p:
                raise ValidationError("part characteristic differs from the shape")
            if part.n != shape.types[i]:
                raise ValidationError(f"part {i} has rank {part.n}, summand type is {shape.types[i]}")
        return tuple.__new__(cls, (shape, parts))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(part.degree for part in self.parts)


def _trusted_tuple(shape: GLXShape, parts: tuple[GLWeight, ...]) -> TupleWeight:
    """A TupleWeight without its checks, for parts the library derives from a
    valid tuple weight: a tuple of GLWeights at shape.p, part i of rank types[i]."""
    return tuple.__new__(TupleWeight, (shape, parts))


def check_permutation(w: tuple[int, ...], k: int) -> tuple[int, ...]:
    """w[i] is the (0-indexed) position of summand i; must be a bijection of ints."""
    w = _as_tuple(w, "permutation")
    if any(type(x) is not int for x in w) or sorted(w) != list(range(k)):
        raise ValidationError(f"{w} is not a permutation of 0..{k - 1}")
    return tuple(w)


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, pos in enumerate(w):
        inv[pos] = i
    return tuple(inv)


def is_w_dominant(vec: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Whether a character is nonincreasing when read in position order."""
    vec = _as_tuple(vec, "character")
    inv = _inverse(check_permutation(w, len(vec)))
    read = [vec[inv[q]] for q in range(len(vec))]
    return all(read[q] >= read[q + 1] for q in range(len(read) - 1))


def w_dominance_leq(mu: TupleWeight, lam: TupleWeight, w: tuple[int, ...]) -> bool:
    """mu <=_w lam: the difference of degree characters is w-dominant."""
    if mu.shape != lam.shape:
        raise ValidationError("tuple weights must share a shape")
    diff = tuple(a - b for a, b in zip(lam.degrees, mu.degrees))
    return is_w_dominant(diff, w)


def w_integrable(lam: TupleWeight, w: tuple[int, ...]) -> bool:
    """Within every isotypic block, degrees read in w-position order are nonincreasing."""
    if not lam.shape.is_canonical:
        raise ValidationError("integrability lives on the canonical arrangement")
    check_permutation(w, lam.shape.k)
    for block in lam.shape.blocks():
        members = sorted(block, key=lambda i: w[i])
        degs = [lam.parts[i].degree for i in members]
        if any(degs[q] < degs[q + 1] for q in range(len(degs) - 1)):
            return False
    return True


def conjugate_relabel(lam: TupleWeight, w: tuple[int, ...]) -> TupleWeight:
    """Standard label for a block-preserving w: position q gets part w^-1(q).

    w keeps every summand's type, which is checked, so each part lands on a
    summand of its own rank and the result skips TupleWeight's checks.
    """
    shape = lam.shape
    w = check_permutation(w, shape.k)
    if any(shape.types[i] != shape.types[w[i]] for i in range(shape.k)):
        raise ContractError("w moves a summand across isotypic blocks")
    if not w_integrable(lam, w):
        raise ContractError("weight is not w-integrable")
    inv = _inverse(w)
    return _trusted_tuple(shape, tuple([lam.parts[inv[q]] for q in range(shape.k)]))


def _pair_to_super(small: GLWeight, big: GLWeight) -> superweights.SuperWeight:
    """Bridge a (rank m, rank r) pair, m < r, to the GL(L_m | L_n) label.

    The caller checks m < r first, so m + (p - r) < p; both blocks are
    admissible, so the label skips SuperWeight's and SuperShape's checks.
    """
    p = small.p
    m, r = small.n, big.n
    nu, _parity = level_rank_D(big)
    return superweights._trusted_weight(superweights._trusted_shape(m, p - r, p), small.entries, nu.entries)


def _super_to_pair(lam: superweights.SuperWeight) -> tuple[GLWeight, GLWeight]:
    """Inverse bridge: (mu | nu) back to (rank m, rank p-n) parts; level_rank_D is an involution.

    The blocks of a valid SuperWeight are admissible, so the parts skip
    GLWeight's checks.
    """
    p = lam.shape.p
    big, _parity = level_rank_D(_trusted_gl(lam.nu, p))
    return _trusted_gl(lam.mu, p), big


def odd_reflect_pair(
    small: GLWeight, big: GLWeight, direction: str
) -> tuple[GLWeight, GLWeight]:
    """Relabel a two-summand simple across the odd reflection.

    Inputs and outputs are in summand convention (small-type part first).
    direction 'to_sigma': the input labels the standard order (small type
    first); the output labels the swapped Borel.  direction 'to_standard':
    the inverse.
    """
    if small.p != big.p:
        raise ValidationError("parts must share the characteristic")
    if small.n >= big.n:
        raise ValidationError("odd reflection needs distinct types, small first")
    if direction == "to_sigma":
        image = caps.standard_to_sigma(_pair_to_super(small, big))
    elif direction == "to_standard":
        image = caps.sigma_to_standard(_pair_to_super(small, big))
    else:
        raise ValidationError(f"direction must be 'to_sigma' or 'to_standard', got {direction!r}")
    return _super_to_pair(image)


def _swap_adjacent(
    entries: list[tuple[int, GLWeight]], q: int, shape: GLXShape
) -> None:
    """Swap the summands at positions q, q+1, relabeling the two parts."""
    (i, x), (j, y) = entries[q], entries[q + 1]
    ti, tj = shape.types[i], shape.types[j]
    if ti == tj:
        entries[q], entries[q + 1] = (j, x), (i, y)
    elif ti > tj:
        # Current order is the sigma order of the pair (small type tj last).
        small, big = odd_reflect_pair(y, x, "to_standard")
        entries[q], entries[q + 1] = (j, small), (i, big)
    else:
        small, big = odd_reflect_pair(x, y, "to_sigma")
        entries[q], entries[q + 1] = (j, big), (i, small)


# borel_translate makes one adjacent swap per inversion of w.  w reversed on
# types 1, 2 at p = 5 takes 0.13 s for k = 100, 0.33 s for 150 and 0.53 s for
# 200; more summands are refused.
# Each unequal-type swap is an odd reflection reading a diagram of p vertices:
# one at p = 999,983 takes 1.8 s, 961 at p = 1009 take 1.7 s, 5,625 at p = 101
# take 1.0 s.  Reflections times p above MAX_P are refused (one always answers).
BOREL_TRANSLATE_MAX_SUMMANDS = 150
BOREL_TRANSLATE_MAX_VERTEX_READS = MAX_P


def borel_translate(
    lam: TupleWeight, w: tuple[int, ...], *, rightmost_first: bool = False
) -> TupleWeight:
    """Standard-Borel label of the simple with w-highest weight lam.

    Sorts the w-arrangement back to canonical by adjacent swaps; equal-type
    swaps exchange entries, unequal-type swaps apply the odd reflection.
    rightmost_first picks a different reduced factorization of w (used by the
    well-definedness probe); the result should not depend on it.  More than
    BOREL_TRANSLATE_MAX_SUMMANDS summands, or odd reflections (the inverted
    pairs of w of unequal type) times p above BOREL_TRANSLATE_MAX_VERTEX_READS,
    raise ValidationError before the first swap.  A swap moves each part
    with its summand, and the sort ends with summand q at position q, so the
    result skips TupleWeight's checks.
    """
    shape = lam.shape
    if shape.k > BOREL_TRANSLATE_MAX_SUMMANDS:
        limit = BOREL_TRANSLATE_MAX_SUMMANDS
        raise ValidationError(f"{shape.k} summands exceed BOREL_TRANSLATE_MAX_SUMMANDS = {limit}")
    if not shape.is_canonical:
        raise ValidationError("borel_translate expects the canonical arrangement")
    w = check_permutation(w, shape.k)
    reflections = sum(w[a] > w[b] and shape.types[a] != shape.types[b] for a, b in combinations(range(shape.k), 2))
    if reflections * shape.p > BOREL_TRANSLATE_MAX_VERTEX_READS:
        limit = BOREL_TRANSLATE_MAX_VERTEX_READS
        raise ValidationError(
            f"{reflections} odd reflections of {shape.p} vertices exceed BOREL_TRANSLATE_MAX_VERTEX_READS = {limit}"
        )
    if not w_integrable(lam, w):
        raise ContractError("weight is not w-integrable")
    inv = _inverse(w)
    entries = [(inv[q], lam.parts[inv[q]]) for q in range(shape.k)]
    # Leftmost inversion first is insertion sort from the left; rightmost first is its mirror.
    step = 1 if rightmost_first else -1
    for start in range(shape.k - 2, -1, -1) if rightmost_first else range(shape.k - 1):
        q = start
        while 0 <= q < shape.k - 1 and entries[q][0] > entries[q + 1][0]:
            _swap_adjacent(entries, q, shape)
            q += step
    return _trusted_tuple(shape, tuple([part for _, part in entries]))
