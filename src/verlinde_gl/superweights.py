"""Weight arithmetic for GL(L_m | L_n), the two-block super convention.

A super weight (mu | nu) is a pair of admissible weights for GL_m and GL_n
with m + n < p, treated as a vector in Z^(m+n) when convenient.  The first m
coordinates pair positively under the bilinear form, the last n negatively.

Residue data: the ladders mu_i - i + 1 = a_i + p*s_i and
-m - nu_j + j = b_j + p*r_j (0 <= a_i, b_j < p) carry everything the
diagram calculus needs; s = sum(s_i) and r = sum(r_j) are the label
exponents.  The second ladder increases in j; it is the content ladder,
read in reverse, of second_block(nu, m) = (n - m) - w0(nu), an admissible
weight of the same rank.  So both blocks go through the one residue ladder
alcove.weight_ladder / alcove.ladder_weight, and second_block, an
involution, is the only code that writes the second block's offset.

Super weights are validated once, at the boundary, as diagrams are.  A
SuperWeight is an immutable tuple (shape, mu, nu): its constructor checks
that both blocks have integer entries and are admissible, and
super_weight and the CLI build through it.  The producers whose weights
are admissible by construction build with _trusted_weight, one
tuple.__new__ that skips the checks, and their shapes with _trusted_shape:
diagrams.decode (ladder_weight inverts the ladder of an admissible weight,
and a valid diagram fixes a valid shape), enumeration.window_weights
(admissible_tuples yields only admissible tuples), the sigma pair of caps
(standard_to_sigma, sigma_to_standard and dual_simple_label: beta is
constant on each block, so shifting or negating and reversing an
admissible block keeps it admissible) and borel's odd-reflection bridge
(level-rank duality of a valid pair of parts).
"""

from __future__ import annotations

from operator import add, mul
from typing import NamedTuple

from .alcove import _as_tuple, is_admissible, weight_ladder
from .errors import ValidationError
from .fusion import check_prime


class SuperShape(NamedTuple("SuperShape", [("m", int), ("n", int), ("p", int)])):
    """Block sizes (m, n) and the characteristic, with m + n < p."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, p: int) -> SuperShape:
        check_prime(p)
        if m < 1 or n < 1:
            raise ValidationError(f"block sizes must be positive: ({m}, {n})")
        if m + n >= p:
            raise ValidationError(f"need m + n < p, got m={m}, n={n}, p={p}")
        return tuple.__new__(cls, (m, n, p))


def _trusted_shape(m: int, n: int, p: int) -> SuperShape:
    """A SuperShape without its checks, for block sizes read off a valid
    label: p a valid prime, m, n >= 1 and m + n < p."""
    return tuple.__new__(SuperShape, (m, n, p))


def _check_blocks(p: int, *blocks: tuple[str, tuple[int, ...], int]) -> None:
    """Refuse the first (name, block, rank) with a non-integer entry or not admissible at p."""
    for name, block, rank in blocks:
        if not all(type(x) is int for x in block):
            raise ValidationError(f"{name}={block} must have integer entries")
        if not is_admissible(block, rank, p):
            raise ValidationError(f"{name}={block} not admissible for rank {rank}, p={p}")


class SuperWeight(NamedTuple("SuperWeight", [("shape", SuperShape), ("mu", tuple[int, ...]), ("nu", tuple[int, ...])])):
    """A pair (mu | nu) of admissible weights labeling a simple/Kac/projective.

    A tuple: it equals, hashes and iterates as (shape, mu, nu).  Pickle and
    copy rebuild it through __new__; namedtuple's _make and _replace skip it.
    """

    __slots__ = ()

    def __new__(cls, shape: SuperShape, mu: tuple[int, ...], nu: tuple[int, ...]) -> SuperWeight:
        if not isinstance(shape, SuperShape):
            raise ValidationError(f"shape must be a SuperShape, got {shape!r}")
        mu, nu = _as_tuple(mu, "mu"), _as_tuple(nu, "nu")
        _check_blocks(shape.p, ("mu", mu, shape.m), ("nu", nu, shape.n))
        return tuple.__new__(cls, (shape, mu, nu))

    @property
    def vector(self) -> tuple[int, ...]:
        return self.mu + self.nu

    @property
    def degree(self) -> int:
        return sum(self.mu) + sum(self.nu)


def _trusted_weight(shape: SuperShape, mu: tuple[int, ...], nu: tuple[int, ...]) -> SuperWeight:
    """A SuperWeight without its checks, for weights admissible by construction
    whose mu and nu are already tuples of ints of the shape's ranks: the
    producers listed in the module docstring."""
    return tuple.__new__(SuperWeight, (shape, mu, nu))


def super_weight(p: int, mu: tuple[int, ...] | list[int], nu: tuple[int, ...] | list[int]) -> SuperWeight:
    """Convenience constructor inferring the shape from the part lengths."""
    mu, nu = _as_tuple(mu, "mu"), _as_tuple(nu, "nu")
    return SuperWeight(SuperShape(len(mu), len(nu), p), mu, nu)


class ResidueData(NamedTuple):
    """Residues and label exponents of a super weight."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    s: int
    r: int


class Casimir(NamedTuple):
    value: int
    residue: int


def rho2(shape: SuperShape) -> tuple[int, ...]:
    """Twice the super half-sum: even positive roots minus odd positive roots."""
    m, n = shape.m, shape.n
    eps = tuple(m - n - (2 * i - 1) for i in range(1, m + 1))
    dlt = tuple(n + m - (2 * j - 1) for j in range(1, n + 1))
    return eps + dlt


def beta(shape: SuperShape) -> tuple[int, ...]:
    """Sum of all odd positive roots: (n,..,n | -m,..,-m), constant on each block."""
    return (shape.n,) * shape.m + (-shape.m,) * shape.n


def form(u: tuple[int, ...], v: tuple[int, ...], shape: SuperShape) -> int:
    """Signed inner product: +1 on the first m coordinates, -1 on the last n."""
    k = shape.m + shape.n
    if len(u) != k or len(v) != k:
        raise ValidationError(f"vectors must have length {k}")
    m = shape.m
    return sum(map(mul, u[:m], v[:m])) - sum(map(mul, u[m:], v[m:]))


def second_block(nu: tuple[int, ...], m: int) -> tuple[int, ...]:
    """(n - m) - w0(nu): the weight whose content ladder is (j - m) - nu_j reversed.

    An involution of the admissible rank-n weights; decode applies it to
    the weight read off the second block's residues.
    """
    k = len(nu) - m
    return tuple([k - y for y in reversed(nu)])


def residue_data(lam: SuperWeight) -> ResidueData:
    """Residue ladders of (mu | nu); each spreads less than p, so its residues are distinct.

    b is listed in weight order, j = 1..n.
    """
    p = lam.shape.p
    a, s = weight_ladder(lam.mu, p)
    b, r = weight_ladder(second_block(lam.nu, lam.shape.m), p)
    b.reverse()
    return ResidueData(tuple(a), tuple(b), s, r)


def atypicality(lam: SuperWeight) -> int:
    """Number of odd roots pairing to zero mod p: the residue collisions.

    <lam + rho, eps_i - delta_j> equals the content difference
    (mu_i - i + 1) - (j - m - nu_j), so it vanishes mod p exactly when the
    residues a_i and b_j agree; residues are distinct within each block.
    suites.suite_filtration checks this count against the bilinear form.
    """
    rd = residue_data(lam)
    return len(set(rd.a) & set(rd.b))


def is_typical(lam: SuperWeight) -> bool:
    """Atypicality zero; equivalently the Kac module with this label is simple."""
    return atypicality(lam) == 0


kac_irreducible = is_typical


def casimir_scalar(lam: SuperWeight) -> Casimir:
    """Casimir eigenvalue <lam + 2*rho, lam> on the Kac module, with residue."""
    sh = lam.shape
    vec = lam.vector
    value = form(tuple(map(add, vec, rho2(sh))), vec, sh)
    return Casimir(value, value % sh.p)


def casimir_unsuper(mu: tuple[int, ...], pi: tuple[int, ...], p: int) -> int:
    """Casimir on the two-block label (mu, pi) before the super convention.

    Standard scalar product <(mu, pi) + 2*rho^(m + p - n), (mu, pi)> in
    Z^(m + p - n); congruent mod p to the super Casimir of (mu | D(pi)).
    """
    check_prime(p)
    mu, pi = _as_tuple(mu, "mu"), _as_tuple(pi, "pi")
    _check_blocks(p, ("mu", mu, len(mu)), ("pi", pi, len(pi)))
    vec = mu + pi
    k = len(vec)
    r2 = tuple(k - (2 * i - 1) for i in range(1, k + 1))
    return sum((vec[i] + r2[i]) * vec[i] for i in range(k))


def dominance_leq(alpha: SuperWeight, lam: SuperWeight) -> bool:
    """alpha <= lam: equal total degree and |alpha_mu| <= |lam_mu|."""
    if alpha.shape != lam.shape:
        raise ValidationError("dominance needs equal shapes")
    return alpha.degree == lam.degree and sum(alpha.mu) <= sum(lam.mu)
