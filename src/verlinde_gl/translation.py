"""Translation functors on weight diagrams and the loop-module oracle.

F_i and E_i act only on vertices i and i+1 (mod p): F_i moves arrows one
step in the direction they face, E_i against it.  Arrows are fermionic (two
arrows of one kind never share a vertex), and every move across the boundary
between vertices p-1 and 0 twists the label:

    '>' moved p-1 -> 0 gains t1^(-1);  '>' moved 0 -> p-1 gains t1.
    '<' moved p-1 -> 0 gains t2;       '<' moved 0 -> p-1 gains t2^(-1).

Each two-term table row lists the dominance-smaller term first, so no
output is sorted at run time: F moving '<' keeps sum(mu) while F moving '>'
raises it by one, and E moving '>' lowers it by one while E moving '<' keeps
it.  suite_equivariance checks this order on every two-term output.

The same operators act on the tensor product of a wedge of residue vectors
(the mu block, label t1) and a dual wedge (the nu block, label t2).  Both
realizations are implemented independently; phi_equivariance_check compares
them term by term, labels included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    CROSS,
    EMPTY,
    LEFT,
    RIGHT,
    WeightDiagram,
    assemble_symbols,
    decode,
    encode,
    replace_symbols,
)
from .errors import ContractError, ValidationError
from .superweights import SuperWeight, residue_data

# Rewrite tables: (x, y) -> list of (new_x, new_y, dt1, dt2) with the label
# twist active only at i = p-1 (dt* are multiplied by that indicator).
_F_TABLE = {
    (RIGHT, EMPTY): [(EMPTY, RIGHT, -1, 0)],
    (EMPTY, LEFT): [(LEFT, EMPTY, 0, -1)],
    (RIGHT, LEFT): [(CROSS, EMPTY, 0, -1), (EMPTY, CROSS, -1, 0)],
    (CROSS, LEFT): [(LEFT, CROSS, -1, 0)],
    (RIGHT, CROSS): [(CROSS, RIGHT, 0, -1)],
    (CROSS, EMPTY): [(LEFT, RIGHT, -1, 0)],
    (EMPTY, CROSS): [(LEFT, RIGHT, 0, -1)],
}
_E_TABLE = {
    (LEFT, EMPTY): [(EMPTY, LEFT, 0, 1)],
    (EMPTY, RIGHT): [(RIGHT, EMPTY, 1, 0)],
    (LEFT, RIGHT): [(CROSS, EMPTY, 1, 0), (EMPTY, CROSS, 0, 1)],
    (CROSS, RIGHT): [(RIGHT, CROSS, 0, 1)],
    (LEFT, CROSS): [(CROSS, LEFT, 1, 0)],
    (CROSS, EMPTY): [(RIGHT, LEFT, 0, 1)],
    (EMPTY, CROSS): [(RIGHT, LEFT, 1, 0)],
}


@dataclass(frozen=True)
class DiagramSum:
    """Zero, one or two diagrams; two-term sums list the dominance-smaller term first."""

    terms: tuple[WeightDiagram, ...]

    def __post_init__(self) -> None:
        if len(self.terms) > 2:
            raise ValidationError("translation output has at most two terms")

    def __len__(self) -> int:
        return len(self.terms)


def _apply_table(table: dict, i: int, d: WeightDiagram) -> DiagramSum:
    p = d.p
    if not 0 <= i < p:
        raise ValidationError(f"residue {i} out of range 0..{p - 1}")
    j = (i + 1) % p
    eps = 1 if i == p - 1 else 0
    return DiagramSum(tuple(
        replace_symbols(d, {i: new_x, j: new_y}, t1=dt1 * eps, t2=dt2 * eps)
        for new_x, new_y, dt1, dt2 in table.get((d.symbols[i], d.symbols[j]), ())
    ))


def apply_F(i: int, d: WeightDiagram) -> DiagramSum:
    """F_i on a diagram: arrows at (i, i+1) step with their facing."""
    return _apply_table(_F_TABLE, i, d)


def apply_E(i: int, d: WeightDiagram) -> DiagramSum:
    """E_i on a diagram: arrows at (i, i+1) step against their facing."""
    return _apply_table(_E_TABLE, i, d)


def apply_functor(kind: str, i: int, d: WeightDiagram) -> DiagramSum:
    if kind == "F":
        return apply_F(i, d)
    if kind == "E":
        return apply_E(i, d)
    raise ValidationError(f"kind must be 'F' or 'E', got {kind!r}")


@dataclass(frozen=True)
class KacExtension:
    """Effect of a translation functor on a Kac class.

    One term: T K(lam) = K(quotient), sub is None.  Two terms: a short exact
    sequence 0 -> K(sub) -> T K(lam) -> K(quotient) -> 0 with
    quotient < sub in the degree dominance order.
    """

    quotient: SuperWeight
    sub: SuperWeight | None

    @property
    def terms(self) -> tuple[SuperWeight, ...]:
        return (self.quotient,) if self.sub is None else (self.quotient, self.sub)


def translate_kac(kind: str, i: int, lam: SuperWeight) -> KacExtension | None:
    """Kac-module image under F_i/E_i; None when the functor kills the class."""
    ds = apply_functor(kind, i, encode(lam))
    if len(ds) == 0:
        return None
    if len(ds) == 1:
        return KacExtension(decode(ds.terms[0]), None)
    return KacExtension(decode(ds.terms[0]), decode(ds.terms[1]))


def translate_simple(kind: str, i: int, lam: SuperWeight) -> SuperWeight:
    """Candidate label of T L(lam) when the cross count does not increase.

    Caveat: the functor may send L(lam) to zero instead of L(result); the
    diagram calculus does not decide which, so the caller gets the unique
    candidate.  Raises ContractError outside the single-term regime.
    """
    d = encode(lam)
    ds = apply_functor(kind, i, d)
    if len(ds) == 0:
        raise ContractError("functor kills the diagram; no candidate simple")
    if len(ds) == 2 or ds.terms[0].cross_count > d.cross_count:
        raise ContractError("cross count increases; simple translation undefined")
    return decode(ds.terms[0])


def translate_projective(kind: str, i: int, lam: SuperWeight) -> SuperWeight:
    """Label of the indecomposable T P(lam) when the cross count does not drop.

    Two-term outputs pick the dominance-smaller weight.
    """
    d = encode(lam)
    ds = apply_functor(kind, i, d)
    if len(ds) == 0:
        raise ContractError("functor kills the diagram; no projective image")
    if ds.terms[0].cross_count < d.cross_count:
        raise ContractError("cross count drops; projective translation undefined")
    return decode(ds.terms[0])


@dataclass(frozen=True)
class LoopVector:
    """Basis tensor (wedge over a) t1^(-s) (x) (dual wedge over b) t2^r.

    Residues are stored in the weight order of residue_data; every super
    weight maps to coefficient +1, reordering signs being absorbed by
    convention.
    """

    p: int
    a: tuple[int, ...]
    s: int
    b: tuple[int, ...]
    r: int
    coeff: int = 1

    def __post_init__(self) -> None:
        if len(set(self.a)) != len(self.a) or len(set(self.b)) != len(self.b):
            raise ValidationError("wedge residues must be distinct within a factor")


def loop_vector(lam: SuperWeight) -> LoopVector:
    """The basis vector assigned to a super weight."""
    rd = residue_data(lam)
    return LoopVector(lam.shape.p, rd.a, rd.s, rd.b, rd.r)


def loop_f(c: int, v: LoopVector) -> list[LoopVector]:
    """Chevalley lowering at residue c: raise a c-residue in either factor.

    Wedge factor: a_i = c becomes c+1 (t1 twist at the affine wall).  Dual
    factor: b_j = c+1 becomes c (t2 twist).  Occupied targets vanish.
    """
    p = v.p
    if not 0 <= c < p:
        raise ValidationError(f"residue {c} out of range 0..{p - 1}")
    up, down = c, (c + 1) % p
    out = []
    if up in v.a and down not in v.a:
        a = tuple(down if x == up else x for x in v.a)
        out.append(LoopVector(p, a, v.s + (1 if c == p - 1 else 0), v.b, v.r, v.coeff))
    if down in v.b and up not in v.b:
        b = tuple(up if x == down else x for x in v.b)
        out.append(LoopVector(p, v.a, v.s, b, v.r - (1 if c == p - 1 else 0), v.coeff))
    return out


def loop_e(c: int, v: LoopVector) -> list[LoopVector]:
    """Chevalley raising at residue c, adjoint to loop_f."""
    p = v.p
    if not 0 <= c < p:
        raise ValidationError(f"residue {c} out of range 0..{p - 1}")
    up, down = c, (c + 1) % p
    out = []
    if down in v.a and up not in v.a:
        a = tuple(up if x == down else x for x in v.a)
        out.append(LoopVector(p, a, v.s - (1 if c == p - 1 else 0), v.b, v.r, v.coeff))
    if up in v.b and down not in v.b:
        b = tuple(down if x == up else x for x in v.b)
        out.append(LoopVector(p, v.a, v.s, b, v.r + (1 if c == p - 1 else 0), v.coeff))
    return out


def _loop_term_to_diagram(v: LoopVector) -> WeightDiagram:
    """Assemble the diagram carrying the same residue sets and label."""
    return WeightDiagram(v.p, assemble_symbols(v.a, v.b, v.p), v.s, v.r)


def phi_equivariance_check(lam: SuperWeight, c: int) -> bool:
    """Diagram action equals loop action at residue c, labels included.

    Both F and E are compared; terms are matched as (symbols, s, r), which
    determines the decoded super weight at fixed p.
    """
    d = encode(lam)
    v = loop_vector(lam)
    for diag_terms, loop_terms in (
        (apply_F(c, d).terms, loop_f(c, v)),
        (apply_E(c, d).terms, loop_e(c, v)),
    ):
        if any(t.coeff != 1 for t in loop_terms):
            return False
        lhs = sorted((t.symbols, t.s, t.r) for t in diag_terms)
        rhs = sorted((t.symbols, t.s, t.r) for t in map(_loop_term_to_diagram, loop_terms))
        if lhs != rhs:
            return False
    return True


def act_on_sum(kind: str, i: int, classes: dict[WeightDiagram, int]) -> dict[WeightDiagram, int]:
    """Linear extension of F_i/E_i to integer combinations of diagrams."""
    out: dict[WeightDiagram, int] = {}
    for d, mult in classes.items():
        for term in apply_functor(kind, i, d).terms:
            out[term] = out.get(term, 0) + mult
    return {d: k for d, k in out.items() if k != 0}


def commutator(
    x: tuple[str, int], y: tuple[str, int], d: WeightDiagram
) -> dict[WeightDiagram, int]:
    """[x, y] d = x(y d) - y(x d) for generators x, y = (kind, residue), as an exact formal sum."""
    out: dict[WeightDiagram, int] = {}
    for sign, first, second in ((1, y, x), (-1, x, y)):
        for term, mult in act_on_sum(*second, act_on_sum(*first, {d: 1})).items():
            out[term] = out.get(term, 0) + sign * mult
    return {t: k for t, k in out.items() if k != 0}
