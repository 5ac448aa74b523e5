"""Translation functors on weight diagrams and the loop-module oracle.

F_i and E_i act only on vertices i and i+1 (mod p): F_i moves arrows one
step in the direction they face, E_i against it.  Arrows are fermionic (two
arrows of one kind never share a vertex), and every move across the boundary
between vertices p-1 and 0 twists the label:

    '>' moved p-1 -> 0 gains t1^(-1);  '>' moved 0 -> p-1 gains t1.
    '<' moved p-1 -> 0 gains t2;       '<' moved 0 -> p-1 gains t2^(-1).

With the label t1^(-s) t2^r, the twist is the change of block at vertex 0:
s moves with '>' or 'x' there, r with '<' or 'x'.

apply_functor(kind, i, d) is the one body of both functors.  It reads
_F_TABLE, or _E_TABLE, which is _F_TABLE with both arrows reversed since E
moves each arrow the way F moves the opposite one.  It returns a plain
tuple of zero, one or two diagrams; a two-term tuple lists the
dominance-smaller term first, in the order of its table row, so no output
is sorted at run time: F moving '<' keeps sum(mu) while F moving '>' raises
it by one, and E moving '>' lowers it by one while E moving '<' keeps it.
suite_equivariance checks this order on every two-term output.

Validation happens at the boundary: apply_functor checks kind and residue,
returns () at once for a pair with no table row, then builds each output
as one tuple.__new__ in diagrams._trusted, since every table row keeps p,
the length and both block counts of a valid diagram.  translation(d,
compositions) composes two generators on one diagram, sharing the single
steps, and keys each class by its diagram, a tuple, as act_on_sum does;
commutator and criterion 9 both read it.

The same operators act on the tensor product of a wedge of residue vectors
(the mu block, label t1) and a dual wedge (the nu block, label t2).  Both
realizations are implemented independently; _equivariant_terms compares
them term by term, labels included, for one diagram and the loop vector of
its weight: suite_equivariance runs it on one diagram per symbol string,
at label (0, 0), and phi_equivariance_check on a super weight.  Its loop
side builds no diagram, only plain tuples that a diagram compares equal to.
The loop side has one move body too: loop_f and loop_e wrap _loop_move,
whose E moves each residue the way F moves it back, with the opposite
twist; it reads no diagram code.  It is validated the same way:
loop_vector builds through LoopVector's checks, and _loop_move builds each
output as one tuple.__new__ in _trusted_loop.  That is sound because a
move replaces a residue only by one its factor lacks, so both factors stay
distinct; were an output bad, assemble_symbols would drop a symbol and the
comparison would still fail.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .diagrams import (
    CROSS,
    EMPTY,
    LEFT,
    RIGHT,
    _FIRST_BLOCK,
    _SECOND_BLOCK,
    WeightDiagram,
    _trusted,
    assemble_symbols,
    decode,
    encode,
)
from .errors import ContractError, ValidationError
from .superweights import SuperWeight, residue_data

# F_i's rewrite table: (x, y) at vertices (i, i+1) -> the new pairs, in output order.
_F_TABLE = {
    (RIGHT, EMPTY): [(EMPTY, RIGHT)],
    (EMPTY, LEFT): [(LEFT, EMPTY)],
    (RIGHT, LEFT): [(CROSS, EMPTY), (EMPTY, CROSS)],
    (CROSS, LEFT): [(LEFT, CROSS)],
    (RIGHT, CROSS): [(CROSS, RIGHT)],
    (CROSS, EMPTY): [(LEFT, RIGHT)],
    (EMPTY, CROSS): [(LEFT, RIGHT)],
}


def _mirror(pair: tuple[str, str]) -> tuple[str, str]:
    """The pair with both arrows reversed."""
    return tuple({LEFT: RIGHT, RIGHT: LEFT}.get(sym, sym) for sym in pair)


_E_TABLE = {_mirror(pair): [_mirror(row) for row in rows] for pair, rows in _F_TABLE.items()}
_TABLES = {"F": _F_TABLE, "E": _E_TABLE}


def apply_functor(kind: str, i: int, d: WeightDiagram) -> tuple[WeightDiagram, ...]:
    """F_i or E_i on a diagram: zero, one or two diagrams.

    F steps the arrows at (i, i+1) with their facing, E against it.  A
    two-term output lists the dominance-smaller term first, in the order
    of its table row.
    """
    table = _TABLES.get(kind)
    if table is None:
        raise ValidationError(f"kind must be 'F' or 'E', got {kind!r}")
    p, syms, s, r = d
    if not 0 <= i < p:
        raise ValidationError(f"residue {i} out of range 0..{p - 1}")
    if i < p - 1:
        rows = table.get((syms[i], syms[i + 1]))
        if rows is None:
            return ()
        head, tail = syms[:i], syms[i + 2 :]
        return tuple([_trusted(p, head + x + y + tail, s, r) for x, y in rows])
    # Across the affine wall the edited pair is (p-1, 0), and the label
    # twists by the change of block at vertex 0.
    old0 = syms[0]
    rows = table.get((syms[i], old0))
    if rows is None:
        return ()
    middle = syms[1:i]
    s0, r0 = s - (old0 in _FIRST_BLOCK), r - (old0 in _SECOND_BLOCK)
    return tuple([_trusted(p, y + middle + x, s0 + (y in _FIRST_BLOCK), r0 + (y in _SECOND_BLOCK)) for x, y in rows])


def apply_F(i: int, d: WeightDiagram) -> tuple[WeightDiagram, ...]:
    """F_i on a diagram: arrows at (i, i+1) step with their facing."""
    return apply_functor("F", i, d)


def apply_E(i: int, d: WeightDiagram) -> tuple[WeightDiagram, ...]:
    """E_i on a diagram: arrows at (i, i+1) step against their facing."""
    return apply_functor("E", i, d)


class KacExtension(NamedTuple):
    """Effect of a translation functor on a Kac class.

    One term: T K(lam) = K(quotient), sub is None.  Two terms: a short exact
    sequence 0 -> K(sub) -> T K(lam) -> K(quotient) -> 0 with
    quotient < sub in the degree dominance order.
    """

    quotient: SuperWeight
    sub: SuperWeight | None = None

    @property
    def terms(self) -> tuple[SuperWeight, ...]:
        return (self.quotient,) if self.sub is None else (self.quotient, self.sub)


def translate_kac(kind: str, i: int, lam: SuperWeight) -> KacExtension | None:
    """Kac-module image under F_i/E_i; None when the functor kills the class."""
    terms = apply_functor(kind, i, encode(lam))
    return KacExtension(*map(decode, terms)) if terms else None


def translate_simple(kind: str, i: int, lam: SuperWeight) -> SuperWeight:
    """Candidate label of T L(lam) when the cross count does not increase.

    Caveat: the functor may send L(lam) to zero instead of L(result); the
    diagram calculus does not decide which, so the caller gets the unique
    candidate.  Raises ContractError outside the single-term regime.
    """
    d = encode(lam)
    terms = apply_functor(kind, i, d)
    if not terms:
        raise ContractError("functor kills the diagram; no candidate simple")
    if len(terms) == 2 or terms[0].cross_count > d.cross_count:
        raise ContractError("cross count increases; simple translation undefined")
    return decode(terms[0])


def translate_projective(kind: str, i: int, lam: SuperWeight) -> SuperWeight:
    """Label of the indecomposable T P(lam) when the cross count does not drop.

    Two-term outputs pick the dominance-smaller weight.
    """
    d = encode(lam)
    terms = apply_functor(kind, i, d)
    if not terms:
        raise ContractError("functor kills the diagram; no projective image")
    if terms[0].cross_count < d.cross_count:
        raise ContractError("cross count drops; projective translation undefined")
    return decode(terms[0])


class LoopVector(NamedTuple("LoopVector", [("p", int), ("a", tuple[int, ...]), ("s", int), ("b", tuple[int, ...]), ("r", int)])):
    """Basis tensor (wedge over a) t1^(-s) (x) (dual wedge over b) t2^r.

    Residues are stored in the weight order of residue_data; every super
    weight maps to coefficient +1, reordering signs being absorbed by
    convention, so no coefficient is stored.
    """

    __slots__ = ()

    def __new__(cls, p: int, a: tuple[int, ...], s: int, b: tuple[int, ...], r: int) -> LoopVector:
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValidationError("wedge residues must be distinct within a factor")
        return tuple.__new__(cls, (p, a, s, b, r))


def _trusted_loop(p: int, a: tuple[int, ...], s: int, b: tuple[int, ...], r: int) -> LoopVector:
    """A LoopVector without its checks, for _loop_move's outputs: each
    moves one residue of a valid vector to a residue its factor lacks, so
    both factors stay distinct."""
    return tuple.__new__(LoopVector, (p, a, s, b, r))


def loop_vector(lam: SuperWeight) -> LoopVector:
    """The basis vector assigned to a super weight."""
    rd = residue_data(lam)
    return LoopVector(lam.shape.p, rd.a, rd.s, rd.b, rd.r)


def _loop_move(c: int, v: LoopVector, sign: int) -> list[LoopVector]:
    """The one body of loop_f (sign 1) and loop_e (sign -1).

    (src, dst) is (c, c+1) for F and (c+1, c) for E, mod p: a wedge residue
    src moves to dst (t1 twist sign at the affine wall), a dual residue dst
    to src (t2 twist -sign).  Occupied targets vanish, so a move only lands
    on a free residue and each output is built unchecked in _trusted_loop.
    """
    p, a, s, b, r = v
    if not 0 <= c < p:
        raise ValidationError(f"residue {c} out of range 0..{p - 1}")
    src, dst = (c, (c + 1) % p)[::sign]
    twist = sign if c == p - 1 else 0
    out = []
    if src in a and dst not in a:
        out.append(_trusted_loop(p, tuple(dst if x == src else x for x in a), s + twist, b, r))
    if dst in b and src not in b:
        out.append(_trusted_loop(p, a, s, tuple(src if x == dst else x for x in b), r - twist))
    return out


def loop_f(c: int, v: LoopVector) -> list[LoopVector]:
    """Chevalley lowering at residue c: a_i = c becomes c+1, then b_j = c+1 becomes c."""
    return _loop_move(c, v, 1)


def loop_e(c: int, v: LoopVector) -> list[LoopVector]:
    """Chevalley raising at residue c, adjoint to loop_f: a_i = c+1 becomes c, then b_j = c becomes c+1."""
    return _loop_move(c, v, -1)


def _equivariant_terms(
    d: WeightDiagram, v: LoopVector, c: int
) -> tuple[tuple[WeightDiagram, ...], tuple[WeightDiagram, ...]] | None:
    """(F_c d, E_c d) when both equal the loop action on v at residue c, else None.

    Terms are matched as the tuples (p, symbols, s, r) they are.  The loop
    side comes only from loop_f/loop_e on the residue tuples of v, assembled
    into plain tuples of the same fields; it builds no diagram.
    """
    out = []
    for kind, loop in (("F", loop_f), ("E", loop_e)):
        terms = apply_functor(kind, c, d)
        witness = [(q, assemble_symbols(a, b, q), s, r) for q, a, s, b, r in loop(c, v)]
        if len(terms) != len(witness) or (terms and sorted(terms) != sorted(witness)):
            return None
        out.append(terms)
    return out[0], out[1]


def phi_equivariance_check(lam: SuperWeight, c: int) -> bool:
    """Diagram action equals loop action at residue c, labels included, for F and E."""
    return _equivariant_terms(encode(lam), loop_vector(lam), c) is not None


def act_on_sum(kind: str, i: int, classes: dict[WeightDiagram, int]) -> dict[WeightDiagram, int]:
    """Linear extension of F_i/E_i to integer combinations of diagrams."""
    out: dict[WeightDiagram, int] = {}
    for d, mult in classes.items():
        for term in apply_functor(kind, i, d):
            out[term] = out.get(term, 0) + mult
    return {t: k for t, k in out.items() if k}


Generator = tuple[str, int]  # (kind, residue)


def translation(
    d: WeightDiagram, compositions: Iterable[tuple[Generator, Generator]]
) -> dict[tuple[Generator, Generator], dict[WeightDiagram, int]]:
    """x(y d) for each ordered generator pair (x, y), as a class {diagram: multiplicity}.

    Each single step y d is taken once and shared by every x applied after
    it, so a weight costs one apply_functor call per generator y and one per
    (x, term of y d) pair.
    """
    steps: dict[Generator, tuple[WeightDiagram, ...]] = {}
    table = {}
    for x, y in compositions:
        mids = steps.get(y)
        if mids is None:
            mids = steps[y] = apply_functor(*y, d)
        terms: dict[WeightDiagram, int] = {}
        for mid in mids:
            for t in apply_functor(*x, mid):
                terms[t] = terms.get(t, 0) + 1
        table[x, y] = terms
    return table


def commutator(x: Generator, y: Generator, d: WeightDiagram) -> dict[WeightDiagram, int]:
    """[x, y] d = x(y d) - y(x d) for generators x, y = (kind, residue), as an exact formal sum."""
    table = translation(d, ((x, y), (y, x)))
    out = dict(table[x, y])
    for t, k in table[y, x].items():
        out[t] = out.get(t, 0) - k
    return {t: k for t, k in out.items() if k}
