"""Circular weight diagrams: the codec between super weights and symbol circles.

A diagram places one of four symbols on each of the p vertices of a circle
(numbered 0..p-1 clockwise) and carries a label t1^(-s) t2^(r):

    'o'  empty vertex
    '>'  clockwise arrow   (a residue of the mu-ladder only)
    '<'  counterclockwise arrow  (a residue of the nu-ladder only)
    'x'  both ladders hit the vertex (a cross)

Crosses count the atypicality.  The canonical storage always starts at
vertex 0; cutting at another vertex is a view used for rendering.

The codec is the one residue ladder of alcove.py applied to both blocks:
encode reads the ladders off superweights.residue_data and places the
residue sets with assemble_symbols; decode reads them back with
symbol_residues, inverts each block with alcove.ladder_weight and maps the
second one back with superweights.second_block.  These two helpers are the
only place symbols and residue sets are converted.

Diagrams are validated once, at the boundary.  A WeightDiagram is an
immutable tuple (p, symbols, s, r): its constructor checks p, that its
symbols are a string of known symbols, both block counts and that s and r
are integers, and the CLI builds through it.  Every diagram the library
derives from a valid diagram or super weight is one tuple.__new__ in
_trusted, which skips the checks: encode (a valid super weight fixes
them), the cap slides of caps and the translation functors' table edits,
which all keep p, the length and both block counts.  In the other
direction decode builds its weight with superweights._trusted_weight and
its shape with superweights._trusted_shape: the ladder of a valid diagram
inverts to an admissible weight, and its valid p and block counts are a
valid shape.  The cap calculus works on diagrams end to end
(caps.p_set_diagrams, kac_diagrams, replay_diagrams), and a weight is
decoded only where a caller asks for one.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .alcove import ladder_weight
from .errors import ValidationError
from .fusion import check_prime
from .superweights import SuperWeight, _trusted_shape, _trusted_weight, residue_data, second_block

EMPTY, LEFT, RIGHT, CROSS = "o", "<", ">", "x"
_SYMBOLS = frozenset((EMPTY, LEFT, RIGHT, CROSS))
_FIRST_BLOCK = RIGHT + CROSS
_SECOND_BLOCK = LEFT + CROSS


class WeightDiagram(NamedTuple("WeightDiagram", [("p", int), ("symbols", str), ("s", int), ("r", int)])):
    """Symbols at vertices 0..p-1 plus the label exponents (s, r).

    A tuple: it equals, hashes and iterates as (p, symbols, s, r).  Pickle and
    copy rebuild it through __new__; namedtuple's _make and _replace skip it.
    """

    __slots__ = ()

    def __new__(cls, p: int, symbols: str, s: int, r: int) -> WeightDiagram:
        d = tuple.__new__(cls, (p, symbols, s, r))
        check_prime(p)
        for name, value in (("s", s), ("r", r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not isinstance(symbols, str):
            raise ValidationError(f"symbols must be a string, got {symbols!r}")
        if len(symbols) != p:
            raise ValidationError(f"need {p} symbols, got {len(symbols)}")
        unknown = set(symbols) - _SYMBOLS
        if unknown:
            raise ValidationError(f"unknown symbols {sorted(unknown)}")
        m, n = d.m, d.n
        if m < 1 or n < 1 or m + n >= p:
            raise ValidationError(f"symbol counts m={m}, n={n} invalid for p={p}")
        return d

    @property
    def m(self) -> int:
        return self.symbols.count(RIGHT) + self.symbols.count(CROSS)

    @property
    def n(self) -> int:
        return self.symbols.count(LEFT) + self.symbols.count(CROSS)

    @property
    def cross_count(self) -> int:
        return self.symbols.count(CROSS)

    def label(self) -> tuple[int, int]:
        """Exponents (e1, e2) of the label monomial t1^e1 t2^e2."""
        return (-self.s, self.r)


def _trusted(p: int, symbols: str, s: int, r: int) -> WeightDiagram:
    """A WeightDiagram without its checks, for diagrams the library derives
    from a valid diagram or super weight, keeping p, the length and both
    block counts valid."""
    return tuple.__new__(WeightDiagram, (p, symbols, s, r))


class CutDiagram(NamedTuple):
    """Linearized view: symbols read clockwise from the cut vertex."""

    symbols: str
    cut: int
    e1: int
    e2: int


def assemble_symbols(a: Iterable[int], b: Iterable[int], p: int) -> str:
    """Symbols of the circle whose first block sits at residues a, second at b."""
    syms = [EMPTY] * p
    for k in a:
        syms[k] = RIGHT
    for k in b:
        syms[k] = CROSS if syms[k] == RIGHT else LEFT
    return "".join(syms)


def symbol_residues(symbols: str) -> tuple[list[int], list[int]]:
    """Residues of the first and of the second block, ascending; inverts assemble_symbols."""
    first, second = [], []
    for k, sym in enumerate(symbols):
        if sym in _FIRST_BLOCK:
            first.append(k)
        if sym in _SECOND_BLOCK:
            second.append(k)
    return first, second


def encode(lam: SuperWeight) -> WeightDiagram:
    """Diagram of a super weight: crosses at shared residues, label from (s, r)."""
    rd = residue_data(lam)
    p = lam.shape.p
    return _trusted(p, assemble_symbols(rd.a, rd.b, p), rd.s, rd.r)


def decode(d: WeightDiagram, m: int | None = None, n: int | None = None) -> SuperWeight:
    """The unique super weight encoding to d.

    If m or n are supplied they are checked against the symbol counts.
    """
    if m is not None and d.m != m:
        raise ValidationError(f"diagram carries m={d.m} right-arrows, expected {m}")
    if n is not None and d.n != n:
        raise ValidationError(f"diagram carries n={d.n} left-arrows, expected {n}")
    a, b = symbol_residues(d.symbols)
    mu = ladder_weight(a, d.s, d.p)
    nu = second_block(ladder_weight(b, d.r, d.p), len(a))
    return _trusted_weight(_trusted_shape(len(a), len(b), d.p), mu, nu)


def cut(d: WeightDiagram, k: int) -> CutDiagram:
    """Read the circle clockwise starting at vertex k."""
    if not 0 <= k < d.p:
        raise ValidationError(f"cut vertex {k} out of range 0..{d.p - 1}")
    e1, e2 = d.label()
    return CutDiagram(d.symbols[k:] + d.symbols[:k], k, e1, e2)


def render_ascii(d: WeightDiagram, k: int = 0) -> str:
    """Fixed single-line text form, e.g. 'o<ox>>x<oo> @3 t1^-3 t2^2'."""
    c = cut(d, k)
    return f"{c.symbols} @{c.cut} t1^{c.e1} t2^{c.e2}"
