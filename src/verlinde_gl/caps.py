"""Cap diagrams and everything they compute: standard filtrations of
projectives, Kac composition factors, highest/lowest weights and the
relabeling between the two Borel orders of a two-block group.

Each cross is the source of exactly one cap, drawn clockwise to an empty
vertex.  The matching is one bracket match, _match_caps(d, step), the
matching of Brundan-Stroppel cup diagrams read on a circle: walk one lap
from vertex 0 in direction step; a cross opens, a circle closes the latest
open cross (or is free for now), arrows are skipped; the crosses still open
after the lap close on the free circles in lap order, latest cross first.
step = +1 gives the caps of cap_diagram; step = -1 walks counterclockwise,
which is the clockwise walk of the reflected circle k -> -k mod p and serves
sigma_to_standard.  As with brackets, caps are nested or disjoint and no
free circle sits strictly inside a cap: a circle is free only while no cross
is open.

Every edit slides crosses to empty vertices through _slide_crosses, whose
one rule twists the label by t1^(-step) t2^(step) per slide past p-1 -> 0.
Swapping the cross of cap j with its tail is the involution tau_j, a
clockwise slide; kac_composition and sigma_to_standard slide back.

kac_composition inverts p_set without trying candidates.  A factor lam has
a first free circle f; cut there, lam's caps nest inside one lap, so the
same bracket match, read off alpha's lap with each cap kept or swapped,
yields every factor once per cut.  The walk is an explicit stack, pruned to
branches that can still close, and refuses more than
KAC_COMPOSITION_MAX_NODES readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .diagrams import (
    CROSS,
    EMPTY,
    LEFT,
    RIGHT,
    WeightDiagram,
    _trusted,
    decode,
    encode,
)
from .errors import ContractError, ValidationError
from .superweights import SuperWeight, beta
from .translation import act_on_sum, apply_functor


class Cap(NamedTuple):
    source: int
    tail: int


@dataclass(frozen=True)
class CapDiagram:
    """Caps in swap order (inner first) plus the circles left free."""

    base: WeightDiagram
    caps: tuple[Cap, ...]
    free_circles: frozenset[int]

    def cap_label_twist(self, j: int) -> tuple[int, int]:
        """(t1, t2) exponents gained by swapping along cap j."""
        slid = _slide_crosses(self.base, (self.caps[j],), 1)
        return self.base.s - slid.s, slid.r - self.base.r


def _slide_crosses(d: WeightDiagram, moves, step: int) -> WeightDiagram:
    """Move the cross at each source to its empty target in direction step, in one build.

    A slide that goes backwards numerically passes p-1 -> 0 and multiplies
    the label by t1^(-step) t2^(step).  Moving crosses onto empty vertices
    keeps both block counts, so the result skips WeightDiagram's checks."""
    syms = list(d.symbols)
    wraps = 0
    for source, target in moves:
        syms[source], syms[target] = EMPTY, CROSS
        wraps += (target - source) * step < 0
    return _trusted(d.p, "".join(syms), d.s + step * wraps, d.r + step * wraps)


def _length(cap: Cap, step: int, p: int) -> int:
    """Vertices strictly under the cap, walking from its source in direction step."""
    return ((cap.tail - cap.source) * step - 1) % p


def _match_caps(d: WeightDiagram, step: int) -> CapDiagram:
    """The bracket match of the lap in direction step (+1 clockwise, -1 counterclockwise).

    One lap from vertex 0: a cross is pushed, a circle pops the latest open
    cross or is free for now, arrows are skipped.  A circle is free only
    while no cross is open, so every free circle comes before the first
    cross left open; a second lap would meet them first, and the open
    crosses close on them in lap order, latest first.  There are always
    more circles than crosses (m + n < p), so every cross closes.  Nesting
    is structural: as with brackets, two caps are nested or disjoint, and a
    circle met while a cross is open closes a cap, so none sits free under one.

    Caps come in swap order: a cap strictly inside another is strictly
    shorter, so ascending length (vertices strictly under the cap, walking
    in direction step) lists inner caps first; ties go by source.
    """
    p, symbols = d.p, d.symbols
    caps: list[Cap] = []
    open_crosses: list[int] = []
    free: list[int] = []
    for k in range(0, step * p, step):
        k %= p
        if symbols[k] == CROSS:
            open_crosses.append(k)
        elif symbols[k] == EMPTY:
            if open_crosses:
                caps.append(Cap(open_crosses.pop(), k))
            else:
                free.append(k)
    caps += map(Cap, reversed(open_crosses), free)
    caps.sort(key=lambda c: (_length(c, step, p), c.source))
    return CapDiagram(d, tuple(caps), frozenset(free[len(open_crosses):]))


def cap_diagram(d: WeightDiagram) -> CapDiagram:
    """The unique cap matching of a diagram."""
    return _match_caps(d, 1)


def is_inner(cd: CapDiagram, j: int) -> bool:
    """Whether no cross (so no other cap) sits strictly under cap j, walking clockwise."""
    symbols, p = cd.base.symbols, cd.base.p
    cap = cd.caps[j]
    return all(symbols[(cap.source + k) % p] != CROSS for k in range(1, (cap.tail - cap.source) % p))


def render_caps(cd: CapDiagram) -> str:
    """Fixed text form: 'caps: 9->0(inner), 6->1 free: 3,5'."""
    parts = [
        f"{c.source}->{c.tail}" + ("(inner)" if is_inner(cd, j) else "")
        for j, c in enumerate(cd.caps)
    ]
    text = "caps: " + (", ".join(parts) if parts else "none")
    return text + " free: " + ",".join(map(str, sorted(cd.free_circles)))


# p_set builds one weight per subset of caps; each cap doubles the time
# (k = 16 crosses, 65,536 weights, takes a few seconds), so larger sets are
# refused before the enumeration starts.
P_SET_MAX_SIZE = 2**16


def p_set(lam: SuperWeight) -> set[SuperWeight]:
    """All 2^(cross count) weights reached by swapping subsets of caps.

    Raises ValidationError when 2^(cross count) exceeds P_SET_MAX_SIZE.
    """
    cd = cap_diagram(encode(lam))
    weights = 2 ** len(cd.caps)
    if weights > P_SET_MAX_SIZE:
        raise ValidationError(f"p-set of {weights} weights exceeds P_SET_MAX_SIZE = {P_SET_MAX_SIZE}")
    out = set()
    for size in range(len(cd.caps) + 1):
        for caps in combinations(cd.caps, size):
            out.add(decode(_slide_crosses(cd.base, caps, 1)))
    return out


def projective_filtration(lam: SuperWeight) -> dict[SuperWeight, int]:
    """Standard-filtration multiplicities of the projective cover: 1 on p_set."""
    return {alpha: 1 for alpha in p_set(lam)}


# kac_composition walks at most k + 1 laps of p vertices for k crosses; a
# reading of one vertex is a node.  (0^k|0^k) with p = 2k + 1 takes 126 nodes
# at p = 13, 237 at p = 17, 496 at p = 23, 25,976 at p = 101 (about 20 ms)
# and 1,632,296 at p = 421; walks beyond the budget (about 0.6 s) are refused.
KAC_COMPOSITION_MAX_NODES = 1_000_000

_KEPT = -1  # open cap that stays; an open swapped cap holds its source instead


def kac_composition(alpha: SuperWeight) -> set[SuperWeight]:
    """Labels lam with alpha in p_set(lam): the composition factors of K(alpha).

    lam gives alpha by swapping some of its caps, so both have k crosses,
    and lam has a free circle (m + n < p).  Its first free circle f (by
    vertex index) is a circle of alpha and one of alpha's first k + 1
    circles: exactly k circles of alpha are not free in lam, the tails of
    kept caps and the sources of swapped ones.  Cut at each such f, lam's
    caps nest inside the lap f+1, ..., p-1, 0, ..., f-1, so lam's bracket
    word is read off alpha's lap with a stack of open caps, kept or swapped:

    - an alpha cross is a kept source (push) or the tail z of the swapped
      cap on top (pop it; the move z -> u slides the cross back to its
      source u);
    - an alpha circle closes a kept cap on top, is free when no cap is open
      (only after f, which makes f the first), or is a swapped source
      (push); under a swapped top it cannot stay a circle.

    Every factor is found exactly once: lam fixes its cut f and every
    reading.  A branch is pruned when it cannot end with nothing open: its
    open swapped caps outnumber the crosses left, the circles left cannot
    hold the non-free circles still due, or these are fewer than the
    circles before f still ahead, which may not be free.  A lap ending with
    nothing open is a factor, built by _slide_crosses.  suite_filtration
    checks BGG reciprocity both ways against p_set.  A walk of more than
    KAC_COMPOSITION_MAX_NODES readings raises ValidationError.
    """
    d = encode(alpha)
    p, symbols, k = d.p, d.symbols, d.cross_count
    circles = [v for v in range(p) if symbols[v] == EMPTY]
    out: set[SuperWeight] = set()
    nodes = 0
    for before_f, f in enumerate(circles[: k + 1]):
        lap = [v for v in (*range(f + 1, p), *range(f)) if symbols[v] in (CROSS, EMPTY)]
        crosses_after = [0] * (len(lap) + 1)
        circles_after = [0] * (len(lap) + 1)
        for i in range(len(lap) - 1, -1, -1):
            crosses_after[i] = crosses_after[i + 1] + (symbols[lap[i]] == CROSS)
            circles_after[i] = circles_after[i + 1] + (symbols[lap[i]] == EMPTY)
        # (lap position, open caps as linked (top, rest) pairs, open swapped
        # caps, non-free circles due, moves)
        todo: list[tuple] = [(0, None, 0, k, ())]
        while todo:
            i, stack, swapped, due, moves = todo.pop()
            nodes += 1
            if nodes > KAC_COMPOSITION_MAX_NODES:
                limit = KAC_COMPOSITION_MAX_NODES
                raise ValidationError(f"kac_composition walk exceeds {limit} nodes")
            if i == len(lap):
                if stack is None:
                    out.add(decode(_slide_crosses(d, moves, -1)))
                continue
            v, rest = lap[i], i + 1
            if symbols[v] == CROSS:
                if swapped <= crosses_after[rest]:
                    todo.append((rest, (_KEPT, stack), swapped, due, moves))
                if stack is not None and stack[0] != _KEPT:
                    todo.append((rest, stack[1], swapped - 1, due, (*moves, (v, stack[0]))))
                continue
            if stack is None and v > f and due <= circles_after[rest]:
                todo.append((rest, None, swapped, due, moves))
            if due <= min(circles_after[rest], before_f):
                continue
            if stack is not None and stack[0] == _KEPT:
                todo.append((rest, stack[1], swapped, due - 1, moves))
            if swapped < crosses_after[rest]:
                todo.append((rest, (v, stack), swapped + 1, due - 1, moves))
    return out


def hat(lam: SuperWeight) -> SuperWeight:
    """Image of all cap swaps: the highest weight of the projective cover."""
    cd = cap_diagram(encode(lam))
    return decode(_slide_crosses(cd.base, cd.caps, 1))


def lowest_weight(lam: SuperWeight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lowest torus weight of the simple: hat(lam) - beta, as raw coordinates."""
    h = hat(lam)
    b = beta(lam.shape)
    m = lam.shape.m
    mu = tuple(h.mu[i] - b[i] for i in range(m))
    nu = tuple(h.nu[j] - b[m + j] for j in range(lam.shape.n))
    return mu, nu


def dual_simple(lam: SuperWeight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinates beta - hat(lam) = -lowest_weight(lam) labeling the dual simple.

    The raw vector is nondecreasing per block; its dominant representative
    (each block sorted descending) is the admissible label.
    """
    mu, nu = lowest_weight(lam)
    return tuple(-x for x in mu), tuple(-x for x in nu)


def dual_simple_label(lam: SuperWeight) -> SuperWeight:
    """Admissible label of the dual: dominant representative of dual_simple."""
    mu, nu = dual_simple(lam)
    return SuperWeight(lam.shape, tuple(sorted(mu, reverse=True)), tuple(sorted(nu, reverse=True)))


# Each word step applies one functor, copying the p symbols of a diagram.
# (0^k|0^k) at p = 2k + 1 has k^2 steps: p = 307 takes 7.2e6 copies (0.07 s),
# p = 733 takes 9.8e7 (0.73 s) and p = 1009 would take 2.6e8 (2.2 s).
PROJECTIVE_WORD_MAX_SYMBOLS = 100_000_000


def projective_word(lam: SuperWeight) -> tuple[SuperWeight, tuple[tuple[str, int], ...]]:
    """A typical base and translation steps rebuilding the projective cover.

    Returns (base, word) with word = ((kind, residue), ...) applied left to
    right, so that the classes of word[-1](..(word[0](K(base)))) sum over the
    standard filtration of P(lam).  Peels one inner cap per round: shuffle
    the cross next to its tail, merge it there, recurse, then append the
    adjoint steps in reverse.  A peeled cap's ends become arrows and every
    other cap stays, so the rounds peel the caps of lam's cap diagram in
    swap order, and a cap of length l adds l steps to the word.  Raises
    ValidationError when len(word) * p exceeds PROJECTIVE_WORD_MAX_SYMBOLS.
    """
    word_rev: list[tuple[str, int]] = []
    d = encode(lam)
    p, caps = d.p, cap_diagram(d).caps
    steps = sum((cap.tail - cap.source) % p for cap in caps)
    if steps * p > PROJECTIVE_WORD_MAX_SYMBOLS:
        limit = PROJECTIVE_WORD_MAX_SYMBOLS
        raise ValidationError(f"projective word of {steps} steps at p={p} exceeds {limit} symbol copies")
    for cap in caps:
        span = [(cap.source + k) % p for k in range(1, (cap.tail - cap.source) % p)]
        # Move the cross clockwise past each arrow (F hops '<', E hops '>'),
        # then merge (x o) -> (< >), dropping one cross.
        steps_fwd = []
        cur, pos, merged = d, cap.source, ()
        if all(d.symbols[v] in (LEFT, RIGHT) for v in span):
            for v in span:
                kind = "F" if d.symbols[v] == LEFT else "E"
                (cur,) = apply_functor(kind, pos, cur)
                steps_fwd.append((kind, pos))
                pos = v
            merged = apply_functor("F", pos, cur)
        if len(merged) != 1 or merged[0].cross_count != d.cross_count - 1:
            raise ContractError(
                f"inner cap {cap.source}->{cap.tail} of {lam} must span arrows only"
                " and merge to one term with one cross fewer"
            )
        # Rebuild: E at the merge vertex, then the adjoint shuffles in reverse.
        rebuild = [("E", pos)] + [("E" if k == "F" else "F", v) for k, v in reversed(steps_fwd)]
        word_rev = rebuild + word_rev
        d = merged[0]
    base = decode(d)
    return base, tuple(word_rev)


def replay_word(
    base: SuperWeight, word: tuple[tuple[str, int], ...]
) -> dict[SuperWeight, int]:
    """Apply a translation word to the Kac class of base, linearly.

    A running sum of more than P_SET_MAX_SIZE classes raises ValidationError.
    """
    classes: dict[WeightDiagram, int] = {encode(base): 1}
    for kind, i in word:
        classes = act_on_sum(kind, i, classes)
        if len(classes) > P_SET_MAX_SIZE:
            raise ValidationError(f"replayed sum of {len(classes)} classes exceeds P_SET_MAX_SIZE = {P_SET_MAX_SIZE}")
    return {decode(d): k for d, k in classes.items()}


def standard_to_sigma(lam: SuperWeight) -> SuperWeight:
    """Opposite-Borel highest-weight label of the same simple: hat - beta."""
    mu, nu = lowest_weight(lam)
    return SuperWeight(lam.shape, mu, nu)


def sigma_to_standard(kappa: SuperWeight) -> SuperWeight:
    """Inverse of standard_to_sigma via the mirrored cap construction.

    The hat image is kappa + beta; each of its crosses is pulled back
    counterclockwise to its mirrored tail, undoing the label twists.  The
    suite of criterion 8 counts the roundtrip with standard_to_sigma.
    """
    b = beta(kappa.shape)
    m = kappa.shape.m
    h = SuperWeight(
        kappa.shape,
        tuple(kappa.mu[i] + b[i] for i in range(m)),
        tuple(kappa.nu[j] + b[m + j] for j in range(kappa.shape.n)),
    )
    d = encode(h)
    return decode(_slide_crosses(d, _match_caps(d, -1).caps, -1))
