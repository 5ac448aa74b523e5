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
clockwise slide; kac_diagrams and sigma_to_standard slide back.

The calculus works in diagram space.  p_set_diagrams, kac_diagrams,
replay_diagrams and projective_word_diagrams take and return
WeightDiagrams; p_set, kac_composition, projective_filtration, replay_word
and projective_word are their weight-level wrappers, one encode, one call
of the core and one decode per image (projective_word decodes its base).
Each core reads a label only as a shift, so a sweep reads it once per
symbol string through label_rows (which says why).

kac_diagrams inverts p_set_diagrams without trying candidates: a factor's
caps match d's crosses with d's circles without crossing, so cut at its
first free circle they are balanced stretches of d's lap read as a level
walk.  On its explicit stack every branch ends in a factor, and it refuses
more than KAC_COMPOSITION_MAX_NODES nodes.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate, combinations
from typing import NamedTuple

from . import _Layer
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
from .superweights import SuperWeight, _trusted_weight, beta

translation = _Layer("translation", globals())  # only words and replays apply functors


class Cap(NamedTuple):
    source: int
    tail: int


class CapDiagram(NamedTuple):
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


def p_set_diagrams(d: WeightDiagram) -> set[WeightDiagram]:
    """All 2^(cross count) diagrams reached by swapping subsets of d's caps.

    Raises ValidationError when 2^(cross count) exceeds P_SET_MAX_SIZE.
    """
    cd = cap_diagram(d)
    weights = 2 ** len(cd.caps)
    if weights > P_SET_MAX_SIZE:
        raise ValidationError(f"p-set of {weights} weights exceeds P_SET_MAX_SIZE = {P_SET_MAX_SIZE}")
    return {
        _slide_crosses(d, caps, 1) for size in range(len(cd.caps) + 1) for caps in combinations(cd.caps, size)
    }


def label_rows(core: Callable[[WeightDiagram], object]) -> Callable[[str], object]:
    """core as a table for one sweep: row(symbols) is core at those symbols
    and label (0, 0), computed once per symbol string and kept as returned,
    a falsy row too.

    The core must read a label only as a shift: core(d) is row(d.symbols)
    with every diagram in it moved by (d.s, d.r), so a verdict on rows
    alone holds at every label of a string.  The p-set and Kac cores slide
    crosses with _slide_crosses, which adds step * wraps to s and r whatever
    the label, so criterion 5's cores built on them, suites._filtration_row
    and suites._non_factor, move by the shift too (suites.suite_filtration
    gives the argument for their weight checks).  translation.apply_functor
    decides its outputs from d.symbols and adds the same (s, r) increments
    at any label (the affine-wall twist reads only the symbols at vertices
    p-1 and 0), so translation tables (criterion 9) and replays move by the
    shift, and projective_word_diagrams returns one word per string
    (criterion 6).
    Criterion 4's loop terms move by the shift too: loop_vector(decode(d))
    carries d's (s, r), and _loop_move twists s and r whatever their
    values (suites.suite_equivariance gives the whole argument, with its
    order check).  tests/test_caps.py witnesses this for each such core.
    """
    rows: dict[str, object] = {}

    def row(symbols: str) -> object:
        if symbols not in rows:
            rows[symbols] = core(_trusted(len(symbols), symbols, 0, 0))
        return rows[symbols]

    return row


def p_set(lam: SuperWeight) -> set[SuperWeight]:
    """All 2^(cross count) weights reached by swapping subsets of caps: p_set_diagrams, decoded.

    Raises ValidationError when 2^(cross count) exceeds P_SET_MAX_SIZE.
    """
    return {decode(alpha) for alpha in p_set_diagrams(encode(lam))}


def projective_filtration(lam: SuperWeight) -> dict[SuperWeight, int]:
    """Standard-filtration multiplicities of the projective cover: 1 on p_set."""
    return {alpha: 1 for alpha in p_set(lam)}


# kac_composition takes one node per cap or free circle of each factor, plus
# one for the factor.  (0^k|0^k) with p = 2k + 1 takes (k + 1)^2 nodes for its
# k + 1 factors: 2,601 at p = 101 (1.5 ms) and 255,025 at p = 1009 (0.15 s).
# Larger walks are refused: xo...xoo at p = 41 after about 0.36 s.
KAC_COMPOSITION_MAX_NODES = 1_000_000


def kac_diagrams(d: WeightDiagram) -> set[WeightDiagram]:
    """Diagrams lam with d in p_set_diagrams(lam): the composition factors of K(d).

    lam is a factor exactly when its caps form a non-crossing matching of
    every cross of d with a circle of d (a kept cap has the cross at its
    source, a swapped cap at its tail), d's unmatched circles lie outside
    every cap, and there is one at least (m + n < p).  Only k circles are
    matched, so lam's first free circle f is one of d's first k + 1.  Cut
    at f, each cap is an interval of the lap f+1, ..., p-1, 0, ..., f-1
    (arrows skipped), read as a level walk: crosses +1, circles -1.  A cap
    opened at a closes at b exactly when b steps back to a's level in the
    direction a left it, so its inside is balanced, and a balanced stretch
    can always be matched: it has two neighbours of opposite kind.  Free
    circles are the top level's down-steps before the wrap (vertex > f),
    and the top level can still close exactly when the lowest level it
    reaches before the wrap is at or below the lap's end level.

    So every branch ends in a factor, a distinct one since lam fixes f and
    each choice: an explicit stack of pending intervals settles the first
    vertex of the top one, free or capped to each b allowed above.  A
    factor costs one node per cap or free circle and one for itself, c in
    all for d's c < p circles, so the walk takes at most c nodes per
    factor; more than KAC_COMPOSITION_MAX_NODES raise ValidationError
    before any factor is built.  suite_filtration checks BGG reciprocity.
    """
    p, symbols, k = d.p, d.symbols, d.cross_count
    ring = [v for v in range(p) if symbols[v] in (CROSS, EMPTY)] * 2
    size = len(ring) // 2
    # Over d's crosses and circles, twice: level[t] before position t, low[t] the
    # lowest level from t to the wrap, after[t] the next step across t's edge.
    level = [0, *accumulate(1 if symbols[v] == CROSS else -1 for v in ring)]
    low = [*accumulate(reversed(level[: size + 1]), min)][::-1] + [p] * size
    roots = [t for t in range(size) if symbols[ring[t]] == EMPTY][: k + 1]
    after = [2 * size] * (2 * size + 1)
    seen: dict[int, int] = {}
    for t in range(roots[-1] + size - 1, -1, -1):  # where the last cut's lap ends
        edge = min(level[t], level[t + 1])
        after[t], seen[edge] = seen.get(edge, 2 * size), t
    # (pending (start, stop) intervals, swapped caps' moves) as linked (top, rest) pairs
    todo = [(((f + 1, f + size), None) if size > 1 else None, None) for f in roots if low[f + 1] <= level[f + size]]
    found = []  # the moves of each factor, built once the walk is done
    nodes = 0
    while todo:
        pending, moves = todo.pop()
        nodes += 1
        if nodes > KAC_COMPOSITION_MAX_NODES:
            raise ValidationError(f"kac_composition walk exceeds {KAC_COMPOSITION_MAX_NODES} nodes")
        if pending is None:
            found.append(moves)
            continue
        (a, stop), rest = pending
        here, end = level[a], level[stop]
        down = level[a + 1] < here
        if down and here > end:
            todo.append((((a + 1, stop), rest) if a + 1 < stop else rest, moves))
        b = after[a]
        while b < stop and (here == end or low[b + 1] <= end):
            outer = ((b + 1, stop), rest) if b + 1 < stop else rest
            todo.append((((a + 1, b), outer) if a + 1 < b else outer, ((ring[b], ring[a]), moves) if down else moves))
            b = after[after[b]]

    def unlinked(moves):
        while moves is not None:
            move, moves = moves
            yield move

    return {_slide_crosses(d, unlinked(moves), -1) for moves in found}


def kac_composition(alpha: SuperWeight) -> set[SuperWeight]:
    """Labels lam with alpha in p_set(lam), the composition factors of K(alpha):
    kac_diagrams, decoded.  Raises as kac_diagrams does."""
    return {decode(lam) for lam in kac_diagrams(encode(alpha))}


def hat(lam: SuperWeight) -> SuperWeight:
    """Image of all cap swaps: the highest weight of the projective cover."""
    cd = cap_diagram(encode(lam))
    return decode(_slide_crosses(cd.base, cd.caps, 1))


def _beta_shift(lam: SuperWeight, sign: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(mu | nu) + sign * beta, as raw coordinates: beta adds one constant to
    each block, so an admissible block stays admissible."""
    b = beta(lam.shape)
    on_mu, on_nu = sign * b[0], sign * b[-1]
    return tuple([x + on_mu for x in lam.mu]), tuple([y + on_nu for y in lam.nu])


def lowest_weight(lam: SuperWeight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lowest torus weight of the simple: hat(lam) - beta, as raw coordinates;
    beta is constant on each block, so they are always a dominant label."""
    return _beta_shift(hat(lam), -1)


def dual_simple(lam: SuperWeight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinates beta - hat(lam) = -lowest_weight(lam) labeling the dual simple.

    The raw vector is nondecreasing per block; its dominant representative
    (each block reversed) is the admissible label.
    """
    mu, nu = lowest_weight(lam)
    return tuple(-x for x in mu), tuple(-x for x in nu)


def dual_simple_label(lam: SuperWeight) -> SuperWeight:
    """Admissible label of the dual: dominant representative of dual_simple,
    the negated lowest blocks reversed, so it skips SuperWeight's checks."""
    mu, nu = dual_simple(lam)
    return _trusted_weight(lam.shape, mu[::-1], nu[::-1])


# Each word step applies one functor, copying the p symbols of a diagram.
# (0^k|0^k) at p = 2k + 1 has k^2 steps: p = 307 takes 7.2e6 copies (0.07 s),
# p = 733 takes 9.8e7 (0.73 s) and p = 1009 would take 2.6e8 (2.2 s).
PROJECTIVE_WORD_MAX_SYMBOLS = 100_000_000


def projective_word_diagrams(d: WeightDiagram) -> tuple[WeightDiagram, tuple[tuple[str, int], ...]]:
    """A typical base diagram and translation steps rebuilding the projective cover of d.

    Returns (base, word) with word = ((kind, residue), ...) applied left to
    right, so that the classes of word[-1](..(word[0](K(base)))) sum over the
    standard filtration of P(d).  Peels one inner cap per round: shuffle
    the cross next to its tail, merge it there, recurse, then append the
    adjoint steps in reverse.  A peeled cap's ends become arrows and every
    other cap stays, so the rounds peel the caps of d's cap diagram in
    swap order, and a cap of length l adds l steps to the word.  Raises
    ValidationError when len(word) * p exceeds PROJECTIVE_WORD_MAX_SYMBOLS.
    """
    apply_functor = translation.apply_functor
    word_rev: list[tuple[str, int]] = []
    base, p, caps = d, d.p, cap_diagram(d).caps
    steps = sum((cap.tail - cap.source) % p for cap in caps)
    if steps * p > PROJECTIVE_WORD_MAX_SYMBOLS:
        limit = PROJECTIVE_WORD_MAX_SYMBOLS
        raise ValidationError(f"projective word of {steps} steps at p={p} exceeds {limit} symbol copies")
    for cap in caps:
        span = [(cap.source + k) % p for k in range(1, (cap.tail - cap.source) % p)]
        # Move the cross clockwise past each arrow (F hops '<', E hops '>'),
        # one term per hop, then merge (x o) -> (< >), dropping one cross.
        steps_fwd = []
        cur, pos, merged = base, cap.source, ()
        if all(base.symbols[v] in (LEFT, RIGHT) for v in span):
            for v in span:
                kind = "F" if base.symbols[v] == LEFT else "E"
                hop = apply_functor(kind, pos, cur)
                if len(hop) != 1:
                    break
                cur = hop[0]
                steps_fwd.append((kind, pos))
                pos = v
            else:
                merged = apply_functor("F", pos, cur)
        if len(merged) != 1 or merged[0].cross_count != base.cross_count - 1:
            raise ContractError(
                f"inner cap {cap.source}->{cap.tail} of {d} must span arrows only, hop them"
                " one term at a time and merge to one term with one cross fewer"
            )
        # Rebuild: E at the merge vertex, then the adjoint shuffles in reverse.
        rebuild = [("E", pos)] + [("E" if k == "F" else "F", v) for k, v in reversed(steps_fwd)]
        word_rev = rebuild + word_rev
        base = merged[0]
    return base, tuple(word_rev)


def projective_word(lam: SuperWeight) -> tuple[SuperWeight, tuple[tuple[str, int], ...]]:
    """A typical base and translation steps rebuilding the projective cover:
    projective_word_diagrams, with the base decoded.  Raises as it does."""
    base, word = projective_word_diagrams(encode(lam))
    return decode(base), word


def replay_diagrams(d: WeightDiagram, word: tuple[tuple[str, int], ...]) -> dict[WeightDiagram, int]:
    """Apply a translation word to the Kac class of d, linearly.

    A running sum of more than P_SET_MAX_SIZE classes raises ValidationError.
    """
    classes = {d: 1}
    for kind, i in word:
        classes = translation.act_on_sum(kind, i, classes)
        if len(classes) > P_SET_MAX_SIZE:
            raise ValidationError(f"replayed sum of {len(classes)} classes exceeds P_SET_MAX_SIZE = {P_SET_MAX_SIZE}")
    return classes


def replay_word(base: SuperWeight, word: tuple[tuple[str, int], ...]) -> dict[SuperWeight, int]:
    """Apply a translation word to the Kac class of base: replay_diagrams, decoded.

    A running sum of more than P_SET_MAX_SIZE classes raises ValidationError.
    """
    return {decode(d): k for d, k in replay_diagrams(encode(base), word).items()}


def standard_to_sigma(lam: SuperWeight) -> SuperWeight:
    """Opposite-Borel highest-weight label of the same simple: hat - beta,
    dominant as lowest_weight says, so it skips SuperWeight's checks."""
    return _trusted_weight(lam.shape, *lowest_weight(lam))


def sigma_to_standard(kappa: SuperWeight) -> SuperWeight:
    """Inverse of standard_to_sigma via the mirrored cap construction.

    The hat image is kappa + beta, admissible since kappa is; each of its
    crosses is pulled back counterclockwise to its mirrored tail, undoing the
    label twists.  The suite of criterion 8 counts the roundtrip with
    standard_to_sigma.
    """
    d = encode(_trusted_weight(kappa.shape, *_beta_shift(kappa, 1)))
    return decode(_slide_crosses(d, _match_caps(d, -1).caps, -1))
