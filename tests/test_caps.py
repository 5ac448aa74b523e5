from itertools import combinations, permutations, product
from math import comb, perm

import pytest
from hypothesis import assume, given, settings, strategies as st

from verlinde_gl import caps
from verlinde_gl.caps import (
    KAC_COMPOSITION_MAX_NODES,
    P_SET_MAX_SIZE,
    PROJECTIVE_WORD_MAX_SYMBOLS,
    Cap,
    _match_caps,
    _slide_crosses,
    cap_diagram,
    dual_simple,
    dual_simple_label,
    hat,
    is_inner,
    kac_composition,
    lowest_weight,
    p_set,
    projective_filtration,
    projective_word,
    replay_word,
    sigma_to_standard,
    standard_to_sigma,
)
from verlinde_gl.diagrams import CROSS, EMPTY, LEFT, RIGHT, WeightDiagram, assemble_symbols, decode, encode, render_ascii
from verlinde_gl.enumeration import window_weights
from verlinde_gl.errors import ValidationError
from verlinde_gl.superweights import (
    SuperWeight,
    atypicality,
    beta,
    casimir_scalar,
    dominance_leq,
    is_typical,
    super_weight,
)

FIG = super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))
ZERO5 = super_weight(5, (0,), (0,))


def test_cap_diagram_figure():
    cd = cap_diagram(encode(FIG))
    assert tuple(cd.caps) == ((9, 0), (6, 1))
    assert sorted(cd.free_circles) == [3, 5]
    assert cd.cap_label_twist(0) == (-1, 1)
    assert cd.cap_label_twist(1) == (-1, 1)
    from verlinde_gl.caps import is_inner, render_caps

    assert is_inner(cd, 0) and not is_inner(cd, 1)
    assert render_caps(cd) == "caps: 9->0(inner), 6->1 free: 3,5"


def test_cap_diagram_typical_and_small():
    cd = cap_diagram(encode(super_weight(5, (1,), (0,))))
    assert cd.caps == ()
    assert sorted(cd.free_circles) == [2, 3, 4]
    # xoooo has four circles; the cap 0->1 consumes one, leaving three free.
    cd = cap_diagram(encode(ZERO5))
    assert tuple(cd.caps) == ((0, 1),)
    assert sorted(cd.free_circles) == [2, 3, 4]


def _random_symbols(data, primes=(5, 7, 11, 13, 17, 19, 23, 29, 31)) -> tuple[int, str]:
    p = data.draw(st.sampled_from(primes))
    m = data.draw(st.integers(1, p - 2))
    n = data.draw(st.integers(1, p - 1 - m))
    a = data.draw(st.permutations(range(p)))[:m]
    b = data.draw(st.permutations(range(p)))[:n]
    return p, assemble_symbols(a, b, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_counterclockwise_walk_is_reflected_clockwise_walk(data):
    # Witness for step = -1: reflect the circle by k -> -k mod p, match it
    # clockwise and map the caps back.
    p, symbols = _random_symbols(data)
    d = WeightDiagram(p, symbols, 0, 0)
    mirror = WeightDiagram(p, "".join(d.symbols[-k % p] for k in range(p)), 0, 0)
    ccw = _match_caps(d, -1)
    cw = cap_diagram(mirror)
    assert set(ccw.caps) == {Cap(-c.source % p, -c.tail % p) for c in cw.caps}
    assert ccw.free_circles == {-k % p for k in cw.free_circles}
    # Both list caps by ascending length, inner caps first.
    assert [(c.source - c.tail - 1) % p for c in ccw.caps] == [
        (c.tail - c.source - 1) % p for c in cw.caps
    ]


def _cw_interval(p: int, start: int, stop: int) -> list[int]:
    """Vertices strictly between start and stop, walking clockwise."""
    out = []
    k = (start + 1) % p
    while k != stop:
        out.append(k)
        k = (k + 1) % p
    return out


def _walk_caps(d: WeightDiagram, step: int):
    """Reference oracle: the restarting walk the bracket match replaced.

    From the first unmatched cross move step vertices at a time; an
    unmatched cross restarts the source, the first unmatched circle closes
    the cap.  Returns (caps in swap order, free circles, is_inner flags).
    """
    p = d.p
    tails: dict[int, int] = {}
    used_circles: set[int] = set()
    unmatched = [k for k in range(p) if d.symbols[k] == CROSS]
    while unmatched:
        source = unmatched[0]
        k = source
        while True:
            k = (k + step) % p
            sym = d.symbols[k]
            if sym == CROSS and k in unmatched:
                source = k
            elif sym == EMPTY and k not in used_circles:
                break
        tails[source] = k
        used_circles.add(k)
        unmatched.remove(source)
    free = {k for k in range(p) if d.symbols[k] == EMPTY and k not in used_circles}
    caps = sorted(
        (Cap(s, z) for s, z in tails.items()),
        key=lambda c: (((c.tail - c.source) * step - 1) % p, c.source),
    )
    inner = [
        not any(o.source in _cw_interval(p, c.source, c.tail) for o in caps if o != c)
        for c in caps
    ]
    return caps, free, inner


def _assert_match_agrees_with_walk(d: WeightDiagram) -> None:
    for step in (1, -1):
        cd = _match_caps(d, step)
        caps, free, inner = _walk_caps(d, step)
        assert list(cd.caps) == caps
        assert cd.free_circles == free
        assert [is_inner(cd, j) for j in range(len(cd.caps))] == inner


def _valid_symbol_strings(p: int):
    for chars in product(EMPTY + LEFT + RIGHT + CROSS, repeat=p):
        symbols = "".join(chars)
        m = symbols.count(RIGHT) + symbols.count(CROSS)
        n = symbols.count(LEFT) + symbols.count(CROSS)
        if m >= 1 and n >= 1 and m + n < p:
            yield symbols


def test_bracket_match_equals_walk_exhaustive():
    count = 0
    for p in (5, 7):
        for symbols in _valid_symbol_strings(p):
            _assert_match_agrees_with_walk(WeightDiagram(p, symbols, 0, 0))
            count += 1
    assert count == 6548


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_bracket_match_equals_walk_hypothesis(data):
    p, symbols = _random_symbols(data)
    _assert_match_agrees_with_walk(WeightDiagram(p, symbols, 0, 0))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_cap_matching_is_well_formed(data):
    # The defining properties of the matching, in both directions: sources
    # are exactly the crosses, tails are distinct circles, caps are nested
    # or disjoint, and no free circle sits strictly under a cap.
    p, symbols = _random_symbols(data)
    d = WeightDiagram(p, symbols, 0, 0)
    for step in (1, -1):
        cd = _match_caps(d, step)

        def under(c):
            return {(c.source + step * k) % p for k in range(1, ((c.tail - c.source) * step) % p)}

        assert sorted(c.source for c in cd.caps) == [k for k in range(p) if symbols[k] == CROSS]
        tails = [c.tail for c in cd.caps]
        assert len(set(tails)) == len(tails) and all(symbols[z] == EMPTY for z in tails)
        assert cd.free_circles == {k for k in range(p) if symbols[k] == EMPTY} - set(tails)
        spans = {c: under(c) | {c.source, c.tail} for c in cd.caps}
        for c in cd.caps:
            assert not under(c) & cd.free_circles
            for other in cd.caps:
                a, b = spans[c], spans[other]
                assert a <= b or b <= a or not a & b


def test_p_set_figure():
    got = {render_ascii(encode(a), 3) for a in p_set(FIG)}
    assert got == {
        "o<ox>>x<oo> @3 t1^-3 t2^2",
        "o<ox>>o<xo> @3 t1^-4 t2^3",
        "o<oo>>x<ox> @3 t1^-4 t2^3",
        "o<oo>>o<xx> @3 t1^-5 t2^4",
    }


def test_p_set_typical_and_small():
    lam = super_weight(5, (1,), (0,))
    assert p_set(lam) == {lam}
    ps = p_set(ZERO5)
    assert {a.vector for a in ps} == {(0, 0), (1, -1)}


def test_projective_filtration():
    lam = super_weight(5, (1,), (0,))
    assert projective_filtration(lam) == {lam: 1}
    table = projective_filtration(FIG)
    assert len(table) == 4 and set(table.values()) == {1}
    assert len(projective_filtration(ZERO5)) == 2


def test_kac_composition():
    lam = super_weight(5, (1,), (0,))
    assert kac_composition(lam) == {lam}
    tau = next(a for a in p_set(ZERO5) if a != ZERO5)
    assert ZERO5 in kac_composition(tau)
    # Full swap of the figure weight contains the figure weight.
    h = hat(FIG)
    assert FIG in kac_composition(h)


def test_hat():
    h = hat(FIG)
    assert h.mu == (19, 19, 15, 15, 15)
    assert h.nu == (-15, -15, -17, -22)
    # Central-character linkage between the weight and its hat image.
    assert casimir_scalar(h).residue == casimir_scalar(FIG).residue
    assert h.degree == FIG.degree
    d = encode(h)
    assert (d.s, d.r) == (5, 4)
    lam = super_weight(5, (1,), (0,))
    assert hat(lam) == lam
    assert hat(ZERO5).vector == (1, -1)


def test_lowest_weight():
    assert lowest_weight(FIG) == ((15, 15, 11, 11, 11), (-10, -10, -12, -17))
    lam = super_weight(5, (1,), (0,))
    assert lowest_weight(lam) == ((0,), (1,))
    # Typical case: plain beta subtraction.
    b = beta(lam.shape)
    assert lowest_weight(lam) == ((lam.mu[0] - b[0],), (lam.nu[0] - b[1],))


def test_dual_simple():
    assert dual_simple(FIG) == ((-15, -15, -11, -11, -11), (10, 10, 12, 17))
    lbl = dual_simple_label(FIG)
    assert lbl.mu == (-11, -11, -11, -15, -15)
    assert lbl.nu == (17, 12, 10, 10)
    # Involution on an enumerated window, through the dominant label.
    for lam in window_weights(5, window=(-2, 2)):
        assert dual_simple_label(dual_simple_label(lam)) == lam


def test_projective_word_typical():
    lam = super_weight(5, (1,), (0,))
    base, word = projective_word(lam)
    assert base == lam and word == ()


def test_projective_word_small():
    base, word = projective_word(ZERO5)
    assert is_typical(base)
    assert len(word) == 1 and word[0][0] == "E"
    got = replay_word(base, word)
    assert got == {a: 1 for a in p_set(ZERO5)}


def test_projective_word_figure():
    base, word = projective_word(FIG)
    assert is_typical(base)
    got = replay_word(base, word)
    assert got == {a: 1 for a in p_set(FIG)}


def test_projective_word_length_is_the_sum_of_cap_lengths():
    # The size bound of projective_word is read off lam's caps before the
    # first round: peeling a cap keeps every other cap.
    for lam in window_weights(5):
        p = lam.shape.p
        _, word = projective_word(lam)
        assert len(word) == sum((cap.tail - cap.source) % p for cap in cap_diagram(encode(lam)).caps)


def test_projective_word_size_limit():
    # (0^k|0^k) at p = 2k + 1 has a word of k^2 steps.
    k = 366
    _, word = projective_word(super_weight(2 * k + 1, (0,) * k, (0,) * k))
    assert len(word) == k * k and k * k * (2 * k + 1) <= PROJECTIVE_WORD_MAX_SYMBOLS
    with pytest.raises(ValidationError, match=f"exceeds {PROJECTIVE_WORD_MAX_SYMBOLS} symbol copies"):
        projective_word(super_weight(739, (0,) * 369, (0,) * 369))


def test_replay_word_refuses_a_sum_above_the_p_set_limit(monkeypatch):
    # ZERO5's word rebuilds two classes; under a limit of one the replay stops.
    base, word = projective_word(ZERO5)
    monkeypatch.setattr(caps, "P_SET_MAX_SIZE", 1)
    with pytest.raises(ValidationError, match="replayed sum of 2 classes exceeds P_SET_MAX_SIZE = 1"):
        replay_word(base, word)


def test_sigma_maps():
    lam = super_weight(5, (1,), (0,))
    assert standard_to_sigma(lam).vector == (0, 1)
    assert sigma_to_standard(standard_to_sigma(lam)) == lam
    assert standard_to_sigma(FIG).mu == (15, 15, 11, 11, 11)
    assert standard_to_sigma(FIG).nu == (-10, -10, -12, -17)
    assert sigma_to_standard(standard_to_sigma(FIG)) == FIG


def test_sigma_roundtrip_p7_window():
    for lam in window_weights(7, window=(-2, 2)):
        assert sigma_to_standard(standard_to_sigma(lam)) == lam


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_sigma_roundtrip_hypothesis(data):
    # Random diagrams at p = 5..31 decode to weights of every atypicality;
    # the roundtrip slides crosses clockwise and then counterclockwise, and
    # both ways round: sigma_to_standard does not check its own answer.
    p, symbols = _random_symbols(data)
    s, r = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    lam = decode(WeightDiagram(p, symbols, s, r))
    assert sigma_to_standard(standard_to_sigma(lam)) == lam
    assert standard_to_sigma(sigma_to_standard(lam)) == lam


def test_sigma_to_standard_is_a_right_inverse_on_the_p5_window():
    # Every admissible label is the sigma label of its preimage.
    for kappa in window_weights(5):
        assert standard_to_sigma(sigma_to_standard(kappa)) == kappa


def _kac_candidates(d: WeightDiagram) -> int:
    """Candidates the oracle tries: sum_s C(k, s) * c!/(c-s)! for k crosses and c circles."""
    k, c = d.symbols.count(CROSS), d.symbols.count(EMPTY)
    return sum(comb(k, size) * perm(c, size) for size in range(k + 1))


def _kac_composition_brute(alpha: SuperWeight) -> set[SuperWeight]:
    """Reference oracle: the candidate search the bracket-lap walk replaced.

    Move subsets of crosses of alpha's diagram backwards to empty vertices;
    a candidate survives when its own cap diagram sends each moved cross
    exactly back.  Never re-express this through kac_composition.
    """
    d = encode(alpha)
    p = d.p
    crosses = [k for k in range(p) if d.symbols[k] == CROSS]
    circles = [k for k in range(p) if d.symbols[k] == EMPTY]
    out = {alpha}
    cap_cache: dict[str, dict[int, int]] = {}
    for size in range(1, len(crosses) + 1):
        for moved in combinations(crosses, size):
            for targets in permutations(circles, size):
                cand = _slide_crosses(d, zip(moved, targets), -1)
                matched = cap_cache.get(cand.symbols)
                if matched is None:
                    matched = {c.source: c.tail for c in cap_diagram(cand).caps}
                    cap_cache[cand.symbols] = matched
                if all(matched.get(u) == z for z, u in zip(moved, targets)):
                    out.add(decode(cand))
    return out


@pytest.mark.parametrize("p, window", [(5, None), (7, (-2, 2))], ids=["p5-window", "p7-window-2-2"])
def test_kac_composition_equals_brute_force_on_windows(p, window):
    count = 0
    for alpha in window_weights(p, window):
        assert kac_composition(alpha) == _kac_composition_brute(alpha), (alpha.mu, alpha.nu)
        count += 1
    assert count == {5: 3677, 7: 5735}[p]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kac_composition_equals_brute_force_hypothesis(data):
    # Random labelled diagrams at p = 5..13, every atypicality; the oracle
    # is skipped above 5,000 candidates.
    p, symbols = _random_symbols(data, (5, 7, 11, 13))
    s, r = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    d = WeightDiagram(p, symbols, s, r)
    assume(_kac_candidates(d) <= 5_000)
    alpha = decode(d)
    assert kac_composition(alpha) == _kac_composition_brute(alpha)


@pytest.mark.parametrize("p, count", [(13, 7), (17, 9), (23, 12)])
def test_kac_composition_of_zero_weight(p, count):
    # (0^k|0^k) with p = 2k + 1 has k + 1 factors, each with alpha in its p-set;
    # the oracle would try 37,633 candidates at p = 13 and 4,596,553 at p = 17.
    k = (p - 1) // 2
    alpha = super_weight(p, (0,) * k, (0,) * k)
    factors = kac_composition(alpha)
    assert alpha in factors and len(factors) == count
    assert all(alpha in p_set(f) for f in factors)


def test_kac_composition_answers_at_large_p():
    # The walk keeps its own stack, so a lap of about 1,000 vertices raises
    # no RecursionError.
    alpha = super_weight(1009, (5,), (-5,))
    assert atypicality(alpha) == 1
    factors = kac_composition(alpha)
    assert factors == {alpha, super_weight(1009, (4,), (-4,))}
    assert all(alpha in p_set(f) for f in factors)


def test_kac_composition_node_budget():
    # (0^504|0^504) at p = 1009 needs far more walk nodes than the budget.
    with pytest.raises(ValidationError, match=f"exceeds {KAC_COMPOSITION_MAX_NODES} nodes"):
        kac_composition(super_weight(1009, (0,) * 504, (0,) * 504))


def test_p_set_size_limit():
    # (0^16|0^16) at p = 37 has 16 crosses: 2^16 weights, the largest p-set
    # that answers.  One cross more is refused before the enumeration.
    assert len(p_set(super_weight(37, (0,) * 16, (0,) * 16))) == P_SET_MAX_SIZE
    with pytest.raises(ValidationError, match=f"P_SET_MAX_SIZE = {P_SET_MAX_SIZE}"):
        p_set(super_weight(37, (0,) * 17, (0,) * 17))


def test_p_set_invariants_window():
    for lam in window_weights(5, window=(-3, 3)):
        ps = p_set(lam)
        assert len(ps) == 2 ** atypicality(lam)
        cas = casimir_scalar(lam).residue
        for alpha in ps:
            assert alpha.degree == lam.degree
            assert casimir_scalar(alpha).residue == cas
            assert dominance_leq(lam, alpha)
            if alpha != lam:
                assert sum(alpha.mu) > sum(lam.mu)


def test_bgg_duality_window():
    for lam in window_weights(5, window=(-2, 2)):
        for alpha in p_set(lam):
            assert lam in kac_composition(alpha)


def test_hat_injective_on_strata():
    seen: dict[tuple, SuperWeight] = {}
    for lam in window_weights(5, window=(-2, 2)):
        key = (lam.shape, atypicality(lam), hat(lam))
        assert seen.setdefault(key, lam) == lam


def test_filtration_suite_catches_a_non_factor(monkeypatch):
    # BGG reciprocity is checked both ways: a Kac factor list with one extra
    # weight (its mu block shifted, so the degree differs) must be refused.
    import verlinde_gl.suites as suites

    real = suites.kac_composition

    def with_non_factor(alpha):
        shifted = SuperWeight(alpha.shape, tuple(x + 1 for x in alpha.mu), alpha.nu)
        return real(alpha) | {shifted}

    assert suites.suite_filtration(5, (-1, 1)).ok
    monkeypatch.setattr(suites, "kac_composition", with_non_factor)
    result = suites.suite_filtration(5, (-1, 1))
    assert not result.ok and "non-factor" in result.details
