from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from verlinde_gl import caps, suites, translation
from verlinde_gl.diagrams import WeightDiagram, assemble_symbols, decode, encode
from verlinde_gl.enumeration import window_weights
from verlinde_gl.errors import ContractError, ValidationError
from verlinde_gl.suites import suite_equivariance
from verlinde_gl.superweights import dominance_leq, super_weight
from verlinde_gl.translation import (
    apply_E,
    apply_F,
    commutator,
    loop_e,
    loop_f,
    loop_vector,
    phi_equivariance_check,
    translate_kac,
    translate_projective,
    translate_simple,
)

ZERO5 = super_weight(5, (0,), (0,))
FIG = super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))


def test_apply_F_cross_opens():
    d = encode(ZERO5)
    out = apply_F(0, d)
    assert len(out) == 1
    assert out[0].symbols == "<>ooo"
    assert decode(out[0]).vector == (1, 0)


def test_apply_F_affine_wall():
    d = encode(ZERO5)
    out = apply_F(4, d)
    assert len(out) == 1
    t = out[0]
    assert decode(t).vector == (0, 1)
    assert (t.s, t.r) == (0, -1)  # label gained t2^(-1)


def test_apply_F_empty():
    d = encode(ZERO5)
    assert len(apply_F(1, d)) == 0
    assert len(apply_F(2, d)) == 0
    with pytest.raises(ValidationError):
        apply_F(5, d)


def test_apply_E_on_figure():
    # Vertices (6, 7) of the figure carry (x >); E moves '>' back onto 6.
    d = encode(FIG)
    out = apply_E(6, d)
    assert len(out) == 1
    t = out[0]
    assert t.symbols[6] == ">" and t.symbols[7] == "x"
    assert (t.s, t.r) == (d.s, d.r)


def test_E_undoes_F_on_arrow_moves():
    for p in (5, 7):
        for lam in window_weights(p, window=(-2, 2)):
            d = encode(lam)
            for i in range(p):
                pair = (d.symbols[i], d.symbols[(i + 1) % p])
                if pair in ((">", "o"), ("o", "<"), ("x", "<"), (">", "x")):
                    (moved,) = apply_F(i, d)
                    back = apply_E(i, moved)
                    assert back == (d,)


def test_two_term_case():
    # mu=(1), nu=(0) gives '<' at 0, '>' at 1: the (< >) two-term E case.
    lam = super_weight(5, (1,), (0,))
    d = encode(lam)
    assert d.symbols[0] == "<" and d.symbols[1] == ">"
    out = apply_E(0, d)
    assert len(out) == 2
    lo, hi = map(decode, out)
    assert dominance_leq(lo, hi) and not dominance_leq(hi, lo)
    assert out[0].cross_count == out[1].cross_count == 1


def test_apply_E_adjacent_left_arrows_vanish():
    # nu = (0, 0) at p=7, m=1 puts '<' on vertices 0 and 1.
    lam = super_weight(7, (2,), (0, 0))
    d = encode(lam)
    assert d.symbols[0] == "<" and d.symbols[1] == "<"
    assert len(apply_E(0, d)) == 0
    assert len(apply_F(0, d)) == 0  # fermionic both ways


def test_apply_F_two_term_case():
    # mu = (1), nu = (-2) at p=5: '>' at 1, '<' at 2.
    lam = super_weight(5, (1,), (-2,))
    d = encode(lam)
    assert (d.symbols[1], d.symbols[2]) == (">", "<")
    out = apply_F(1, d)
    assert len(out) == 2
    assert {t.symbols for t in out} == {"ooxoo", "oxooo"}
    lo, hi = map(decode, out)
    assert dominance_leq(lo, hi)
    assert sum(lo.mu) + 1 == sum(hi.mu)


def test_translate_kac():
    ext = translate_kac("F", 0, ZERO5)
    assert ext.sub is None and ext.quotient.vector == (1, 0)
    assert translate_kac("F", 1, ZERO5) is None
    lam = super_weight(5, (1,), (0,))
    ext = translate_kac("E", 0, lam)
    assert ext.sub is not None
    assert dominance_leq(ext.quotient, ext.sub)
    assert ext.quotient.degree == ext.sub.degree == lam.degree - 1
    with pytest.raises(ValidationError):
        translate_kac("G", 0, ZERO5)


def test_translate_simple():
    assert translate_simple("F", 0, ZERO5).vector == (1, 0)
    # E on a (< o) pair rewrites it to (o <).
    lam = super_weight(7, (3,), (0, 0))
    d = encode(lam)
    assert (d.symbols[1], d.symbols[2]) == ("<", "o")
    out = translate_simple("E", 1, lam)
    assert encode(out).symbols[1] == "o" and encode(out).symbols[2] == "<"
    lam = super_weight(5, (1,), (0,))
    with pytest.raises(ContractError):
        translate_simple("E", 0, lam)  # two-term output raises
    with pytest.raises(ContractError):
        translate_simple("F", 2, ZERO5)  # killed


def test_translate_projective():
    lam = super_weight(5, (1,), (0,))
    out = translate_projective("E", 0, lam)
    ext = translate_kac("E", 0, lam)
    assert out == ext.quotient
    # Single arrow move: same as the Kac image.
    lam2 = translate_kac("F", 0, ZERO5).quotient
    assert translate_projective("F", 1, lam2) == translate_kac("F", 1, lam2).quotient
    # Two-term F case picks the dominance-smaller weight.
    lam3 = super_weight(5, (1,), (-2,))
    ext = translate_kac("F", 1, lam3)
    assert translate_projective("F", 1, lam3) == ext.quotient
    with pytest.raises(ContractError):
        translate_projective("F", 0, ZERO5)  # cross count drops


def test_loop_actions():
    v = loop_vector(ZERO5)
    assert v.a == (0,) and v.b == (0,) and (v.s, v.r) == (0, 0)
    out = loop_f(0, v)
    assert len(out) == 1 and out[0].a == (1,) and out[0].b == (0,)
    out = loop_f(4, v)
    assert len(out) == 1 and out[0].b == (4,) and out[0].r == -1
    # [e_c, f_c] acts diagonally: off-diagonal composite terms cancel.
    for c in range(5):
        ef = sorted((t.a, t.b, t.s, t.r) for u in loop_f(c, v) for t in loop_e(c, u))
        fe = sorted((t.a, t.b, t.s, t.r) for u in loop_e(c, v) for t in loop_f(c, u))
        diag = (v.a, v.b, v.s, v.r)
        assert [t for t in ef if t != diag] == [t for t in fe if t != diag]


def test_phi_equivariance_small():
    for c in range(5):
        assert phi_equivariance_check(ZERO5, c)
    for c in range(11):
        assert phi_equivariance_check(FIG, c)


def test_biadjointness_shadow():
    for p in (5, 7):
        for lam in window_weights(p, window=(-2, 2)):
            d = encode(lam)
            for i in range(p):
                for t in apply_F(i, d):
                    assert d in apply_E(i, t)
                for t in apply_E(i, d):
                    assert d in apply_F(i, t)


def test_cross_count_bookkeeping():
    # Two-term outputs raise the cross count by one; single-term outputs
    # preserve it on arrow moves and drop it by one exactly on the
    # cross-opening cases (x o) / (o x).
    for p in (5, 7):
        for lam in window_weights(p, window=(-2, 2)):
            d = encode(lam)
            for i in range(p):
                pair = (d.symbols[i], d.symbols[(i + 1) % p])
                for out in (apply_F(i, d), apply_E(i, d)):
                    if len(out) == 2:
                        assert out[0].cross_count == d.cross_count + 1
                    elif len(out) == 1:
                        drop = 1 if pair in (("x", "o"), ("o", "x")) else 0
                        assert out[0].cross_count == d.cross_count - drop


def test_kac_moody_commutators_smoke():
    d = encode(ZERO5)
    for a in range(5):
        for b in range(5):
            if a != b:
                assert commutator(("E", a), ("F", b), d) == {}
            if (a - b) % 5 not in (0, 1, 4):
                assert commutator(("E", a), ("E", b), d) == {}
                assert commutator(("F", a), ("F", b), d) == {}


def test_commutator_is_x_of_y_minus_y_of_x():
    # On (1|0) = '<>ooo', [e_0, f_0] acts diagonally by -2; swapping the
    # arguments flips the sign.
    d = encode(super_weight(5, (1,), (0,)))
    assert commutator(("E", 0), ("F", 0), d) == {d: -2}
    assert commutator(("F", 0), ("E", 0), d) == {d: 2}


PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


def _random_diagram(data) -> WeightDiagram:
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.integers(1, p - 2))
    n = data.draw(st.integers(1, p - 1 - m))
    a = data.draw(st.permutations(range(p)))[:m]
    b = data.draw(st.permutations(range(p)))[:n]
    s, r = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    return WeightDiagram(p, assemble_symbols(a, b, p), s, r)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_two_term_outputs_list_the_smaller_term_first(data):
    d = _random_diagram(data)
    for i in range(d.p):
        for out in (apply_F(i, d), apply_E(i, d)):
            if len(out) == 2:
                lo, hi = out
                assert lo.cross_count == hi.cross_count
                assert dominance_leq(decode(lo), decode(hi))
                assert not dominance_leq(decode(hi), decode(lo))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjunction_shadow_beyond_the_window(data):
    # t in F_i(d) <=> d in E_i(t), labels included.
    d = _random_diagram(data)
    for i in range(d.p):
        for t in apply_F(i, d):
            assert d in apply_E(i, t)
        for t in apply_E(i, d):
            assert d in apply_F(i, t)


def test_reversed_two_term_row_fails_the_equivariance_suite(monkeypatch):
    # The loop oracle compares term sets; only the order check sees the swap.
    row = translation._F_TABLE[(">", "<")]
    monkeypatch.setitem(translation._F_TABLE, (">", "<"), row[::-1])
    result = suite_equivariance(5, (-1, 1))
    assert not result.ok
    assert "two-term order" in result.details


def test_untwisted_loop_f_fails_the_equivariance_suite(monkeypatch):
    # The loop route alone must catch a broken action: drop the t1 twist
    # that loop_f puts on a wedge residue moved across the wall at c = p-1.
    real = translation.loop_f

    def untwisted(c, v):
        out = real(c, v)
        if c != v.p - 1:
            return out
        return [replace(t, s=v.s) if t.a != v.a else t for t in out]

    monkeypatch.setattr(translation, "loop_f", untwisted)
    result = suite_equivariance(5, (-1, 1))
    assert not result.ok
    assert "equivariance failed" in result.details


def test_equivariance_suite_encodes_each_weight_once(monkeypatch):
    # One encode and one loop vector per window weight, shared by all p residues.
    calls: Counter[str] = Counter()
    for module in (suites, translation):
        for name in ("encode", "loop_vector"):

            def counted(lam, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(lam)

            monkeypatch.setattr(module, name, counted)
    weights = sum(1 for _ in window_weights(5, (-1, 1)))
    result = suite_equivariance(5, (-1, 1))
    assert result.ok and result.checked == 5 * weights
    assert calls == {"encode": weights, "loop_vector": weights}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_commutator_is_antisymmetric_with_no_zero_coefficient(data):
    d = _random_diagram(data)
    i = data.draw(st.integers(0, d.p - 1))
    x = (data.draw(st.sampled_from("EF")), i)
    # Residues at distance 0, 1 or 2 from x: equal, adjacent and distant pairs.
    y = (data.draw(st.sampled_from("EF")), (i + data.draw(st.sampled_from((-1, 0, 1, 2)))) % d.p)
    xy = commutator(x, y, d)
    assert commutator(y, x, d) == {t: -k for t, k in xy.items()}
    assert 0 not in xy.values()


def _blocks(symbols):
    return sum(s in ">x" for s in symbols), sum(s in "<x" for s in symbols)


@pytest.mark.parametrize("table", [translation._F_TABLE, translation._E_TABLE], ids=["F", "E"])
def test_table_rows_keep_both_block_counts(table):
    # apply_functor skips the constructor's checks; this is why that is sound.
    for pair, rows in table.items():
        assert set(pair) <= set("o<>x")
        for new_x, new_y, _, _ in rows:
            assert {new_x, new_y} <= set("o<>x")
            assert _blocks(new_x + new_y) == _blocks(pair)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_functor_outputs_pass_the_public_constructor(data):
    d = _random_diagram(data)
    for i in range(d.p):
        for t in apply_F(i, d) + apply_E(i, d):
            assert t == WeightDiagram(t.p, t.symbols, t.s, t.r)


def test_encoded_and_slid_diagrams_pass_the_public_constructor(monkeypatch):
    # encode and the cap slides skip the constructor's checks as well; on the
    # p=5 window every diagram they build equals a validated rebuild.
    real, slid = caps._slide_crosses, []

    def recorded(d, moves, step):
        slid.append(real(d, moves, step))
        return slid[-1]

    monkeypatch.setattr(caps, "_slide_crosses", recorded)
    built = 0
    for lam in window_weights(5):
        for call in (caps.p_set, caps.hat, caps.kac_composition, caps.sigma_to_standard):
            call(lam)
        for t in [encode(lam)] + slid:
            assert t == WeightDiagram(t.p, t.symbols, t.s, t.r)
        built += 1 + len(slid)
        slid.clear()
    # One encode per weight and at least one slide per call.
    assert built >= 5 * 3677


def _generator_compositions(p):
    """Every ordered x(y d) that criterion 9's relations read."""
    pairs = [(("E", a), ("F", b)) for a in range(p) for b in range(p) if a != b]
    pairs += [((k, a), (k, b)) for a in range(p) for b in range(p) if (a - b) % p not in (0, 1, p - 1) for k in "EF"]
    return {c for x, y in pairs for c in ((x, y), (y, x))}


def _broken_at_f0(real):
    def apply_functor(kind, i, d):
        if (kind, i) == ("F", 0) and d.symbols[2] == "x":
            return ()
        return real(kind, i, d)

    return apply_functor


def test_kac_moody_suite_catches_a_functor_that_drops_terms(monkeypatch):
    monkeypatch.setattr(translation, "apply_functor", _broken_at_f0(translation.apply_functor))
    result = suites.suite_kac_moody(5, (-1, 1))
    assert not result.ok
    assert "[e_2, f_0] != 0" in result.details


def test_kac_moody_suite_applies_each_single_step_once(monkeypatch):
    # 2p single steps per weight, then one call per (generator, term) pair.
    real = translation.apply_functor
    p = 5
    want = 0
    for lam in window_weights(p, (-1, 1)):
        d = encode(lam)
        want += 2 * p + sum(len(real(*y, d)) for _, y in _generator_compositions(p))
    calls = 0

    def counted(kind, i, d):
        nonlocal calls
        calls += 1
        return real(kind, i, d)

    monkeypatch.setattr(translation, "apply_functor", counted)
    result = suites.suite_kac_moody(p, (-1, 1))
    assert result.ok and calls == want
