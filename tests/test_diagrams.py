import json

import pytest
from hypothesis import given, settings, strategies as st

from verlinde_gl import suites
from verlinde_gl.alcove import ladder_weight
from verlinde_gl.diagrams import (
    WeightDiagram,
    cut,
    decode,
    encode,
    from_json,
    permute,
    render_ascii,
    symbol_residues,
    to_json,
)
from verlinde_gl.enumeration import window_weights
from verlinde_gl.errors import ValidationError
from verlinde_gl.superweights import SuperShape, SuperWeight, residue_data, super_weight

FIG = super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))


def test_encode_figure():
    d = encode(FIG)
    assert cut(d, 3).symbols == "o<ox>>x<oo>"
    assert (d.s, d.r) == (3, 2)
    assert d.m == 5 and d.n == 4 and d.cross_count == 2


def test_encode_small():
    d = encode(super_weight(5, (0,), (0,)))
    assert d.symbols == "xoooo" and (d.s, d.r) == (0, 0)
    d = encode(super_weight(5, (1,), (0,)))
    assert d.symbols == "<>ooo" and (d.s, d.r) == (0, 0)


def test_decode_figure():
    d = WeightDiagram(11, "x>><oo<ox>o"[-3:] + "x>><oo<ox>o"[:-3], 3, 2)
    # Assemble the figure directly instead: vertices 2,7,8 carry '>',
    # 4,10 carry '<', 6,9 carry 'x'.
    syms = ["o"] * 11
    for k in (2, 7, 8):
        syms[k] = ">"
    for k in (4, 10):
        syms[k] = "<"
    for k in (6, 9):
        syms[k] = "x"
    d = WeightDiagram(11, "".join(syms), 3, 2)
    lam = decode(d, 5, 4)
    assert lam.mu == (18, 18, 15, 12, 12)
    assert lam.nu == (-13, -13, -17, -18)


def test_decode_validates_counts():
    d = encode(super_weight(5, (1,), (0,)))
    with pytest.raises(ValidationError):
        decode(d, 2, 1)
    with pytest.raises(ValidationError):
        decode(d, 1, 2)
    assert decode(d, 1, 1).vector == (1, 0)


def test_decode_derived_example():
    lam = decode(WeightDiagram(5, "<>ooo", 0, 0), 1, 1)
    assert lam.vector == (1, 0)


def test_cut_and_render():
    d = encode(FIG)
    assert render_ascii(d, 3) == "o<ox>>x<oo> @3 t1^-3 t2^2"
    assert cut(d, 0).symbols == d.symbols
    assert render_ascii(encode(super_weight(5, (0,), (0,)))) == "xoooo @0 t1^0 t2^0"
    for k in range(11):
        c = cut(d, k)
        rebuilt = c.symbols[-k:] + c.symbols[:-k] if k else c.symbols
        assert rebuilt == d.symbols
    with pytest.raises(ValidationError):
        cut(d, 11)


def test_permute_identity_and_example():
    d = encode(FIG)
    ident = {k: k for k in range(11)}
    assert permute(ident, d) == d
    # sigma = (0 4 6)(3 9); then multiply the label by t1 t2^(-1).
    sigma = dict(ident)
    sigma.update({0: 4, 4: 6, 6: 0, 3: 9, 9: 3})
    moved = permute(sigma, d)
    out = WeightDiagram(11, moved.symbols, moved.s - 1, moved.r - 1)
    expected = {0: "<", 1: "o", 2: ">", 3: "x", 4: "x", 5: "o", 6: "o", 7: ">", 8: ">", 9: "o", 10: "<"}
    assert out.symbols == "".join(expected[k] for k in range(11))
    assert (out.s, out.r) == (2, 1)  # label t1^-2 t2^1
    assert out.m == d.m and out.n == d.n and out.cross_count == d.cross_count


def test_permute_two_circles():
    d = encode(FIG)
    swap = {k: k for k in range(11)}
    swap.update({3: 5, 5: 3})
    out = permute(swap, d)
    assert sorted(out.symbols) == sorted(d.symbols)
    assert [k for k in range(11) if out.symbols[k] == "x"] == [6, 9]
    with pytest.raises(ValidationError):
        permute({0: 0}, d)


def test_label_bookkeeping_matches_residue_data():
    for p in (5, 7):
        for lam in window_weights(p, window=(-3, 3)):
            d = encode(lam)
            rd = residue_data(lam)
            assert (d.s, d.r) == (rd.s, rd.r)


def test_roundtrip_exhaustive_p5():
    for lam in window_weights(5):
        assert decode(encode(lam)) == lam


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_roundtrip_hypothesis(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31]))
    m = data.draw(st.integers(1, min(8, p - 2)))
    n = data.draw(st.integers(1, min(8, p - 1 - m)))
    base = data.draw(st.integers(-3 * p, 3 * p))
    mu = [base]
    for _ in range(m - 1):
        mu.append(data.draw(st.integers(max(mu[-1] - 3, base - (p - m)), mu[-1])))
    base = data.draw(st.integers(-3 * p, 3 * p))
    nu = [base]
    for _ in range(n - 1):
        nu.append(data.draw(st.integers(max(nu[-1] - 3, base - (p - n)), nu[-1])))
    lam = super_weight(p, tuple(mu), tuple(nu))
    assert decode(encode(lam)) == lam


def test_json_roundtrip():
    d = encode(FIG)
    text = to_json(d)
    assert from_json(text) == d
    obj = json.loads(text)
    assert obj["p"] == 11 and obj["s"] == 3 and obj["r"] == 2
    assert len(obj["symbols"]) == 11
    with pytest.raises(ValidationError):
        from_json("{}")


def test_diagram_validation():
    with pytest.raises(ValidationError):
        WeightDiagram(5, "ooooo", 0, 0)  # m = n = 0
    with pytest.raises(ValidationError):
        WeightDiagram(5, "<>oo", 0, 0)  # wrong length
    with pytest.raises(ValidationError):
        WeightDiagram(5, "<>oo?", 0, 0)
    with pytest.raises(ValidationError):
        WeightDiagram(5, "<><><", 0, 0)  # m + n = 5 not < 5


def test_codec_suite_catches_an_unreversed_second_block(monkeypatch):
    # Still an involution, but the ladder of a block with distinct entries
    # no longer decreases, so its roundtrip must fail.
    monkeypatch.setattr(suites, "second_block", lambda nu, m: tuple(len(nu) - m - y for y in nu))
    result = suites.suite_codec(5, (-1, 1))
    assert not result.ok and result.details.startswith("nu-block roundtrip failed")


def test_codec_suite_catches_a_shifted_residue(monkeypatch):
    real_ladder = suites.weight_ladder

    def shifted(entries, p):
        residues, s = real_ladder(entries, p)
        residues[0] = (residues[0] + 1) % p
        return residues, s

    monkeypatch.setattr(suites, "weight_ladder", shifted)
    result = suites.suite_codec(5, (-1, 1))
    assert not result.ok and result.details.startswith("mu-block roundtrip failed")


@pytest.mark.parametrize(
    "name, broken",
    [
        ("assemble_symbols", lambda real: lambda a, b, p: real(a, b, p)[::-1]),
        ("symbol_residues", lambda real: lambda symbols: real(symbols[1:] + symbols[0])),
    ],
)
def test_codec_suite_catches_a_broken_assembly(monkeypatch, name, broken):
    monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    result = suites.suite_codec(5, (-1, 1))
    assert not result.ok and result.details.startswith("assembly failed at p=5")


@pytest.mark.parametrize("block", ["mu", "nu"])
def test_codec_suite_catches_a_flipped_form_route_bit(monkeypatch, block):
    real = getattr(suites, f"sh_{block}_mask")
    monkeypatch.setattr(suites, f"sh_{block}_mask", lambda w, p: real(w, p) ^ 1)
    result = suites.suite_codec(5, (-1, 1))
    assert not result.ok and result.details.startswith(f"form-route {block} mask mismatch at p=5")


def _decode_with_unreversed_second_block(d, m=None, n=None):
    # decode writing its own second block, without the reversal of second_block.
    a, b = symbol_residues(d.symbols)
    mu = ladder_weight(a, d.s, d.p)
    nu = tuple(len(b) - len(a) - y for y in ladder_weight(b, d.r, d.p))
    return SuperWeight(SuperShape(len(a), len(b), d.p), mu, nu)


def test_codec_suite_runs_the_shipped_decode(monkeypatch):
    monkeypatch.setattr(suites, "decode", _decode_with_unreversed_second_block)
    result = suites.suite_codec(5, (-1, 1))
    assert not result.ok and result.details.startswith("decode(encode(lam)) != lam at p=5")


def test_codec_suite_counts_one_decode_per_window_weight():
    # Stage (d) adds exactly the window weights to the block and assembly stages.
    weights = sum(1 for _ in window_weights(5))
    assert weights == 3677
    assert suites.suite_codec(5).checked == 873 + weights


def test_golden_suite_reports_a_raising_decode_as_a_failure(monkeypatch):
    def raising(d, m=None, n=None):
        raise ValidationError("decode refused the figure")

    monkeypatch.setattr(suites, "decode", raising)
    result = suites.suite_golden()
    assert not result.ok and result.failures == 1
    assert result.details == "figure decode: ValidationError: decode refused the figure"
