"""Labels the library derives from valid labels skip their constructors'
checks (the trusted builders).  Each such label must equal its own fields
rebuilt through the checking constructors; an AST table pins every caller
of a trusted builder with the reason its output is valid."""

import ast
import pickle
from itertools import permutations
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import verlinde_gl
from verlinde_gl import caps
from verlinde_gl.alcove import (
    GLWeight,
    _trusted_gl,
    add_box,
    chi_rotate,
    level_rank_D,
    remove_box,
    tensor_with_V,
)
from verlinde_gl.borel import (
    GLXShape,
    TupleWeight,
    _trusted_tuple,
    borel_translate,
    conjugate_relabel,
    odd_reflect_pair,
)
from verlinde_gl.caps import dual_simple_label, sigma_to_standard, standard_to_sigma
from verlinde_gl.diagrams import decode, encode
from verlinde_gl.enumeration import admissible_tuples, window_weights
from verlinde_gl.errors import ContractError, ValidationError
from verlinde_gl.superweights import SuperShape, SuperWeight, _trusted_shape

PRIMES = (5, 7, 11, 13, 17, 19, 23)


def rebuilt(label):
    """label's fields through the checking constructors, all the way down."""
    if type(label) is GLWeight:
        return GLWeight(label.entries, label.p)
    if type(label) is SuperWeight:
        return SuperWeight(SuperShape(*label.shape), label.mu, label.nu)
    if type(label) is TupleWeight:
        return TupleWeight(GLXShape(*label.shape), tuple(map(rebuilt, label.parts)))
    raise TypeError(f"not a label: {label!r}")


def witness(*labels):
    # repr names every record's class and shows lists and floats as such,
    # so a field of the wrong type fails as a wrong value does.
    for label in labels:
        assert repr(rebuilt(label)) == repr(label)


def gl_sites(lam):
    """Every trusted GLWeight that alcove derives from lam."""
    n, p = lam.n, lam.p
    moved = [move(lam, c) for move in (add_box, remove_box) for c in range(-p, 2 * p)]
    rotated = [chi_rotate(lam, k) for k in range(-2 * n - 1, 2 * n + 2)]
    return [level_rank_D(lam)[0], *tensor_with_V(lam), *filter(None, moved), *rotated]


def super_sites(lam):
    """Every trusted SuperWeight derived from lam: decode, the sigma pair with
    the weight sigma_to_standard encodes, and the dual label."""
    with patch.object(caps, "encode", wraps=caps.encode) as spy:
        back = sigma_to_standard(lam)
    (shifted,), _ = spy.call_args
    return [decode(encode(lam)), standard_to_sigma(lam), back, shifted, dual_simple_label(lam)]


def pair_sites(small, big):
    """odd_reflect_pair in both directions: the bridge's label and its parts."""
    return [part for direction in ("to_sigma", "to_standard") for part in odd_reflect_pair(small, big, direction)]


def tuple_sites(lam, w):
    """borel_translate with both factorizations and, for a block-preserving
    w, conjugate_relabel; none when lam is not w-integrable."""
    try:
        out = [borel_translate(lam, w), borel_translate(lam, w, rightmost_first=True)]
        if all(lam.shape.types[i] == lam.shape.types[w[i]] for i in range(len(w))):
            out.append(conjugate_relabel(lam, w))
    except ContractError:
        return []
    return out


def _window(rank, p, lo=None, hi=None):
    lo, hi = (-p, p) if lo is None else (lo, hi)
    return [GLWeight(e, p) for e in admissible_tuples(rank, p, lo, hi)]


def test_alcove_sites_on_the_p5_window():
    for rank in range(1, 5):
        for lam in _window(rank, 5):
            witness(*gl_sites(lam))


def test_super_sites_on_the_p5_window():
    for lam in window_weights(5):
        witness(*super_sites(lam))


def test_odd_reflections_on_the_p5_window():
    windows = {rank: _window(rank, 5) for rank in range(1, 5)}
    for m in range(1, 4):
        for r in range(m + 1, 5):
            for small in windows[m]:
                for big in windows[r]:
                    witness(*pair_sites(small, big))


def test_borel_sites_on_the_p5_window():
    # Two summands on the full window, three on [-1, 1].
    for types, lo, hi in [((1, 1), -5, 5), ((1, 3), -5, 5), ((2, 4), -5, 5), ((1, 2, 3), -1, 1), ((1, 1, 2), -1, 1), ((2, 3, 3), -1, 1)]:
        shape = GLXShape(5, types)
        columns = [_window(t, 5, lo, hi) for t in types]
        stack = [()]
        while stack:
            parts = stack.pop()
            if len(parts) < len(types):
                stack += [parts + (part,) for part in columns[len(parts)]]
                continue
            lam = TupleWeight(shape, parts)
            for w in permutations(range(len(types))):
                witness(*tuple_sites(lam, w))


@st.composite
def gl_weights(draw, p=None, n=None):
    """An admissible weight at a prime up to 23, of rank n if given."""
    p = p or draw(st.sampled_from(PRIMES))
    n = n or draw(st.integers(1, p - 1))
    offsets = draw(st.lists(st.integers(0, p - n), min_size=n, max_size=n))
    top = draw(st.integers(-3 * p, 3 * p))
    return GLWeight(tuple(top - x for x in sorted(offsets)), p)


@st.composite
def super_weights(draw):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, p - 2))
    mu = draw(gl_weights(p, m))
    nu = draw(gl_weights(p, draw(st.integers(1, p - 1 - m))))
    return SuperWeight(SuperShape(m, nu.n, p), mu.entries, nu.entries)


@st.composite
def reflection_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    r = draw(st.integers(2, p - 1))
    return draw(gl_weights(p, draw(st.integers(1, r - 1)))), draw(gl_weights(p, r))


@st.composite
def tuple_weights(draw):
    p = draw(st.sampled_from(PRIMES))
    types = tuple(sorted(draw(st.lists(st.integers(1, p - 1), min_size=2, max_size=4))))
    parts = tuple(draw(gl_weights(p, t)) for t in types)
    return TupleWeight(GLXShape(p, types), parts), draw(st.permutations(range(len(types))))


@settings(max_examples=200, deadline=None)
@given(gl_weights())
def test_alcove_sites_hypothesis(lam):
    witness(*gl_sites(lam))


@settings(max_examples=200, deadline=None)
@given(super_weights())
def test_super_sites_hypothesis(lam):
    witness(*super_sites(lam))


@settings(max_examples=200, deadline=None)
@given(reflection_pairs())
def test_odd_reflections_hypothesis(pair):
    witness(*pair_sites(*pair))


@settings(max_examples=200, deadline=None)
@given(tuple_weights())
def test_borel_sites_hypothesis(drawn):
    lam, w = drawn
    sites = tuple_sites(lam, tuple(w))
    assume(sites)
    witness(*sites)


_GLX = GLXShape(5, (1, 4))


@pytest.mark.parametrize(
    "build, trusted, fields, bad",
    [
        (GLWeight, _trusted_gl, ((1, 0), 5), ((0, 1), 5)),
        (SuperShape, _trusted_shape, (2, 1, 5), (2, 3, 5)),
        (
            TupleWeight,
            _trusted_tuple,
            (_GLX, (GLWeight((1,), 5), GLWeight((0, 0, 0, 0), 5))),
            (_GLX, (GLWeight((1,), 5), _trusted_gl((0, 0, 0), 5))),
        ),
    ],
    ids=["gl-weight", "super-shape", "tuple-weight"],
)
def test_gl_shape_and_tuple_builders_give_the_constructed_tuple(build, trusted, fields, bad):
    constructed, derived = build(*fields), trusted(*fields)
    assert derived == constructed == fields and type(derived) is type(constructed) is build
    assert pickle.loads(pickle.dumps(derived)) == derived
    # Unpickling calls the checking constructor, which refuses a bad label.
    with pytest.raises(ValidationError):
        pickle.loads(pickle.dumps(trusted(*bad)))


# Every src/ function that calls a trusted builder, with the builders it calls
# in source order and why their outputs are valid labels.
TRUSTED_CALLERS = {
    "alcove._move_box": (["_trusted_gl"], "ladder_weight of distinct residues is admissible"),
    "alcove.tensor_with_V": (["_trusted_gl"], "the O(1) neighbour test decides each summand"),
    "alcove.chi_rotate": (["_trusted_gl"], "a rotation keeps the spread at most p - n"),
    "alcove.level_rank_D": (["_trusted_gl"], "the transpose has at most p - n parts, each at most n"),
    "borel.conjugate_relabel": (["_trusted_tuple"], "w keeps types, which is checked"),
    "borel._pair_to_super": (["_trusted_weight", "_trusted_shape"], "m < r is checked first, so m + (p - r) < p"),
    "borel._super_to_pair": (["_trusted_gl", "_trusted_gl"], "the blocks of a valid SuperWeight"),
    "borel.borel_translate": (["_trusted_tuple"], "each swap keeps the part of every summand at its rank"),
    "caps._slide_crosses": (["_trusted"], "sliding crosses onto circles keeps p and both block counts"),
    "caps.label_rows.row": (["_trusted"], "row keys are symbol strings of valid diagrams"),
    "caps.dual_simple_label": (["_trusted_weight"], "the negated lowest blocks, reversed"),
    "caps.standard_to_sigma": (["_trusted_weight"], "hat less beta, a constant on each block"),
    "caps.sigma_to_standard": (["_trusted_weight"], "kappa plus beta, a constant on each block"),
    "diagrams.encode": (["_trusted"], "a valid super weight fixes p and both block counts"),
    "diagrams.decode": (["_trusted_weight", "_trusted_shape"], "a valid diagram fixes a valid weight and shape"),
    "enumeration.window_weights": (["_trusted_weight"], "admissible_tuples yields only admissible tuples"),
    "suites.suite_filtration": (["_trusted", "_trusted", "_trusted"], "label_rows entries moved to a window label"),
    "translation.apply_functor": (["_trusted", "_trusted"], "table rows keep p, the length and both block counts"),
    "translation._loop_move": (["_trusted_loop", "_trusted_loop"], "a residue moves only onto a free one"),
}
BUILDERS = {
    "_trusted": "diagrams.WeightDiagram",
    "_trusted_weight": "superweights.SuperWeight",
    "_trusted_shape": "superweights.SuperShape",
    "_trusted_loop": "translation.LoopVector",
    "_trusted_gl": "alcove.GLWeight",
    "_trusted_tuple": "borel.TupleWeight",
}


def _trusted_uses():
    """{function: builder names it references, in source order} over src/,
    {function: the classes its body hands to tuple.__new__}, and every call
    of object.__new__ or object.__setattr__."""
    uses, builds, forced = {}, {}, []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in BUILDERS:
            uses.setdefault(where, []).append(name)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple.__new__" and isinstance(node.args[0], ast.Name):
            builds.setdefault(where, []).append(f"{module}.{node.args[0].id}")
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("object.__new__", "object.__setattr__"):
            forced.append(f"{where}: {ast.unparse(node.func)}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(verlinde_gl.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path.stem)
    return uses, builds, forced


def test_every_trusted_site_is_in_the_table():
    uses, _builds, _forced = _trusted_uses()
    assert uses == {caller: builders for caller, (builders, _reason) in TRUSTED_CALLERS.items()}
    assert all(reason for _builders, reason in TRUSTED_CALLERS.values())


def test_labels_are_built_by_tuple_new_only_in_the_trusted_builders():
    _uses, builds, forced = _trusted_uses()
    # Each builder is one tuple.__new__ of its class, defined next to it; any
    # other tuple.__new__ is a class's own __new__ building cls.
    labels = {f"{home.split('.')[0]}.{name}": [home] for name, home in BUILDERS.items()}
    assert {where: built for where, built in builds.items() if where in labels} == labels
    others = {where: built for where, built in builds.items() if where not in labels}
    assert all(where.endswith(".__new__") and all(b.endswith(".cls") for b in built) for where, built in others.items())
    # Nothing builds a half-checked object or sets fields on one.
    assert forced == []

