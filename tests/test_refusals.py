"""Every bad input ends in a library error with a message, never a traceback
from deeper code: one row per refusal, as (call, error class, message
fragment)."""

import pytest

from verlinde_gl.alcove import (
    GLWeight,
    add_box,
    chi_rotate,
    det_power,
    is_admissible,
    level_rank_degree_zero,
    transpose_partition,
    wedge_to_weight,
)
from verlinde_gl.borel import (
    GLXShape,
    TupleWeight,
    borel_translate,
    check_permutation,
    conjugate_relabel,
    is_w_dominant,
    odd_reflect_pair,
    w_dominance_leq,
    w_integrable,
)
from verlinde_gl.caps import KAC_COMPOSITION_MAX_NODES, kac_composition
from verlinde_gl.errors import ContractError, ValidationError
from verlinde_gl.fusion import check_prime
from verlinde_gl.serganova import check_blocks, odd_root_order
from verlinde_gl.superweights import SuperShape, SuperWeight, casimir_unsuper, dominance_leq, super_weight
from verlinde_gl.translation import LoopVector, loop_e, loop_f, translate_projective


def _tuple_weight(p, types, parts):
    return TupleWeight(GLXShape(p, types), tuple(GLWeight(e, p) for e in parts))


LOOP = LoopVector(5, (0,), 0, (1,), 0)
ONE_PART = _tuple_weight(5, (1,), [(0,)])
RANK_TWO_PART = _tuple_weight(5, (2,), [(0, 0)])
NONCANONICAL = _tuple_weight(5, (2, 1), [(0, 0), (0,)])
EQUAL_TYPES = _tuple_weight(5, (1, 1), [(0,), (0,)])
MIXED_TYPES = _tuple_weight(5, (1, 2), [(0,), (0, 0)])
ZERO5 = super_weight(5, (0,), (0,))
# Symbols "xo" * 20 + "o" at p = 41: Catalan(21) Kac factors, past the node budget.
ALTERNATING41 = super_weight(41, tuple(range(38, 18, -1)), tuple(range(-19, -39, -1)))

REFUSALS = [
    ("is_admissible-rank", lambda: is_admissible((0,) * 5, 5, 5), ValidationError, "rank 5 out of range 1..4"),
    ("GLWeight-inadmissible", lambda: GLWeight((5, 0), 5), ValidationError, "is not admissible for rank 2, p=5"),
    ("wedge_to_weight-size", lambda: wedge_to_weight(set(), 0, 5), ValidationError, "residue set size 0 out of"),
    ("wedge_to_weight-range", lambda: wedge_to_weight({5}, 0, 5), ValidationError, "residues must lie in 0..4"),
    ("det_power-rank", lambda: det_power(5, 5, 1), ValidationError, "rank 5 out of range 1..4"),
    ("transpose_partition-negative", lambda: transpose_partition((2, -1)), ValidationError, "must be nonnegative"),
    ("level_rank_degree_zero", lambda: level_rank_degree_zero(GLWeight((1, 0), 5)), ValidationError, "degree-zero"),
    ("TupleWeight-count", lambda: _tuple_weight(5, (1, 2), [(0,)]), ValidationError, "expected 2 parts, got 1"),
    ("TupleWeight-p", lambda: TupleWeight(ONE_PART.shape, (GLWeight((0,), 7),)), ValidationError, "characteristic"),
    ("check_permutation", lambda: check_permutation((0, 0), 2), ValidationError, "is not a permutation of 0..1"),
    ("w_dominance_leq-shapes", lambda: w_dominance_leq(ONE_PART, RANK_TWO_PART, (0,)), ValidationError, "a shape"),
    ("w_integrable-canonical", lambda: w_integrable(NONCANONICAL, (0, 1)), ValidationError, "canonical arrangement"),
    ("borel_translate-canonical", lambda: borel_translate(NONCANONICAL, (0, 1)), ValidationError, "canonical"),
    # A permutation is a tuple of ints: 1.0 equals 1 but indexes nothing.
    ("w_integrable-float", lambda: w_integrable(MIXED_TYPES, (1.0, 0.0)), ValidationError, "not a permutation"),
    ("borel_translate-float", lambda: borel_translate(MIXED_TYPES, (0.0, 1.0)), ValidationError, "not a permutation"),
    ("conjugate_relabel-float", lambda: conjugate_relabel(EQUAL_TYPES, (1.0, 0.0)), ValidationError, "not a permutation"),
    ("odd_reflect_pair-p", lambda: odd_reflect_pair(GLWeight((0,), 5), GLWeight((0, 0), 7), "to_sigma"),
     ValidationError, "must share the characteristic"),
    ("check_blocks-empty", lambda: check_blocks([()], [(0,)]), ValidationError, "both blocks must be nonempty"),
    ("odd_root_order-size", lambda: odd_root_order(0, 1), ValidationError, "block sizes must be positive"),
    ("casimir_unsuper-mu", lambda: casimir_unsuper((5, 0), (0,), 5), ValidationError, "mu=(5, 0) not admissible"),
    ("casimir_unsuper-pi", lambda: casimir_unsuper((0,), (5, 0), 5), ValidationError, "pi=(5, 0) not admissible"),
    ("casimir_unsuper-float", lambda: casimir_unsuper((1.5,), (0,), 5), ValidationError,
     "mu=(1.5,) must have integer entries"),
    ("casimir_unsuper-bool", lambda: casimir_unsuper((0,), (True,), 5), ValidationError,
     "pi=(True,) must have integer entries"),
    ("kac_composition-budget", lambda: kac_composition(ALTERNATING41), ValidationError,
     f"kac_composition walk exceeds {KAC_COMPOSITION_MAX_NODES} nodes"),
    ("dominance_leq-shapes", lambda: dominance_leq(ZERO5, super_weight(5, (0, 0), (0,))), ValidationError, "shapes"),
    ("translate_projective-killed", lambda: translate_projective("F", 0, super_weight(5, (1,), (1,))),
     ContractError, "functor kills the diagram"),
    ("LoopVector-repeated", lambda: LoopVector(5, (1, 1), 0, (), 0), ValidationError, "distinct within a factor"),
    ("loop_f-residue", lambda: loop_f(5, LOOP), ValidationError, "residue 5 out of range 0..4"),
    ("loop_e-residue", lambda: loop_e(-1, LOOP), ValidationError, "residue -1 out of range 0..4"),
    # Derived labels skip the checks, so the constructors refuse every
    # argument that is not a sequence, not just bad sequences.
    ("GLWeight-int", lambda: GLWeight(5, 5), ValidationError, "entries must be a sequence, got 5"),
    ("GLWeight-None", lambda: GLWeight(None, 5), ValidationError, "entries must be a sequence, got None"),
    ("SuperWeight-int", lambda: SuperWeight(SuperShape(1, 1, 5), 5, (0,)), ValidationError, "mu must be a sequence"),
    ("super_weight-int", lambda: super_weight(5, 5, (0,)), ValidationError, "mu must be a sequence, got 5"),
    ("SuperWeight-shape", lambda: SuperWeight((1, 1, 5), (0,), (0,)), ValidationError, "shape must be a SuperShape"),
    ("GLXShape-int", lambda: GLXShape(5, 3), ValidationError, "types must be a sequence, got 3"),
    ("GLXShape-float", lambda: GLXShape(5, (1.0,)), ValidationError, "types must lie in 1..4"),
    ("TupleWeight-int", lambda: TupleWeight(ONE_PART.shape, 5), ValidationError, "parts must be a sequence, got 5"),
    ("TupleWeight-shape", lambda: TupleWeight((5, (1,)), ONE_PART.parts), ValidationError, "shape must be a GLXShape"),
    ("TupleWeight-part", lambda: TupleWeight(ONE_PART.shape, ((0,),)), ValidationError, "part 0 must be a GLWeight"),
    ("borel_translate-int", lambda: borel_translate(MIXED_TYPES, 5), ValidationError, "permutation must be a sequence"),
    ("borel_translate-None", lambda: borel_translate(MIXED_TYPES, None), ValidationError,
     "permutation must be a sequence, got None"),
    ("conjugate_relabel-int", lambda: conjugate_relabel(EQUAL_TYPES, 5), ValidationError, "permutation must be a sequence"),
    ("w_integrable-None", lambda: w_integrable(MIXED_TYPES, None), ValidationError, "permutation must be a sequence"),
    ("is_w_dominant-int", lambda: is_w_dominant(5, (0,)), ValidationError, "character must be a sequence, got 5"),
    ("chi_rotate-float", lambda: chi_rotate(GLWeight((0, 0), 5), 1.0), ValidationError, "chi power must be an integer"),
    ("add_box-float", lambda: add_box(GLWeight((0, 0), 5), 0.0), ValidationError, "content must be an integer"),
    # The CLI parses p with type=int, so only a library call reaches these.
    ("check_prime-float", lambda: check_prime(5.0), ValidationError, "p must be an integer"),
    ("check_prime-str", lambda: check_prime("5"), ValidationError, "p must be an integer"),
    ("check_prime-bool", lambda: check_prime(True), ValidationError, "p must be an integer"),
    ("super_weight-float-p", lambda: super_weight(5.0, (0,), (0,)), ValidationError, "p must be an integer"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_bad_input_is_refused(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
