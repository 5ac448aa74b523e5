"""Exact combinatorics of general linear groups in the Verlinde category.

Modules:
    fusion        fusion rules and parity of the simples of Ver_p
    alcove        admissible GL_n weights, box moves, invertibles, level-rank,
                  the wedge dictionary
    superweights  pairs (mu | nu), bilinear form, atypicality, Casimir
    diagrams      the circular weight-diagram codec
    translation   translation functors on diagrams and the loop-module oracle
    caps          cap diagrams, projective filtrations, lowest weights
    serganova     the classical-root-subtraction algorithm
    borel         tuple weights and Borel relabeling via odd reflections
    enumeration   weight windows: admissible tuples, super shapes, window weights
    suites        batch self-check suites behind selfcheck and the acceptance gate
    errors        ValidationError (malformed input) and ContractError
    cli           command-line surface; selfcheck runs the suites

The public names below resolve on first use (PEP 562): importing the package
loads no layer, and reading verlinde_gl.encode imports diagrams once and keeps
the function in the package namespace.  `from verlinde_gl import encode`
works as for any module attribute.

A layer that calls another only on some paths binds its name to a _Layer
handle (caps: translation; borel: caps, superweights; cli: every layer).  The
first attribute read imports the module and rebinds the name to it, so later
reads are plain global lookups, and a function patched on the module is the
one called.
"""

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "alcove": "GLWeight add_box chi_rotate is_admissible level_rank_D level_rank_D_inverse psi_data remove_box tensor_with_V",
    "caps": "Cap CapDiagram cap_diagram dual_simple dual_simple_label hat is_inner kac_composition lowest_weight p_set projective_filtration projective_word render_caps replay_word sigma_to_standard standard_to_sigma",
    "borel": "GLXShape TupleWeight borel_translate conjugate_relabel is_w_dominant odd_reflect_pair w_dominance_leq w_integrable",
    "diagrams": "WeightDiagram cut decode encode render_ascii",
    "errors": "ContractError ValidationError",
    "fusion": "fuse_simples is_even_object",
    "serganova": "check_oddroot_lemma odd_root_order serganova_hat serganova_hats sh_nonzero",
    "superweights": "SuperShape SuperWeight atypicality beta casimir_scalar casimir_unsuper dominance_leq form is_typical kac_irreducible residue_data rho2 super_weight",
    "translation": "KacExtension LoopVector apply_E apply_F loop_e loop_f loop_vector phi_equivariance_check translate_kac translate_projective translate_simple",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


class _Layer:
    """A library module bound as namespace[name], imported on the first read of one of its attributes."""

    def __init__(self, name: str, namespace: dict) -> None:
        self._name, self._namespace = name, namespace

    def __getattr__(self, attr: str):
        from importlib import import_module

        module = self._namespace[self._name] = import_module(f"{__name__}.{self._name}")
        return getattr(module, attr)


def __getattr__(name: str):
    from importlib import import_module

    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
