"""Every suite failure path fails once: one broken library name per row."""

from itertools import islice

import pytest

from verlinde_gl import suites, translation
from verlinde_gl.errors import ContractError
from verlinde_gl.superweights import Casimir


def _golden():
    return suites.suite_golden()


def _roundtrip():
    return suites.suite_codec(5, (-1, 1))


def _equivariance():
    return suites.suite_equivariance(5, (-1, 1))


def _filtration():
    return suites.suite_filtration(5, (-1, 1))


def _projective_word():
    return suites.suite_projective_word(5, 2, (-1, 1))


def _serganova():
    return suites.suite_serganova((5,))


def _kac_moody():
    return suites.suite_kac_moody(5, (-1, 1))


def _odd_reflection():
    return suites.suite_odd_reflection(5, (-1, 1), trials=20)


def _fixed_left(real):
    def translate(lam, w, *, rightmost_first=False):
        return lam if rightmost_first else real(lam, w)

    return translate


ROWS = [
    ("fuse_simples", lambda real: lambda i, j, p: [0], _golden, "fusion L3*L3 at p=5: got [0], want [1, 3]"),
    ("sh_mu_mask", lambda real: lambda mu, p: 0, _roundtrip, "form-route mu mask mismatch"),
    ("_equivariant_terms", lambda real: lambda d, v, c: None, _equivariance, "equivariance failed"),
    ("_two_term_order_ok", lambda real: lambda terms, weights: False, _equivariance, "two-term order failed"),
    ("dominance_leq", lambda real: lambda alpha, lam: False, _filtration, "dominance fails"),
    (
        "casimir_scalar",
        lambda real: lambda lam: Casimir(real(lam).value, sum(lam.mu)),
        _filtration,
        "linkage fails",
    ),
    # Strictness compares sum(alpha.mu) with sum(lam.mu); a zero sum ties them.
    ("sum", lambda real: lambda values: 0, _filtration, "strictness fails"),
    ("kac_diagrams", lambda real: lambda d: set(), _filtration, "BGG inversion misses"),
    ("_form_atypicality", lambda real: lambda lam: -1, _filtration, "atypicality routes disagree"),
    # Every alpha reported as its own non-factor.
    ("_non_factor", lambda real: lambda alpha: alpha, _filtration, "BGG inversion reports a non-factor"),
    # A p-set of the diagram alone is short at every atypical weight.
    ("p_set_diagrams", lambda real: lambda d: {d}, _filtration, "p-set size wrong"),
    ("p_set_diagrams", lambda real: lambda d: {d}, _projective_word, "replay mismatch"),
    # A word that peels nothing leaves the base at the weight, atypical for most of the window.
    ("projective_word_diagrams", lambda real: lambda d: (d, ()), _projective_word, "base not typical"),
    ("replay_diagrams", lambda real: lambda d, word: {}, _projective_word, "replay mismatch"),
    ("check_oddroot_lemma", lambda real: lambda m, n: False, _serganova, "odd-root lemma fails"),
    # One hat dropped from the front misaligns every later nu row with its hat.
    (
        "serganova_hats",
        lambda real: lambda mus, nus, p: islice(real(mus, nus, p), 1, None),
        _serganova,
        "hat/Sh mismatch",
    ),
    ("sh_nonzero", lambda real: lambda mu, nu, p: not real(mu, nu, p), _serganova, "typicality transfer fails"),
    ("standard_to_sigma", lambda real: suites.hat, _odd_reflection, "sigma roundtrip fails"),
    ("conjugate_relabel", lambda real: lambda lam, w: None, _odd_reflection, "W0 mismatch"),
    ("borel_translate", _fixed_left, _odd_reflection, "factorization discrepancy"),
    # A table reading each composition as itself: no two orders agree.
    ("translation", lambda real: lambda d, compositions: {c: c for c in compositions}, _kac_moody, "[e_"),
]


def _row_id(row) -> str:
    """The broken name; the suite's too where one name breaks two suites, and
    the row's place among them where it breaks one suite twice."""
    name, _, run, _ = row
    same = [r for r in ROWS if r[0] == name]
    if len(same) == 1:
        return name
    twins = [r for r in same if r[2] is run]
    return f"{name}{run.__name__}" + (f"-{twins.index(row)}" if len(twins) > 1 else "")


def test_row_ids_are_unique():
    ids = list(map(_row_id, ROWS))
    assert len(set(ids)) == len(ids) == len(ROWS)


@pytest.mark.parametrize("name, broken, run, message", ROWS, ids=map(_row_id, ROWS))
def test_suite_failure_path_fails(monkeypatch, name, broken, run, message):
    real = getattr(suites, name, None)
    monkeypatch.setattr(suites, name, broken(real), raising=False)
    result = run()
    assert not result.ok and message in result.details


def test_projective_word_suite_counts_a_library_error(monkeypatch):
    # Criterion 6's core reports an error of the word as its string's
    # failure, so the sweep runs to the end and counts it under each weight.
    def raising(d):
        raise ContractError(f"no word for {d.symbols}")

    monkeypatch.setattr(suites, "projective_word_diagrams", raising)
    result = _projective_word()
    assert result.failures == result.checked > 0
    assert result.details.startswith("ContractError (no word for ")


def test_projective_word_suite_runs_to_the_end_under_a_broken_functor(monkeypatch):
    # A functor that drops a term above s = 0 breaks some words at label
    # (0, 0), through a merge or a hop; each is a counted failure, not a raise.
    real = translation.apply_functor

    def broken(kind, i, d):
        out = real(kind, i, d)
        return out[1:] if d.s > 0 else out

    monkeypatch.setattr(translation, "apply_functor", broken)
    result = suites.suite_projective_word(5)
    assert result.checked == 3677 and result.failures > 0
