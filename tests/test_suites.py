"""Every suite failure path fails once: one broken library name per row."""

from itertools import islice

import pytest

from verlinde_gl import suites
from verlinde_gl.superweights import Casimir


def _golden():
    return suites.suite_golden()


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
    """The broken name, and the suite's where one name breaks two suites."""
    name, _, run, _ = row
    return name if [r[0] for r in ROWS].count(name) == 1 else f"{name}{run.__name__}"


@pytest.mark.parametrize("name, broken, run, message", ROWS, ids=map(_row_id, ROWS))
def test_suite_failure_path_fails(monkeypatch, name, broken, run, message):
    real = getattr(suites, name, None)
    monkeypatch.setattr(suites, name, broken(real), raising=False)
    result = run()
    assert not result.ok and message in result.details
