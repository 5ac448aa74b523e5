from itertools import islice

import pytest

from verlinde_gl.alcove import GLWeight, level_rank_D
from verlinde_gl.enumeration import window_weights
from verlinde_gl.errors import ValidationError
from verlinde_gl.superweights import (
    SuperShape,
    atypicality,
    beta,
    casimir_scalar,
    casimir_unsuper,
    dominance_leq,
    form,
    is_typical,
    kac_irreducible,
    residue_data,
    rho2,
    super_weight,
)

FIG = super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))


def test_shape_validation():
    with pytest.raises(ValidationError):
        SuperShape(3, 2, 5)
    with pytest.raises(ValidationError):
        SuperShape(0, 1, 5)
    with pytest.raises(ValidationError):
        super_weight(5, (4, 0), (0,))  # spread 4 > p - m
    with pytest.raises(ValidationError):
        super_weight(5, (0, 1), (0,))


def test_rho2():
    assert rho2(SuperShape(1, 1, 5)) == (-1, 1)
    assert rho2(SuperShape(5, 4, 11)) == (0, -2, -4, -6, -8, 8, 6, 4, 2)
    assert rho2(SuperShape(2, 2, 7)) == (-1, -3, 3, 1)


def test_beta():
    assert beta(SuperShape(1, 1, 5)) == (1, -1)
    assert beta(SuperShape(5, 4, 11)) == (4, 4, 4, 4, 4, -5, -5, -5, -5)
    assert beta(SuperShape(2, 3, 7)) == (3, 3, -2, -2, -2)


def test_form():
    sh = SuperShape(1, 1, 5)
    assert form((1, 0), (1, 0), sh) == 1
    assert form((0, 1), (0, 1), sh) == -1
    assert form((1, -1), (1, -1), sh) == 0
    with pytest.raises(ValidationError):
        form((1,), (1, 0), sh)


def test_residue_data_figure():
    rd = residue_data(FIG)
    assert rd.a == (7, 6, 2, 9, 8)
    assert rd.b == (9, 10, 4, 6)
    assert (rd.s, rd.r) == (3, 2)


def test_residue_data_small():
    rd = residue_data(super_weight(5, (0,), (0,)))
    assert (rd.a, rd.b, rd.s, rd.r) == ((0,), (0,), 0, 0)
    rd = residue_data(super_weight(5, (0,), (1,)))
    assert (rd.a, rd.b, rd.s, rd.r) == ((0,), (4,), 0, -1)


def test_atypicality():
    assert atypicality(FIG) == 2
    assert atypicality(super_weight(5, (0,), (0,))) == 1
    assert atypicality(super_weight(5, (1,), (0,))) == 0


def test_typicality():
    assert is_typical(super_weight(5, (1,), (0,)))
    assert not is_typical(super_weight(5, (0,), (0,)))
    assert not kac_irreducible(FIG)


def test_residue_distinctness_on_windows():
    for p, window in ((5, None), (7, None), (11, (-3, 3))):
        for lam in window_weights(p, window=window):
            rd = residue_data(lam)
            assert len(set(rd.a)) == lam.shape.m and len(set(rd.b)) == lam.shape.n


def test_rho_pairings_are_integral():
    # <2*rho, eps_i - delta_j> must be even for every shape up to 6.
    for m in range(1, 7):
        for n in range(1, 7):
            sh = SuperShape(m, n, 13)
            r2 = rho2(sh)
            for i in range(m):
                for j in range(n):
                    assert (r2[i] + r2[m + j]) % 2 == 0


def test_filtration_suite_compares_the_atypicality_routes(monkeypatch):
    # The bilinear-form count is the witness of the residue count; a residue
    # route that is off by one must be refused by name.
    from verlinde_gl import suites

    assert suites.suite_filtration(5, (-1, 1)).ok
    monkeypatch.setattr(suites, "atypicality", lambda lam: atypicality(lam) + 1)
    result = suites.suite_filtration(5, (-1, 1))
    assert not result.ok and "atypicality routes disagree" in result.details


def test_filtration_suite_counts_every_failure_of_a_broken_atypicality(monkeypatch):
    # A failing run goes to the end: each window weight fails both of its
    # atypicality checks and skips the per-alpha ones, and the first three
    # messages are kept.
    from verlinde_gl import suites

    monkeypatch.setattr(suites, "atypicality", lambda lam: atypicality(lam) + 1)
    result = suites.suite_filtration(5)
    assert not result.ok and result.failures == result.checked == 2 * 3677
    first, second = [(lam.mu, lam.nu) for lam in islice(window_weights(5), 2)]
    assert result.details == (
        f"atypicality routes disagree at {first}; p-set size wrong at {first}; "
        f"atypicality routes disagree at {second}"
    )


def test_casimir_examples():
    assert casimir_scalar(super_weight(5, (0,), (0,))).value == 0
    assert casimir_scalar(super_weight(5, (1,), (0,))).value == 0
    assert casimir_unsuper((0,), (0, 0, 0, 0), 5) == 0
    assert casimir_unsuper((1,), (0, 0, 0, 0), 5) == 5


def test_casimir_unsuper_matches_super_mod_p():
    from verlinde_gl.enumeration import admissible_tuples

    for p, m, big_rank in ((5, 1, 4), (5, 2, 3), (7, 2, 4)):
        for mu in admissible_tuples(m, p, -2, 2):
            for pi in admissible_tuples(big_rank, p, -2, 2):
                nu, _ = level_rank_D(GLWeight(pi, p))
                lam = super_weight(p, mu, nu.entries)
                assert casimir_unsuper(mu, pi, p) % p == casimir_scalar(lam).residue


def test_casimir_matches_split_formula():
    # Independent route: <mu+2rho_m, mu> - <nu+2rho_n, nu> - n|mu| - m|nu|
    # with the per-block staircases 2rho_k = (k-1, k-3, .., 1-k).
    for p in (5, 7):
        for lam in window_weights(p, window=(-3, 3)):
            m, n, mu, nu = lam.shape.m, lam.shape.n, lam.mu, lam.nu
            rm = [m - (2 * i - 1) for i in range(1, m + 1)]
            rn = [n - (2 * j - 1) for j in range(1, n + 1)]
            split = (
                sum((mu[i] + rm[i]) * mu[i] for i in range(m))
                - sum((nu[j] + rn[j]) * nu[j] for j in range(n))
                - n * sum(mu)
                - m * sum(nu)
            )
            assert casimir_scalar(lam).value == split


def test_dominance():
    a = super_weight(5, (0,), (1,))
    b = super_weight(5, (1,), (0,))
    assert dominance_leq(a, a)
    assert dominance_leq(a, b)
    assert not dominance_leq(b, a)
    assert not dominance_leq(super_weight(5, (1,), (1,)), b)
