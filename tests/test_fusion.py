import pytest
from hypothesis import given, strategies as st

from verlinde_gl.errors import ValidationError
from verlinde_gl.fusion import MAX_P, check_prime, fuse_simples, is_even_object, is_prime

PRIMES = [5, 7, 11, 13]


def test_golden_p5():
    assert fuse_simples(3, 3, 5) == [1, 3]


def test_unit_is_monoidal_identity():
    for p in PRIMES:
        for k in range(1, p):
            assert fuse_simples(1, k, p) == [k]


def test_invertible_top_object():
    # L_{p-1} permutes the simples: L_i (x) L_{p-1} = L_{p-i}.
    for p in PRIMES:
        for i in range(1, p):
            assert fuse_simples(i, p - 1, p) == [p - i]
    assert fuse_simples(4, 6, 7) == [3]


def test_prime_validation():
    with pytest.raises(ValidationError):
        check_prime(4)
    with pytest.raises(ValidationError):
        check_prime(3)
    with pytest.raises(ValidationError):
        fuse_simples(1, 1, 9)
    with pytest.raises(ValidationError):
        fuse_simples(0, 1, 5)
    with pytest.raises(ValidationError):
        fuse_simples(1, 5, 5)
    assert is_prime(2) and not is_prime(1) and is_prime(13) and not is_prime(49)


def test_prime_size_limit():
    # The largest prime below MAX_P passes; beyond it no trial division runs.
    assert check_prime(999_983) == 999_983
    with pytest.raises(ValidationError, match=f"at most {MAX_P}"):
        check_prime(1_000_000_000_000_000_003)


@given(st.sampled_from(PRIMES), st.data())
def test_commutativity_and_dimension_congruence(p, data):
    i = data.draw(st.integers(1, p - 1))
    j = data.draw(st.integers(1, p - 1))
    out = fuse_simples(i, j, p)
    assert out == fuse_simples(j, i, p)
    assert sum(out) % p == (i * j) % p


def test_self_duality_unit_appears():
    for p in PRIMES:
        for i in range(1, p):
            assert 1 in fuse_simples(i, i, p)


def test_even_subcategory_closed():
    for p in PRIMES:
        for i in range(1, p, 2):
            for j in range(1, p, 2):
                assert all(k % 2 == 1 for k in fuse_simples(i, j, p))
        assert is_even_object(1, p)
        assert not is_even_object(p - 1, p)
    assert is_even_object(7, 11)


def test_fusion_output_distinct_and_in_range_exhaustive():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for i in range(1, p):
            for j in range(1, p):
                out = fuse_simples(i, j, p)
                assert out and 1 <= out[0] and out[-1] <= p - 1
                assert all(a < b for a, b in zip(out, out[1:]))
