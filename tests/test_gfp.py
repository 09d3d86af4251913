import numpy as np
import pytest

from sncindex import gfp

from reference import prime_rank


def test_smallest_prime_examples():
    assert gfp.smallest_prime_field(2).p == 2
    assert gfp.smallest_prime_field(20).p == 23
    # 827 has no factor up to sqrt(827) < 29
    assert all(827 % q for q in range(2, 29))
    assert gfp.smallest_prime_field(827).p == 827


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert gfp.is_prime(n) == (n in primes)


@pytest.mark.parametrize("p", [2, 5, 23, 827])
def test_inverse_property(p):
    field = gfp.PrimeField(p)
    for a in range(1, min(p, 200)):
        assert (a * field.inv(a)) % p == 1


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        gfp.PrimeField(21)


def test_solve_2x2_hand_inverted():
    # x + y = 0, x + 2y = 1 over GF(5) gives y = 1, x = 4
    field = gfp.PrimeField(5)
    inv = field.invert([[1, 1], [1, 2]])
    assert ((inv @ [0, 1]) % 5).tolist() == [4, 1]


def test_solve_vandermonde_by_substitution():
    field = gfp.PrimeField(7)
    a = np.array([[pow(x, t, 7) for t in range(3)] for x in (1, 2, 3)], dtype=np.int64)
    assert prime_rank(field, a) == 3
    rng = np.random.default_rng(2)
    for _ in range(5):
        b = rng.integers(0, 7, size=3)
        x = (field.invert(a) @ b) % 7
        assert ((a @ x) % 7 == b % 7).all()


def test_solve_singular_raises():
    field = gfp.PrimeField(5)
    with pytest.raises(gfp.SingularMatrixError):
        field.invert([[1, 2], [2, 4]])


def test_invert_round_trip():
    field = gfp.PrimeField(11)
    rng = np.random.default_rng(4)
    done = 0
    while done < 8:
        n = int(rng.integers(1, 8))
        a = rng.integers(0, 11, size=(n, n))
        try:
            inv = field.invert(a)
        except gfp.SingularMatrixError:
            continue
        assert ((a @ inv) % 11 == np.eye(n, dtype=np.int64)).all()
        done += 1


def test_matrix_text_round_trip():
    m = np.array([[1, 0, 4], [2, 22, 7]], dtype=np.int64)
    text = gfp.format_matrix(m)
    assert text == "1 0 4\n2 22 7\n"


@pytest.mark.parametrize("value,ok", [(-1, False), (11, False), (10, True), (0, True)])
def test_elements_validated(value, ok):
    f = gfp.PrimeField(11)
    if ok:
        assert f._as_elems([0, value], 1).tolist() == [0, value]
    else:
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 11\)"):
            f._as_elems([0, value], 1)
