import numpy as np
import pytest

from sncindex import air, codec, gf2, gfp, mds, oracles, snc

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
        assert f.elements([0, value], 1).tolist() == [0, value]
    else:
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 11\)"):
            f.elements([0, value], 1)


def test_elements_representatives():
    f = gfp.PrimeField(11)
    c = np.array([3, -1, 2**62], dtype=np.int64)
    assert f.elements(c, 1, representatives=True) is c  # reduced by the caller
    top = np.array([2**64 - 1, 2**63, 5], dtype=np.uint64)
    assert f.elements(top, 1, representatives=True).tolist() == [(2**64 - 1) % 11, 2**63 % 11, 5]
    # a list with -1 and 2**63 is float64 to numpy; read exactly, entry by entry
    assert f.elements([-1, 2**63, 2**64 - 1], 1, representatives=True).tolist() == [
        10, 2**63 % 11, (2**64 - 1) % 11]
    for wide in (2**64, -2**63 - 1):
        with pytest.raises(ValueError, match="^codeword symbols must fit in 64 bits$"):
            f.elements([0, wide], 1, representatives=True)
    # strict mode refuses what representatives would reduce
    for v in (np.uint64(2**63), 2**64, np.int8(-1)):
        with pytest.raises(ValueError, match=r"^entries must lie in \[0, 11\)$"):
            f.elements([v], 1)


@pytest.mark.parametrize("bad", [[1.0, 2.0], ["0", "1"], [1 + 0j, 2], np.array([1.0, 2.0]),
                                 np.array(["0", "1"]), np.array([1, 2], dtype=object)],
                         ids=["float-list", "str-list", "complex-list", "float-array",
                              "str-array", "object-array"])
def test_elements_refuse_non_integers(bad):
    for representatives in (False, True):
        with pytest.raises(ValueError, match="^entries must be integers$"):
            gfp.PrimeField(11).elements(bad, 1, representatives)


def _array_entry_points():
    """Each public array entry point of both fields, called with all-integral
    inputs of the given dtype."""
    spec = codec.build_code(snc.SncInstance(5, 2, 1))
    ms = mds.build_mds(snc.SncInstance(5, 1, 0))
    bit_side = {j: 0 for j in spec.graph.known[0]}
    field_side = {j: 0 for j in ms.graph.known[0]}
    return {
        "codec.encode": lambda dt: codec.encode(spec, np.zeros(5, dt)),
        "codec.decode": lambda dt: codec.decode(spec, 0, np.zeros(spec.n, dt), bit_side),
        "gf2.invert": lambda dt: gf2.invert(np.eye(2, dtype=dt)),
        "gf2.rank": lambda dt: gf2.rank(np.eye(2, dtype=dt)),
        "air.first_deficient_window": lambda dt: air.first_deficient_window(np.eye(2, dtype=dt)),
        "oracles.check_decodable": lambda dt: oracles.check_decodable(spec.graph,
                                                                      np.eye(5, dtype=dt)),
        "mds.mds_encode": lambda dt: mds.mds_encode(ms, np.zeros(5, dt)),
        "mds.mds_decode": lambda dt: mds.mds_decode(ms, 0, np.zeros(ms.n, dt), field_side),
        "PrimeField.invert": lambda dt: ms.pf.invert(np.eye(2, dtype=dt)),
    }


@pytest.mark.parametrize("entry", list(_array_entry_points()))
def test_float_array_refused_at_every_entry_point(entry):
    # the values are integral, so only the dtype is wrong
    call = _array_entry_points()[entry]
    call(np.int64)
    with pytest.raises(ValueError):
        call(np.float64)


def test_invert_refuses_fractions():
    # once truncated to the identity
    with pytest.raises(ValueError, match="^entries must be integers$"):
        gfp.PrimeField(5).invert([[1.5, 0], [0, 1.9]])
