from pathlib import Path

import numpy as np
import pytest

from sncindex import air, gf2

from reference import cyclic_window_inverses as reference_window_inverses
from reference import in_span, paper_encoders, span_coefficients, window_matrices

# the 7x5 window matrix reused across tests
AIR75 = np.array(
    [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [1, 0, 1, 0, 1],
        [0, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)


def naive_rank(m):
    # independent elimination over rationals-free arithmetic, column by column
    m = np.array(m, dtype=np.uint8) % 2
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r, c]), None)
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def test_rank_identity():
    assert gf2.rank(np.eye(5, dtype=np.uint8)) == 5


def test_rank_equal_rows():
    assert gf2.rank([[1, 1], [1, 1]]) == 1


def test_rank_7x5_matches_independent_elimination():
    assert naive_rank(AIR75) == 5
    assert gf2.rank(AIR75) == 5


def test_rank_invariant_under_row_ops():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        r = gf2.rank(m)
        i, j = rng.integers(0, rows, size=2)
        swapped = m.copy()
        swapped[[i, j]] = swapped[[j, i]]
        assert gf2.rank(swapped) == r
        xored = m.copy()
        if i != j:
            xored[i] ^= xored[j]
        assert gf2.rank(xored) == r


def test_row_rank_equals_column_rank_exhaustive_small():
    for rows in range(1, 5):
        for cols in range(1, 5):
            for code in range(1 << (rows * cols)):
                m = np.array(
                    [(code >> i) & 1 for i in range(rows * cols)], dtype=np.uint8
                ).reshape(rows, cols)
                assert gf2.rank(m) == gf2.rank(m.T)


def test_row_rank_equals_column_rank_random_larger():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.integers(0, 2, size=(rng.integers(5, 64), rng.integers(5, 64)), dtype=np.uint8)
        assert gf2.rank(m) == gf2.rank(m.T)


def test_xor_with_itself_is_zero():
    rng = np.random.default_rng(3)
    v = rng.integers(0, 2, size=40, dtype=np.uint8)
    assert not (v ^ v).any()


def brute_solve(a, b):
    # enumerate every input vector; the unique preimage is the solution
    a = np.array(a, dtype=np.uint8)
    n = a.shape[1]
    hits = []
    for code in range(1 << n):
        x = np.array([(code >> i) & 1 for i in range(n)], dtype=np.uint8)
        if ((a @ x) % 2 == b).all():
            hits.append(x)
    return hits


@pytest.mark.parametrize("b", [[1, 0, 0, 0, 0], [0, 1, 1, 0, 1], [1, 1, 1, 1, 1]])
def test_solve_cyclic_window_against_brute_force(b):
    window = AIR75[[5, 6, 0, 1, 2]]
    hits = brute_solve(window, np.array(b, dtype=np.uint8))
    assert len(hits) == 1
    assert ((gf2.invert(window) @ b) % 2).tolist() == hits[0].tolist()


def test_invert_round_trip():
    rng = np.random.default_rng(23)
    done = 0
    while done < 10:
        n = int(rng.integers(1, 20))
        a = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        try:
            inv = gf2.invert(a)
        except gf2.NotUniqueError:
            continue
        assert ((a @ inv) % 2 == np.eye(n, dtype=np.uint8)).all()
        done += 1
    paper = air.build_air(414, 403).matrix  # sparse, behind the (827, 23, 1) code
    for start in (0, 11, 413):
        a = paper[[(start + i) % 414 for i in range(403)]]
        inv = gf2.invert(a).astype(np.int64)
        assert ((a @ inv) % 2 == np.eye(a.shape[0], dtype=np.int64)).all()
    with pytest.raises(gf2.NotUniqueError):
        gf2.invert([[1, 1], [1, 1]])


def assert_cyclic_window_inverses(mat):
    # every start yielded once, in order; None exactly where the window is
    # singular, and otherwise gf2.invert's inverse as packed columns
    m, n = mat.shape
    got = list(gf2.cyclic_window_inverses(gf2.pack_rows(mat), n))
    assert len(got) == m
    for s, cols in enumerate(got):
        window = mat[[(s + i) % m for i in range(n)]]
        if gf2.rank(window) < n:
            assert cols is None, (mat.tolist(), s)
        else:
            inv = gf2.invert(window)
            assert cols == gf2.pack_rows(np.ascontiguousarray(inv.T)), (mat.tolist(), s)
    return [cols is None for cols in got]


def test_cyclic_window_inverses_air_to_24():
    for m in range(1, 25):
        for n in range(1, m + 1):
            assert not any(assert_cyclic_window_inverses(air.build_air(m, n).matrix))


def test_cyclic_window_inverses_random_and_zeroed_rows():
    rng = np.random.default_rng(31)
    entered = left = 0
    for trial in range(400):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, m + 1))
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if trial % 2:
            mat[rng.integers(0, m)] = 0
        singular = assert_cyclic_window_inverses(mat)
        # a singular window found by the rank-one test, and a correct
        # inverse again right after a singular window
        entered += sum(not a and b for a, b in zip(singular, singular[1:]))
        left += sum(a and not b for a, b in zip(singular, singular[1:]))
    assert entered > 50 and left > 50


def test_cyclic_window_inverses_rejects_bad_window_size():
    for n in (0, 3):
        with pytest.raises(ValueError):
            list(gf2.cyclic_window_inverses([1, 2], n))


def test_cyclic_window_inverses_match_reference_kernel():
    # the paper's encoders, a few with a zeroed row, and random shapes up to
    # m = 80: too large for per-window brute force, so the earlier kernel
    # is the reference
    mats = paper_encoders()
    for mat in mats[4:]:
        broken = mat.copy()
        broken[mat.shape[0] // 2] = 0
        mats.append(broken)
    singular = 0
    for mat in mats + list(window_matrices(37, 160, 80)):
        rows, n = gf2.pack_rows(mat), mat.shape[1]
        want = list(reference_window_inverses(rows, n))
        assert list(gf2.cyclic_window_inverses(rows, n)) == want, mat.shape
        singular += want.count(None)
    assert singular > 1000


def test_cyclic_full_rank_matches_brute_force():
    rng = np.random.default_rng(41)
    for trial in range(400):
        m = int(rng.integers(1, 14))
        n = int(rng.integers(1, m + 1))
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if trial % 2:
            mat[rng.integers(0, m)] = 0
        want = [gf2.rank(mat[[(s + i) % m for i in range(n)]]) == n for s in range(m)]
        assert list(gf2.cyclic_full_rank(gf2.pack_rows(mat), n)) == want, mat.tolist()


def test_cyclic_full_rank_matches_reference_kernel():
    for mat in window_matrices(43, 240, 80):
        rows, n = gf2.pack_rows(mat), mat.shape[1]
        want = [cols is not None for cols in reference_window_inverses(rows, n)]
        assert list(gf2.cyclic_full_rank(rows, n)) == want, mat.shape


def test_cyclic_full_rank_air_with_a_zeroed_row():
    # every window of an AIR matrix has rank n, so zeroing row r leaves
    # exactly the windows that hold r short of it
    mats = [air.build_air(m, n).matrix for m in range(1, 25) for n in range(1, m + 1)]
    for mat in mats + paper_encoders():
        m, n = mat.shape
        assert all(gf2.cyclic_full_rank(gf2.pack_rows(mat), n))
        for r in {0, m // 3, m - 1}:
            broken = mat.copy()
            broken[r] = 0
            want = [(r - s) % m >= n for s in range(m)]
            assert list(gf2.cyclic_full_rank(gf2.pack_rows(broken), n)) == want, (m, n, r)


def test_cyclic_full_rank_rejects_bad_window_size():
    for n in (0, 3):
        with pytest.raises(ValueError):
            list(gf2.cyclic_full_rank([1, 2], n))


def test_in_span_zero_vector():
    coeffs = span_coefficients([0, 0], [[1, 0]])
    assert coeffs is not None and coeffs.tolist() == [0]


def test_in_span_disjoint_support():
    assert not in_span([1, 0], [[0, 1]])


def test_in_span_witness():
    coeffs = span_coefficients([1, 1], [[1, 0], [0, 1]])
    assert coeffs.tolist() == [1, 1]


def test_span_witness_reconstructs_vector():
    rng = np.random.default_rng(29)
    basis = [rng.integers(0, 2, size=12, dtype=np.uint8) for _ in range(6)]
    v = basis[0] ^ basis[3] ^ basis[5]
    coeffs = span_coefficients(v, basis)
    rebuilt = np.zeros(12, dtype=np.uint8)
    for c, b in zip(coeffs, basis):
        if c:
            rebuilt ^= b
    assert (rebuilt == v).all()


def test_vec_mat_is_row_combination():
    m = AIR75
    y = np.array([1, 0, 0, 0, 0, 1, 0], dtype=np.uint8)
    assert gf2.vec_mat(y, m).tolist() == (m[0] ^ m[5]).tolist()
    assert gf2.vec_mat(np.zeros(7, dtype=np.uint8), m).tolist() == [0] * 5


def test_matrix_text_round_trip():
    text = gf2.format_matrix(AIR75)
    assert text.splitlines()[5] == "10101"


def test_bits_text_round_trip():
    v = gf2.parse_bits("10011")
    assert v.tolist() == [1, 0, 0, 1, 1]
    assert gf2.format_bits(v) == "10011"
    with pytest.raises(ValueError):
        gf2.parse_bits("10x1")


@pytest.mark.parametrize(
    "values,error",
    [
        (np.array([0, -1], dtype=np.int64), "entries must be 0 or 1"),
        (np.array([0, -1], dtype=np.int8), "entries must be 0 or 1"),
        (np.array([1, 2]), "entries must be 0 or 1"),
        (np.array([0.0, 1.0]), "entries must be integers 0 or 1"),
        (np.array([0, 1], dtype=np.int8), None),
        (np.array([True, False]), None),
    ],
)
def test_as_bits_validates_entries(values, error):
    if error is None:
        assert gf2.as_bits(values).tolist() == values.astype(int).tolist()
    else:
        with pytest.raises(ValueError, match=f"^{error}$"):
            gf2.as_bits(values)


def test_gf2_privates_stay_inside_gf2():
    root = Path(__file__).resolve().parents[1]
    needle = "gf2." + "_"
    files = [f for f in (root / "src" / "sncindex").glob("*.py") if f.name != "gf2.py"]
    files += (root / "tests").glob("*.py")
    assert [f.name for f in files if needle in f.read_text()] == []
