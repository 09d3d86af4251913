import numpy as np
import pytest

from sncindex import air, gf2

from reference import cyclic_window_inverses as reference_window_inverses
from reference import paper_encoders, window_matrices

AIR75_ROWS = [
    "10000",
    "01000",
    "00100",
    "00010",
    "00001",
    "10101",
    "01011",
]


def fill_tracking_build(m, n):
    # independent re-run of the fill as a divmod recursion on (m, n); counts writes per cell
    out = np.zeros((m, n), dtype=np.uint8)
    hits = np.zeros((m, n), dtype=np.int64)
    row0 = col0 = 0
    rows_left, cols_left = m, n
    while True:
        q, r = divmod(rows_left, cols_left)
        block = np.tile(np.eye(cols_left, dtype=np.uint8), (q, 1))
        out[row0:row0 + q * cols_left, col0:col0 + cols_left] = block
        hits[row0:row0 + q * cols_left, col0:col0 + cols_left] += 1
        row0 += q * cols_left
        rows_left = r
        if r == 0:
            break
        q2, r2 = divmod(cols_left, rows_left)
        out[row0:row0 + rows_left, col0:col0 + q2 * rows_left] = np.tile(
            np.eye(rows_left, dtype=np.uint8), (1, q2)
        )
        hits[row0:row0 + rows_left, col0:col0 + q2 * rows_left] += 1
        col0 += q2 * rows_left
        cols_left = r2
        if r2 == 0:
            break
    return out, hits


def test_square_is_identity():
    assert (air.build_air(5, 5).matrix == np.eye(5, dtype=np.uint8)).all()


def test_divisible_case_stacks_identities():
    m = air.build_air(6, 3).matrix
    assert (m == np.vstack([np.eye(3, dtype=np.uint8)] * 2)).all()


def test_7x5_exact_rows():
    m = air.build_air(7, 5).matrix
    assert gf2.format_matrix(m).splitlines() == AIR75_ROWS


def test_chain_7x5():
    c = air.chain_of(7, 5)
    assert c.lambdas == (5, 2, 1)
    assert c.betas == (2, 2)


def test_chain_divisible():
    c = air.chain_of(6, 3)
    assert c.lambdas == (3, 3)
    assert c.betas == (1,)


def test_chain_square_degenerate():
    c = air.chain_of(4, 4)
    assert c.lambdas == (4, 0)
    assert c.betas == ()


def test_chain_identities_hold():
    for m in range(1, 40):
        for n in range(1, m + 1):
            c = air.chain_of(m, n)
            lam = list(c.lambdas) + [0]
            assert lam[0] == n and lam[1] == m - n
            for i, beta in enumerate(c.betas):
                assert lam[i] == beta * lam[i + 1] + lam[i + 2]
            # remainders strictly decrease past the first
            for i in range(2, len(c.lambdas)):
                assert c.lambdas[i] < c.lambdas[i - 1]


def test_every_cell_filled_exactly_once():
    # every shape with m <= 40, and tall shapes whose chain starts with a zero quotient
    shapes = [(m, n) for m in range(1, 41) for n in range(1, m + 1)]
    for m, n in shapes + [(10, 3), (64, 9), (5000, 37)]:
        built = air.build_air(m, n).matrix
        reference, hits = fill_tracking_build(m, n)
        assert (hits == 1).all()
        assert (built == reference).all()


def test_determinism():
    a = air.build_air(23, 9).matrix
    b = air.build_air(23, 9).matrix
    assert a.tobytes() == b.tobytes()


def test_top_rows_identity_when_tall():
    for m, n in [(10, 5), (11, 5), (17, 3), (64, 9)]:
        assert m >= 2 * n
        top = air.build_air(m, n).matrix[:n]
        assert (top == np.eye(n, dtype=np.uint8)).all()


def test_window_5_6_0_1_2_full_rank():
    m = air.build_air(7, 5).matrix
    assert gf2.rank(m[[5, 6, 0, 1, 2]]) == 5


def test_cyclic_windows_small_cases():
    for m, n in [(5, 5), (7, 5), (8, 3), (10, 3), (12, 5)]:
        a = air.build_air(m, n)
        assert air.first_deficient_window(a.matrix) is None
        # cross-check every window with the generic rank routine
        for s in range(m):
            rows = [(s + i) % m for i in range(n)]
            assert gf2.rank(a.matrix[rows]) == n


def test_cyclic_windows_exhaustive_to_24():
    for m in range(1, 25):
        for n in range(1, m + 1):
            assert air.first_deficient_window(air.build_air(m, n).matrix) is None


def test_deficient_window_reported():
    broken = air.build_air(7, 5).matrix.copy()
    broken[0] = 0
    start = air.first_deficient_window(broken)
    assert start is not None
    rows = [(start + i) % 7 for i in range(5)]
    assert gf2.rank(broken[rows]) < 5


def first_deficient_by_rank(mat):
    # every cyclic window's rank, one at a time
    m, n = mat.shape
    for s in range(m):
        if gf2.rank(mat[[(s + i) % m for i in range(n)]]) < n:
            return s
    return None


def test_first_deficient_window_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(600):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, m + 1))
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        assert air.first_deficient_window(mat) == first_deficient_by_rank(mat), mat.tolist()


def test_first_deficient_window_paper_shapes_and_large_random():
    # the paper's encoders pass; a zeroed row r first fails in the first
    # window that holds it; random shapes up to m = 80 agree with the
    # earlier kernel's first singular window
    for mat in paper_encoders():
        m, n = mat.shape
        assert air.first_deficient_window(mat) is None
        for r in (0, n - 1, m - 1):
            broken = mat.copy()
            broken[r] = 0
            assert air.first_deficient_window(broken) == max(0, r - n + 1), (m, n, r)
    for mat in window_matrices(47, 240, 80):
        inverses = reference_window_inverses(gf2.pack_rows(mat), mat.shape[1])
        want = next((s for s, cols in enumerate(inverses) if cols is None), None)
        assert air.first_deficient_window(mat) == want, mat.shape


@pytest.mark.parametrize(
    "m,n,want", [(0, 0, None), (0, 3, None), (3, 0, None), (1, 2, 0), (2, 5, 0)]
)
def test_first_deficient_window_degenerate_shapes(m, n, want):
    # shapes without a cyclic window of n rows: none to fail, or all rank-deficient
    assert air.first_deficient_window(np.ones((m, n), dtype=np.uint8)) == want


@pytest.mark.parametrize("m,n", [(3, 5), (4, 0), (0, 0)])
def test_invalid_shapes_rejected(m, n):
    with pytest.raises(air.InvalidShapeError):
        air.build_air(m, n)
    with pytest.raises(air.InvalidShapeError):
        air.chain_of(m, n)
