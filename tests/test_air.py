import numpy as np
import pytest

from sncindex import air, gf2

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
    # instrumented re-run of the alternating fill; counts writes per cell
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
    for m, n in [(7, 5), (10, 3), (12, 7), (9, 9), (13, 8), (20, 11)]:
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


@pytest.mark.parametrize("m,n", [(3, 5), (4, 0), (0, 0)])
def test_invalid_shapes_rejected(m, n):
    with pytest.raises(air.InvalidShapeError):
        air.build_air(m, n)
    with pytest.raises(air.InvalidShapeError):
        air.chain_of(m, n)
