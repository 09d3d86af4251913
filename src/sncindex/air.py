"""Binary m x n matrices whose every n cyclically consecutive rows are independent.

The construction alternates between filling the open block with vertically
stacked identities (rows) and horizontally stacked identities (columns),
recursing on the residual block. The division chain driving the recursion
doubles as a certificate of the block structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2


class InvalidShapeError(ValueError):
    """Requires 1 <= n <= m."""


@dataclass(frozen=True)
class ChainDecomposition:
    """Remainder chain on (n, m - n).

    lambdas = (n, m - n, r1, r2, ...) keeps the nonzero remainders; betas
    holds the matching quotients, so lambdas[i] = betas[i] * lambdas[i+1]
    + lambdas[i+2] with a trailing remainder of zero.
    """

    lambdas: tuple[int, ...]
    betas: tuple[int, ...]


def chain_of(m: int, n: int) -> ChainDecomposition:
    if not 1 <= n <= m:
        raise InvalidShapeError(f"need 1 <= n <= m, got m={m}, n={n}")
    lambdas = [n, m - n]
    betas: list[int] = []
    while lambdas[-1] > 0:
        q, r = divmod(lambdas[-2], lambdas[-1])
        betas.append(q)
        if r == 0:
            break
        lambdas.append(r)
    return ChainDecomposition(tuple(lambdas), tuple(betas))


@dataclass(frozen=True, eq=False)
class AirMatrix:
    m: int
    n: int
    matrix: np.ndarray
    chain: ChainDecomposition


def build_air(m: int, n: int) -> AirMatrix:
    """Construct the m x n matrix by the alternating identity-stack fill.

    Rows first: with m = q*n + r, the top q*n rows of the open block get q
    stacked copies of I_n. Columns next: with n = q'*r + r', the left q'*r
    columns of the remaining r rows get q' side-by-side copies of I_r.
    Repeat on the r x r' residual until a remainder hits zero. Unfilled
    cells are zero.
    """
    if not 1 <= n <= m:
        raise InvalidShapeError(f"need 1 <= n <= m, got m={m}, n={n}")
    out = np.zeros((m, n), dtype=np.uint8)
    row0 = col0 = 0
    rows_left, cols_left = m, n
    while True:
        q, r = divmod(rows_left, cols_left)
        out[row0:row0 + q * cols_left, col0:col0 + cols_left] = np.tile(
            np.eye(cols_left, dtype=np.uint8), (q, 1)
        )
        row0 += q * cols_left
        rows_left = r
        if r == 0:
            break
        q2, r2 = divmod(cols_left, rows_left)
        out[row0:row0 + rows_left, col0:col0 + q2 * rows_left] = np.tile(
            np.eye(rows_left, dtype=np.uint8), (1, q2)
        )
        col0 += q2 * rows_left
        cols_left = r2
        if r2 == 0:
            break
    out.flags.writeable = False
    return AirMatrix(m, n, out, chain_of(m, n))


def first_deficient_window(matrix) -> int | None:
    """Start index of the first cyclic n-row window with rank < n, else None."""
    arr = gf2.as_bits(matrix, ndim=2)
    m, n = arr.shape
    ints = gf2.pack_rows(arr) * 2  # doubled, so every cyclic window is a slice
    for s in range(m):
        if len(gf2.Basis(ints[s:s + n])) < n:
            return s
    return None
