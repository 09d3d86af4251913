"""Binary m x n matrices whose every n cyclically consecutive rows are independent.

The Euclidean division chain of (n, m - n) lays out the blocks: after I_n
on top, each quotient places that many identities of the next remainder's
order into the open corner, alternately side by side and stacked, and
leaves a corner of the following remainder.
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
    """Lay out the m x n matrix by its division chain.

    I_n fills the top rows; the open corner below it is then (m - n) x n.
    Step i of the chain puts betas[i] copies of I_s, s = lambdas[i+1], into
    the open corner: side by side on even steps, stacked on odd steps, so
    each step leaves a corner of the next remainder. Unfilled cells are zero.
    """
    chain = chain_of(m, n)
    out = np.zeros((m, n), dtype=np.uint8)
    row0 = col0 = 0
    # I_n is step -1: one stacked copy, so stacked steps sit at even j = i + 1
    for j, (q, s) in enumerate(zip((1, *chain.betas), chain.lambdas)):
        t = np.arange(q * s)
        if j % 2:
            out[row0 + t % s, col0 + t] = 1
            col0 += q * s
        else:
            out[row0 + t, col0 + t % s] = 1
            row0 += q * s
    out.flags.writeable = False
    return AirMatrix(m, n, out, chain)


def first_deficient_window(matrix) -> int | None:
    """Start index of the first cyclic n-row window with rank < n, else None.

    The windows are checked by gf2.cyclic_full_rank's newest-row sweep,
    which inverts nothing and stops at the first deficient window.
    """
    arr = gf2.as_bits(matrix, ndim=2)
    m, n = arr.shape
    # shapes the window sweep rejects: no window at all, or every window short of rank n
    if not m or not n:
        return None
    if n > m:
        return 0
    full = gf2.cyclic_full_rank(gf2.pack_rows(arr), n)
    return next((s for s, ok in enumerate(full) if not ok), None)
