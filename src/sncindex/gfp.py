"""Arithmetic and linear algebra over a prime field GF(p)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularMatrixError(ValueError):
    """The matrix has determinant 0 modulo p."""


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for the moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime modulus p >= 2."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def _as_elems(self, a, ndim) -> np.ndarray:
        try:
            arr = np.asarray(a, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"entries must lie in [0, {self.p})") from None
        if arr.ndim != ndim:
            raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
        # one reduction: viewed unsigned, a negative entry is at least p as well
        if arr.size and arr.view(np.uint64).max() >= self.p:
            raise ValueError(f"entries must lie in [0, {self.p})")
        return arr

    def invert(self, a) -> np.ndarray:
        aa = self._as_elems(a, 2)
        n = aa.shape[0]
        if aa.shape != (n, n):
            raise ValueError("matrix must be square")
        aug = np.concatenate([aa, np.eye(n, dtype=np.int64)], axis=1)
        self._reduce(aug, n)
        return aug[:, n:]

    def _reduce(self, aug: np.ndarray, n: int) -> None:
        p = self.p
        for col in range(n):
            piv = col
            while piv < n and aug[piv, col] == 0:
                piv += 1
            if piv == n:
                raise SingularMatrixError(f"column {col} has no pivot mod {p}")
            if piv != col:
                aug[[col, piv]] = aug[[piv, col]]
            aug[col] = (aug[col] * self.inv(int(aug[col, col]))) % p
            factors = aug[:, col].copy()
            factors[col] = 0
            aug -= np.outer(factors, aug[col])
            aug %= p


def smallest_prime_field(k: int) -> PrimeField:
    """The prime field with the smallest p >= k (k >= 2)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    p = k
    while not is_prime(p):
        p += 1
    return PrimeField(p)


def format_matrix(m) -> str:
    """Decimal entries separated by single spaces, one row per line."""
    arr = np.asarray(m, dtype=np.int64)
    return "".join(" ".join(str(int(x)) for x in row) + "\n" for row in arr)

