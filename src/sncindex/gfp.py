"""Arithmetic and linear algebra over a prime field GF(p)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

_INT64 = np.dtype(np.int64)


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

    def elements(self, a, ndim: int, representatives: bool = False) -> np.ndarray:
        """a as an int64 array of ndim dimensions whose entries lie in [0, p).

        Entries must be integers: an ndarray needs a bool, int or uint dtype,
        and a sequence that numpy holds in no such dtype (a float, complex or
        str entry, or integers no one 64-bit dtype holds) is read entry by
        entry through operator.index, so nothing is rounded, parsed or
        wrapped. With representatives, any integer that fits in 64 bits,
        signed or unsigned, stands for its residue instead: a uint64 array
        is reduced mod p, and an int64 array comes back as is for the caller
        to reduce.
        """
        arr = np.asarray(a)
        if arr.dtype is _INT64:  # the common input
            pass
        elif arr.dtype.kind in "biu":
            reduce = representatives and arr.dtype == np.uint64
            arr = (arr % self.p if reduce else arr).astype(np.int64)
        elif isinstance(a, np.ndarray):
            raise ValueError("entries must be integers")
        else:
            p, arr = self.p, np.asarray(a, dtype=object)
            try:
                ints = [index(v) for v in arr.flat]
            except TypeError:
                raise ValueError("entries must be integers") from None
            if not all(-2**63 <= v < 2**64 if representatives else 0 <= v < p for v in ints):
                raise ValueError("codeword symbols must fit in 64 bits" if representatives
                                 else f"entries must lie in [0, {p})")
            arr = np.array([v % p for v in ints], dtype=np.int64).reshape(arr.shape)
        if arr.ndim != ndim:
            raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
        # one reduction: viewed unsigned, a negative entry is at least p as well
        if not representatives and arr.size and arr.view(np.uint64).max() >= self.p:
            raise ValueError(f"entries must lie in [0, {self.p})")
        return arr

    def invert(self, a) -> np.ndarray:
        aa = self.elements(a, 2)
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

