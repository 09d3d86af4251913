"""Dense exact linear algebra over GF(2).

Vectors and matrices are numpy arrays with 0/1 entries. Rows are packed
into Python ints and eliminated by one echelon Basis, so rank, inverse
and span membership are exact and fast enough for exhaustive sweeps.
Index 0 of a vector maps to the leftmost character in the text format.
"""

from __future__ import annotations

import numpy as np


class NotUniqueError(ValueError):
    """The matrix is singular."""


def as_bits(a, ndim=None) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 entries, validating the values."""
    arr = np.asarray(a)
    kind = arr.dtype.kind
    if kind == "b":
        arr = arr.astype(np.uint8)
    elif kind == "i":  # viewed unsigned, a negative entry is above 1 too
        arr = arr.view(arr.dtype.str.replace("i", "u"))
    elif kind != "u":
        raise ValueError("entries must be integers 0 or 1")
    if arr.size and arr.max() > 1:
        raise ValueError("entries must be 0 or 1")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    return arr.astype(np.uint8, copy=False)


def pack_rows(m: np.ndarray) -> list[int]:
    """Each row as an int; index 0 becomes the most significant bit."""
    packed = np.packbits(m, axis=1)
    pad = packed.shape[1] * 8 - m.shape[1]
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def unpack_rows(rows: list[int], n: int) -> np.ndarray:
    """Inverse of pack_rows for ints below 2**n: a len(rows) x n bit matrix."""
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "big") for r in rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes), axis=1)
    return bits[:, nbytes * 8 - n:]


class Basis:
    """Echelon basis of packed rows, one row per leading bit position."""

    __slots__ = ("pivots",)

    def __init__(self, rows=()):
        pivots: dict[int, int] = {}
        for r in rows:
            while r:
                p = r.bit_length()
                other = pivots.get(p)
                if other is None:
                    pivots[p] = r
                    break
                r ^= other
        self.pivots = pivots

    def __len__(self) -> int:
        return len(self.pivots)

    def copy(self) -> Basis:
        out = Basis()
        out.pivots = dict(self.pivots)
        return out

    def reduce(self, v: int) -> int:
        """v plus basis rows until its leading bit has no pivot; 0 iff v lies in the span."""
        pivots = self.pivots
        while v:
            w = pivots.get(v.bit_length())
            if w is None:
                return v
            v ^= w
        return 0

    def insert(self, v: int) -> int:
        """Add v to the span; returns the stored row, or 0 when v was already in it."""
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length()] = v
        return v


def rank(m) -> int:
    """GF(2) row rank (equals column rank)."""
    return len(Basis(pack_rows(as_bits(m, ndim=2))))


def invert(a) -> np.ndarray:
    """Inverse of a square GF(2) matrix; raises NotUniqueError when singular.

    The augmented rows (row i | e_i) span {(xA | x)}, so reducing (e_p | 0)
    leaves (0 | row p of the inverse) whenever A has full rank.
    """
    aa = as_bits(a, ndim=2)
    n = aa.shape[0]
    if aa.shape != (n, n):
        raise ValueError("matrix must be square")
    basis = Basis((r << n) | (1 << (n - 1 - i)) for i, r in enumerate(pack_rows(aa)))
    if any(p <= n for p in basis.pivots):
        raise NotUniqueError("matrix is singular")
    return unpack_rows([basis.reduce(1 << (2 * n - 1 - p)) for p in range(n)], n)


_BYTE_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, lowest first, read a byte at a time."""
    out: list[int] = []
    base = 0
    for byte in x.to_bytes((x.bit_length() + 7) // 8, "little"):
        if byte:
            for b in _BYTE_BITS[byte]:
                out.append(base + b)
        base += 8
    return out


def cyclic_full_rank(rows: list[int], n: int):
    """Whether each cyclic n-row window of a packed m x n matrix has rank n, by start.

    For s = 0..m-1, yields whether rows s, s+1, ..., s+n-1 (mod m) are
    independent, from one sweep over the doubled row sequence and with no
    inversion. The sweep keeps an echelon basis whose pivot at each
    leading bit holds the newest row that reaches it: a row that comes in
    takes the pivot of an older one, and their sum, with the older index,
    moves on down. After row t, the pivots with index s or more span rows
    s..t. Each index holds at most one pivot, so window s has rank n iff
    each of its n indices holds one once row s+n-1 is in; one flag per
    index keeps that count.
    """
    m = len(rows)
    if not 1 <= n <= m:
        raise ValueError("window size must lie between 1 and the row count")
    row_at = [0] * (n + 1)  # the pivot at each leading bit, and its row index
    index_at = [-1] * (n + 1)
    owned = bytearray(m + n - 1)
    held = 0  # indices of the current window that hold a pivot
    for t in range(m + n - 1):
        s = t - n + 1  # the window that row t completes
        if s > 0:
            held -= owned[s - 1]
        v, i = rows[t % m], t
        while v:
            p = v.bit_length()
            j = index_at[p]
            if j < i:
                w = row_at[p]
                row_at[p], index_at[p] = v, i
                owned[i] = 1
                held += i >= s
                if j < 0:
                    break
                owned[j] = 0
                held -= j >= s
                i = j
                v ^= w
            else:
                v ^= row_at[p]
        if s >= 0:
            yield held == n


def cyclic_window_inverses(rows: list[int], n: int):
    """Inverse of every cyclic n-row window of a packed m x n matrix, by start.

    For s = 0..m-1, yields the inverse of rows s, s+1, ..., s+n-1 (mod m)
    as n packed columns (row index 0 the most significant bit), or None
    when that window is singular. Windows s and s+1 differ in one row, so
    only the first window, and the first after a singular one, is
    inverted from scratch; every other inverse is a rank-one update.
    The inverse X is kept in slots: the window row with unwrapped index r
    sits in slot r % n, so the row that enters takes the slot of the row
    that leaves. X is held twice, by slot columns and by coordinate rows
    (slot c at bit c). With v the difference of the two rows and p their
    slot, Sherman-Morrison over GF(2) reads w = v X as the sum of the |v|
    rows of X at v's support; w_p = 1 means the new window is singular.
    Otherwise X + u w, with u column p, adds u to the |w| columns that w
    meets and w to the |u| rows that u meets, so a step costs
    O(|v| + |w| + |u|) int operations, not one parity test per column.
    """
    m = len(rows)
    if not 1 <= n <= m:
        raise ValueError("window size must lie between 1 and the row count")
    cols = by_bit = None
    for s in range(m):
        r = s % n
        if cols is None:
            try:
                inv = invert(unpack_rows([rows[(s + i) % m] for i in range(n)], n))
            except NotUniqueError:
                yield None
                continue
            # window position i sits in slot (r + i) % n
            by_position = pack_rows(np.ascontiguousarray(inv.T))
            cols = by_position[n - r:] + by_position[:n - r]
            # by_bit[b] is row n-1-b of X, the coordinate at bit b of a packed row;
            # reversed columns put position i at bit i, rotated to slot (r + i) % n
            by_bit = pack_rows(inv[::-1, ::-1])
            if r:
                by_bit = [(x << r | x >> (n - r)) & ((1 << n) - 1) for x in by_bit]
        elif v := rows[s - 1] ^ rows[(s - 1 + n) % m]:
            p = (s - 1) % n
            w = 0
            for b in _bits(v):
                w ^= by_bit[b]
            if w >> p & 1:
                cols = None
                yield None
                continue
            u = cols[p]
            for c in _bits(w):
                cols[c] ^= u
            for b in _bits(u):
                by_bit[b] ^= w
        yield cols[r:] + cols[:r]


def vec_mat(x, m) -> np.ndarray:
    """Row vector times matrix over GF(2): xor of the rows selected by x."""
    xx = as_bits(x, ndim=1)
    mm = as_bits(m, ndim=2)
    if xx.shape[0] != mm.shape[0]:
        raise ValueError("vector length must match the row count")
    picked = mm[xx != 0]
    if picked.shape[0] == 0:
        return np.zeros(mm.shape[1], dtype=np.uint8)
    return np.bitwise_xor.reduce(picked, axis=0)


def format_bits(v) -> str:
    return (as_bits(v, ndim=1) + ord("0")).tobytes().decode()


def parse_bits(s: str) -> np.ndarray:
    s = s.strip()
    if not s or any(ch not in "01" for ch in s):
        raise ValueError("bit string must be a non-empty run of '0'/'1'")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def format_matrix(m) -> str:
    """Text form: one row per line, '0'/'1' characters, no separators."""
    chars = as_bits(m, ndim=2) + ord("0")
    return np.pad(chars, ((0, 0), (0, 1)), constant_values=ord("\n")).tobytes().decode()

