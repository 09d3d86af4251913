"""The Vandermonde baseline over GF(p) and the length comparison.

The side-information graph is a (K-D-U-1)-partial clique, so a length-K
code of dimension K-D-U over a prime field with p >= K also works as an
index code. The main construction usually needs fewer symbols; the
shorter of the two lengths is an upper bound on the minrank, and not
always equal to it.
"""

import numpy as np

from sncindex import gfp, mds, snc

inst = snc.SncInstance(10, 4, 2)
spec = mds.build_mds(inst)
print(f"(K,D,U) = (10,4,2): field GF({spec.pf.p}), {spec.n} code symbols")
print("generator (rows are evaluation points, columns are powers):")
print(gfp.format_matrix(spec.generator), end="")

rng = np.random.default_rng(5)
x = rng.integers(0, spec.pf.p, size=10)
c = mds.mds_encode(spec, x)
print("x =", list(map(int, x)))
print("c =", list(map(int, c)))

ok = all(
    mds.mds_decode(spec, k, c, {j: int(x[j]) for j in spec.graph.known[k]}) == x[k]
    for k in range(10)
)
print("all receivers decoded correctly:", ok)

print("\nlength comparison (symbols per message):")
print("K\tD\tU\tgamma\tmds\twinner\tshorter")
for k, d, u in [(20, 9, 2), (10, 2, 1), (6, 2, 2), (10, 4, 2), (30, 4, 1)]:
    cmp = mds.compare_lengths(snc.SncInstance(k, d, u))
    print(f"{k}\t{d}\t{u}\t{cmp.gamma}\t{cmp.mds_length}\t{cmp.winner}\t{cmp.conjecture_value}")
