"""Build a few stacked-identity encoding matrices and inspect their structure.

Every set of n cyclically consecutive rows of an m x n matrix from
build_air is linearly independent over GF(2); that is the property the
index-code decoder relies on.
"""

from sncindex import air, gf2

for m, n in [(5, 5), (6, 3), (7, 5), (10, 3), (13, 8)]:
    a = air.build_air(m, n)
    print(f"--- {m} x {n} ---")
    print(gf2.format_matrix(a.matrix), end="")
    print(f"chain lambdas={a.chain.lambdas} betas={a.chain.betas}")
    print(f"all cyclic windows full rank: {air.first_deficient_window(a.matrix) is None}")
    print()

# the chain records the Euclidean divisions that drive the fill:
# lambdas[i] = betas[i] * lambdas[i+1] + lambdas[i+2] with a trailing zero
c = air.chain_of(7, 5)
lam = list(c.lambdas) + [0]
for i, b in enumerate(c.betas):
    print(f"{lam[i]} = {b} * {lam[i + 1]} + {lam[i + 2]}")

# sanity: a damaged matrix loses the window property
broken = air.build_air(7, 5).matrix.copy()
broken[0] = 0
print("first deficient window after zeroing row 0:", air.first_deficient_window(broken))
