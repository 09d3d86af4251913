"""Full walk-through of the (K, D, U) = (20, 9, 2) code.

Twenty messages are folded into seven group parities, which a 7 x 5
matrix turns into five broadcast symbols. Every receiver then gets its
message back from the broadcast plus its own side information, and the
extracted decoding table shows the cheapest add-only schedule for each
group of receivers.
"""

import numpy as np

from sncindex import codec, gf2, snc

inst = snc.SncInstance(20, 9, 2)
spec = codec.build_code(inst)

print(f"K1={spec.k1} extended symbols, D1={spec.d1} cancelled, N={spec.n} broadcast symbols")
for j, group in enumerate(spec.groups):
    print(f"  y{j} = " + " + ".join(f"x{i}" for i in group))

rng = np.random.default_rng(2024)
x = rng.integers(0, 2, size=20, dtype=np.uint8)
y = codec.extend(spec, x)
c = codec.encode(spec, x)
print("x =", gf2.format_bits(x))
print("y =", gf2.format_bits(y))
print("c =", gf2.format_bits(c))

ok = True
for k in range(20):
    side = {j: int(x[j]) for j in spec.graph.known[k]}
    ok &= codec.decode(spec, k, c, side) == x[k]
print("all 20 receivers decoded correctly:", ok)

print("\ndecoding table (receivers -> code symbols to add):")
for start, end, symbols in codec.extract_plan(spec).table_rows():
    label = f"x{start}..x{end}" if end > start else f"x{start}"
    print(f"  {label:10s} {', '.join(f'c{t}' for t in symbols)}")

# receivers with full side information need a single parity symbol
tiny = codec.build_code(snc.SncInstance(5, 3, 1))
x5 = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
c5 = codec.encode(tiny, x5)
print("\nsingle-sum code for (5,3,1): c =", gf2.format_bits(c5))
side = {j: int(x5[j]) for j in tiny.graph.known[2]}
print("receiver 2 decodes:", codec.decode(tiny, 2, c5, side), "expected:", int(x5[2]))
