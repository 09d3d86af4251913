"""Closed-form analysis of a few instances, plus the K=827 rate table.

For an instance (K, D, U), receiver k wants message k and already holds
the U messages before and D messages after it (cyclically). The report
collects broadcast rate, capacity, the acyclic-subgraph bound, the
constructed scalar code length, and what is known about the minrank.
"""

from sncindex import snc
from sncindex.cli import truncated_rate

for k, d, u in [(17, 6, 2), (16, 3, 2), (20, 9, 2), (5, 3, 1)]:
    inst = snc.SncInstance(k, d, u)
    r = snc.analyze(inst)
    print(f"(K={k}, D={d}, U={u})")
    print(f"  beta = {r.beta}   capacity = {r.capacity}")
    print(f"  mais = {r.mais}   witness = {snc.mais_witness(inst)}")
    print(f"  gamma = {r.gamma}   minrank = {r.minrank}   provably optimal: {r.optimality}")
    print(f"  partial clique kappa = {r.kappa}   mds length = {r.mds_length}"
          f"   shorter length = {r.conjecture_value} (minrank upper bound)")
    print()

# the scalar code is never more than two symbols per message above beta
print("K\tD\tU\tbeta\tgamma\tslack")
for u in range(1, 11):
    inst = snc.SncInstance(827, 23, u)
    beta = snc.broadcast_rate(inst)
    gamma = snc.code_length(inst)
    print(f"827\t23\t{u}\t{truncated_rate(beta)}\t{gamma}\t{float(gamma - beta):.2f}")
