"""Single-unicast index coding with symmetric neighboring consecutive side info.

An instance is a triple (K, D, U): K messages and K receivers, receiver k
wanting message k while already holding the U messages cyclically before
it and the D messages cyclically after it. This module carries the
instance model, its circulant side-information graph, and every closed
form: broadcast rate, capacity, the maximum acyclic induced subgraph
order, the achievable scalar code length, and the minrank bounds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import index


@dataclass(frozen=True)
class SncInstance:
    """Validated (K, D, U) triple."""

    k: int
    d: int
    u: int

    def __post_init__(self):
        for name in "kdu":  # Python and numpy ints, stored as int; never a float or a str
            if type(value := getattr(self, name)) is not int:
                try:
                    object.__setattr__(self, name, index(value))
                except TypeError:
                    raise ValueError(f"{name.upper()} must be an integer (got {value!r})") from None
        if self.k < 2:
            raise ValueError(f"K must be at least 2 (got K={self.k})")
        if not 0 <= self.u <= self.d:
            raise ValueError(f"need 0 <= U <= D (got U={self.u}, D={self.d})")
        if self.u + self.d > self.k - 1:
            raise ValueError(
                f"need U + D <= K - 1 (got U+D={self.u + self.d}, K={self.k})"
            )

    @property
    def full_side_info(self) -> bool:
        return self.u + self.d == self.k - 1


class SideInfoMismatchError(ValueError):
    """The supplied side information does not cover exactly the known set."""


@dataclass(frozen=True)
class SideInfoGraph:
    """Directed graph with an edge k -> j iff receiver k knows message j.
    known[k] stores them once, as a tuple: the U before k, ascending, then the D after."""

    k: int
    known: tuple[tuple[int, ...], ...]

    def receiver(self, k) -> int:
        """k as an int receiver index; ValueError otherwise."""
        try:
            k = index(k)  # ints, numpy ints and bools, never a float
        except TypeError:
            raise ValueError(f"receiver index must be an integer (got {k!r})") from None
        if not 0 <= k < self.k:
            raise ValueError(f"receiver index {k} out of range")
        return k

    def side_values(self, k: int, side) -> list:
        """side's values in known[k] order; SideInfoMismatchError unless its keys are known[k].

        A plain dict costs one length test and one lookup per key; other
        mappings are compared by key set, so a defaultdict gains no keys."""
        known = self.known[k]
        if type(side) is dict and len(side) == len(known):
            try:
                return [side[j] for j in known]
            except KeyError:
                pass
        elif isinstance(side, Mapping) and side.keys() == set(known):
            return [side[j] for j in known]
        raise SideInfoMismatchError(
            f"side information must cover exactly the known set of receiver {k}"
        )


def build_graph(inst: SncInstance) -> SideInfoGraph:
    """Circulant adjacency: backward indices ascending, then forward ascending."""
    k, d, u = inst.k, inst.d, inst.u
    ring = [x % k for x in range(-k, 2 * k)]  # ring[k + x] == x % k for -k <= x < 2k
    return SideInfoGraph(k, tuple([
        tuple(ring[k + v - u:k + v] + ring[k + v + 1:k + v + d + 1]) for v in range(k)
    ]))


def induced_acyclic(graph: SideInfoGraph, vertices) -> bool:
    """Kahn's algorithm on the subgraph induced by the given vertices."""
    vs = set(vertices)
    indeg = {v: 0 for v in vs}
    for v in vs:
        for w in graph.known[v]:
            if w in vs:
                indeg[w] += 1
    queue = [v for v, deg in indeg.items() if deg == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in graph.known[v]:
            if w in vs:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
    return seen == len(vs)


def broadcast_rate(inst: SncInstance) -> Fraction:
    """Minimum code symbols per message symbol, as an exact rational."""
    if inst.full_side_info:
        return Fraction(1)
    return Fraction(inst.k - inst.d + inst.u, inst.u + 1)


def capacity(inst: SncInstance) -> Fraction:
    return 1 / broadcast_rate(inst)


def mais(inst: SncInstance) -> int:
    """Order of the maximum acyclic induced subgraph."""
    return (inst.k - inst.d + inst.u) // (inst.u + 1)


def mais_witness(inst: SncInstance) -> tuple[int, ...]:
    """A maximum acyclic vertex set: every (U+1)-th vertex, starting at 0."""
    t = mais(inst)
    witness = tuple(i * (inst.u + 1) for i in range(t))
    if not induced_acyclic(build_graph(inst), witness):
        raise RuntimeError("witness set is not acyclic; construction bug")
    return witness


def code_length(inst: SncInstance) -> int:
    """Length ceil(K/(U+1)) - floor((D-U)/(U+1)) of the constructed scalar code.

    At U + D = K - 1 the code is one parity of all K messages: length 1."""
    if inst.full_side_info:
        return 1
    k, d, u = inst.k, inst.d, inst.u
    return -(-k // (u + 1)) - (d - u) // (u + 1)


def optimality_condition(inst: SncInstance) -> bool:
    """True when the constructed length is provably the minrank.

    Requires the broadcast rate to be non-integer and the two division
    remainders to fit inside K mod (U+1).
    """
    k, d, u = inst.k, inst.d, inst.u
    m = u + 1
    if (k - d + u) % m == 0:
        return False
    return (d - u) % m + (k - d + u) % m <= k % m


@dataclass(frozen=True)
class MinrankStatus:
    """Known range for the minrank; exact when the bounds coincide."""

    lo: int
    hi: int

    @property
    def exact(self) -> int | None:
        return self.lo if self.lo == self.hi else None

    def __str__(self) -> str:
        return str(self.lo) if self.lo == self.hi else f"{self.lo}..{self.hi}"


def minrank_status(inst: SncInstance) -> MinrankStatus:
    """Exact minrank where provable, otherwise the best known bounds.

    The bounds are ceil(beta) and conjecture_value, the shorter of the two
    constructions. They meet at gamma where optimality_condition proves
    it; elsewhere the upper bound is never asserted to be tight.
    """
    lo = math.ceil(broadcast_rate(inst))
    if optimality_condition(inst) and code_length(inst) != lo:
        raise RuntimeError("optimality condition held but gamma != ceil(beta)")
    return MinrankStatus(lo, conjecture_value(inst))


def length_slack(inst: SncInstance) -> Fraction:
    """Gap between the constructed length and the broadcast rate; always < 2."""
    slack = code_length(inst) - broadcast_rate(inst)
    if slack >= 2:
        raise RuntimeError(f"length slack {slack} >= 2 for {inst}; construction bug")
    return slack


def partial_clique_kappa(inst: SncInstance) -> int:
    """The graph is a kappa-partial clique with kappa = K - D - U - 1."""
    return inst.k - inst.d - inst.u - 1


def mds_code_length(inst: SncInstance) -> int:
    """Symbols used by the partial-clique MDS scheme: K - D - U."""
    return inst.k - inst.d - inst.u


def conjecture_value(inst: SncInstance) -> int:
    """min(constructed length, MDS length): the shorter of the two
    constructed codes. An upper bound on the minrank, not always equal to
    it: at (10, 4, 2) it is 4, and a fitting matrix of rank 3 exists."""
    return min(code_length(inst), mds_code_length(inst))


@dataclass(frozen=True)
class AnalysisReport:
    """Every closed-form quantity for one instance."""

    inst: SncInstance
    beta: Fraction
    capacity: Fraction
    mais: int
    gamma: int
    optimality: bool
    minrank: MinrankStatus
    kappa: int
    mds_length: int
    conjecture_value: int

    @property
    def winner(self) -> str:
        """The shorter construction, "air" or "mds"; ties go to air.

        Lengths count symbols per message: the AIR code sends bits and the
        MDS code sends GF(p) elements, so the alphabets differ."""
        return "air" if self.gamma <= self.mds_length else "mds"


def analyze(inst: SncInstance) -> AnalysisReport:
    return AnalysisReport(
        inst=inst,
        beta=broadcast_rate(inst),
        capacity=capacity(inst),
        mais=mais(inst),
        gamma=code_length(inst),
        optimality=optimality_condition(inst),
        minrank=minrank_status(inst),
        kappa=partial_clique_kappa(inst),
        mds_length=mds_code_length(inst),
        conjecture_value=conjecture_value(inst),
    )
