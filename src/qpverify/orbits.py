"""Levi subalgebras and the combinatorial classification of good orbits.

A Levi datum is a subset S of simple-root nodes; the Levi subalgebra is
spanned by the Cartan and the root spaces whose support lies in S, and
the complement nodes T determine whether the corresponding semisimple
orbit carries an invariant bracket compatible with the linear one: type
A always does, otherwise T must consist of one or two nodes entering the
highest root with coefficient 1.

Orbit classes are indexed by S itself; conjugate Levis under the Weyl
group are not identified.
"""

from collections import namedtuple
from itertools import combinations

from . import rootsys


LeviDatum = namedtuple("LeviDatum", "root_system S T orbit_rank good hermitian_symmetric")


def classify_levi(rs, S):
    """Classify the Levi determined by a proper subset of simple nodes."""
    nodes = frozenset(range(1, rs.rank + 1))
    S = frozenset(S)
    if not S <= nodes:
        raise ValueError(f"S must consist of nodes 1..{rs.rank}")
    if S == nodes:
        raise ValueError("S equal to all nodes names the full group, not an orbit")
    T = nodes - S
    ones = rootsys.coefficient_one_nodes(rs)
    if rs.series == "A":
        good = True
    else:
        good = bool(T) and len(T) <= 2 and T <= ones
    hermitian = len(T) == 1 and next(iter(T)) in ones
    return LeviDatum(
        root_system=rs,
        S=S,
        T=T,
        orbit_rank=len(T),
        good=good,
        hermitian_symmetric=hermitian,
    )


def enumerate_good_orbits(rs):
    """All good Levi data, one per subset S, in deterministic order."""
    nodes = list(range(1, rs.rank + 1))
    out = []
    for size in range(rs.rank):
        for S in combinations(nodes, size):
            datum = classify_levi(rs, S)
            if datum.good:
                out.append(datum)
    return out

