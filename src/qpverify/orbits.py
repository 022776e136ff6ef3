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

from dataclasses import dataclass
from itertools import combinations

from . import linalg, rootsys, termops


@dataclass(frozen=True)
class LeviDatum:
    root_system: object
    S: frozenset
    T: frozenset
    orbit_rank: int
    good: bool
    hermitian_symmetric: bool


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


def _support(beta):
    return frozenset(i + 1 for i, c in enumerate(beta) if c)


def levi_and_complement_indices(levi, L):
    """Basis indices of the Levi subalgebra and of its root-space complement.

    The complement is spanned by the root vectors whose support leaves S;
    it is stable under the Levi action, so the quotient computations below
    are well posed.
    """
    l_idx = list(range(L.rank))
    m_idx = []
    for beta in L.positive_roots:
        inside = _support(beta) <= levi.S
        for idx in (L.pos_index(beta), L.neg_index(beta)):
            (l_idx if inside else m_idx).append(idx)
    return sorted(l_idx), sorted(m_idx)


@dataclass
class QuotientTensor:
    m_indices: list
    terms: dict  # tuples over positions in m_indices -> Fraction

    def is_zero(self):
        return not self.terms


def tangent_projection(psi, levi, L):
    """Image of a 3-tensor under the cube of the quotient map g -> g/l."""
    if psi.degree != 3:
        raise ValueError("tangent projection expects a 3-tensor")
    if levi.root_system != L.root_system:
        raise ValueError("Levi datum and algebra have different root systems")
    _, m_idx = levi_and_complement_indices(levi, L)
    pos = {idx: p for p, idx in enumerate(m_idx)}
    terms = {}
    for key, c in psi.plain_items():
        if all(i in pos for i in key):
            termops.siadd(terms, tuple(pos[i] for i in key), c)
    return QuotientTensor(m_indices=m_idx, terms=terms)


def is_symmetric_pair(levi, L):
    """True iff brackets of complement elements land back in the Levi."""
    l_idx, m_idx = levi_and_complement_indices(levi, L)
    l_set = set(l_idx)
    for a in m_idx:
        for b in m_idx:
            row = L.bracket(a, b)
            if any(k not in l_set for k in row):
                return False
    return True


def _project_to_m(row, pos):
    return {pos[k]: c for k, c in row.items() if k in pos}


def invariant_bivector_dim_at_base(levi, L):
    """Dimension of the Levi invariants in the second exterior power of g/l.

    The Cartan sits inside every Levi, so invariants are supported on
    weight-zero wedge pairs; the remaining constraints come from the
    raising and lowering vectors of the nodes in S.
    """
    _, m_idx = levi_and_complement_indices(levi, L)
    pos = {idx: p for p, idx in enumerate(m_idx)}
    zero = tuple([0] * L.rank)
    labels = [
        (a, b)
        for a, b in combinations(range(len(m_idx)), 2)
        if L.weight_of_key((m_idx[a], m_idx[b])) == zero
    ]
    if not labels:
        return 0
    index = {lab: i for i, lab in enumerate(labels)}
    gens = []
    for i in sorted(levi.S):
        alpha = tuple(1 if j == i - 1 else 0 for j in range(L.rank))
        gens.append(L.pos_index(alpha))
        gens.append(L.neg_index(alpha))
    if not gens:
        return len(labels)
    rows = {}
    for lab in labels:
        a, b = lab
        for g in gens:
            image = {}
            ga = _project_to_m(L.bracket(g, m_idx[a]), pos)
            for k, c in ga.items():
                if k == b:
                    continue
                termops.siadd(image, (k, b) if k < b else (b, k), c if k < b else -c)
            gb = _project_to_m(L.bracket(g, m_idx[b]), pos)
            for k, c in gb.items():
                if k == a:
                    continue
                termops.siadd(image, (a, k) if a < k else (k, a), c if a < k else -c)
            for key, c in image.items():
                rows.setdefault((g, key), {})[index[lab]] = c
    basis = linalg.nullspace_sparse(list(rows.values()), len(labels))
    return len(basis)
