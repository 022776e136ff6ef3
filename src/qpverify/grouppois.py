"""Poisson brackets on matrix-entry coordinate rings.

Polynomials live in the free commutative ring on the n*n entry symbols
``t[i,j]`` (functions on the full matrix space; statements about the
special linear group are phrased through the determinant ideal).  A
left-invariant field acts on entries by right matrix multiplication,
``x^L t = t x``, a right-invariant one by left multiplication,
``x^R t = x t``; with these conventions left fields generate right
translations and the two kinds commute.

Each bracket is a bivector field, built in one ``termops.wedge_push``
of a 2-tensor through the entry fields, which ``_entry_field`` packs
once per algebra, and stored as a ``termops.PackedField``.  A single
bracket of two polynomials is ``termops.table_bracket``: packed
Hamiltonian rows applied by the Leibniz rule, as in the scans of
``quantize``; the field itself is never decoded.  Identities
between brackets are packed fields, computed with the ``termops`` field
kernels that ``polyfield`` calls with the coadjoint fields; the suites
test and compare them packed.

The free entry ring is the coordinate ring of the general (or special)
linear group, so the Poisson identities proved off the group ideal hold
for the type-A realizations; for orthogonal or symplectic algebras the
constructions still make sense as derivation tables, but the Jacobi
identities would only hold modulo the isotropy ideal of the subgroup.
"""

import itertools
from fractions import Fraction

from . import liealg, termops

ONE = Fraction(1)

# Jacobiator of the conjugation-invariant bracket against the invariant
# 3-tensor pushed through the conjugation fields; computed once and
# regression locked.
AD_JACOBIATOR_FACTOR = Fraction(-1, 2)


class RealizationMismatch(ValueError):
    """Raised when tensors and matrix realizations do not line up."""


def var_index(n, i, j):
    return i * n + j


def entry(n, i, j):
    """The entry symbol t[i,j] as a polynomial."""
    return {termops.unit_exp(n * n, var_index(n, i, j)): ONE}


def _entry_field(L, x, side):
    """The packed vector field of basis element ``x`` on the entry ring.

    Left: (t x)_{ij} = sum_k t_{ik} x_{kj}.  Right: (x t)_{ij} =
    sum_k x_{ik} t_{kj}.  Conjugation: left minus right.  Each field is
    built once per algebra and kept in its memo.
    """
    key = ("entry field", x, side)
    if key in L.memo:
        return L.memo[key]
    if side == "conjugation":
        field = termops.padd(_entry_field(L, x, "left"), _entry_field(L, x, "right"), -1)
    else:
        if L.matrices is None:
            raise RealizationMismatch("algebra carries no matrix realization")
        n = L.msize
        terms = {}
        for (a, b), val in L.matrices[x].items():
            for k in range(n):
                if side == "left":
                    tgt, src = var_index(n, k, b), var_index(n, k, a)
                else:
                    tgt, src = var_index(n, a, k), var_index(n, b, k)
                termops.siadd(terms, (termops.unit_exp(n * n, src), (tgt,)), val)
        field = termops.pack(terms, n * n)
    L.memo[key] = field
    return field


def _pushed_bivector(L, terms):
    """Bivector field of a 2-tensor pushed through entry fields.

    ``terms`` maps leg pairs ``((a, side_a), (b, side_b))`` to
    coefficients; each leg is the entry field of basis element ``a`` on
    its side, and a term contributes ``c`` times the wedge of its legs.
    """
    bivector = termops.wedge_push(terms, lambda leg: _entry_field(L, *leg), L.msize * L.msize)
    return GroupBivector(bivector)


class GroupBivector:
    """Bracket on the entry ring, stored as a packed bivector field."""

    def __init__(self, terms):
        self.terms = terms

    def bracket(self, p, q):
        return termops.table_bracket(self.terms, p, q)


def build_two_sided_bracket(L, r1, r2):
    """Bracket pushed from left fields of r1 plus right fields of r2.

    The compatibility condition, equal Schouten squares of the two
    tensors, is not checked: a bracket that violates it is still
    produced, which is how a non-Poisson witness is exhibited.
    """
    for r in (r1, r2):
        if r.algebra is not L:
            raise RealizationMismatch("tensor built over a different algebra")
        if r.degree != 2 or r.symmetry != "alternating":
            raise ValueError("r-matrix inputs must be alternating 2-tensors")
    terms = {((a, "left"), (b, "left")): c for (a, b), c in r1.terms.items()}
    terms.update({((a, "right"), (b, "right")): c for (a, b), c in r2.terms.items()})
    return _pushed_bivector(L, terms)


def build_sklyanin_bracket(L):
    """The standard bracket: left fields of r minus right fields of r."""
    r = liealg.canonical_tensors(L).r_sd
    return build_two_sided_bracket(L, r, r.scale(-1))


def build_ad_bracket(L):
    """Conjugation-invariant bracket from the invariant symmetric 2-tensor."""
    t = liealg.canonical_tensors(L).t
    return _pushed_bivector(L, {((a, "left"), (b, "right")): c for (a, b), c in t.terms.items()})


def jacobiator_on_generators(B):
    """Cyclic sum {a,{b,c}} + {b,{c,a}} + {c,{a,b}} on ascending entry triples.

    Half the Schouten square of the bivector, a packed 3-vector field;
    the Leibniz rule makes generator triples sufficient.
    """
    return termops.pscale(termops.sn_bracket(B.terms, B.terms), Fraction(1, 2))


def ad_invariance_defect(L, B, x):
    """Lie derivative of the bracket along the conjugation field of ``x``.

    Returns the defect X{u,v} - {Xu,v} - {u,Xv} as a packed bivector
    field; zero means the bracket is invariant.
    """
    return termops.sn_bracket(_entry_field(L, x, "conjugation"), B.terms)


def phi_through_conjugation(L):
    """The invariant 3-tensor pushed through conjugation fields.

    The wedge of the conjugation fields over the canonical terms of
    ``phi``, as a packed 3-vector field.
    """
    return termops.wedge_push(
        liealg.canonical_tensors(L).phi.terms,
        lambda x: _entry_field(L, x, "conjugation"),
        L.msize * L.msize,
    )


def determinant(n):
    """Determinant of the generic matrix as an entry polynomial."""
    out = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        e = [0] * (n * n)
        for i in range(n):
            e[var_index(n, i, perm[i])] += 1
        out[tuple(e)] = Fraction(-1 if inv & 1 else 1)
    return out


def in_principal_ideal(p, d):
    """Exact membership of ``p`` in the ideal generated by ``d``.

    Greedy reduction by the lex-leading term; complete for principal
    ideals in a polynomial ring.
    """
    if not p:
        return True
    lead_d = max(d)
    cd = d[lead_d]
    work = dict(p)
    while work:
        lead = max(work)
        quot = tuple(a - b for a, b in zip(lead, lead_d))
        if any(q < 0 for q in quot):
            return False
        multiple = {tuple(a + b for a, b in zip(quot, k)): c for k, c in d.items()}
        termops.piadd(work, multiple, -work[lead] / cd)
    return True
