"""Poisson brackets on matrix-entry coordinate rings.

Polynomials live in the free commutative ring on the n*n entry symbols
``t[i,j]`` (functions on the full matrix space; statements about the
special linear group are phrased through the determinant ideal).  A
left-invariant field acts on entries by right matrix multiplication,
``x^L t = t x``, a right-invariant one by left multiplication,
``x^R t = x t``; with these conventions left fields generate right
translations and the two kinds commute.

Brackets are stored by their generator table, the values on entry pairs,
and extend to polynomials by the Leibniz rule.  Identities between them
are computed on bivector term dicts with the ``termops`` field kernels.

The free entry ring is the coordinate ring of the general (or special)
linear group, so the Poisson identities proved off the group ideal hold
for the type-A realizations; for orthogonal or symplectic algebras the
constructions still make sense as derivation tables, but the Jacobi
identities would only hold modulo the isotropy ideal of the subgroup.
"""

import warnings
from fractions import Fraction

from . import liealg, multivec, termops

ONE = Fraction(1)

# Jacobiator of the conjugation-invariant bracket against the invariant
# 3-tensor pushed through the conjugation fields; computed once and
# regression locked.
AD_JACOBIATOR_FACTOR = Fraction(-1, 2)

DEFAULT_DEGREE_CAP = 6


class RealizationMismatch(ValueError):
    """Raised when tensors and matrix realizations do not line up."""


def var_index(n, i, j):
    return i * n + j


def entry(n, i, j):
    """The entry symbol t[i,j] as a polynomial."""
    return {termops.unit_exp(n * n, var_index(n, i, j)): ONE}


def _field_images(L, x, side):
    """Images of every entry symbol under the field of basis element ``x``.

    Left: (t x)_{ij} = sum_k t_{ik} x_{kj}.  Right: (x t)_{ij} =
    sum_k x_{ik} t_{kj}.  Conjugation: left minus right.  Each table is
    built once per algebra and cached on it.
    """
    cache = getattr(L, "_field_image_cache", None)
    if cache is None:
        cache = {}
        L._field_image_cache = cache
    key = (x, side)
    if key in cache:
        return cache[key]
    if side == "conjugation":
        images = {u: dict(img) for u, img in _field_images(L, x, "left").items()}
        for u, img in _field_images(L, x, "right").items():
            termops.piadd(images.setdefault(u, {}), img, -ONE)
        images = {u: img for u, img in images.items() if img}
    else:
        if L.matrices is None:
            raise RealizationMismatch("algebra carries no matrix realization")
        n = L.msize
        images = {}
        for (a, b), val in L.matrices[x].items():
            for k in range(n):
                if side == "left":
                    tgt, src = var_index(n, k, b), var_index(n, k, a)
                else:
                    tgt, src = var_index(n, a, k), var_index(n, b, k)
                termops.siadd(images.setdefault(tgt, {}), termops.unit_exp(n * n, src), val)
    cache[key] = images
    return images


def left_field(L, x, p):
    """Left-invariant derivation of ``x`` applied to an entry polynomial."""
    return termops.apply_derivation(_field_images(L, x, "left"), p)


def right_field(L, x, p):
    """Right-invariant derivation of ``x`` applied to an entry polynomial."""
    return termops.apply_derivation(_field_images(L, x, "right"), p)


def conjugation_field(L, x, p):
    """Derivation of the conjugation action, the left minus the right field."""
    return termops.apply_derivation(_field_images(L, x, "conjugation"), p)


def _pushed_table(L, legs):
    """Generator table of a 2-tensor pushed through field images.

    ``legs`` lists ``(c, (a, side_a), (b, side_b))``; the value on the
    entry pair (u, v) is the sum of ``c * A_a(u) * B_b(v)``.
    """
    n2 = L.msize * L.msize
    legs = [
        (c, _field_images(L, a, side_a), _field_images(L, b, side_b))
        for c, (a, side_a), (b, side_b) in legs
    ]
    table = {}
    for u in range(n2):
        for v in range(n2):
            acc = {}
            for c, images_a, images_b in legs:
                pa = images_a.get(u)
                pb = images_b.get(v)
                if pa and pb:
                    termops.piadd(acc, termops.pmul(pa, pb), c)
            if acc:
                table[(u, v)] = acc
    return table


class GroupBivector:
    """Antisymmetric bracket on the entry ring, stored on generators."""

    def __init__(self, n, table, degree_cap=DEFAULT_DEGREE_CAP):
        self.n = n
        self.table = {k: v for k, v in table.items() if v}
        self.degree_cap = degree_cap
        for (u, v), val in self.table.items():
            neg = termops.pscale(self.table.get((v, u), {}), -ONE)
            if neg != val:
                raise ValueError("generator table is not antisymmetric")
        # the same bivector in the polyvector encoding of termops
        items = self.table.items()
        self.terms = {(e, (u, v)): c for (u, v), val in items if u < v for e, c in val.items()}

    def bracket(self, p, q):
        return termops.table_bracket(self.table, p, q, self.degree_cap)

    def is_zero(self):
        return not self.table


def build_two_sided_bracket(L, r1, r2, degree_cap=DEFAULT_DEGREE_CAP):
    """Bracket with generator table from left fields of r1 plus right fields of r2.

    The compatibility condition (equal Schouten squares of the two
    tensors) is checked and reported as a warning when violated; the
    bracket is still produced, which is how a non-Poisson witness is
    exhibited.
    """
    if L.matrices is None:
        raise RealizationMismatch("algebra carries no matrix realization")
    for r in (r1, r2):
        if r.algebra is not L:
            raise RealizationMismatch("tensor built over a different algebra")
        if r.degree != 2 or r.symmetry != "alternating":
            raise ValueError("r-matrix inputs must be alternating 2-tensors")
    sq1 = multivec.algebraic_schouten(r1, r1)
    sq2 = multivec.algebraic_schouten(r2, r2)
    if sq1 != sq2:
        warnings.warn(
            "the two tensors have different Schouten squares; "
            "the bracket need not be Poisson",
            stacklevel=2,
        )
    legs = [(c, (a, "left"), (b, "left")) for (a, b), c in r1.plain_items()]
    legs += [(c, (a, "right"), (b, "right")) for (a, b), c in r2.plain_items()]
    return GroupBivector(L.msize, _pushed_table(L, legs), degree_cap)


def build_sklyanin_bracket(L, degree_cap=DEFAULT_DEGREE_CAP):
    """The standard bracket: left fields of r minus right fields of r."""
    r = liealg.canonical_tensors(L).r_sd
    return build_two_sided_bracket(L, r, r.scale(-1), degree_cap)


def build_ad_bracket(L, degree_cap=DEFAULT_DEGREE_CAP):
    """Conjugation-invariant bracket from the invariant symmetric 2-tensor."""
    if L.matrices is None:
        raise RealizationMismatch("algebra carries no matrix realization")
    legs = []
    for (a, b), c in liealg.canonical_tensors(L).t.plain_items():
        legs.append((c, (a, "left"), (b, "right")))
        legs.append((-c, (b, "right"), (a, "left")))
    return GroupBivector(L.msize, _pushed_table(L, legs), degree_cap)


def _by_derivations(terms, maxdeg=-1):
    """Regroup a term dict as ``{derivations: polynomial}``, capped at ``maxdeg``."""
    out = {}
    for (e, d), c in terms.items():
        if maxdeg < 0 or sum(e) <= maxdeg:
            out.setdefault(d, {})[e] = c
    return out


def _vector_terms(images):
    """Entry-field images as a vector term dict."""
    return {(e, (u,)): c for u, img in images.items() for e, c in img.items()}


def jacobiator_on_generators(B):
    """Cyclic sum {a,{b,c}} + {b,{c,a}} + {c,{a,b}} on ascending entry triples.

    Half the Schouten square of the bivector, read off by derivation
    triple; the Leibniz rule makes generator triples sufficient.
    """
    square = termops.sn_bracket(B.terms, 2, B.terms, 2)
    return _by_derivations(termops.pscale(square, Fraction(1, 2)), B.degree_cap)


def ad_invariance_defect(L, B, x):
    """Lie derivative of the bracket along the conjugation field of ``x``.

    Returns the defect X{u,v} - {Xu,v} - {u,Xv} on ascending generator
    pairs; all zero means the bracket is invariant.
    """
    field = _vector_terms(_field_images(L, x, "conjugation"))
    return _by_derivations(termops.sn_bracket(field, 1, B.terms, 2), B.degree_cap)


def phi_through_conjugation(L):
    """The invariant 3-tensor pushed through conjugation fields.

    The wedge of the conjugation fields over the canonical terms of
    ``phi``, as a table keyed by ascending entry triples.
    """
    trivector = termops.wedge_push(
        liealg.canonical_tensors(L).phi.terms,
        lambda x: _vector_terms(_field_images(L, x, "conjugation")),
        L.msize * L.msize,
    )
    return _by_derivations(trivector)


def determinant(n):
    """Determinant of the generic matrix as an entry polynomial."""
    import itertools

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
