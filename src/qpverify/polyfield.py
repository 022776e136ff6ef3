"""Polynomial polyvector fields on the dual space of a Lie algebra.

Coordinates on the dual are indexed by the algebra basis; the coadjoint
vector field of ``x`` sends the coordinate ``y`` to the coordinate of
``[x, y]``.  ``coadjoint_field`` packs it once per algebra, and the
``termops`` field kernels take it as ``grouppois`` gives them the entry
fields of conjugation.  ``kirillov_bracket`` and
``gl_transport_quadratic_bracket`` are kept in the algebra's memo too;
the latter is one ``termops.wedge_push`` of the gl(n) trace-form
Casimir through left and right multiplication fields, so no polynomial
product is made here.  A field is a ``termops.PackedField``,
homogeneous in its number of derivations; sums, scalings, brackets,
zero tests and comparisons are the ``termops`` kernels, on int
numerators.  The solver reads the action only through its packed
fields, whose rows (``termops.hamiltonian_row``) give its constraints,
and packs its basis once; its ``(0, q)`` space holds the invariant
polynomials as packed 0-fields, the unit at ``q = 0``.  ``phibar``
builds its field packed, and ``fields_proportional`` and the scan's
``linalg.rank`` read the int numerators; no field is decoded here.  The
Schouten-Nijenhuis bracket is normalized so that the square of a
bivector evaluates to twice the Jacobi defect of its bracket.

One computed sign fact is frozen here and regression tested:
``PHIBAR_SIGN`` relates the cubic trivector built from bracket
coefficients to the action field of the invariant 3-tensor.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import liealg, linalg, termops

ONE = Fraction(1)

# phibar = PHIBAR_SIGN * action_field(phi); computed once and locked.
PHIBAR_SIGN = 1

# refuse equivariant systems with more than this many candidate unknowns
# before the weight-zero filter, C(dim, p) * C(dim + q - 1, q)
EQUIVARIANT_ENTRY_CAP = 10**6


class NoSolutionError(RuntimeError):
    """Raised when a required solution space has the wrong dimension."""


def monomials(dim, degree):
    """All exponent tuples of the given total degree (deterministic order)."""
    out = []
    for combo in combinations_with_replacement(range(dim), degree):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def coadjoint_field(L, i):
    """The coadjoint vector field of basis element ``i``, packed.

    The coordinate ``y_j`` goes to the linear polynomial of ``[b_i, b_j]``.
    Each field is built once per algebra and kept in its memo.
    """
    key = ("coadjoint field", i)
    if key not in L.memo:
        terms = {}
        for j in range(L.dim):
            for k, c in L.struct.get((i, j), {}).items():
                terms[(termops.unit_exp(L.dim, k), (j,))] = c
        L.memo[key] = termops.pack(terms, L.dim)
    return L.memo[key]


def action_field(psi):
    """Multivector field induced by the action map on tensor legs.

    Alternating tensors map through their canonical (ascending) terms, so
    a wedge of algebra elements goes to the wedge of their fundamental
    fields; plain tensors substitute term by term.
    """
    L = psi.algebra
    return termops.wedge_push(psi.terms, functools.partial(coadjoint_field, L), L.dim)


def schouten_nijenhuis(P, Q):
    """Schouten-Nijenhuis bracket of two fields, ``termops.sn_bracket``.

    A degree-0 operand is a function: its bracket with a vector field is
    the derivative, with a higher field the contraction against the
    differential, and with another function zero.
    """
    return termops.sn_bracket(P, Q)


def is_invariant_field(L, P):
    """True iff every coadjoint field of ``L`` annihilates ``P``."""
    return not any(termops.sn_bracket(coadjoint_field(L, i), P) for i in range(L.dim))


def kirillov_bracket(L):
    """Linear bivector whose bracket of coordinates is the Lie bracket, memoized per algebra."""
    key = ("kirillov bracket",)
    if key not in L.memo:
        terms = {}
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                for k, c in L.struct.get((i, j), {}).items():
                    terms[(termops.unit_exp(L.dim, k), (i, j))] = c
        L.memo[key] = termops.pack(terms, L.dim)
    return L.memo[key]


def rmatrix_bracket(r):
    """Quadratic bivector field induced by an alternating 2-tensor."""
    if r.degree != 2 or r.symmetry != "alternating":
        raise ValueError("rmatrix_bracket expects an alternating 2-tensor")
    return action_field(r)


def fields_proportional(P, Q):
    """Return c with P == c*Q, or None; both zero counts as c = 1.

    The numerators are compared by cross-multiplying at one term, so no
    ``Fraction`` is built but ``c``.
    """
    if not P and not Q:
        return ONE
    if not P or not Q:
        return None
    p, dp = P.numerators()
    q, dq = Q.numerators()
    if p.keys() != q.keys():
        return None
    key = next(iter(q))
    a, b = p[key], q[key]
    if any(v * b != q[k] * a for k, v in p.items()):
        return None
    return Fraction(a * dq, b * dp)


# ---------------------------------------------------------------------------
# invariance solvers (weight-zero reduction + Chevalley generator constraints)


def _simple_generator_indices(L):
    gens = []
    for i in range(L.rank):
        alpha = tuple(1 if j == i else 0 for j in range(L.rank))
        gens.append(L.pos_index(alpha))
        gens.append(L.neg_index(alpha))
    return gens


def _derivation_part(jac, ders):
    """The term dict ``D' -> c`` of ``-sum_s sum_k (d X_k / dy_{d_s}) d/dy_{D[d_s -> k]}``.

    ``jac`` maps ``m`` to ``{k: d X_k / dy_m}`` for a linear vector field
    ``X``.  Slot ``s`` of ``D`` becomes ``k`` and the set is re-sorted,
    with sign ``(-1)^(s + pos)`` where ``pos`` is the place of ``k`` in the
    rest; a ``k`` that is already another slot of ``D`` gives zero.
    """
    out = {}
    for s, d in enumerate(ders):
        col = jac.get(d)
        if not col:
            continue
        rest = ders[:s] + ders[s + 1 :]
        for k, c in col.items():
            if k in rest:
                continue
            pos = sum(1 for x in rest if x < k)
            termops.siadd(out, rest[:pos] + (k,) + rest[pos:], c if (s + pos) & 1 else -c)
    return out


def _entries(L, p, q):
    """Entries of the equivariant system of degree-p fields with degree-q coefficients."""
    return math.comb(L.dim, p) * math.comb(L.dim + q - 1, q)


def invariant_field_space(L, p, q):
    """Basis of invariant degree-p fields with homogeneous degree-q coefficients.

    The size cap is checked on every call; the basis is solved once per
    algebra and degree pair and returned as a tuple, so no caller can
    change the cached copy.
    """
    full = _entries(L, p, q)
    if full > EQUIVARIANT_ENTRY_CAP:
        raise termops.ResourceLimitError(
            f"equivariant system of {full} entries exceeds the cap {EQUIVARIANT_ENTRY_CAP}"
        )
    termops.check_top(q)
    key = ("invariant fields", p, q)
    if key not in L.memo:
        L.memo[key] = solve_equivariant(L, p, q)
    return L.memo[key]


def solve_equivariant(L, p, q):
    """Uncached solve of invariant_field_space.

    Equivariance of a map from p-fold wedges to degree-q polynomials is
    the vanishing Lie derivative of its field; it reduces to weight zero
    plus annihilation by the simple raising and lowering fields, and the
    basis is re-verified against every basis generator.

    The unknowns are the weight-zero terms ``y^e d/dy_D``: monomials are
    bucketed by weight, and each ``D`` takes the bucket of its own weight,
    ``D`` outer and ``monomials`` order inner.  A constraint row is one
    term of the Lie derivative of an unknown along a simple coadjoint
    field ``X``: ``[X, y^e d/dy_D] = X(y^e) d/dy_D + y^e [X, d/dy_D]``.
    The images ``X(y^e)`` of every simple field are one packed row of
    their ``termops.derivation_table`` (``termops.hamiltonian_row``),
    built once per exponent.  ``X`` is linear, so the rows of the
    coordinates hold the numbers ``d X_k / dy_m`` of ``[X, d/dy_D]``
    (``_derivation_part``), built once per field and ``D``.  A row is
    keyed by the field, the packed monomial and the derivations, on int
    numerators over the table's denominator.
    """
    dim = L.dim
    by_weight = {}
    for exps in monomials(dim, q):
        # y^e has the weight of the key that lists each j e_j times
        key = tuple(j for j, n in enumerate(exps) for _ in range(n))
        by_weight.setdefault(L.weight_of_key(key), []).append(exps)
    gens = _simple_generator_indices(L)
    table = termops.derivation_table({g: coadjoint_field(L, g) for g in gens}, dim)[0]
    pack, _, units = termops.monomial_codec(dim)
    images = functools.cache(lambda exps: termops.hamiltonian_row(table, exps, pack(exps)))
    # jacs[g][m][k] = d X_k / dy_m, the coefficient of y_m in X_g(y_k)
    index = {u: m for m, u in enumerate(units)}
    jacs = {g: {} for g in gens}
    for k in range(dim):
        for g, img in images(termops.unit_exp(dim, k)).items():
            for u, c in img.items():
                jacs[g].setdefault(index[u], {})[k] = c
    labels, rows = [], {}
    for ders in combinations(range(dim), p):
        bucket = by_weight.get(L.weight_of_key(ders), ())
        turned = {g: _derivation_part(jacs[g], ders) for g in gens} if bucket else {}
        for exps in bucket:
            col, mono, image = len(labels), pack(exps), images(exps)
            labels.append((exps, ders))
            # the two parts may meet at one key, so entries add
            for g in gens:
                for k, c in image.get(g, {}).items():
                    termops.siadd(rows.setdefault((g, k, ders), {}), col, c)
                for d, c in turned[g].items():
                    termops.siadd(rows.setdefault((g, mono, d), {}), col, c)
    basis = linalg.nullspace_sparse(list(rows.values()), len(labels))
    fields = tuple(
        termops.pack({labels[i]: c for i, c in enumerate(vec) if c}, dim) for vec in basis
    )
    for f in fields:
        if not is_invariant_field(L, f):
            raise AssertionError("solver produced a non-invariant field")
    return fields


# ---------------------------------------------------------------------------
# the quadratic bracket and its calibration


def _sqrt_fraction(x):
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# lam is None when lam_squared is not a rational square; ff is [[f0, f0]]
QuadraticCalibration = namedtuple(
    "QuadraticCalibration", "f0 lam_squared lam obstruction ff phibar"
)


def quadratic_bracket(L):
    """The generator of the invariant quadratic bivectors."""
    if L.root_system.series != "A" or L.rank < 2:
        raise NoSolutionError("the invariant quadratic bracket needs type A, rank >= 2")
    space = invariant_field_space(L, 2, 2)
    if len(space) != 1:
        raise NoSolutionError(f"expected a one-dimensional space, found {len(space)}")
    return space[0]


def calibrate_scale(L):
    """Solve lam^2 [[f0, f0]] = -phibar for the scale of the quadratic bracket.

    Returns the generator, the exact ``lam^2`` and, when it is a rational
    square, ``lam`` itself, with the two fields compared.  A non-square
    (or negative) ``lam^2`` is reported as an obstruction; the defining
    identities remain checkable because every required bracket is even
    or odd in ``lam``.
    """
    f0 = quadratic_bracket(L)
    ff = schouten_nijenhuis(f0, f0)
    pb = phibar(L)
    if not ff:
        raise NoSolutionError("[[f0, f0]] vanishes; no calibration condition")
    ratio = fields_proportional(pb, ff)
    if ratio is None:
        raise NoSolutionError("[[f0, f0]] is not proportional to phibar")
    lam_squared = -ratio
    lam = _sqrt_fraction(lam_squared)
    obstruction = ""
    if lam is None:
        obstruction = (
            f"lam^2 = {lam_squared} is not a rational square; "
            "identities are verified in lam-graded form"
        )
    return QuadraticCalibration(f0, lam_squared, lam, obstruction, ff, pb)


def phibar(L):
    """Cubic trivector with coefficients built from bracket coordinates.

    On coordinates a, b, c the value is the sum over the expansion of the
    invariant 3-tensor of the products [t1,a][t2,b][t3,c].  It is
    ``PHIBAR_SIGN`` times the action field of that tensor, which the
    ``phi-bracket`` suite checks.

    Monomials are packed as in a packed field (``termops.monomial_codec``),
    so a product of monomials is one ``int`` sum, and coefficients are
    ``int`` numerators over ``lcm(phi denominators) * lcm(structure
    denominators)^3``; the terms become a packed field as they are, with
    no decoding.
    """
    ct = liealg.canonical_tensors(L)
    phi_plain = list(ct.phi.plain_items())
    dim = L.dim
    units = termops.monomial_codec(dim)[2]
    sden = math.lcm(*(c.denominator for row in L.struct.values() for c in row.values()))
    pden = math.lcm(*(c.denominator for _, c in phi_plain))
    den = pden * sden**3
    # the linear polynomial of the coordinate of [t, a], keyed by (t, a),
    # as (packed monomial, numerator over sden) pairs
    lin = {
        key: [(units[k], c.numerator * (sden // c.denominator)) for k, c in row.items()]
        for key, row in L.struct.items()
        if row
    }
    phi_int = [(t, c.numerator * (pden // c.denominator)) for t, c in phi_plain]

    terms = {}
    for a in range(dim):
        for b in range(a + 1, dim - 1):
            # sum of coef*[t1,a][t2,b] over the terms of phi, by third
            # leg t3, shared by every c
            heads = {}
            for (t1, t2, t3), coef in phi_int:
                p1 = lin.get((t1, a))
                if not p1:
                    continue
                p2 = lin.get((t2, b))
                if p2:
                    head = heads.setdefault(t3, {})
                    for m1, c1 in p1:
                        c1 *= coef
                        for m2, c2 in p2:
                            head[m1 + m2] = head.get(m1 + m2, 0) + c1 * c2
            heads = {t3: [(m, v) for m, v in head.items() if v] for t3, head in heads.items()}
            for c in range(b + 1, dim):
                value = {}
                for t3, p12 in heads.items():
                    for m3, c3 in lin.get((t3, c), ()):
                        for m, v in p12:
                            value[m + m3] = value.get(m + m3, 0) + v * c3
                for m, v in value.items():
                    terms[(m, (a, b, c))] = v
    return termops.pack_monomials(terms, den, dim, 3)


# ---------------------------------------------------------------------------
# pencils and the invariant-bivector scan


ScanEntry = namedtuple("ScanEntry", "degree dimension invariant_poly_dim extras")


def invariant_bivector_scan(L, max_degree):
    """Invariant bivector fields by coefficient degree, versus b * kirillov.

    For each coefficient degree k <= max_degree the entry records the
    dimension of the space of invariant bivector fields and, as
    ``extras``, the basis fields that raise the rank of the
    invariant-polynomial multiples of the linear bivector; the space is
    exhausted by those multiples exactly when ``extras`` is empty.
    """
    # the cap bounds the whole scan, so no system is solved before a refusal
    total = sum(_entries(L, 2, k) + _entries(L, 0, k - 1) for k in range(1, max_degree + 1))
    if total > EQUIVARIANT_ENTRY_CAP:
        raise termops.ResourceLimitError(
            f"scan to degree {max_degree} solves systems of {total} entries in all, "
            f"above the cap {EQUIVARIANT_ENTRY_CAP}"
        )
    termops.check_top(max_degree)
    s = kirillov_bracket(L)
    out = []
    for k in range(1, max_degree + 1):
        fields = invariant_field_space(L, 2, k)
        inv_polys = invariant_field_space(L, 0, k - 1)
        multiples = [termops.smul(b, s) for b in inv_polys]
        # scaling a row keeps the rank, so each field's int numerators are its row
        rows = [m.numerators()[0] for m in multiples]
        spanned = linalg.rank(rows)
        extras = [f for f in fields if linalg.rank([*rows, f.numerators()[0]]) > spanned]
        out.append(
            ScanEntry(
                degree=k,
                dimension=len(fields),
                invariant_poly_dim=len(inv_polys),
                extras=extras,
            )
        )
    return out


# ---------------------------------------------------------------------------
# cross-check: the trace-form quadratic bracket on gl(n), restricted


def gl_transport_quadratic_bracket(L):
    """Quadratic bracket on matrix space from left/right multiplications.

    The gl(n) trace-form 2-tensor ``sum_{u,v} e_uv (x) e_vu``, pushed
    (``termops.wedge_push``) through left multiplication by its first
    leg and right by its second: the field of ``(side, uv)`` sends
    ``y_a`` to the coordinates of ``e_uv M_a`` or ``M_a e_uv`` in the
    trace-form dual basis, so restricted to the traceless part.
    Proportional to the solver's generator for type A; memoized per
    algebra.
    """
    key = ("gl transport bracket",)
    if key not in L.memo:
        dim = L.dim
        coordinates = liealg.trace_dual(L.matrices)

        def field(leg):
            side, uv = leg
            E, terms = {uv: ONE}, {}
            for a, M in enumerate(L.matrices):
                prod = linalg.mat_mul(E, M) if side == "left" else linalg.mat_mul(M, E)
                for m, c in coordinates(prod).items():
                    terms[(termops.unit_exp(dim, m), (a,))] = c
            return termops.pack(terms, dim)

        units = [(u, v) for u in range(L.msize) for v in range(L.msize)]
        casimir = {(("left", (u, v)), ("right", (v, u))): ONE for u, v in units}
        L.memo[key] = termops.wedge_push(casimir, field, dim)
    return L.memo[key]
