"""Polynomial polyvector fields on the dual space of a Lie algebra.

Coordinates on the dual are indexed by the algebra basis; the coadjoint
vector field of ``x`` sends the coordinate ``y`` to the coordinate of
``[x, y]``.  Fields are stored in the odd-variable encoding of
``qpverify.termops``; the Schouten-Nijenhuis bracket there is normalized
so that the square of a bivector evaluates to twice the Jacobi defect of
its bracket.

Two computed sign facts are frozen here and regression tested:
``ACTION_SCHOUTEN_SIGN`` relates the bracket of action fields to the
action field of the algebraic bracket, and ``PHIBAR_SIGN`` relates the
cubic trivector built from bracket coefficients to the action field of
the invariant 3-tensor.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import liealg, linalg, termops

ONE = Fraction(1)

# [[psi_M, chi_M]] = ACTION_SCHOUTEN_SIGN * ([[psi, chi]])_M for constant
# multivectors psi, chi; computed once on rank 1 and 2 and locked.
ACTION_SCHOUTEN_SIGN = 1

# phibar = PHIBAR_SIGN * action_field(phi); computed once and locked.
PHIBAR_SIGN = 1

# refuse equivariant systems whose unknown count times constraint count
# would exceed this many matrix entries
EQUIVARIANT_ENTRY_CAP = 10**6


class ResourceLimitError(RuntimeError):
    """Raised when a solver request exceeds the configured size caps."""


class NoSolutionError(RuntimeError):
    """Raised when a required solution space has the wrong dimension."""


class PolyVectorField:
    """Homogeneous-degree multivector field with polynomial coefficients."""

    __slots__ = ("algebra", "degree", "terms", "_table")

    def __init__(self, algebra, degree, terms):
        self.algebra = algebra
        self.degree = degree
        self.terms = {k: v for k, v in terms.items() if v}
        self._table = None

    @classmethod
    def zero(cls, algebra, degree):
        return cls(algebra, degree, {})

    def is_zero(self):
        return not self.terms

    def scale(self, c):
        c = Fraction(c)
        return PolyVectorField(self.algebra, self.degree, termops.pscale(self.terms, c))

    def add(self, other):
        self._check(other)
        return PolyVectorField(self.algebra, self.degree, termops.padd(self.terms, other.terms))

    def sub(self, other):
        return self.add(other.scale(-1))

    def wedge(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("fields over different algebras")
        return PolyVectorField(
            self.algebra, self.degree + other.degree, termops.smul(self.terms, other.terms)
        )

    def evaluate(self, *polys):
        """Apply the field to ``degree`` many polynomial arguments."""
        if len(polys) != self.degree:
            raise ValueError("wrong number of arguments")
        return termops.kveval(self.terms, list(polys))

    def bracket(self, f, g, maxdeg=-1):
        """Biderivation of a bivector field on two polynomials.

        Monomials above ``maxdeg`` are dropped when it is non-negative.
        The generator table is built on the first call; fields are never
        mutated after construction, so it stays valid.
        """
        if self.degree != 2:
            raise ValueError("bracket evaluation needs a bivector")
        if self._table is None:
            self._table = termops.bivector_table(self.terms)
        return termops.table_bracket(self._table, f, g, maxdeg)

    def hamiltonian(self, f, maxdeg=-1):
        """Coordinate images of the derivation ``g -> bracket(f, g)``.

        Maps each coordinate index ``v`` to ``bracket(f, y_v, maxdeg)``,
        zero images dropped.  By the Leibniz rule in the second slot,
        ``termops.apply_derivation(P.hamiltonian(f, d), g, d)`` equals
        ``P.bracket(f, g, d)``; truncating the images first drops only
        terms the final truncation drops, as degrees are non-negative.
        """
        images = {}
        for v in range(self.algebra.dim):
            img = self.bracket(f, coordinate(self.algebra, v), maxdeg)
            if img:
                images[v] = img
        return images

    def _check(self, other):
        if self.algebra is not other.algebra or self.degree != other.degree:
            raise ValueError("field mismatch")

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("PolyVectorField is unhashable")

    def __repr__(self):
        return f"PolyVectorField(deg={self.degree}, {len(self.terms)} terms)"


def coordinate(L, i):
    """The i-th coordinate function as a polynomial dict."""
    return {termops.unit_exp(L.dim, i): ONE}


def monomials(dim, degree):
    """All exponent tuples of the given total degree (deterministic order)."""
    if degree == 0:
        return [tuple([0] * dim)]
    out = []
    for combo in combinations_with_replacement(range(dim), degree):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _coadjoint_terms(L, i):
    cache = getattr(L, "_coadjoint_cache", None)
    if cache is None:
        cache = {}
        L._coadjoint_cache = cache
    if i not in cache:
        terms = {}
        for j in range(L.dim):
            row = L.struct.get((i, j))
            if not row:
                continue
            for k, c in row.items():
                termops.siadd(terms, (termops.unit_exp(L.dim, k), (j,)), c)
        cache[i] = terms
    return cache[i]


def coadjoint_field(L, x):
    """Fundamental vector field of ``x`` for the coadjoint action."""
    if isinstance(x, int):
        return PolyVectorField(L, 1, dict(_coadjoint_terms(L, x)))
    out = {}
    for i, c in x.items():
        for k, v in _coadjoint_terms(L, i).items():
            termops.siadd(out, k, c * v)
    return PolyVectorField(L, 1, out)


def action_field(psi):
    """Multivector field induced by the action map on tensor legs.

    Alternating tensors map through their canonical (ascending) terms, so
    a wedge of algebra elements goes to the wedge of their fundamental
    fields; plain tensors substitute term by term.
    """
    L = psi.algebra
    if psi.symmetry == "symmetric":
        raise ValueError("action fields of symmetric tensors are not defined here")
    terms = termops.wedge_push(psi.terms, lambda i: _coadjoint_terms(L, i), L.dim)
    return PolyVectorField(L, psi.degree, terms)


def schouten_nijenhuis(P, Q):
    """Schouten-Nijenhuis bracket of two fields.

    Degree-0 operands are functions: the bracket with a vector field is
    the derivative, with a higher field the contraction against the
    differential.
    """
    if P.algebra is not Q.algebra:
        raise ValueError("fields over different algebras")
    if P.degree == 0 and Q.degree == 0:
        return PolyVectorField.zero(P.algebra, 0)
    terms = termops.sn_bracket(P.terms, P.degree, Q.terms, Q.degree)
    return PolyVectorField(P.algebra, P.degree + Q.degree - 1, terms)


def lie_derivative(L, x, P):
    """Lie derivative of a field along the coadjoint field of ``x``."""
    return schouten_nijenhuis(coadjoint_field(L, x), P)


def is_invariant_field(P):
    """True iff every coadjoint field annihilates ``P``."""
    return all(lie_derivative(P.algebra, i, P).is_zero() for i in range(P.algebra.dim))


def kirillov_bracket(L):
    """Linear bivector whose bracket of coordinates is the Lie bracket."""
    terms = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            row = L.struct.get((i, j))
            if not row:
                continue
            for k, c in row.items():
                terms[(termops.unit_exp(L.dim, k), (i, j))] = c
    return PolyVectorField(L, 2, terms)


def rmatrix_bracket(r):
    """Quadratic bivector field induced by an alternating 2-tensor."""
    if r.degree != 2 or r.symmetry != "alternating":
        raise ValueError("rmatrix_bracket expects an alternating 2-tensor")
    return action_field(r)


def fields_proportional(P, Q):
    """Return c with P == c*Q, or None; both zero counts as c = 1."""
    if P.is_zero() and Q.is_zero():
        return ONE
    if P.is_zero() or Q.is_zero():
        return None
    key = next(iter(Q.terms))
    if key not in P.terms:
        return None
    c = P.terms[key] / Q.terms[key]
    if P.terms == termops.pscale(Q.terms, c):
        return c
    return None


# ---------------------------------------------------------------------------
# invariance solvers (weight-zero reduction + Chevalley generator constraints)


def _simple_generator_indices(L):
    gens = []
    for i in range(L.rank):
        alpha = tuple(1 if j == i else 0 for j in range(L.rank))
        gens.append(L.pos_index(alpha))
        gens.append(L.neg_index(alpha))
    return gens


def _weight_of_term(L, exps, ders):
    w = [0] * L.rank
    for j, e in enumerate(exps):
        if e:
            for t in range(L.rank):
                w[t] += e * L.weights[j][t]
    for d in ders:
        for t in range(L.rank):
            w[t] -= L.weights[d][t]
    return tuple(w)


def invariant_field_space(L, p, q, cap=EQUIVARIANT_ENTRY_CAP):
    """Basis of invariant degree-p fields with homogeneous degree-q coefficients.

    The size cap is checked on every call; the basis is solved once per
    algebra and degree pair and returned as a tuple, so no caller can
    change the cached copy.
    """
    full = math.comb(L.dim, p) * math.comb(L.dim + q - 1, q) if q else math.comb(L.dim, p)
    if full > cap:
        raise ResourceLimitError(
            f"equivariant system of {full} entries exceeds the cap {cap}"
        )
    cache = getattr(L, "_invariant_field_cache", None)
    if cache is None:
        cache = {}
        L._invariant_field_cache = cache
    if (p, q) not in cache:
        cache[(p, q)] = solve_equivariant(L, p, q)
    return cache[(p, q)]


def solve_equivariant(L, p, q):
    """Uncached solve of invariant_field_space.

    Equivariance of a map from p-fold wedges to degree-q polynomials is
    the vanishing Lie derivative of its field; it reduces to weight zero
    plus annihilation by the simple raising and lowering fields, and the
    basis is re-verified against every basis generator.
    """
    labels = []
    for ders in combinations(range(L.dim), p):
        for exps in monomials(L.dim, q):
            if not any(_weight_of_term(L, exps, ders)):
                labels.append((exps, ders))
    index = {lab: i for i, lab in enumerate(labels)}
    gens = _simple_generator_indices(L)
    rows = {}
    for lab in labels:
        single = PolyVectorField(L, p, {lab: ONE})
        for g in gens:
            image = lie_derivative(L, g, single)
            for key, c in image.terms.items():
                rows.setdefault((g, key), {})[index[lab]] = c
    basis = linalg.nullspace_sparse(list(rows.values()), len(labels))
    fields = tuple(
        PolyVectorField(L, p, {labels[i]: c for i, c in enumerate(vec) if c})
        for vec in basis
    )
    for f in fields:
        if not is_invariant_field(f):
            raise AssertionError("solver produced a non-invariant field")
    return fields


def invariant_polynomials(L, degree):
    """Basis of invariant homogeneous polynomials of the given degree."""
    if degree == 0:
        return [ {tuple([0] * L.dim): ONE} ]
    fields = invariant_field_space(L, 0, degree)
    return [ {e: c for (e, _), c in f.terms.items()} for f in fields ]


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


@dataclass
class QuadraticCalibration:
    f0: PolyVectorField
    lam_squared: Fraction
    lam: Fraction  # None when lam_squared is not a rational square
    obstruction: str
    ff: PolyVectorField  # [[f0, f0]]
    phibar: PolyVectorField


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
    if ff.is_zero():
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
    """
    ct = liealg.canonical_tensors(L)
    phi_plain = list(ct.phi.plain_items())
    dim = L.dim
    # the linear polynomial of the coordinate of [t, a], keyed by (t, a)
    lin = {
        key: {termops.unit_exp(dim, k): c for k, c in row.items()}
        for key, row in L.struct.items()
        if row
    }

    terms = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                value = {}
                for (t1, t2, t3), coef in phi_plain:
                    p1 = lin.get((t1, a))
                    if not p1:
                        continue
                    p2 = lin.get((t2, b))
                    if not p2:
                        continue
                    p3 = lin.get((t3, c))
                    if not p3:
                        continue
                    termops.piadd(value, termops.pmul(termops.pmul(p1, p2), p3), coef)
                for e, v in value.items():
                    terms[(e, (a, b, c))] = v
    return PolyVectorField(L, 3, terms)


# ---------------------------------------------------------------------------
# pencils and the invariant-bivector scan


@dataclass
class PencilReport:
    pp: PolyVectorField
    qq: PolyVectorField
    pq: PolyVectorField

    @property
    def pencil_poisson(self):
        return self.pp.is_zero() and self.qq.is_zero() and self.pq.is_zero()


def poisson_pencil_check(P, Q):
    """Schouten data deciding whether every aP + bQ is Poisson."""
    if P.degree != 2 or Q.degree != 2:
        raise ValueError("pencil check expects bivectors")
    return PencilReport(
        pp=schouten_nijenhuis(P, P),
        qq=schouten_nijenhuis(Q, Q),
        pq=schouten_nijenhuis(P, Q),
    )


@dataclass
class ScanEntry:
    degree: int
    dimension: int
    basis: list
    invariant_poly_dim: int
    all_kirillov_multiples: bool
    extras: list


def invariant_bivector_scan(L, max_degree, cap=EQUIVARIANT_ENTRY_CAP):
    """Invariant bivector fields by coefficient degree, versus b * kirillov.

    For each coefficient degree k <= max_degree the entry records the
    space of invariant bivector fields and whether it is exhausted by
    invariant-polynomial multiples of the linear bivector.
    """
    worst = math.comb(L.dim, 2) * math.comb(L.dim + max_degree - 1, max_degree)
    if worst > cap:
        raise ResourceLimitError(
            f"scan at degree {max_degree} needs {worst} entries, above the cap {cap}"
        )
    s = kirillov_bracket(L)
    out = []
    for k in range(1, max_degree + 1):
        fields = invariant_field_space(L, 2, k, cap=cap)
        inv_polys = invariant_polynomials(L, k - 1)
        multiples = [
            PolyVectorField(L, 2, termops.smul({(e, ()): c for e, c in b.items()}, s.terms))
            for b in inv_polys
        ]
        # membership of each solution in the span of the multiples
        all_multiple = True
        extras = []
        if fields:
            keys = sorted({key for f in (*fields, *multiples) for key in f.terms})

            def dense(f):
                return [f.terms.get(key, Fraction(0)) for key in keys]

            # one column per multiple
            system = list(zip(*map(dense, multiples)))
            for f in fields:
                if not multiples or linalg.solve_dense(system, dense(f)) is None:
                    all_multiple = False
                    extras.append(f)
        out.append(
            ScanEntry(
                degree=k,
                dimension=len(fields),
                basis=fields,
                invariant_poly_dim=len(inv_polys),
                all_kirillov_multiples=all_multiple,
                extras=extras,
            )
        )
    return out


# ---------------------------------------------------------------------------
# cross-check: the trace-form quadratic bracket on gl(n), restricted


def gl_transport_quadratic_bracket(L):
    """Quadratic bracket on matrix space from left/right multiplications.

    Built over gl(n) with the trace-form invariant 2-tensor and expressed
    in the coordinates dual to the algebra basis (so already restricted
    to the traceless part); proportional to the equivariant-solver
    generator for type A.
    """
    if L.matrices is None:
        raise ValueError("needs a matrix realization")
    n = L.msize
    dim = L.dim
    gram = [
        [linalg.mat_trace_product(L.matrices[i], L.matrices[j]) for j in range(dim)]
        for i in range(dim)
    ]
    ginv = linalg.invert_dense(gram)
    if ginv is None:
        raise AssertionError("trace form degenerate on the realization")
    dual = []
    for m in range(dim):
        acc = {}
        for j in range(dim):
            termops.piadd(acc, L.matrices[j], ginv[m][j])
        dual.append(acc)

    def linear(prod):
        # the linear coordinate polynomial of a matrix, read through tr(dual[m] .)
        out = {}
        for m in range(dim):
            c = linalg.mat_trace_product(dual[m], prod)
            if c:
                out[termops.unit_exp(dim, m)] = c
        return out

    terms = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            value = {}
            for u in range(n):
                for v in range(n):
                    e_uv = {(u, v): ONE}
                    e_vu = {(v, u): ONE}
                    # left fields multiply on the right, right fields on the left
                    la = linear(linalg.mat_mul(e_uv, L.matrices[a]))
                    rb = linear(linalg.mat_mul(L.matrices[b], e_vu))
                    if la and rb:
                        termops.piadd(value, termops.pmul(la, rb), ONE)
                    lb = linear(linalg.mat_mul(e_uv, L.matrices[b]))
                    ra = linear(linalg.mat_mul(L.matrices[a], e_vu))
                    if lb and ra:
                        termops.piadd(value, termops.pmul(lb, ra), -ONE)
            for e, c in value.items():
                terms[(e, (a, b))] = c
    return PolyVectorField(L, 2, terms)
