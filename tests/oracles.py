"""Helpers that only the tests use.

``tensor_of`` and ``wedge_of`` build tensors from their definitions, as
references for the package's tensor algebra; ``alternating_from_plain``
canonicalizes a plain coefficient dict and checks that it alternates;
``bracket_elems`` brackets two element coefficient dicts through the
structure constants.  ``entry_images`` reads the images of the entry
symbols under an entry field off the matrix products of the generic
matrix, ``entry_field`` applies them to a polynomial, and
``pushed_table`` builds the generator table of a 2-tensor pushed through
them entry pair by entry pair, as references for the entry fields and
bracket builders of ``grouppois``.
``by_derivations`` regroups a packed field, decoded, by derivation
tuple, the shape of those references for the entry-ring identities.

``bivector_table``, ``table_row``, ``apply_derivation`` and
``table_bracket`` evaluate a biderivation on two polynomials from a
tuple-keyed ``Fraction`` generator table, with ``termops.pderive`` and
``pmul``, as references for the packed Hamiltonian rows of
``termops.table_bracket``.

``merge_ders``, ``smul``, ``wedge_push``, ``sn_bracket`` and
``fields_proportional`` are the polyvector kernels on exponent and
derivation tuples with ``Fraction`` coefficients, as references for the
packed fields of ``termops`` and ``polyfield``.
``images_of`` reads the coordinate images of a vector term dict;
``coadjoint_field`` is the vector term dict
of one coadjoint field, read from the structure constants.

``solve_equivariant_by_schouten`` is the invariant-field solve with one
Schouten bracket per constraint row and a weight filter over every
candidate term, as a reference for ``polyfield.solve_equivariant``.

``eliminate_fractions`` is the Gaussian elimination of ``linalg`` over
``Fraction`` rows, and ``phibar_by_pmul`` the cubic trivector of
``polyfield.phibar`` on exponent tuples with ``termops.pmul``, as
references for their ``int`` forms.

``transport_bracket`` is the bracket of
``polyfield.gl_transport_quadratic_bracket`` on exponent tuples, each
coefficient a sum of ``termops.pmul`` products of linear coordinate
polynomials read through dense dual matrices, as a reference for its
push through packed fields and the sparse reads of ``liealg.trace_dual``.

``RowBasis`` decomposes dense vectors over a fixed row basis by an
augmented ``rref``, and ``realize_by_row_basis`` reads the structure
constants and Killing form of a matrix realization through it, as a
reference for the trace-dual coordinates of ``liealg``.
``word_matrix``, ``coproduct_matrix``, ``pentagon_total``,
``factorization_relations``, ``two_fold`` and ``primitive_coproduct``
build the Kronecker powers of ``quantize`` one at a time, with their
dimension lists written out, as references for ``quantize._kron_terms``.

``coordinate`` is the polynomial of one coordinate function.
``hochschild_triples`` and ``pairwise_hochschild_witness`` replay the
Hochschild scan of ``quantize`` from scratch, triple by triple;
``pairwise_invariance_witness`` and ``pairwise_twist_witness`` replay
its order-one invariance and twist scans pair by pair, with no
Hamiltonian rows.  ``doubled_smallest_term`` corrupts an r-matrix field
builder, as a fault for the twist-correspondence check.
"""

import itertools
from fractions import Fraction

from qpverify import liealg, linalg, multivec, polyfield, termops
from qpverify.linalg import rref

ZERO = Fraction(0)
ONE = Fraction(1)


def tensor_of(algebra, *elements):
    """Plain tensor product of element coefficient dicts."""
    terms = {(): Fraction(1)}
    for el in elements:
        # distinct (key, i) give distinct keys, so nothing accumulates
        terms = {key + (i,): c * ci for key, c in terms.items() for i, ci in el.items() if ci}
    return multivec.MultiTensor(algebra, len(elements), terms, "plain")


def wedge_of(algebra, *elements):
    """Wedge of element dicts under the prefactor-free embedding."""
    k = len(elements)
    plain = {}
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        sgn = -1 if inv & 1 else 1
        termops.piadd(plain, tensor_of(algebra, *(elements[p] for p in perm)).terms, sgn)
    return alternating_from_plain(algebra, k, plain)


def alternating_from_plain(algebra, degree, plain):
    """Alternating tensor with one ascending key per orbit of ``plain``.

    Raises ``ValueError`` unless every orbit of ``plain`` is supplied in
    full with alternating signs and every key with a repeated index is 0.
    """
    canon = {}
    for key, c in plain.items():
        sign, skey = multivec._sort_sign(key)
        if sign == 0:
            if c:
                raise ValueError("repeated index with nonzero alternating coefficient")
            continue
        canon.setdefault(skey, c if sign > 0 else -c)
    for skey, val in canon.items():
        for perm in itertools.permutations(skey):
            sign, _ = multivec._sort_sign(perm)
            if plain.get(perm, Fraction(0)) != val * sign:
                raise ValueError(f"coefficients not alternating at {perm}")
    return multivec.MultiTensor(algebra, degree, canon, "alternating")


def bracket_elems(L, u, v):
    """Bracket of two element coefficient dicts, bilinear in the basis."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            termops.piadd(out, L.bracket(i, j), ci * cj)
    return out


def entry_images(L, x, side):
    """Images of the entry symbols under the entry field of basis element ``x``.

    Read off the matrix products of the generic matrix ``t`` with ``X``,
    the matrix of ``x``: ``t X`` on the left side, ``X t`` on the right,
    and ``t X - X t`` under conjugation.
    """
    n, X = L.msize, L.matrices[x]
    # the signs of t X and X t in the image
    tx, xt = {"left": (1, 0), "right": (0, 1), "conjugation": (1, -1)}[side]
    images = {}
    for i, j in itertools.product(range(n), repeat=2):
        image = {}
        for k in range(n):
            termops.piadd(image, {termops.unit_exp(n * n, i * n + k): ONE}, tx * X.get((k, j), 0))
            termops.piadd(image, {termops.unit_exp(n * n, k * n + j): ONE}, xt * X.get((i, k), 0))
        if image:
            images[i * n + j] = image
    return images


def entry_field(L, x, side, p):
    """Entry field of basis element ``x`` on ``side`` applied to the polynomial ``p``."""
    return apply_derivation(entry_images(L, x, side), p)


def pushed_table(L, legs):
    """Generator table of a 2-tensor pushed through entry fields.

    ``legs`` lists ``(c, (a, side_a), (b, side_b))``; the value on the
    entry pair (u, v) is the sum of ``c * A_a(u) * B_b(v)``.
    """
    n2 = L.msize * L.msize
    legs = [
        (c, entry_images(L, a, side_a), entry_images(L, b, side_b))
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


def by_derivations(field):
    """A packed field, decoded, as ``{derivations: polynomial}``."""
    out = {}
    for (e, d), c in termops.unpack(field).items():
        out.setdefault(d, {})[e] = c
    return out


def apply_derivation(images, p):
    """Derivation given by its coordinate images, applied to a polynomial.

    ``images`` maps a coordinate index ``v`` to the image of ``y_v``; the
    result is ``sum_v dp/dv * images[v]``.
    """
    out = {}
    for v, img in images.items():
        dv = termops.pderive(p, v)
        if dv:
            termops.piadd(out, termops.pmul(dv, img), ONE)
    return out


def bivector_table(field):
    """Generator table of a packed bivector field, decoded.

    A term ``c * y^e * d/dy_i ^ d/dy_j`` with ``i < j`` puts ``c * y^e``
    at ``(i, j)`` and ``-c * y^e`` at ``(j, i)``.
    """
    table = {}
    for (e, (i, j)), c in termops.unpack(field).items():
        table.setdefault((i, j), {})[e] = c
        table.setdefault((j, i), {})[e] = -c
    return table


def table_row(table, p):
    """Hamiltonian images of a polynomial under a generator table.

    ``table`` maps ordered coordinate pairs ``(u, v)`` to polynomial
    values of a bracket on the corresponding coordinates.  The row maps
    each ``v`` to ``{p, y_v} = sum_u T[u, v] * dp/du``, in ascending
    ``v`` with zero images dropped; by the Leibniz rule in the second
    slot, ``apply_derivation`` of the row to ``q`` is ``{p, q}``.
    """
    images = {}
    partials = {}
    for (u, v), val in table.items():
        du = partials.get(u)
        if du is None:
            du = partials[u] = termops.pderive(p, u)
        if du:
            termops.piadd(images.setdefault(v, {}), termops.pmul(du, val), ONE)
    return {v: images[v] for v in sorted(images) if images[v]}


def table_bracket(table, p, q):
    """Bracket of two polynomials from a generator table.

    The bracket extends from coordinates to polynomials by the Leibniz
    rule, ``{p, q} = sum T[u, v] * dp/du * dq/dv``: the Hamiltonian row
    of ``p`` applied to ``q``.
    """
    return apply_derivation(table_row(table, p), q)


def merge_ders(d1, d2):
    """Merge two ascending derivation tuples.

    Returns ``(sign, merged)`` where ``sign`` is the parity of the
    interleaving permutation, or ``(0, None)`` when an index repeats.
    """
    if not d1:
        return 1, d2
    if not d2:
        return 1, d1
    n1, n2 = len(d1), len(d2)
    i = j = 0
    inv = 0
    out = []
    while i < n1 and j < n2:
        x, y = d1[i], d2[j]
        if x == y:
            return 0, None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            inv += n1 - i
            j += 1
    out.extend(d1[i:])
    out.extend(d2[j:])
    return (-1 if inv & 1 else 1), tuple(out)


def smul(a, b):
    """Wedge (super) product of two polyvector term dicts."""
    out = {}
    bitems = list(b.items())
    for (e1, d1), c1 in a.items():
        for (e2, d2), c2 in bitems:
            sgn, dm = merge_ders(d1, d2)
            if not sgn:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            termops.siadd(out, (e, dm), c1 * c2 if sgn > 0 else -c1 * c2)
    return out


def fields_proportional(P, Q):
    """Reference: ``polyfield.fields_proportional`` on tuple-keyed term dicts.

    Returns c with P == c*Q, or None; both zero counts as c = 1.
    """
    if not P and not Q:
        return ONE
    if not P or not Q:
        return None
    key = next(iter(Q))
    if key not in P:
        return None
    c = P[key] / Q[key]
    if P == termops.pscale(Q, c):
        return c
    return None


def images_of(field):
    """Coordinate images of a vector term dict."""
    images = {}
    for (e, (v,)), c in field.items():
        images.setdefault(v, {})[e] = c
    return images


def coadjoint_field(L, x):
    """Fundamental vector field of basis element ``x`` for the coadjoint action.

    The coordinate ``y_j`` goes to the linear polynomial of ``[b_x, b_j]``,
    read from the structure constants.
    """
    return {
        (termops.unit_exp(L.dim, k), (j,)): c
        for j in range(L.dim)
        for k, c in L.struct.get((x, j), {}).items()
    }


def wedge_push(terms, fields, nvars):
    """Sum of ``c * X_i1 ^ ... ^ X_ik`` over tensor terms ``(i1..ik): c``.

    ``X_i`` is the vector term dict ``fields(i)``.
    """
    out = {}
    unit = {((0,) * nvars, ()): Fraction(1)}
    for key, c in terms.items():
        prod = unit
        for i in key:
            prod = smul(prod, fields(i))
        termops.piadd(out, prod, c)
    return out


def _dy_table(a):
    """Coordinate derivatives of ``a``, grouped by coordinate index."""
    table = {}
    for (e, d), c in a.items():
        for i, ei in enumerate(e):
            if not ei:
                continue
            ee = e[:i] + (ei - 1,) + e[i + 1 :]
            table.setdefault(i, []).append(((ee, d), c * ei))
    return table


def _xi_table(a):
    """Left derivation-slot derivatives of ``a``, grouped by slot index."""
    table = {}
    for (e, d), c in a.items():
        for pos, i in enumerate(d):
            dd = d[:pos] + d[pos + 1 :]
            table.setdefault(i, []).append(((e, dd), -c if pos & 1 else c))
    return table


def _contract(out, sign, xi_of, dy_of):
    """In-place ``out += sign * sum_i xi_of[i] * dy_of[i]`` (super product)."""
    for i, left in xi_of.items():
        right = dy_of.get(i)
        if not right:
            continue
        for (e1, d1), c1 in left:
            for (e2, d2), c2 in right:
                sgn, dm = merge_ders(d1, d2)
                if not sgn:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                termops.siadd(out, (e, dm), c1 * c2 if sgn * sign > 0 else -c1 * c2)


def sn_bracket(a, p, b):
    """Schouten-Nijenhuis bracket of homogeneous polyvector term dicts; ``a`` has degree ``p``."""
    # [[a, b]] = -(-1)^p sum_i xi_i(a) dy_i(b)  -  sum_i dy_i(a) xi_i(b)
    out = {}
    _contract(out, 1 if p & 1 else -1, _xi_table(a), _dy_table(b))
    _contract(out, -1, _dy_table(a), _xi_table(b))
    return out


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


def solve_equivariant_by_schouten(L, p, q):
    """Reference: ``polyfield.solve_equivariant`` with Schouten-bracket rows."""
    labels = []
    for ders in itertools.combinations(range(L.dim), p):
        for exps in polyfield.monomials(L.dim, q):
            if not any(_weight_of_term(L, exps, ders)):
                labels.append((exps, ders))
    index = {lab: i for i, lab in enumerate(labels)}
    gens = [(g, coadjoint_field(L, g)) for g in polyfield._simple_generator_indices(L)]
    rows = {}
    for lab in labels:
        single = {lab: ONE}
        for g, X in gens:
            image = sn_bracket(X, 1, single)
            for key, c in image.items():
                rows.setdefault((g, key), {})[index[lab]] = c
    basis = linalg.nullspace_sparse(list(rows.values()), len(labels))
    fields = tuple({labels[i]: c for i, c in enumerate(vec) if c} for vec in basis)
    for f in fields:
        if not polyfield.is_invariant_field(L, termops.pack(f, L.dim)):
            raise AssertionError("solver produced a non-invariant field")
    return fields


def eliminate_fractions(rows):
    """Reference: ``linalg._eliminate`` over ``Fraction`` rows.

    Gaussian elimination of sparse rows (column -> value dicts).

    Rows are taken sparsest first, for fill-in control; each pivot is the
    least column of a reduced row.  Returns ``{pivot column: row}``, every
    row 1 at its pivot and 0 at the other pivots: the reduced row echelon
    form, which the row space fixes.
    """
    pivot_of = {}
    for row in sorted((dict(r) for r in rows if r), key=lambda r: (len(r), min(r))):
        # a pivot row is 0 at every other pivot, so one pass reduces
        for c in [c for c in row if c in pivot_of]:
            termops.piadd(row, pivot_of[c], -row[c])
        if not row:
            continue
        c0 = min(row)
        row = termops.pscale(row, ONE / row[c0])
        for piv in pivot_of.values():
            f = piv.get(c0)
            if f:
                termops.piadd(piv, row, -f)
        pivot_of[c0] = row
    return pivot_of


def identity_rows(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


class RowBasis:
    """Row space with exact decomposition of new vectors.

    Used to express matrix commutators in a fixed basis: feed the basis
    rows once, then ``decompose`` returns coordinates or ``None``.
    """

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.ncols = len(self.rows[0]) if self.rows else 0
        aug = [list(r) + unit for r, unit in zip(self.rows, identity_rows(len(self.rows)))]
        red, pivots = rref(aug)
        if any(p >= self.ncols for p in pivots):
            raise ValueError("rows are linearly dependent")
        self._red = red
        self._pivots = pivots

    def decompose(self, vec):
        """Coordinates of ``vec`` in the stored rows, or ``None``."""
        residual = list(vec)
        coeffs = [ZERO] * len(self.rows)
        for r, pc in enumerate(self._pivots):
            f = residual[pc]
            if f:
                row = self._red[r]
                for c in range(self.ncols):
                    if row[c]:
                        residual[c] -= f * row[c]
                for c in range(len(self.rows)):
                    coeffs[c] += f * self._red[r][self.ncols + c]
        if any(residual):
            return None
        return coeffs


def realize_by_row_basis(L):
    """Reference: ``(struct, killing)`` of ``L``'s matrices, decomposed by ``RowBasis``.

    Each matrix is flattened to a dense vector; each commutator of a
    basis pair is decomposed over those vectors, and the Killing form is
    the trace form of the adjoint matrices of the resulting constants.
    """
    n = L.msize

    def flat(m):
        return [m.get((r, c), ZERO) for r in range(n) for c in range(n)]

    basis = RowBasis([flat(m) for m in L.matrices])
    struct = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = basis.decompose(flat(linalg.mat_commutator(L.matrices[i], L.matrices[j])))
            if coeffs is None:
                raise AssertionError("commutator escaped the basis span")
            row = {k: c for k, c in enumerate(coeffs) if c}
            if row:
                struct[(i, j)] = row
                struct[(j, i)] = {k: -c for k, c in row.items()}
    ads = [liealg._ad_matrix(struct, i) for i in range(L.dim)]
    killing = [[linalg.mat_trace_product(a, b) for b in ads] for a in ads]
    return struct, killing


def word_matrix(mats, msize, word):
    """Reference: the matrix of a word, its letters multiplied in order."""
    out = linalg.mat_identity(msize)
    for letter in word:
        out = linalg.mat_mul(out, mats[letter])
    return out


def coproduct_matrix(mats, msize, word):
    """Reference: the matrix of the coproduct of a word in the doubled representation."""
    out = linalg.mat_identity(msize * msize)
    ident = linalg.mat_identity(msize)
    for letter in word:
        step = termops.padd(
            linalg.mat_kron(mats[letter], ident, msize),
            linalg.mat_kron(ident, mats[letter], msize),
        )
        out = linalg.mat_mul(out, step)
    return out


def pentagon_total(mats, msize, word_terms):
    """Reference: the signed sum that ``quantize.pentagon_order2_check`` tests for zero.

    ``(id (x) id (x) D)T + (D (x) id (x) id)T - 1 (x) T - (id (x) D (x) id)T
    - T (x) 1`` over word terms ``(c, (w0, w1, w2))``.
    """
    ident = linalg.mat_identity(msize)
    m2 = msize * msize
    total = {}
    for coeff, (w0, w1, w2) in word_terms:
        a, b, c = (word_matrix(mats, msize, w) for w in (w0, w1, w2))
        da, db, dc = (coproduct_matrix(mats, msize, w) for w in (w0, w1, w2))
        for sign, slots, dims in (
            (ONE, [a, b, dc], [msize, msize, m2]),
            (ONE, [da, b, c], [m2, msize, msize]),
            (-ONE, [ident, a, b, c], [msize] * 4),
            (-ONE, [a, db, c], [msize, m2, msize]),
            (-ONE, [a, b, c, ident], [msize] * 4),
        ):
            termops.piadd(total, linalg.mat_kron_many(slots, dims), sign * coeff)
    return total


def factorization_relations(mats, msize, word_terms):
    """Reference: whether ``(D (x) id)rho = rho_13 + rho_23`` and
    ``(id (x) D)rho = rho_13 + rho_12`` hold, for word terms ``(c, (wa, wb))``.
    """
    ident = linalg.mat_identity(msize)
    m2 = msize * msize
    lhs1, rhs1, lhs2, rhs2 = {}, {}, {}, {}
    for coeff, (wa, wb) in word_terms:
        A = word_matrix(mats, msize, wa)
        B = word_matrix(mats, msize, wb)
        dA = coproduct_matrix(mats, msize, wa)
        dB = coproduct_matrix(mats, msize, wb)
        rho_13 = linalg.mat_kron_many([A, ident, B], [msize] * 3)
        termops.piadd(lhs1, linalg.mat_kron(dA, B, msize), coeff)
        termops.piadd(rhs1, rho_13, coeff)
        termops.piadd(rhs1, linalg.mat_kron_many([ident, A, B], [msize] * 3), coeff)
        termops.piadd(lhs2, linalg.mat_kron(A, dB, m2), coeff)
        termops.piadd(rhs2, rho_13, coeff)
        termops.piadd(rhs2, linalg.mat_kron_many([A, B, ident], [msize] * 3), coeff)
    return lhs1 == rhs1, lhs2 == rhs2


def two_fold(mats, msize, tensor):
    """Reference: a plain 2-tensor in the doubled representation."""
    out = {}
    for (a, b), c in tensor.plain_items():
        termops.piadd(out, linalg.mat_kron(mats[a], mats[b], msize), c)
    return out


def primitive_coproduct(mats, msize, x):
    """Reference: ``X (x) 1 + 1 (x) X`` for the basis element ``x``."""
    ident = linalg.mat_identity(msize)
    return termops.padd(
        linalg.mat_kron(mats[x], ident, msize), linalg.mat_kron(ident, mats[x], msize)
    )


def phibar_by_pmul(L):
    """Reference: ``polyfield.phibar`` on exponent tuples with ``termops.pmul``.

    Cubic trivector with coefficients built from bracket coordinates.

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
        for b in range(a + 1, dim - 1):
            # sum of coef*[t1,a][t2,b] over the terms of phi, by third
            # leg t3, shared by every c
            heads = {}
            for (t1, t2, t3), coef in phi_plain:
                p1 = lin.get((t1, a))
                if not p1:
                    continue
                p2 = lin.get((t2, b))
                if p2:
                    termops.piadd(heads.setdefault(t3, {}), termops.pmul(p1, p2), coef)
            for c in range(b + 1, dim):
                value = {}
                for t3, p12 in heads.items():
                    p3 = lin.get((t3, c))
                    if p3:
                        termops.piadd(value, termops.pmul(p12, p3), ONE)
                for e, v in value.items():
                    terms[(e, (a, b, c))] = v
    return terms


def transport_bracket(L):
    """Reference: ``polyfield.gl_transport_quadratic_bracket`` as a term dict.

    The coefficient of ``d/dy_a ^ d/dy_b`` is the sum over ``(u, v)`` of
    ``l_a r_b - l_b r_a``, with ``l_a`` the linear coordinate polynomial
    of ``e_uv M_a`` and ``r_a`` that of ``M_a e_vu``, both read through
    the trace-form dual basis and multiplied with ``termops.pmul``.  The
    dual matrices are built here, from the inverse of the gram matrix.
    """
    n = L.msize
    dim = L.dim
    gram = [[linalg.mat_trace_product(a, b) for b in L.matrices] for a in L.matrices]
    dual = []
    for row in linalg.invert_dense(gram):
        dual.append({})
        for M, c in zip(L.matrices, row):
            termops.piadd(dual[-1], M, c)

    def linear(prod):
        # the linear coordinate polynomial of a matrix, read through tr(dual[m] .)
        out = {}
        for m in range(dim):
            c = linalg.mat_trace_product(dual[m], prod)
            if c:
                out[termops.unit_exp(dim, m)] = c
        return out

    units = [(u, v) for u in range(n) for v in range(n)]
    left = [[linear(linalg.mat_mul({uv: ONE}, M)) for uv in units] for M in L.matrices]
    right = [[linear(linalg.mat_mul(M, {(v, u): ONE})) for u, v in units] for M in L.matrices]
    terms = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            value = {}
            for la, rb, lb, ra in zip(left[a], right[b], left[b], right[a]):
                if la and rb:
                    termops.piadd(value, termops.pmul(la, rb), ONE)
                if lb and ra:
                    termops.piadd(value, termops.pmul(lb, ra), -ONE)
            for e, c in value.items():
                terms[(e, (a, b))] = c
    return terms


def coordinate(L, i):
    """The i-th coordinate function as a polynomial dict."""
    return {termops.unit_exp(L.dim, i): Fraction(1)}


def hochschild_triples(L, d):
    """Monomial triples of the cocycle scan, in scan order."""
    for da in range(1, d - 1):
        for db in range(1, d - da):
            for dc in range(1, d - da - db + 1):
                for ea in polyfield.monomials(L.dim, da):
                    for eb in polyfield.monomials(L.dim, db):
                        for ec in polyfield.monomials(L.dim, dc):
                            yield ea, eb, ec


def pairwise_hochschild_witness(L, d, m1, left_degree=None):
    """Reference: the coboundary of every triple, evaluated from scratch.

    With ``left_degree``, only the triples whose left monomial has that
    degree are evaluated.
    """
    for ea, eb, ec in hochschild_triples(L, d):
        if left_degree is not None and sum(ea) != left_degree:
            continue
        pa, pb, pc = {ea: Fraction(1)}, {eb: Fraction(1)}, {ec: Fraction(1)}
        defect = termops.pmul(pa, m1(pb, pc))
        termops.piadd(defect, m1(termops.pmul(pa, pb), pc), Fraction(-1))
        termops.piadd(defect, m1(pa, termops.pmul(pb, pc)), Fraction(1))
        termops.piadd(defect, termops.pmul(m1(pa, pb), pc), Fraction(-1))
        if defect:
            return {"a": ea, "b": eb, "c": ec, "defect": defect}
    return None


def doubled_smallest_term(rmatrix_bracket):
    """An r-matrix field builder whose fields have their smallest term doubled."""

    def corrupted(r):
        terms = termops.unpack(rmatrix_bracket(r))
        key = min(terms)
        terms[key] *= 2
        return termops.pack(terms, r.algebra.dim)

    return corrupted


def monomials_upto(L, d):
    """Every monomial of degree at most d, degree by degree."""
    return [e for k in range(d + 1) for e in polyfield.monomials(L.dim, k)]


def _pairs_upto(L, d):
    """Every pair of monomials of total degree at most d, in the order of a scan over both."""
    monos = monomials_upto(L, d)
    return [(a, b) for a in monos for b in monos if sum(a) + sum(b) <= d]


def _coadjoint_action(L):
    """The coadjoint fields on polynomials, by determinant evaluation once per monomial."""
    images = {}

    def act(x, p):
        out = {}
        for e, c in p.items():
            if (x, e) not in images:
                field = termops.pack(coadjoint_field(L, x), L.dim)
                images[x, e] = termops.kveval(field, [{e: Fraction(1)}])
            termops.piadd(out, images[x, e], c)
        return out

    return act


def _bilinear(m1):
    """``m1`` extended bilinearly from its values on unit monomials, each taken once."""
    values = {}

    def product(p, q):
        out = {}
        for a, ca in p.items():
            for b, cb in q.items():
                if (a, b) not in values:
                    values[a, b] = m1({a: Fraction(1)}, {b: Fraction(1)})
                termops.piadd(out, values[a, b], ca * cb)
        return out

    return product


def pairwise_invariance_witness(m1, r, d):
    """Reference: the first failing invariance triple, evaluated from the identity.

    For every basis element x and every pair of monomials of total
    degree at most ``d``, ``x.m1(a,b) - m1(xa, b) - m1(a, xb)`` is
    compared with ``(1/2) m0(delta(x).(a,b))``.
    """
    L = r.algebra
    act, product = _coadjoint_action(L), _bilinear(m1)
    for x in range(L.dim):
        delta = list(multivec.cobracket(r, x).plain_items())
        for a, b in _pairs_upto(L, d):
            pa, pb = {a: Fraction(1)}, {b: Fraction(1)}
            lhs = act(x, product(pa, pb))
            termops.piadd(lhs, product(act(x, pa), pb), Fraction(-1))
            termops.piadd(lhs, product(pa, act(x, pb)), Fraction(-1))
            rhs = {}
            for (u, v), c in delta:
                termops.piadd(rhs, termops.pmul(act(u, pa), act(v, pb)), c / 2)
            if lhs != rhs:
                return {"x": L.names[x], "a": a, "b": b, "lhs": lhs, "rhs": rhs}
    return None


def pairwise_twist_witness(L, d, r, rm):
    """Reference: the first pair where the composed twist map and ``rm`` differ.

    The skew-symmetrized composed map ``(1/2) m0 . r`` and the bracket of
    the field ``rm`` are both evaluated on every pair of monomials of
    total degree at most ``d``.
    """
    act = _coadjoint_action(L)
    table = bivector_table(rm)
    for ea, eb in _pairs_upto(L, d):
        pa, pb = {ea: Fraction(1)}, {eb: Fraction(1)}
        composed = {}
        for (u, v), c in r.plain_items():
            termops.piadd(composed, termops.pmul(act(u, pa), act(v, pb)), c / 2)
            termops.piadd(composed, termops.pmul(act(u, pb), act(v, pa)), -c / 2)
        field = table_bracket(table, pa, pb)
        if composed != field:
            return {"a": ea, "b": eb, "composed": composed, "field": field}
    return None
