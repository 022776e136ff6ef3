"""Concrete realizations of the classical Lie algebras.

Split matrix realizations of types A, B, C, D with diagonal Cartan and
one matrix per root, structure constants extracted exactly from
commutators, and the Killing form computed from adjoint traces.

Basis order: coroots h_1..h_n first, then the positive-root vectors by
(height, lex), then the negative-root vectors in the same root order.
Root vectors are kept at their integral matrix normalization (so for
rank 1 the triple is ``[e, f] = h``, ``[h, e] = 2e``); pairings with
``(X_b, X_-b) = 1`` against the Killing form are produced on demand by
``canonical_tensors``, which rescales the lowering vectors.
"""

from collections import namedtuple
from fractions import Fraction

from . import linalg, multivec, rootsys, termops

ONE = Fraction(1)


class UnsupportedTypeError(ValueError):
    """Raised when a matrix realization is requested for E, F or G types."""


class SingularKillingError(ArithmeticError):
    """Raised when the Killing form fails to invert (construction bug)."""


def _euclid_simple_roots(series, rank):
    """Simple roots in orthogonal coordinates, one list entry per root."""
    n = rank

    def e(i, size):
        return [ONE if j == i else Fraction(0) for j in range(size)]

    if series == "A":
        size = n + 1
        return [
            [a - b for a, b in zip(e(i, size), e(i + 1, size))] for i in range(n)
        ], size
    if series in ("B", "C", "D"):
        size = n
        roots = [
            [a - b for a, b in zip(e(i, size), e(i + 1, size))] for i in range(n - 1)
        ]
        if series == "B":
            roots.append(e(n - 1, size))
        elif series == "C":
            roots.append([2 * x for x in e(n - 1, size)])
        else:
            roots.append([a + b for a, b in zip(e(n - 2, size), e(n - 1, size))])
        return roots, size
    raise UnsupportedTypeError(f"no matrix realization for series {series}")


def _classical_matrices(rs):
    """Cartan coroot matrices and a matrix for every root.

    Returns ``(msize, coroots, root_mats)`` with ``root_mats`` keyed by
    the root in simple-root coordinates.  Each matrix is built for a
    root in orthogonal coordinates, and ``simple`` maps the orthogonal
    coordinates of every root of ``rs`` and of its negative to its
    simple-root coordinates.
    """
    series, n = rs.series, rs.rank
    simple_euclid, size = _euclid_simple_roots(series, n)
    simple = {}
    for beta in rs.positive_roots:
        euclid = tuple(sum(b * r[c] for b, r in zip(beta, simple_euclid)) for c in range(size))
        simple[euclid] = beta
        simple[tuple(-x for x in euclid)] = tuple(-b for b in beta)

    def root(*pairs):
        # simple-root coordinates of the root sum_(idx, val) val * e_idx
        v = [0] * size
        for idx, val in pairs:
            v[idx] += val
        return simple[tuple(v)]

    def unit(i, j):
        return {(i, j): ONE}

    root_mats = {}
    if series == "A":
        m = n + 1
        coroots = [
            termops.padd(unit(i, i), unit(i + 1, i + 1), -ONE) for i in range(n)
        ]
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                root_mats[root((i, 1), (j, -1))] = unit(i, j)
        return m, coroots, root_mats

    # B and D preserve a symmetric form, C an alternating one: the sign of
    # the second unit in the e_i + e_j matrices
    m = 2 * n + 1 if series == "B" else 2 * n
    eps = ONE if series == "C" else -ONE

    def bar(k):
        return m - 1 - k

    def diag(i):
        return termops.padd(unit(i, i), unit(bar(i), bar(i)), -ONE)

    coroots = [termops.padd(diag(i), diag(i + 1), -ONE) for i in range(n - 1)]
    if series == "B":
        coroots.append(termops.pscale(diag(n - 1), Fraction(2)))
    elif series == "C":
        coroots.append(diag(n - 1))
    else:
        coroots.append(termops.padd(diag(n - 2), diag(n - 1)))

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            root_mats[root((i, 1), (j, -1))] = termops.padd(unit(i, j), unit(bar(j), bar(i)), -ONE)
    for i in range(n):
        for j in range(i + 1, n):
            root_mats[root((i, 1), (j, 1))] = termops.padd(unit(i, bar(j)), unit(j, bar(i)), eps)
            root_mats[root((i, -1), (j, -1))] = termops.padd(unit(bar(j), i), unit(bar(i), j), eps)
    if series == "B":
        mid = n
        for i in range(n):
            root_mats[root((i, 1))] = termops.padd(unit(i, mid), unit(mid, bar(i)), -ONE)
            root_mats[root((i, -1))] = termops.padd(unit(mid, i), unit(bar(i), mid), -ONE)
    elif series == "C":
        for i in range(n):
            root_mats[root((i, 2))] = unit(i, bar(i))
            root_mats[root((i, -2))] = unit(bar(i), i)
    return m, coroots, root_mats


class LieAlgebra:
    """Basis, structure constants, Killing form and matrix realization."""

    def __init__(self, root_system, names, weights, struct, killing, killing_inv, matrices, msize):
        self.root_system = root_system
        self.names = names
        self.weights = weights
        self.struct = struct
        self.killing = killing
        self.killing_inv = killing_inv
        self.matrices = matrices
        self.msize = msize
        self.dim = len(names)
        self.rank = root_system.rank
        self._index = {name: i for i, name in enumerate(names)}
        # values derived from this algebra, computed once, keyed by a
        # tuple that starts with the name of what is stored
        self.memo = {}

    # -- basis bookkeeping

    def pos_index(self, beta):
        return self._index["x" + "".join(map(str, beta))]

    def neg_index(self, beta):
        return self._index["y" + "".join(map(str, beta))]

    @property
    def positive_roots(self):
        return self.root_system.positive_roots

    # -- bracket

    def bracket(self, i, j):
        """Structure constants of [b_i, b_j] as a sparse coefficient dict."""
        return self.struct.get((i, j), {})

    def ad_matrix(self, i):
        return _ad_matrix(self.struct, i)

    def weight_of_key(self, key):
        """Total weight of a basis-index tuple, in simple-root coordinates."""
        w = [0] * self.rank
        for i in key:
            for j, x in enumerate(self.weights[i]):
                w[j] += x
        return tuple(w)

    def __repr__(self):
        return f"LieAlgebra({self.root_system}, dim={self.dim})"


def trace_dual(matrices):
    """Coordinates in a basis of sparse matrices, read through the trace form.

    Returns ``coordinates(A)``, the ``{m: c}`` of ``c = tr(dual[m] A)`` in
    ascending ``m`` with zeros dropped, where ``dual[m] = sum_j ginv[m][j]
    M_j`` with ``ginv`` the inverse of the gram matrix ``tr(M_i M_j)``: so
    ``coordinates(M_k)`` is ``{k: 1}``, and ``coordinates(A)`` holds the
    ``M_m`` coordinates of any ``A`` in the span.  A map from each entry
    ``(r, c)`` to the nonzero ``dual[m][(c, r)]`` is built once, so a read
    costs the nonzeros of ``A``.  ``None`` when the gram matrix is
    singular: the matrices are dependent or the trace form degenerates on
    their span.
    """
    gram = [[linalg.mat_trace_product(a, b) for b in matrices] for a in matrices]
    ginv = linalg.invert_dense(gram)
    if ginv is None:
        return None
    by_entry = {}
    for m, row in enumerate(ginv):
        dual = {}
        for M, c in zip(matrices, row):
            termops.piadd(dual, M, c)
        for (r, c), v in dual.items():
            by_entry.setdefault((c, r), []).append((m, v))

    def coordinates(A):
        out = {}
        for key, a in A.items():
            for m, v in by_entry.get(key, ()):
                termops.siadd(out, m, v * a)
        return dict(sorted(out.items()))

    return coordinates


def realize_classical(rs):
    """Matrix realization of a classical root system (types A, B, C, D).

    Structure constants are read through the trace-form dual basis
    (``trace_dual``), each row in ascending index order; each commutator
    is rebuilt from its coordinates, so one outside the span of the
    basis matrices is refused.
    """
    if rs.series not in ("A", "B", "C", "D"):
        raise UnsupportedTypeError(
            f"series {rs.series} has no matrix realization here; only root data"
        )
    msize, coroots, root_mats = _classical_matrices(rs)

    order = list(rs.positive_roots)
    names = [f"h{i+1}" for i in range(rs.rank)]
    weights = [tuple([0] * rs.rank) for _ in range(rs.rank)]
    matrices = list(coroots)
    for beta in order:
        names.append("x" + "".join(map(str, beta)))
        weights.append(beta)
        matrices.append(root_mats[beta])
    for beta in order:
        names.append("y" + "".join(map(str, beta)))
        weights.append(tuple(-b for b in beta))
        matrices.append(root_mats[tuple(-b for b in beta)])

    coordinates = trace_dual(matrices)
    if coordinates is None:
        raise AssertionError("trace form degenerate on the realization")
    dim = len(matrices)
    struct = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = linalg.mat_commutator(matrices[i], matrices[j])
            row = coordinates(comm)
            rebuilt = {}
            for k, c in row.items():
                termops.piadd(rebuilt, matrices[k], c)
            if rebuilt != comm:
                raise AssertionError("commutator escaped the basis span")
            if row:
                struct[(i, j)] = row
                struct[(j, i)] = {k: -c for k, c in row.items()}

    # weight consistency: [h_i, X_b] = <b, a_i^vee> X_b
    for i in range(rs.rank):
        for j in range(dim):
            got = struct.get((i, j), {})
            expect = rs.pairing(weights[j], i) if any(weights[j]) else 0
            want = {j: Fraction(expect)} if expect else {}
            if got != want:
                raise AssertionError("coroot action disagrees with root pairing")

    ads = [_ad_matrix(struct, i) for i in range(dim)]
    killing = [[linalg.mat_trace_product(ads[i], ads[j]) for j in range(dim)] for i in range(dim)]
    killing_inv = linalg.invert_dense(killing)
    if killing_inv is None:
        raise SingularKillingError("Killing form is singular")

    return LieAlgebra(rs, names, weights, struct, killing, killing_inv, matrices, msize)


def _ad_matrix(struct, i):
    """Matrix of ad(b_i): entry (k, j) is the b_k coefficient of [b_i, b_j]."""
    out = {}
    for (a, b), row in struct.items():
        if a == i:
            for k, c in row.items():
                out[(k, b)] = c
    return out


# three multivec.MultiTensor values
CanonicalTensors = namedtuple("CanonicalTensors", "t r_sd phi")


def canonical_tensors(L):
    """Invariant 2-tensor, standard r-matrix and its Schouten square.

    ``t`` is the inverse Killing tensor, stored plain with both orders
    ``(i, j)`` and ``(j, i)`` of each entry; ``r_sd`` sums ``X_b ^ X_-b``
    over the positive roots with the lowering vectors rescaled so that the
    Killing pairing of each pair is 1; ``phi = [[r_sd, r_sd]]``.
    """
    if ("canonical tensors",) in L.memo:
        return L.memo[("canonical tensors",)]
    if L.killing_inv is None:
        raise SingularKillingError("Killing form is singular")
    t_terms = {(i, j): v for i, row in enumerate(L.killing_inv) for j, v in enumerate(row)}
    t = multivec.MultiTensor(L, 2, t_terms, "plain")

    r_terms = {}
    for beta in L.positive_roots:
        ip = L.pos_index(beta)
        ineg = L.neg_index(beta)
        norm = L.killing[ip][ineg]
        if not norm:
            raise AssertionError("raising/lowering pair does not pair under Killing")
        key = (ip, ineg) if ip < ineg else (ineg, ip)
        sign = ONE if ip < ineg else -ONE
        r_terms[key] = sign / norm
    r_sd = multivec.MultiTensor(L, 2, r_terms, "alternating")

    phi = multivec.algebraic_schouten(r_sd, r_sd)
    result = CanonicalTensors(t=t, r_sd=r_sd, phi=phi)
    L.memo[("canonical tensors",)] = result
    return result


_ALGEBRA_CACHE = {}


def algebra(series, rank):
    """Cached classical algebra for a (series, rank) pair."""
    key = (series, rank)
    if key not in _ALGEBRA_CACHE:
        rs = rootsys.build_root_system(series, rank)
        _ALGEBRA_CACHE[key] = realize_classical(rs)
    return _ALGEBRA_CACHE[key]
