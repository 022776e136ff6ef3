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

from dataclasses import dataclass
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


def _root_coords(euclid, simple_euclid):
    """Express a Euclidean root over the simple roots (exact, integral)."""
    rows = [[simple_euclid[j][c] for j in range(len(simple_euclid))] for c in range(len(euclid))]
    sol = linalg.solve_dense(rows, euclid)
    if sol is None:
        raise AssertionError("root outside the simple-root lattice")
    out = []
    for x in sol:
        if x.denominator != 1:
            raise AssertionError("non-integral root coordinate")
        out.append(int(x))
    return tuple(out)


def _classical_matrices(series, rank):
    """Cartan coroot matrices and a matrix for every root.

    Returns ``(msize, coroots, root_mats)`` with ``root_mats`` keyed by
    the root in simple-root coordinates.
    """
    simple_euclid, _ = _euclid_simple_roots(series, rank)
    n = rank

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
                euclid = [ONE if c == i else (-ONE if c == j else Fraction(0)) for c in range(m)]
                root_mats[_root_coords(euclid, simple_euclid)] = unit(i, j)
        return m, coroots, root_mats

    if series in ("B", "D"):
        m = 2 * n + 1 if series == "B" else 2 * n

        def bar(k):
            return m - 1 - k

        def diag(i):
            return termops.padd(unit(i, i), unit(bar(i), bar(i)), -ONE)

        coroots = [termops.padd(diag(i), diag(i + 1), -ONE) for i in range(n - 1)]
        if series == "B":
            coroots.append(termops.pscale(diag(n - 1), Fraction(2)))
        else:
            coroots.append(termops.padd(diag(n - 2), diag(n - 1)))

        def ecoord(*pairs):
            v = [Fraction(0)] * n
            for idx, val in pairs:
                v[idx] += val
            return v

        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                root_mats[_root_coords(ecoord((i, ONE), (j, -ONE)), simple_euclid)] = (
                    termops.padd(unit(i, j), unit(bar(j), bar(i)), -ONE)
                )
        for i in range(n):
            for j in range(i + 1, n):
                root_mats[_root_coords(ecoord((i, ONE), (j, ONE)), simple_euclid)] = (
                    termops.padd(unit(i, bar(j)), unit(j, bar(i)), -ONE)
                )
                root_mats[_root_coords(ecoord((i, -ONE), (j, -ONE)), simple_euclid)] = (
                    termops.padd(unit(bar(j), i), unit(bar(i), j), -ONE)
                )
        if series == "B":
            mid = n
            for i in range(n):
                root_mats[_root_coords(ecoord((i, ONE)), simple_euclid)] = (
                    termops.padd(unit(i, mid), unit(mid, bar(i)), -ONE)
                )
                root_mats[_root_coords(ecoord((i, -ONE)), simple_euclid)] = (
                    termops.padd(unit(mid, i), unit(bar(i), mid), -ONE)
                )
        return m, coroots, root_mats

    if series == "C":
        m = 2 * n

        def bar(k):
            return m - 1 - k

        def diag(i):
            return termops.padd(unit(i, i), unit(bar(i), bar(i)), -ONE)

        coroots = [termops.padd(diag(i), diag(i + 1), -ONE) for i in range(n - 1)]
        coroots.append(diag(n - 1))

        def ecoord(*pairs):
            v = [Fraction(0)] * n
            for idx, val in pairs:
                v[idx] += val
            return v

        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                root_mats[_root_coords(ecoord((i, ONE), (j, -ONE)), simple_euclid)] = (
                    termops.padd(unit(i, j), unit(bar(j), bar(i)), -ONE)
                )
        for i in range(n):
            for j in range(i + 1, n):
                root_mats[_root_coords(ecoord((i, ONE), (j, ONE)), simple_euclid)] = (
                    termops.padd(unit(i, bar(j)), unit(j, bar(i)))
                )
                root_mats[_root_coords(ecoord((i, -ONE), (j, -ONE)), simple_euclid)] = (
                    termops.padd(unit(bar(j), i), unit(bar(i), j))
                )
        for i in range(n):
            root_mats[_root_coords(ecoord((i, Fraction(2))), simple_euclid)] = unit(i, bar(i))
            root_mats[_root_coords(ecoord((i, Fraction(-2))), simple_euclid)] = unit(bar(i), i)
        return m, coroots, root_mats

    raise UnsupportedTypeError(f"no matrix realization for series {series}")


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

    def bracket_elems(self, u, v):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                row = self.struct.get((i, j))
                if row:
                    termops.piadd(out, row, ci * cj)
        return out

    def ad_matrix(self, i):
        out = {}
        for (a, b), row in self.struct.items():
            if a == i:
                for k, c in row.items():
                    out[(k, b)] = c
        return out

    def weight_of_key(self, key):
        """Total weight of a basis-index tuple, in simple-root coordinates."""
        w = [0] * self.rank
        for i in key:
            for j, x in enumerate(self.weights[i]):
                w[j] += x
        return tuple(w)

    def __repr__(self):
        return f"LieAlgebra({self.root_system}, dim={self.dim})"


def realize_classical(rs):
    """Matrix realization of a classical root system (types A, B, C, D)."""
    if rs.series not in ("A", "B", "C", "D"):
        raise UnsupportedTypeError(
            f"series {rs.series} has no matrix realization here; only root data"
        )
    msize, coroots, root_mats = _classical_matrices(rs.series, rs.rank)

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

    dim = len(matrices)
    flat = [
        [m.get((r, c), Fraction(0)) for r in range(msize) for c in range(msize)]
        for m in matrices
    ]
    basis = linalg.RowBasis(flat)

    struct = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = linalg.mat_commutator(matrices[i], matrices[j])
            vec = [comm.get((r, c), Fraction(0)) for r in range(msize) for c in range(msize)]
            coeffs = basis.decompose(vec)
            if coeffs is None:
                raise AssertionError("commutator escaped the basis span")
            row = {k: c for k, c in enumerate(coeffs) if c}
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

    killing = _killing_from_struct(struct, dim)
    killing_inv = linalg.invert_dense(killing)
    if killing_inv is None:
        raise SingularKillingError("Killing form is singular")

    return LieAlgebra(rs, names, weights, struct, killing, killing_inv, matrices, msize)


def _killing_from_struct(struct, dim):
    ads = []
    for i in range(dim):
        m = {}
        for (a, b), row in struct.items():
            if a == i:
                for k, c in row.items():
                    m[(k, b)] = c
        ads.append(m)
    return [
        [linalg.mat_trace_product(ads[i], ads[j]) for j in range(dim)]
        for i in range(dim)
    ]


def killing_form(L):
    """Killing form recomputed from structure constants.

    Raises if the cached copy on the algebra disagrees.
    """
    fresh = _killing_from_struct(L.struct, L.dim)
    if fresh != L.killing:
        raise AssertionError("cached Killing form is stale")
    return fresh


@dataclass(frozen=True)
class CanonicalTensors:
    t: multivec.MultiTensor
    r_sd: multivec.MultiTensor
    phi: multivec.MultiTensor


def canonical_tensors(L):
    """Invariant 2-tensor, standard r-matrix and its Schouten square.

    ``t`` is the inverse Killing tensor; ``r_sd`` sums ``X_b ^ X_-b`` over
    the positive roots with the lowering vectors rescaled so that the
    Killing pairing of each pair is 1; ``phi = [[r_sd, r_sd]]``.
    """
    cached = getattr(L, "_canonical_cache", None)
    if cached is not None:
        return cached
    if L.killing_inv is None:
        raise SingularKillingError("Killing form is singular")
    t_terms = {}
    for i in range(L.dim):
        for j in range(i, L.dim):
            v = L.killing_inv[i][j]
            if v:
                t_terms[(i, j)] = v
    t = multivec.MultiTensor(L, 2, t_terms, "symmetric")

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
    L._canonical_cache = result
    return result


_ALGEBRA_CACHE = {}


def algebra(series, rank):
    """Cached classical algebra for a (series, rank) pair."""
    key = (series, rank)
    if key not in _ALGEBRA_CACHE:
        rs = rootsys.build_root_system(series, rank)
        _ALGEBRA_CACHE[key] = realize_classical(rs)
    return _ALGEBRA_CACHE[key]
