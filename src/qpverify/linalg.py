"""Exact rational linear algebra on small dense and sparse-row systems.

Everything here works over ``Fraction`` and is deterministic: pivots are
chosen by fixed rules, never by magnitude.
"""

from fractions import Fraction

from . import termops

ZERO = Fraction(0)
ONE = Fraction(1)


def identity_rows(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form (in place on a copy).

    Returns ``(reduced_rows, pivot_columns)``.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace_dense(rows, ncols):
    """Basis of the right kernel of a dense row list."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_dense(rows, rhs):
    """One exact solution of ``rows * x = rhs`` or ``None``.

    ``rows`` is a list of coefficient rows, ``rhs`` the target column.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    n = len(rows[0]) if rows else 0
    if n in pivots:
        return None
    x = [ZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def invert_dense(rows):
    """Inverse of a square rational matrix, or ``None`` when singular."""
    n = len(rows)
    aug = [list(r) + ident for r, ident in zip(rows, identity_rows(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]


def nullspace_sparse(rows, ncols):
    """Basis of the right kernel of sparse rows (column -> value dicts).

    Gaussian elimination with pivots chosen by (row sparsity, column
    index); suited to the invariance constraint systems, which are very
    sparse.  Returns dense basis vectors.
    """
    work = [dict(r) for r in rows if r]
    pivot_of = {}  # column -> eliminated row (dict, normalized)
    # Eliminate rows one at a time, sparsest first for fill-in control.
    work.sort(key=lambda r: (len(r), min(r)))
    queue = list(work)
    while queue:
        row = queue.pop(0)
        # reduce against existing pivots
        changed = True
        while changed:
            changed = False
            for c in sorted(row):
                piv = pivot_of.get(c)
                if piv is not None:
                    termops.piadd(row, piv, -row[c])
                    changed = True
                    break
        if not row:
            continue
        c0 = min(row)
        inv = ONE / row[c0]
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into previous pivots
        for pc, piv in pivot_of.items():
            f = piv.get(c0)
            if f:
                termops.piadd(piv, row, -f)
        pivot_of[c0] = row
    free = [c for c in range(ncols) if c not in pivot_of]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, piv in pivot_of.items():
            coef = piv.get(fc)
            if coef:
                v[pc] = -coef
        basis.append(v)
    return basis


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


# ---------------------------------------------------------------------------
# sparse matrices over the rationals, stored as (row, col) -> value


def mat_identity(n):
    return {(i, i): ONE for i in range(n)}


def mat_mul(a, b):
    by_row = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), va in a.items():
        for c, vb in by_row.get(k, ()):
            termops.siadd(out, (r, c), va * vb)
    return out


def mat_commutator(a, b):
    return termops.padd(mat_mul(a, b), mat_mul(b, a), -ONE)


def mat_trace_product(a, b):
    """trace(a @ b) without forming the product."""
    tot = ZERO
    for (r, c), v in a.items():
        w = b.get((c, r))
        if w:
            tot += v * w
    return tot


def mat_kron(a, b, bdim):
    """Kronecker product; ``bdim`` is the square dimension of ``b``."""
    out = {}
    for (r1, c1), v1 in a.items():
        for (r2, c2), v2 in b.items():
            out[(r1 * bdim + r2, c1 * bdim + c2)] = v1 * v2
    return out


def mat_kron_many(mats, dims):
    """Kronecker product of several square sparse matrices."""
    acc = mats[0]
    for m, d in zip(mats[1:], dims[1:]):
        acc = mat_kron(acc, m, d)
    return acc
