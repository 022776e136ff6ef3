"""Exact rational linear algebra on small dense and sparse-row systems.

Everything here works over ``Fraction`` and is deterministic: pivots are
chosen by fixed rules, never by magnitude.  The elimination itself runs
on ``int`` rows and turns its result into ``Fraction``s once.
"""

import math
from fractions import Fraction

from . import termops

ZERO = Fraction(0)
ONE = Fraction(1)


def _int_row(row):
    """A sparse ``Fraction`` (or ``int``) row scaled by the lcm of its denominators."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _cross(row, a, piv, b):
    """``row = a*row - b*piv`` in place, then ``row`` over its content."""
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in piv.items():
        w = row.get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]
    g = math.gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _pivot_rows(rows):
    """Fraction-free Gaussian elimination of sparse rows (column -> value dicts).

    Each row is scaled to ``int`` entries.  Rows are taken sparsest first,
    for fill-in control; a row is reduced by cross-multiplying with the
    pivot rows, and each pivot is the least column of a reduced row.  After
    each reduction and back-substitution a row is divided by its content
    (the gcd of its entries), so the ints stay small.  Returns ``{pivot
    column: int row}``, every row 0 at the other pivots.
    """
    pivot_of = {}
    for row in sorted((_int_row(r) for r in rows if r), key=lambda r: (len(r), min(r))):
        # a pivot row is 0 at every other pivot, so one pass reduces
        for c in [c for c in row if c in pivot_of]:
            piv = pivot_of[c]
            g = math.gcd(row[c], piv[c])
            _cross(row, piv[c] // g, piv, row[c] // g)
        if not row:
            continue
        c0 = min(row)
        for piv in pivot_of.values():
            f = piv.get(c0)
            if f:
                g = math.gcd(f, row[c0])
                _cross(piv, row[c0] // g, row, f // g)
        pivot_of[c0] = row
    return pivot_of


def _eliminate(rows):
    """Reduced row echelon form of sparse rows (column -> value dicts).

    Returns ``{pivot column: row}``, every row 1 at its pivot and 0 at the
    other pivots, which the row space fixes.  The elimination runs on
    ``int`` rows (``_pivot_rows``); each row becomes ``Fraction`` once, here.
    """
    return {
        c0: {c: Fraction(v, row[c0]) for c, v in row.items()}
        for c0, row in _pivot_rows(rows).items()
    }


def rank(rows):
    """Rank of sparse rows (column -> nonzero value dicts) with comparable columns."""
    return len(_pivot_rows(rows))


def _sparse_rows(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _kernel_basis(pivot_of, ncols):
    """Right-kernel basis of an eliminated system, one vector per free column."""
    basis = []
    for fc in range(ncols):
        if fc in pivot_of:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, piv in pivot_of.items():
            coef = piv.get(fc)
            if coef:
                v[pc] = -coef
        basis.append(v)
    return basis


def rref(rows):
    """Reduced row echelon form of dense rows.

    Returns ``(reduced_rows, pivot_columns)``, pivots ascending.
    """
    ncols = len(rows[0]) if rows else 0
    pivot_of = _eliminate(_sparse_rows(rows))
    pivots = sorted(pivot_of)
    return [[pivot_of[p].get(c, ZERO) for c in range(ncols)] for p in pivots], pivots


def invert_dense(rows):
    """Inverse of a square rational matrix, or ``None`` when singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]


def nullspace_sparse(rows, ncols):
    """Basis of the right kernel of sparse rows (column -> value dicts).

    Suited to the invariance constraint systems, which are very sparse.
    Returns dense basis vectors.
    """
    return _kernel_basis(_eliminate(rows), ncols)


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
