import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RowBasis, eliminate_fractions
from qpverify import linalg, termops

F = Fraction

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def rand_matrix(rng, rows, cols, density=0.4):
    return [
        [
            F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else F(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def mat_vec(rows, v):
    return [sum(r[i] * v[i] for i in range(len(v))) for r in rows]


def test_rref_known_case():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert len(red) == 2


def test_nullspace_dense_and_sparse_agree():
    # the sparse kernel has the dimension the dense echelon form predicts
    rng = random.Random(31)
    for _ in range(30):
        rows_n = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        dense = rand_matrix(rng, rows_n, cols)
        sparse = [
            {i: v for i, v in enumerate(r) if v}
            for r in dense
        ]
        _, pivots = linalg.rref(dense)
        basis_s = linalg.nullspace_sparse([r for r in sparse if r], cols)
        assert len(basis_s) == cols - len(pivots)
        for v in basis_s:
            assert all(x == 0 for x in mat_vec(dense, v))
        # the kernel vectors are independent
        if basis_s:
            _, kernel_pivots = linalg.rref(basis_s)
            assert len(kernel_pivots) == len(basis_s)


def test_invert_dense():
    rng = random.Random(5)
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.invert_dense(m)
    prod = [
        [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[F(1), F(0)], [F(0), F(1)]]
    assert linalg.invert_dense([[F(1), F(2)], [F(2), F(4)]]) is None


def test_row_basis_decompose():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    basis = RowBasis(rows)
    assert basis.decompose([F(2), F(3), F(5)]) == [F(2), F(3)]
    assert basis.decompose([F(0), F(0), F(1)]) is None
    with pytest.raises(ValueError):
        RowBasis([[F(1), F(1)], [F(2), F(2)]])


def test_sparse_matrix_ops():
    a = {(0, 1): F(2), (1, 0): F(1)}
    b = {(0, 0): F(1), (1, 1): F(3)}
    assert linalg.mat_mul(a, b) == {(0, 1): F(6), (1, 0): F(1)}
    comm = linalg.mat_commutator(a, b)
    assert termops.padd(comm, linalg.mat_commutator(b, a)) == {}
    assert linalg.mat_trace_product(a, a) == F(4)  # tr of [[2x],[x0]]^2 pattern
    ident = linalg.mat_identity(2)
    kron = linalg.mat_kron(ident, b, 2)
    assert kron == {(0, 0): F(1), (1, 1): F(3), (2, 2): F(1), (3, 3): F(3)}
    assert linalg.mat_kron_many([ident, ident], [2, 2]) == linalg.mat_identity(4)


def test_trace_product_matches_full_product():
    rng = random.Random(7)
    for _ in range(10):
        a = {
            (rng.randrange(3), rng.randrange(3)): F(rng.randint(-3, 3))
            for _ in range(4)
        }
        b = {
            (rng.randrange(3), rng.randrange(3)): F(rng.randint(-3, 3))
            for _ in range(4)
        }
        a = {k: v for k, v in a.items() if v}
        b = {k: v for k, v in b.items() if v}
        prod = linalg.mat_mul(a, b)
        assert linalg.mat_trace_product(a, b) == sum(
            (v for (r, c), v in prod.items() if r == c), F(0)
        )


# ---------------------------------------------------------------------------
# the fraction-free elimination against its Fraction reference

entries = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)
int_columns = st.integers(0, 7)
# (r, c) columns, as in the sparse matrices that the faithfulness guard ranks
pair_columns = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def row_systems(draw, columns=int_columns):
    """Sparse rows, some empty, with repeated, negated and dependent rows added."""
    rows = draw(st.lists(st.dictionaries(columns, entries, max_size=5), max_size=6))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["repeat", "negate", "combine"]))
        if kind == "repeat":
            rows.append(dict(u))
        elif kind == "negate":
            # a negative leading entry
            rows.append(termops.pscale(u, -abs(draw(entries))))
        else:
            rows.append(termops.padd(termops.pscale(u, draw(entries)), v, draw(entries)))
    return rows


@LAWS
@given(row_systems())
def test_eliminate_is_the_fraction_elimination(rows):
    before = [dict(r) for r in rows]
    reduced = linalg._eliminate(rows)
    assert reduced == eliminate_fractions(rows)
    assert all(type(v) is Fraction for row in reduced.values() for v in row.values())
    assert rows == before


@LAWS
@given(st.one_of(row_systems(), row_systems(pair_columns)))
def test_rank_counts_the_fraction_pivots(rows):
    before = [dict(r) for r in rows]
    assert linalg.rank(rows) == len(eliminate_fractions(rows))
    assert rows == before
