import random
from fractions import Fraction

import pytest

from qpverify import linalg, termops

F = Fraction


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
    rng = random.Random(31)
    for _ in range(30):
        rows_n = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        dense = rand_matrix(rng, rows_n, cols)
        sparse = [
            {i: v for i, v in enumerate(r) if v}
            for r in dense
        ]
        basis_d = linalg.nullspace_dense(dense, cols)
        basis_s = linalg.nullspace_sparse([r for r in sparse if r], cols)
        assert len(basis_d) == len(basis_s)
        for v in basis_d + basis_s:
            assert all(x == 0 for x in mat_vec(dense, v))
        # spans agree: stack both and check rank equals the common dimension
        if basis_d:
            _, pivots = linalg.rref(basis_d + basis_s)
            assert len(pivots) == len(basis_d)


def test_solve_dense():
    rows = [[F(2), F(0)], [F(0), F(3)], [F(2), F(3)]]
    assert linalg.solve_dense(rows, [F(4), F(9), F(13)]) == [F(2), F(3)]
    assert linalg.solve_dense(rows, [F(4), F(9), F(1)]) is None


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
    basis = linalg.RowBasis(rows)
    assert basis.decompose([F(2), F(3), F(5)]) == [F(2), F(3)]
    assert basis.decompose([F(0), F(0), F(1)]) is None
    with pytest.raises(ValueError):
        linalg.RowBasis([[F(1), F(1)], [F(2), F(2)]])


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
    assert linalg.mat_equal(a, dict(a))
    assert not linalg.mat_equal(a, b)


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
