import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import qpverify.termops as termops
from qpverify import liealg, polyfield

F = Fraction

SL2 = liealg.algebra("A", 1)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def rand_poly(rng, nvars=4, nterms=4, maxdeg=3):
    out = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randrange(nvars)] += 1
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            key = tuple(e)
            out[key] = out.get(key, F(0)) + c
    return {k: v for k, v in out.items() if v}


def rand_terms(rng, nvars=4, degree=2, nterms=4):
    out = {}
    ders = list(itertools.combinations(range(nvars), degree))
    for _ in range(nterms):
        d = rng.choice(ders)
        for e, c in rand_poly(rng, nvars, 2, 2).items():
            termops.siadd(out, (e, d), c)
    return out


def test_backend_selection():
    assert termops.BACKEND == "pure"
    assert termops.backends() == {"pure": termops.pure}


def test_exports_every_name_perfbench_reads():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = [attr for module, attr, _, _ in tracer.TRACED if module == "qpverify.termops"]
    assert len(traced) == 9
    # every traced name, including Class.method forms, resolves to a callable
    for module, attr, _, _ in tracer.TRACED:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{module}.{attr}"
    # the probe in perfbench/run.py records these two
    assert isinstance(termops.BACKEND, str)
    assert callable(termops.backends)


def test_merge_ders():
    assert termops.merge_ders((0, 2), (1,)) == (-1, (0, 1, 2))
    assert termops.merge_ders((), (3, 5)) == (1, (3, 5))
    assert termops.merge_ders((1,), (1,)) == (0, None)
    assert termops.merge_ders((0, 1), (2, 3)) == (1, (0, 1, 2, 3))
    assert termops.merge_ders((2, 3), (0, 1)) == (1, (0, 1, 2, 3))
    assert termops.merge_ders((1,), (0,)) == (-1, (0, 1))


def test_poly_basics():
    a = {(1, 0): F(2)}
    b = {(0, 1): F(3), (1, 0): F(-2)}
    assert termops.padd(a, b) == {(0, 1): F(3)}
    assert termops.pscale(b, F(0)) == {}
    assert termops.pmul(a, b) == {(1, 1): F(6), (2, 0): F(-4)}
    assert termops.pmul(a, b, maxdeg=1) == {}
    assert termops.pderive({(2, 1): F(1)}, 0) == {(1, 1): F(2)}
    assert termops.ptruncate({(2, 1): F(1), (1, 0): F(2)}, 1) == {(1, 0): F(2)}
    assert termops.unit_exp(4, 2) == (0, 0, 1, 0)


def test_piadd_cancels():
    acc = {(1,): F(1)}
    termops.piadd(acc, {(1,): F(1)}, F(-1))
    assert acc == {}


# ---------------------------------------------------------------------------
# random inputs for the kernel laws

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

NVARS = 3  # the coordinate count of sl(2), so fields can carry a real algebra
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
exponents = st.tuples(*[st.integers(0, 2)] * NVARS)


# ---------------------------------------------------------------------------
# the zero-free sparse combination kernels, on every key shape the package
# uses: basis indices, index tuples and words, (row, col) matrix entries
# and (exponents, derivations) polyvector terms

small = st.integers(0, 2)
sparse_keys = st.one_of(
    small,
    st.tuples(small, small, small),
    st.tuples(small, small),
    st.tuples(exponents, st.sampled_from([(), (0,), (0, 2)])),
)
combos = st.dictionaries(sparse_keys, coeffs, max_size=6)
scalars = st.one_of(st.sampled_from([0, 1, -1, F(0), F(1), F(-1)]), coeffs)


def dense_sum(*scaled):
    """Reference ``sum c*d`` over ``(c, d)`` pairs, key by key over the union."""
    keys = set().union(*(d for _, d in scaled))
    total = {k: sum((c * d.get(k, 0) for c, d in scaled), F(0)) for k in keys}
    return {k: v for k, v in total.items() if v}


def zero_free(d):
    return all(type(v) is Fraction and v for v in d.values())


@LAWS
@given(combos, st.lists(st.tuples(sparse_keys, scalars), max_size=8))
def test_siadd_is_the_dense_sum(acc, updates):
    expected = dense_sum((1, acc), *((c, {k: F(1)}) for k, c in updates))
    for k, c in updates:
        termops.siadd(acc, k, F(c))
    assert acc == expected and zero_free(acc)


@LAWS
@given(combos, combos, scalars)
def test_piadd_is_the_dense_sum(acc, b, c):
    before = dict(b)
    expected = dense_sum((1, acc), (c, b))
    termops.piadd(acc, b, c)
    assert acc == expected and zero_free(acc)
    assert b == before


@LAWS
@given(combos, combos, scalars)
def test_padd_is_the_dense_sum(a, b, c):
    a_before, b_before = dict(a), dict(b)
    out = termops.padd(a, b, c)
    assert out == dense_sum((1, a), (c, b)) and zero_free(out)
    assert termops.padd(a, b) == dense_sum((1, a), (1, b))
    assert termops.padd(a, a, -1) == {}
    assert (a, b) == (a_before, b_before)


@LAWS
@given(combos, scalars)
def test_pscale_is_the_dense_sum(a, c):
    before = dict(a)
    out = termops.pscale(a, c)
    assert out == dense_sum((c, a)) and zero_free(out)
    assert out is not a and a == before


# ---------------------------------------------------------------------------
# algebraic laws of the bracket kernels on random inputs

polys = st.dictionaries(exponents, coeffs, max_size=4)
ascending_pairs = st.sampled_from(list(itertools.combinations(range(NVARS), 2)))
bivectors = st.dictionaries(st.tuples(exponents, ascending_pairs), coeffs, max_size=4)
ordered_pairs = st.tuples(st.integers(0, NVARS - 1), st.integers(0, NVARS - 1))
tables = st.dictionaries(ordered_pairs, polys.filter(bool), max_size=5)
degrees = st.integers(0, 5)


def neg(p):
    return termops.pscale(p, F(-1))


@LAWS
@given(bivectors, polys, polys)
def test_bivector_eval_is_the_two_by_two_determinant(biv, f, g):
    assert termops.bivector_eval(biv, f, g) == termops.kveval(biv, [f, g])


@LAWS
@given(bivectors, tables, polys, polys, degrees)
def test_maxdeg_is_truncation_of_the_full_bracket(biv, table, f, g, m):
    assert termops.bivector_eval(biv, f, g, m) == termops.ptruncate(
        termops.bivector_eval(biv, f, g), m
    )
    assert termops.table_bracket(table, f, g, m) == termops.ptruncate(
        termops.table_bracket(table, f, g), m
    )
    assert termops.pmul(f, g, m) == termops.ptruncate(termops.pmul(f, g), m)


@LAWS
@given(tables, polys, polys, polys)
def test_table_bracket_leibniz_rule(table, p, q, r):
    def br(a, b):
        return termops.table_bracket(table, a, b)

    left = termops.padd(termops.pmul(p, br(q, r)), termops.pmul(q, br(p, r)))
    assert br(termops.pmul(p, q), r) == left
    right = termops.padd(termops.pmul(br(r, p), q), termops.pmul(br(r, q), p))
    assert br(r, termops.pmul(p, q)) == right


@LAWS
@given(tables, polys, polys)
def test_antisymmetric_table_gives_antisymmetric_bracket(half, f, g):
    table = {}
    for (u, v), val in half.items():
        if u < v:
            table[(u, v)] = val
            table[(v, u)] = neg(val)
    assert termops.table_bracket(table, f, g) == neg(termops.table_bracket(table, g, f))


@LAWS
@given(bivectors, polys, polys, degrees)
def test_field_bracket_matches_bivector_eval(biv, f, g, m):
    field = polyfield.PolyVectorField(SL2, 2, biv)
    # the second and third calls reuse the table built by the first
    assert field.bracket(f, g) == termops.bivector_eval(biv, f, g)
    assert field.bracket(g, f) == termops.bivector_eval(biv, g, f)
    assert field.bracket(f, g, m) == termops.bivector_eval(biv, f, g, m)


def multivectors(k):
    ders = st.sampled_from(list(itertools.combinations(range(NVARS), k)))
    return st.dictionaries(st.tuples(exponents, ders), coeffs, max_size=3)


# (degree, term dict) with the degree from 0 (functions) to NVARS
graded = st.integers(0, NVARS).flatmap(lambda k: st.tuples(st.just(k), multivectors(k)))


def koszul(p, q):
    return F(-1) if (p - 1) * (q - 1) & 1 else F(1)


@LAWS
@given(graded, graded)
def test_sn_bracket_graded_antisymmetry(a, b):
    (p, ta), (q, tb) = a, b
    # [[A, B]] = -(-1)^((p-1)(q-1)) [[B, A]]
    swapped = termops.sn_bracket(tb, q, ta, p)
    assert termops.sn_bracket(ta, p, tb, q) == termops.pscale(swapped, -koszul(p, q))


@LAWS
@given(graded, graded, graded)
def test_sn_bracket_graded_jacobi_identity(a, b, c):
    def br(x, y):
        (p, tx), (q, ty) = x, y
        return p + q - 1, termops.sn_bracket(tx, p, ty, q)

    # sum over cyclic (A, B, C) of (-1)^((a-1)(c-1)) [[A, [[B, C]]]] vanishes
    total = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        _, term = br(x, br(y, z))
        total = termops.padd(total, term, koszul(x[0], z[0]))
    assert total == {}


def test_smul_anticommutes_on_odd_degrees():
    rng = random.Random(17)
    for _ in range(10):
        a, b = rand_terms(rng, degree=1), rand_terms(rng, degree=1)
        ab = termops.smul(a, b)
        ba = termops.smul(b, a)
        assert ab == termops.pscale(ba, F(-1))
        assert termops.smul(a, a) == {}


# no cap (-1) or a cap from 0 to 5
caps = st.one_of(st.just(-1), degrees)
images = st.dictionaries(st.integers(0, NVARS - 1), polys.filter(bool), max_size=NVARS)


@LAWS
@given(images, polys, caps)
def test_apply_derivation_is_the_sum_of_partials_times_images(imgs, p, m):
    reference = {}
    for v, img in imgs.items():
        reference = termops.padd(reference, termops.pmul(termops.pderive(p, v), img))
    if m >= 0:
        reference = termops.ptruncate(reference, m)
    assert termops.apply_derivation(imgs, p, m) == reference


@LAWS
@given(bivectors, polys, polys, caps)
def test_hamiltonian_row_reproduces_the_bracket(biv, p, q, m):
    # the table of a bivector term dict is antisymmetric; coefficients
    # carry denominators 1 to 4
    field = polyfield.PolyVectorField(SL2, 2, biv)
    row = field.hamiltonian(p, m)
    assert all(row.values())
    assert termops.apply_derivation(row, q, m) == field.bracket(p, q, m)
