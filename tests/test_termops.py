import functools
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qpverify.termops as termops
from qpverify import grouppois, liealg, multivec, polyfield

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
    assert termops.backends() == {"pure": termops}


def test_exports_every_name_perfbench_reads():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = [attr for module, attr, _, _ in tracer.TRACED if module == "qpverify.termops"]
    assert len(traced) == 9
    # each is defined in the module itself, not re-exported from another
    assert {getattr(termops, attr).__module__ for attr in traced} == {"qpverify.termops"}
    # every traced name, including Class.method forms, resolves to a callable
    for module, attr, _, _ in tracer.TRACED:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{module}.{attr}"
    # the probe in perfbench/run.py records these two
    assert isinstance(termops.BACKEND, str)
    assert callable(termops.backends)


def test_kernel_calls_inside_the_module_go_through_its_attributes(monkeypatch):
    # a wrapper set on the module attribute sees the calls that other
    # kernels make, which is how the benchmark tracer counts them
    calls = []
    pderive = termops.pderive

    def counted(a, i):
        calls.append(i)
        return pderive(a, i)

    monkeypatch.setattr(termops, "pderive", counted)
    table = {(0, 1): {(0, 0): F(1)}}
    assert termops.table_bracket(table, {(1, 0): F(1)}, {(0, 1): F(1)}) == {(0, 0): F(1)}
    assert calls == [0, 1]


def test_merge_sign_matches_the_reference_on_all_subset_pairs():
    # every pair of derivation sets over six coordinates, as bitmasks
    # and through a one-term wedge product
    subsets = [d for k in range(7) for d in itertools.combinations(range(6), k)]
    zero = (0,) * 6
    for d1 in subsets:
        m1 = sum(1 << i for i in d1)
        for d2 in subsets:
            m2 = sum(1 << i for i in d2)
            sgn, merged = oracles.merge_ders(d1, d2)
            product = termops.smul({(zero, d1): F(1)}, {(zero, d2): F(1)})
            if not sgn:
                assert m1 & m2 and product == {}
                continue
            assert not m1 & m2
            assert termops._merge_sign(m1, m2) == sgn
            assert product == {(zero, merged): F(sgn)}


def test_poly_basics():
    a = {(1, 0): F(2)}
    b = {(0, 1): F(3), (1, 0): F(-2)}
    assert termops.padd(a, b) == {(0, 1): F(3)}
    assert termops.pscale(b, F(0)) == {}
    assert termops.pmul(a, b) == {(1, 1): F(6), (2, 0): F(-4)}
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
# the partial derivative

rational_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
    max_size=6,
)


def partial_reference(p, i):
    """Term by term, ``c * y^e`` goes to ``c * e_i * y^(e - unit_i)``."""
    out = {}
    for e, c in p.items():
        if e[i]:
            lowered = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            out[lowered] = out.get(lowered, F(0)) + c * e[i]
    return {k: v for k, v in out.items() if v}


@LAWS
@given(rational_polys, rational_polys, st.integers(0, NVARS - 1))
def test_pderive_lowers_one_exponent_and_obeys_leibniz(p, q, i):
    d = termops.pderive(p, i)
    assert d == partial_reference(p, i) and zero_free(d)
    leibniz = termops.padd(termops.pmul(d, q), termops.pmul(p, termops.pderive(q, i)))
    assert termops.pderive(termops.pmul(p, q), i) == leibniz


# ---------------------------------------------------------------------------
# algebraic laws of the bracket kernels on random inputs

polys = st.dictionaries(exponents, coeffs, max_size=4)
ascending_pairs = st.sampled_from(list(itertools.combinations(range(NVARS), 2)))
bivectors = st.dictionaries(st.tuples(exponents, ascending_pairs), coeffs, max_size=4)
ordered_pairs = st.tuples(st.integers(0, NVARS - 1), st.integers(0, NVARS - 1))
tables = st.dictionaries(ordered_pairs, polys.filter(bool), max_size=5)


def neg(p):
    return termops.pscale(p, F(-1))


@LAWS
@given(bivectors, polys, polys)
def test_bivector_eval_is_the_two_by_two_determinant(biv, f, g):
    assert termops.bivector_eval(biv, f, g) == termops.kveval(biv, [f, g])


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
@given(bivectors, polys, polys)
def test_field_bracket_matches_bivector_eval(biv, f, g):
    table = termops.bivector_table(biv)
    # the second call reuses the table built once
    assert termops.table_bracket(table, f, g) == termops.bivector_eval(biv, f, g)
    assert termops.table_bracket(table, g, f) == termops.bivector_eval(biv, g, f)


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
    swapped = termops.sn_bracket(tb, ta)
    assert termops.sn_bracket(ta, tb) == termops.pscale(swapped, -koszul(p, q))


@LAWS
@given(graded, graded, graded)
def test_sn_bracket_graded_jacobi_identity(a, b, c):
    def br(x, y):
        (p, tx), (q, ty) = x, y
        return p + q - 1, termops.sn_bracket(tx, ty)

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


# ---------------------------------------------------------------------------
# the packed polyvector kernels against the tuple-and-Fraction references
# of tests/oracles.py: rational coefficients with denominators up to 12,
# degrees 0 to 3, empty operands, and 16 coordinates (the entry ring of
# A3) so that high bit positions are used


def active(nvars):
    # on 16 coordinates, four spread-out indices, so that terms still meet
    return list(range(nvars)) if nvars <= 4 else [0, 7, 14, 15]


def sparse_exponents(nvars):
    # at most two nonzero exponents, mostly small; the large ones make
    # some products need 16-bit packed fields
    exponents = st.integers(1, 2) | st.sampled_from([15, 200, 300])
    return st.dictionaries(st.sampled_from(active(nvars)), exponents, max_size=2).map(
        lambda e: tuple(e.get(i, 0) for i in range(nvars))
    )


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)


def rational_multivectors(nvars, k):
    ders = st.sampled_from(list(itertools.combinations(active(nvars), k)))
    return st.dictionaries(st.tuples(sparse_exponents(nvars), ders), rationals, max_size=4)


def rational_graded(nvars):
    return st.integers(0, 3).flatmap(
        lambda k: st.tuples(st.just(k), rational_multivectors(nvars, k))
    )


packed_cases = st.sampled_from([NVARS, 16]).flatmap(
    lambda n: st.tuples(st.just(n), rational_graded(n), rational_graded(n))
)


@LAWS
@given(packed_cases)
def test_packed_sn_bracket_matches_the_reference(case):
    nvars, (p, a), (q, b) = case
    got = termops.sn_bracket(a, b)
    assert got == oracles.sn_bracket(a, p, b) and zero_free(got)
    # the square of an odd-degree multivector cancels to nothing
    if p & 1:
        assert termops.sn_bracket(a, a) == {}


@LAWS
@given(packed_cases)
def test_packed_smul_matches_the_reference(case):
    nvars, (_, a), (_, b) = case
    got = termops.smul(a, b)
    assert got == oracles.smul(a, b) and zero_free(got)
    assert termops.smul(a, {}) == termops.smul({}, b) == {}


def wedge_cases(nvars):
    # the coordinate images of four vector fields
    vector_fields = st.dictionaries(
        st.integers(0, 3),
        rational_multivectors(nvars, 1).map(oracles.images_of),
        min_size=4,
        max_size=4,
    )
    tensor_keys = st.integers(0, 3).flatmap(lambda k: st.tuples(*[st.integers(0, 3)] * k))
    tensors = st.dictionaries(tensor_keys, rationals, max_size=5)
    return st.tuples(st.just(nvars), vector_fields, tensors)


@LAWS
@given(st.sampled_from([NVARS, 16]).flatmap(wedge_cases))
def test_packed_wedge_push_matches_the_reference(case):
    nvars, fields, terms = case
    got = termops.wedge_push(terms, fields.__getitem__, nvars)
    assert got == oracles.wedge_push(terms, fields.__getitem__, nvars) and zero_free(got)
    # f0 ^ f1 + f1 ^ f0 cancels
    assert termops.wedge_push({(0, 1): F(1, 3), (1, 0): F(1, 3)}, fields.__getitem__, nvars) == {}


@pytest.mark.parametrize("top", [15, 2**8 - 1, 2**16 - 1, 2**32 - 1])
def test_packed_kernels_are_exact_across_field_widths(top):
    # exponents that fill a packed field, multiplied past it
    a = {((top, 1), (1,)): F(1, 7), ((0, top), (0,)): F(2)}
    b = {((1, top), (0,)): F(3), ((2, 0), (1,)): F(-1, 5)}
    assert termops.smul(a, b) == oracles.smul(a, b) != {}
    assert termops.sn_bracket(a, b) == oracles.sn_bracket(a, 1, b) != {}
    terms = {(0, 1): F(1, 2), (1, 1, 0): F(4)}
    fields = {0: oracles.images_of(a), 1: oracles.images_of(b)}.__getitem__
    assert termops.wedge_push(terms, fields, 2) == oracles.wedge_push(terms, fields, 2) != {}


def test_packed_exponents_past_64_bits_raise():
    # a bracket that only lowers the largest 64-bit exponent is exact
    top = {((2**64 - 1, 0), (1,)): F(1, 7)}  # y0^(2^64-1) d/dy1
    d0 = {((0, 0), (0,)): F(1)}
    assert termops.sn_bracket(top, d0) == {((2**64 - 2, 0), (1,)): F(1 - 2**64, 7)}
    y0 = {((1, 0), ()): F(1)}
    with pytest.raises(termops.ResourceLimitError):
        termops.smul(top, y0)
    with pytest.raises(termops.ResourceLimitError):
        termops.sn_bracket(top, {((1, 0), (0,)): F(1)})
    fields = {0: oracles.images_of(top), 1: {0: {(1, 0): F(1)}}}.__getitem__
    with pytest.raises(termops.ResourceLimitError):
        termops.wedge_push({(0, 1): F(1)}, fields, 2)


images = st.dictionaries(st.integers(0, NVARS - 1), polys.filter(bool), max_size=NVARS)


@LAWS
@given(images, polys)
def test_apply_derivation_is_the_sum_of_partials_times_images(imgs, p):
    reference = {}
    for v, img in imgs.items():
        reference = termops.padd(reference, termops.pmul(termops.pderive(p, v), img))
    assert termops.apply_derivation(imgs, p) == reference


@LAWS
@given(bivectors, polys, polys)
def test_hamiltonian_row_reproduces_the_bracket(biv, p, q):
    # the table of a bivector term dict is antisymmetric; coefficients
    # carry denominators 1 to 4
    table = termops.bivector_table(biv)
    row = termops.table_row(table, p)
    assert all(row.values())
    assert termops.apply_derivation(row, q) == termops.table_bracket(table, p, q)


def algebra_polys(L):
    exps = st.tuples(*[st.integers(0, 2)] * L.dim)
    return st.dictionaries(exps, coeffs, max_size=4)


# (algebra, basis element, polynomial) over A1 and A2
coadjoint_cases = st.sampled_from([SL2, liealg.algebra("A", 2)]).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(0, L.dim - 1), algebra_polys(L))
)


@LAWS
@given(coadjoint_cases)
def test_coadjoint_images_apply_as_the_reference_vector_field(case):
    L, x, p = case
    reference = termops.kveval(oracles.coadjoint_field(L, x), [p])
    assert termops.apply_derivation(polyfield.coadjoint_images(L, x), p) == reference


# the two actions of the package, as (image function, coordinate count)
ACTIONS = {
    "coadjoint": lambda L: (functools.partial(polyfield.coadjoint_images, L), L.dim),
    "conjugation": lambda L: (
        lambda x: grouppois._field_images(L, x, "conjugation"),
        L.msize * L.msize,
    ),
}


@st.composite
def alternating_tensors(draw):
    """An algebra over A1 or A2, a basis element and an alternating 2- or 3-tensor."""
    L = draw(st.sampled_from([SL2, liealg.algebra("A", 2)]))
    k = draw(st.integers(2, 3))
    keys = st.sampled_from(list(itertools.combinations(range(L.dim), k)))
    terms = draw(st.dictionaries(keys, rationals, min_size=1, max_size=4))
    x = draw(st.integers(0, L.dim - 1))
    return L, x, multivec.MultiTensor(L, k, terms, "alternating")


@pytest.mark.parametrize("action", list(ACTIONS))
@LAWS
@given(alternating_tensors())
def test_the_push_intertwines_the_lie_derivative_with_the_adjoint_action(action, case):
    # L_x (push psi) = push (x . psi), with the sign +1 for both actions
    L, x, psi = case
    images, n = ACTIONS[action](L)
    pushed = termops.wedge_push(psi.terms, images, n)
    moved = termops.wedge_push(multivec.ad_action(x, psi).terms, images, n)
    assert termops.lie_derivative(images(x), pushed) == moved
