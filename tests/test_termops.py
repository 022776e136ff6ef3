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
    hamiltonian_row, apply_row = termops.hamiltonian_row, termops.apply_row

    def counted_row(table, e, key):
        calls.append(("hamiltonian_row", e))
        return hamiltonian_row(table, e, key)

    def counted_apply(row, e, key, units):
        calls.append(("apply_row", e))
        return apply_row(row, e, key, units)

    monkeypatch.setattr(termops, "hamiltonian_row", counted_row)
    monkeypatch.setattr(termops, "apply_row", counted_apply)
    # {y_0, y_1} = 1, so {y_0^2, y_1} = 2 y_0
    field = termops.pack({((0, 0), (0, 1)): F(1)}, 2)
    assert termops.table_bracket(field, {(2, 0): F(1)}, {(0, 1): F(1)}) == {(1, 0): F(2)}
    assert calls == [("hamiltonian_row", (2, 0)), ("apply_row", (0, 1))]


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
            left, right = (termops.pack({(zero, d): F(1)}, 6) for d in (d1, d2))
            product = termops.unpack(termops.smul(left, right))
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


def neg(p):
    return termops.pscale(p, F(-1))


@LAWS
@given(bivectors, polys, polys)
def test_bivector_eval_is_the_two_by_two_determinant(biv, f, g):
    biv = termops.pack(biv, NVARS)
    assert termops.bivector_eval(biv, f, g) == termops.kveval(biv, [f, g])


@LAWS
@given(bivectors, polys, polys, polys)
def test_table_bracket_leibniz_rule(biv, p, q, r):
    field = termops.pack(biv, NVARS)

    def br(a, b):
        return termops.table_bracket(field, a, b)

    left = termops.padd(termops.pmul(p, br(q, r)), termops.pmul(q, br(p, r)))
    assert br(termops.pmul(p, q), r) == left
    right = termops.padd(termops.pmul(br(r, p), q), termops.pmul(br(r, q), p))
    assert br(r, termops.pmul(p, q)) == right


@LAWS
@given(bivectors, polys, polys)
def test_antisymmetric_table_gives_antisymmetric_bracket(biv, f, g):
    # the row table of a field holds T[u, v] and -T[u, v] at (v, u)
    field = termops.pack(biv, NVARS)
    assert termops.table_bracket(field, f, g) == neg(termops.table_bracket(field, g, f))


@LAWS
@given(bivectors, polys, polys)
def test_field_bracket_matches_bivector_eval(biv, f, g):
    biv = termops.pack(biv, NVARS)
    # the second call reuses the row table built once
    assert termops.table_bracket(biv, f, g) == termops.bivector_eval(biv, f, g)
    assert termops.table_bracket(biv, g, f) == termops.bivector_eval(biv, g, f)


@LAWS
@given(bivectors, polys, polys)
def test_table_bracket_matches_the_generator_table_reference(biv, f, g):
    field = termops.pack(biv, NVARS)
    value = termops.table_bracket(field, f, g)
    assert value == oracles.table_bracket(oracles.bivector_table(field), f, g)
    assert zero_free(value)


def test_table_bracket_refuses_a_value_past_the_packed_width():
    # y_0^200 times y_0^60 passes FIELD_TOP
    nvars = 32
    unit = termops.unit_exp(nvars, 0)
    field = termops.pack({(tuple(200 * x for x in unit), (0, 1)): F(1)}, nvars)
    y0 = {tuple(60 * x for x in unit): F(1)}
    y1 = {termops.unit_exp(nvars, 1): F(1)}
    with pytest.raises(termops.ResourceLimitError):
        termops.table_bracket(field, y0, y1)
    assert termops.table_bracket(field, {unit: F(1)}, y1) == {tuple(200 * x for x in unit): F(1)}


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
    ta, tb = termops.pack(ta, NVARS), termops.pack(tb, NVARS)
    # [[A, B]] = -(-1)^((p-1)(q-1)) [[B, A]]
    swapped = termops.sn_bracket(tb, ta)
    assert termops.sn_bracket(ta, tb) == termops.pscale(swapped, -koszul(p, q))


@LAWS
@given(graded, graded, graded)
def test_sn_bracket_graded_jacobi_identity(a, b, c):
    def br(x, y):
        (p, tx), (q, ty) = x, y
        return p + q - 1, termops.sn_bracket(tx, ty)

    a, b, c = ((k, termops.pack(t, NVARS)) for k, t in (a, b, c))
    # sum over cyclic (A, B, C) of (-1)^((a-1)(c-1)) [[A, [[B, C]]]] vanishes
    total = termops.pack({}, NVARS)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        _, term = br(x, br(y, z))
        total = termops.padd(total, term, koszul(x[0], z[0]))
    assert termops.unpack(total) == {}


def test_smul_anticommutes_on_odd_degrees():
    rng = random.Random(17)
    for _ in range(10):
        a, b = (termops.pack(rand_terms(rng, degree=1), 4) for _ in range(2))
        ab = termops.smul(a, b)
        ba = termops.smul(b, a)
        assert ab == termops.pscale(ba, F(-1))
        assert termops.unpack(termops.smul(a, a)) == {}


# ---------------------------------------------------------------------------
# the packed polyvector kernels against the tuple-and-Fraction references
# of tests/oracles.py: rational coefficients with denominators up to 12,
# degrees 0 to 3, empty operands, and 16 coordinates (the entry ring of
# A3) so that high bit positions are used


def active(nvars):
    # on 16 coordinates, four spread-out indices, so that terms still meet
    return list(range(nvars)) if nvars <= 4 else [0, 7, 14, 15]


def sparse_exponents(nvars):
    # at most two nonzero exponents, mostly small; the large ones sit at
    # and around half of FIELD_TOP and at it, so some products reach the
    # top exactly and some pass it and must raise
    exponents = st.integers(1, 2) | st.sampled_from([15, 127, 128, 255])
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


def within_the_top(bound, kernel, *args):
    """``kernel(*args)``, or ``None`` once it raises for a ``bound`` past ``FIELD_TOP``."""
    if bound > termops.FIELD_TOP:
        with pytest.raises(termops.ResourceLimitError):
            kernel(*args)
        return None
    return kernel(*args)


@LAWS
@given(packed_cases)
def test_packed_sn_bracket_matches_the_reference(case):
    nvars, (p, a), (q, b) = case
    pa, pb = termops.pack(a, nvars), termops.pack(b, nvars)
    bracket = within_the_top(oracles_top(a) + oracles_top(b), termops.sn_bracket, pa, pb)
    if bracket is not None:
        got = termops.unpack(bracket)
        assert got == oracles.sn_bracket(a, p, b) and zero_free(got)
    # the square of an odd-degree multivector cancels to nothing
    if p & 1:
        square = within_the_top(2 * oracles_top(a), termops.sn_bracket, pa, pa)
        assert square is None or termops.unpack(square) == {}


@LAWS
@given(packed_cases)
def test_packed_smul_matches_the_reference(case):
    nvars, (_, a), (_, b) = case
    pa, pb, empty = (termops.pack(t, nvars) for t in (a, b, {}))
    product = within_the_top(oracles_top(a) + oracles_top(b), termops.smul, pa, pb)
    if product is not None:
        got = termops.unpack(product)
        assert got == oracles.smul(a, b) and zero_free(got)
    assert termops.unpack(termops.smul(pa, empty)) == termops.unpack(termops.smul(empty, pb)) == {}


def wedge_cases(nvars):
    # four vector fields
    vector_fields = st.dictionaries(
        st.integers(0, 3), rational_multivectors(nvars, 1), min_size=4, max_size=4
    )
    tensor_keys = st.integers(0, 3).flatmap(lambda k: st.tuples(*[st.integers(0, 3)] * k))
    tensors = st.dictionaries(tensor_keys, rationals, max_size=5)
    return st.tuples(st.just(nvars), vector_fields, tensors)


@LAWS
@given(st.sampled_from([NVARS, 16]).flatmap(wedge_cases))
def test_packed_wedge_push_matches_the_reference(case):
    nvars, fields, terms = case
    packed = {i: termops.pack(f, nvars) for i, f in fields.items()}.__getitem__
    bound = max((sum(oracles_top(fields[i]) for i in key) for key in terms), default=0)
    pushed = within_the_top(bound, termops.wedge_push, terms, packed, nvars)
    if pushed is not None:
        got = termops.unpack(pushed)
        assert got == oracles.wedge_push(terms, fields.__getitem__, nvars) and zero_free(got)
    # f0 ^ f1 + f1 ^ f0 cancels
    swapped = {(0, 1): F(1, 3), (1, 0): F(1, 3)}
    bound = oracles_top(fields[0]) + oracles_top(fields[1])
    cancelled = within_the_top(bound, termops.wedge_push, swapped, packed, nvars)
    assert cancelled is None or termops.unpack(cancelled) == {}


@pytest.mark.parametrize("top", [15, termops.FIELD_TOP])
def test_packed_kernels_are_exact_across_field_widths(top):
    # operands whose products fill the packed fields up to ``top``
    a = {((top - 4, 1), (1,)): F(1, 7), ((0, top - 4), (0,)): F(2)}
    b = {((4, 0), (0,)): F(3), ((0, 4), (1,)): F(-1, 5)}
    pa, pb = termops.pack(a, 2), termops.pack(b, 2)
    product = termops.unpack(termops.smul(pa, pb))
    assert product == oracles.smul(a, b) != {}
    assert max(max(e) for e, _ in product) == top
    assert termops.unpack(termops.sn_bracket(pa, pb)) == oracles.sn_bracket(a, 1, b) != {}
    terms = {(0, 1): F(1, 2), (1, 0): F(4)}
    pushed = termops.unpack(termops.wedge_push(terms, {0: pa, 1: pb}.__getitem__, 2))
    assert pushed == oracles.wedge_push(terms, {0: a, 1: b}.__getitem__, 2) != {}


def test_packed_exponents_past_255_raise():
    # a bracket that only lowers the largest exponent is exact
    top_terms = {((255, 0), (1,)): F(1, 7)}  # y0^255 d/dy1
    top = termops.pack(top_terms, 2)
    d0 = termops.pack({((0, 0), (0,)): F(1)}, 2)
    assert termops.unpack(termops.sn_bracket(top, d0)) == {((254, 0), (1,)): F(-255, 7)}
    y0 = termops.pack({((1, 0), ()): F(1)}, 2)
    with pytest.raises(termops.ResourceLimitError):
        termops.smul(top, y0)
    y0d0 = termops.pack({((1, 0), (0,)): F(1)}, 2)
    with pytest.raises(termops.ResourceLimitError):
        termops.sn_bracket(top, y0d0)
    with pytest.raises(termops.ResourceLimitError):
        termops.wedge_push({(0, 1): F(1)}, {0: top, 1: y0d0}.__getitem__, 2)


# (coordinate count, degree, multivector) with the degree from 1 to 3
squared_cases = st.sampled_from([NVARS, 16]).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), rational_multivectors(n, k))),
    )
)


@LAWS
@given(squared_cases)
def test_a_square_matches_the_reference_and_the_two_contraction_bracket(case):
    # the same object twice takes the one-contraction square; an equal
    # copy takes both contractions
    nvars, (p, a) = case
    packed, bound = termops.pack(a, nvars), 2 * oracles_top(a)
    square = within_the_top(bound, termops.sn_bracket, packed, packed)
    copy = within_the_top(bound, termops.sn_bracket, packed, termops.pack(a, nvars))
    if square is not None:
        got = termops.unpack(square)
        assert got == oracles.sn_bracket(a, p, a) and zero_free(got)
        assert square == copy


def test_a_square_runs_one_contraction(monkeypatch):
    f0 = polyfield.quadratic_bracket(liealg.algebra("A", 2))
    calls = []
    contract = termops._contract

    def counted(*args):
        calls.append(args[1])
        return contract(*args)

    monkeypatch.setattr(termops, "_contract", counted)
    square = termops.sn_bracket(f0, f0)
    assert len(calls) == 1 and square
    calls.clear()
    assert termops.sn_bracket(f0, termops.pack(termops.unpack(f0), 8)) == square
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the operations of a packed field against the tuple-keyed references:
# the field strategies of the packed kernel laws above, so denominators up
# to 12 and exponents up to FIELD_TOP on 16 coordinates

packed_pairs = st.sampled_from([NVARS, 16]).flatmap(
    lambda n: st.tuples(st.just(n), rational_graded(n), rational_graded(n), rationals)
)


def stored(field):
    """The numerators a packed field stores."""
    return list(field.numerators()[0].values())


@LAWS
@given(packed_pairs)
def test_pack_round_trips_and_stores_no_zero(case):
    nvars, (_, a), _, c = case
    packed = termops.pack(a, nvars)
    assert termops.unpack(packed) == a and zero_free(termops.unpack(packed))
    assert all(stored(packed)) and bool(packed) == bool(a)
    # an explicit zero coefficient is not stored
    zeroed = {((0,) * nvars, (0,)): F(0), **a}
    assert termops.unpack(termops.pack(zeroed, nvars)) == a


@LAWS
@given(packed_pairs)
def test_shapes_are_the_degrees_and_derivations_of_the_decoded_terms(case):
    nvars, (_, a), _, _ = case
    field = termops.pack(a, nvars)
    assert termops.shapes(field) == {(sum(e), d) for (e, d) in termops.unpack(field)}


@LAWS
@given(packed_pairs)
def test_packed_pscale_is_the_dense_sum(case):
    nvars, (_, a), _, c = case
    packed = termops.pack(a, nvars)
    for scalar in (c, 0, 1, -1, F(-1), 2):
        got = termops.pscale(packed, scalar)
        assert termops.unpack(got) == dense_sum((scalar, a)) and all(stored(got))


@LAWS
@given(packed_pairs)
def test_packed_padd_is_the_dense_sum_and_cancels_to_zero(case):
    nvars, (_, a), (_, b), c = case
    pa, pb = termops.pack(a, nvars), termops.pack(b, nvars)
    for scalar in (c, 0, 1, -1):
        got = termops.padd(pa, pb, scalar)
        assert termops.unpack(got) == dense_sum((1, a), (scalar, b)) and all(stored(got))
    # a - a, over a denominator scaled away from a's own, stores nothing
    gone = termops.padd(pa, termops.pscale(termops.pscale(pa, 3), F(1, 3)), -1)
    assert not gone and stored(gone) == [] and termops.unpack(gone) == {}
    assert termops.padd(termops.pack({}, nvars), pa, c) == termops.pscale(pa, c)


@LAWS
@given(packed_pairs)
def test_packed_equality_and_the_zero_test_match_the_reference(case):
    nvars, (_, a), (_, b), c = case
    pa, pb = termops.pack(a, nvars), termops.pack(b, nvars)
    assert (pa == pb) == (a == b)
    assert bool(pa) == bool(a) and bool(termops.pscale(pa, 0)) is False
    # equal fields over unreduced, different denominators
    same = termops.pscale(termops.pscale(pa, c), 1 / c)
    assert same == pa and (same == termops.pscale(pa, 2)) == (not a)
    with pytest.raises(TypeError):
        pa == a
    with pytest.raises(ValueError):
        pa == termops.pack({}, nvars + 1)


@LAWS
@given(packed_pairs)
def test_fields_proportional_matches_the_reference(case):
    nvars, (_, a), (_, b), c = case
    pa, pb = termops.pack(a, nvars), termops.pack(b, nvars)
    assert polyfield.fields_proportional(pa, pb) == oracles.fields_proportional(a, b)
    scaled = termops.pscale(pb, c)
    expected = oracles.fields_proportional(dense_sum((c, b)), b)
    assert polyfield.fields_proportional(scaled, pb) == expected == (c if b else 1)
    zero = termops.pack({}, nvars)
    assert polyfield.fields_proportional(zero, pb) == oracles.fields_proportional({}, b)


# coordinate counts from 2 to 35: the top is the same one byte on each
COUNTS = (2, 5, 9, 17, 35)


def near_the_top(nvars):
    """Vector term dicts whose exponents of y0 sit at and around ``FIELD_TOP``."""
    top = termops.FIELD_TOP
    exps = st.sampled_from([0, 1, top // 2, top - 1, top, top + 1]).map(
        lambda k: (k,) + (0,) * (nvars - 1)
    )
    terms = st.dictionaries(st.tuples(exps, st.sampled_from([(0,), (1,)])), rationals, max_size=2)
    return st.tuples(st.just(nvars), terms, terms)


@LAWS
@given(st.sampled_from(COUNTS).flatmap(near_the_top))
def test_an_exponent_past_the_fixed_width_raises(case):
    nvars, a, b = case
    top = termops.FIELD_TOP
    # the top exponent of y0 fills the top byte of a monomial on any count
    assert termops.monomial_codec(nvars)[0]((top,) + (0,) * (nvars - 1)) == top << 8 * (nvars - 1)
    if oracles_top(a) > top:
        with pytest.raises(termops.ResourceLimitError):
            termops.pack(a, nvars)
        return
    pa, pb = termops.pack(a, nvars), termops.pack(b if oracles_top(b) <= top else {}, nvars)
    b = termops.unpack(pb)
    if oracles_top(a) + oracles_top(b) > top:
        with pytest.raises(termops.ResourceLimitError):
            termops.smul(pa, pb)
    else:
        assert termops.unpack(termops.smul(pa, pb)) == oracles.smul(a, b)


def oracles_top(terms):
    return max((max(e) for e, _ in terms), default=0)


images = st.dictionaries(st.integers(0, NVARS - 1), polys.filter(bool), max_size=NVARS)


@LAWS
@given(images, polys)
def test_apply_derivation_is_the_sum_of_partials_times_images(imgs, p):
    reference = {}
    for v, img in imgs.items():
        reference = termops.padd(reference, termops.pmul(termops.pderive(p, v), img))
    assert oracles.apply_derivation(imgs, p) == reference


@LAWS
@given(images, exponents)
def test_apply_row_is_the_derivation_of_its_images(imgs, b):
    # a row of int numerators over 12 and its Fraction images
    pack, unpack, units = termops.monomial_codec(NVARS)
    row = {v: {pack(e): int(c * 12) for e, c in img.items()} for v, img in sorted(imgs.items())}
    value = termops.apply_row(row, b, pack(b), units)
    assert all(value.values())
    decoded = {unpack(k): F(c, 12) for k, c in value.items()}
    assert decoded == oracles.apply_derivation(imgs, {b: F(1)})


def exponent_tuples(nvars):
    return st.lists(st.integers(0, termops.FIELD_TOP), min_size=nvars, max_size=nvars).map(tuple)


@LAWS
@given(st.sampled_from([3, 8, 16, 35]).flatmap(lambda n: st.tuples(st.just(n), exponent_tuples(n))))
def test_a_packed_monomial_is_the_monomial_of_its_packed_term(case):
    # the scans and the fields share one key per monomial
    nvars, e = case
    pack, unpack, units = termops.monomial_codec(nvars)
    (key,) = termops.pack({(e, ()): F(1)}, nvars).numerators()[0]
    assert pack(e) == key >> nvars and unpack(pack(e)) == e
    assert list(units) == [pack(termops.unit_exp(nvars, i)) for i in range(nvars)]
    assert termops.monomial_codec(nvars) is termops.monomial_codec(nvars)


def test_row_tables_read_the_packed_keys_without_decoding(monkeypatch):
    A2 = liealg.algebra("A", 2)
    bivectors = [polyfield.quadratic_bracket(A2), grouppois.build_ad_bracket(SL2).terms]
    fields = {w: polyfield.coadjoint_field(A2, w) for w in range(A2.dim)}
    rows = [termops.row_table(b) for b in bivectors]
    adjoint = termops.derivation_table(fields, A2.dim)

    def refused(nvars):
        raise AssertionError("a row table decoded a term")

    monkeypatch.setattr(termops, "_term_reader", refused)
    assert [termops.row_table(b) for b in bivectors] == rows
    assert termops.derivation_table(fields, A2.dim) == adjoint


@LAWS
@given(bivectors, polys, polys)
def test_hamiltonian_row_reproduces_the_bracket(biv, p, q):
    # the table of a bivector term dict is antisymmetric; coefficients
    # carry denominators 1 to 4
    field = termops.pack(biv, NVARS)
    table = oracles.bivector_table(field)
    row = oracles.table_row(table, p)
    assert all(row.values())
    assert oracles.apply_derivation(row, q) == termops.table_bracket(field, p, q)


def algebra_polys(L):
    exps = st.tuples(*[st.integers(0, 2)] * L.dim)
    return st.dictionaries(exps, coeffs, max_size=4)


# (algebra, basis element, polynomial) over A1 and A2
coadjoint_cases = st.sampled_from([SL2, liealg.algebra("A", 2)]).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(0, L.dim - 1), algebra_polys(L))
)


@LAWS
@given(coadjoint_cases)
def test_the_coadjoint_field_applies_as_the_reference_vector_field(case):
    L, x, p = case
    reference = oracles.apply_derivation(oracles.images_of(oracles.coadjoint_field(L, x)), p)
    assert termops.kveval(polyfield.coadjoint_field(L, x), [p]) == reference


# the two actions of the package, as (field function, coordinate count)
ACTIONS = {
    "coadjoint": lambda L: (functools.partial(polyfield.coadjoint_field, L), L.dim),
    "conjugation": lambda L: (
        lambda x: grouppois._entry_field(L, x, "conjugation"),
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
    fields, n = ACTIONS[action](L)
    pushed = termops.wedge_push(psi.terms, fields, n)
    moved = termops.wedge_push(multivec.ad_action(x, psi).terms, fields, n)
    assert termops.sn_bracket(fields(x), pushed) == moved
