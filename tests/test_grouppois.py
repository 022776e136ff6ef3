import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bivector_table, by_derivations, entry_field, pushed_table
from qpverify import grouppois, liealg, multivec, termops

F = Fraction


@pytest.fixture(scope="module")
def sl2():
    return liealg.algebra("A", 1)


@pytest.fixture(scope="module")
def sl3():
    return liealg.algebra("A", 2)


def gen(n, v):
    e = [0] * (n * n)
    e[v] = 1
    return {tuple(e): F(1)}


def applied(L, x, side, p):
    """The packed entry field of ``x`` on ``side``, applied to the polynomial ``p``."""
    return termops.kveval(grouppois._entry_field(L, x, side), [p])


def test_left_field_of_raising_element(sl2):
    # with x = e the left field sends the first column to zero and the
    # second column entries to the matching first-column entries
    n = sl2.msize
    for i in range(n):
        assert applied(sl2, 1, "left", grouppois.entry(n, i, 0)) == {}
        assert applied(sl2, 1, "left", grouppois.entry(n, i, 1)) == grouppois.entry(
            n, i, 0
        )


def test_cartan_left_field_diagonal(sl2):
    n = sl2.msize
    got = applied(sl2, 0, "left", grouppois.entry(n, 0, 0))
    assert got == grouppois.entry(n, 0, 0)
    got = applied(sl2, 0, "left", grouppois.entry(n, 0, 1))
    assert got == termops.pscale(grouppois.entry(n, 0, 1), F(-1))


def test_left_and_right_fields_commute(sl2):
    n = sl2.msize
    for x in range(sl2.dim):
        for y in range(sl2.dim):
            for v in range(n * n):
                p = gen(n, v)
                a = applied(sl2, x, "left", applied(sl2, y, "right", p))
                b = applied(sl2, y, "right", applied(sl2, x, "left", p))
                assert a == b


def test_sklyanin_generator_values_n2(sl2):
    sk = grouppois.build_sklyanin_bracket(sl2)
    n = 2
    t = lambda i, j: grouppois.var_index(n, i, j)
    # frozen from the generator-table expansion with the normalized r
    e = lambda *pairs: tuple(
        sum(1 for p in pairs if p == v) for v in range(4)
    )
    table = bivector_table(sk.terms)
    assert table.get((t(0, 0), t(0, 1)), {}) == {e(t(0, 0), t(0, 1)): F(-1, 4)}
    assert table.get((t(0, 0), t(1, 1)), {}) == {e(t(0, 1), t(1, 0)): F(-1, 2)}
    assert table.get((t(0, 1), t(1, 0)), {}) == {}


@pytest.mark.parametrize("spec", [("A", 1), ("A", 2)])
def test_sklyanin_bracket_is_poisson(spec):
    L = liealg.algebra(*spec)
    sk = grouppois.build_sklyanin_bracket(L)
    assert not grouppois.jacobiator_on_generators(sk)


def test_zero_bracket(sl2):
    zero = multivec.MultiTensor.zero(sl2, 2, "alternating")
    b = grouppois.build_two_sided_bracket(sl2, zero, zero)
    assert bivector_table(b.terms) == {}
    assert not grouppois.jacobiator_on_generators(b)


def test_two_sided_same_r_is_poisson(sl2, sl3):
    # with equal Schouten squares on both sides the bracket is Poisson;
    # in particular the same-tensor case has identically zero jacobiator
    # because the invariant 3-tensor has equal left and right extensions
    for L in (sl2, sl3):
        r = liealg.canonical_tensors(L).r_sd
        two = grouppois.build_two_sided_bracket(L, r, r)
        assert not grouppois.jacobiator_on_generators(two)


def test_two_sided_square_mismatch_fails_jacobi(sl2):
    r = liealg.canonical_tensors(sl2).r_sd
    b = grouppois.build_two_sided_bracket(sl2, r, r.scale(2))
    jac = grouppois.jacobiator_on_generators(b)
    assert jac  # nonzero witness


def test_realization_mismatch_rejected(sl2, sl3):
    r3 = liealg.canonical_tensors(sl3).r_sd
    with pytest.raises(grouppois.RealizationMismatch):
        grouppois.build_two_sided_bracket(sl2, r3, r3)


def test_entry_brackets_refuse_an_algebra_without_matrices(sl2):
    # sl2's structure, tensors and Killing form, with no matrix realization
    bare = liealg.LieAlgebra(
        sl2.root_system, sl2.names, sl2.weights, sl2.struct, sl2.killing, sl2.killing_inv,
        matrices=None, msize=sl2.msize,
    )
    for build in (grouppois.build_ad_bracket, grouppois.build_sklyanin_bracket):
        with pytest.raises(grouppois.RealizationMismatch, match="no matrix realization"):
            build(bare)


def test_determinant_ideal_preserved_n2(sl2):
    sk = grouppois.build_sklyanin_bracket(sl2)
    det = grouppois.determinant(2)
    for v in range(4):
        br = sk.bracket(det, gen(2, v))
        assert grouppois.in_principal_ideal(br, det)


def test_in_principal_ideal():
    det = grouppois.determinant(2)
    prod = termops.pmul(det, gen(2, 1))
    assert grouppois.in_principal_ideal(prod, det)
    assert grouppois.in_principal_ideal({}, det)
    assert not grouppois.in_principal_ideal(gen(2, 1), det)


def test_bracket_keeps_monomials_of_every_degree(sl2):
    # {t00^4, t01^4} = 16 t00^3 t01^3 {t00, t01} = -4 t00^4 t01^4 with
    # {t00, t01} = -(1/4) t00 t01; no degree cap truncates it
    sk = grouppois.build_sklyanin_bracket(sl2)
    t = lambda i, j: grouppois.var_index(2, i, j)
    p = {tuple(4 * x for x in termops.unit_exp(4, t(0, 0))): F(1)}
    q = {tuple(4 * x for x in termops.unit_exp(4, t(0, 1))): F(1)}
    assert sk.bracket(p, q) == {(4, 4, 0, 0): F(-4)}


def test_ad_bracket_antisymmetric_table(sl3):
    # the oracle computes each ordered entry pair on its own, so its
    # antisymmetry comes from the symmetry of t, not from a table builder
    legs = []
    for (a, b), c in liealg.canonical_tensors(sl3).t.plain_items():
        legs.append((c, (a, "left"), (b, "right")))
        legs.append((-c, (b, "right"), (a, "left")))
    table = pushed_table(sl3, legs)
    assert table
    for (u, v), val in table.items():
        assert table.get((v, u)) == termops.pscale(val, F(-1))
    assert bivector_table(grouppois.build_ad_bracket(sl3).terms) == table


@pytest.mark.parametrize("spec", [("A", 1), ("A", 2)])
def test_ad_bracket_conjugation_invariant(spec):
    L = liealg.algebra(*spec)
    ad = grouppois.build_ad_bracket(L)
    for x in range(L.dim):
        assert not grouppois.ad_invariance_defect(L, ad, x)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ad_bracket_table_matches_pushed_oracle(rank):
    L = liealg.algebra("A", rank)
    legs = []
    for (a, b), c in liealg.canonical_tensors(L).t.plain_items():
        legs.append((c, (a, "left"), (b, "right")))
        legs.append((-c, (b, "right"), (a, "left")))
    assert bivector_table(grouppois.build_ad_bracket(L).terms) == pushed_table(L, legs)


def test_ad_bracket_phi_identity(sl3):
    # jacobiator equals the recorded factor times the invariant 3-tensor
    # pushed through the conjugation fields
    ad = grouppois.build_ad_bracket(sl3)
    jac = grouppois.jacobiator_on_generators(ad)
    assert jac  # nonzero on GL(3)
    phi = grouppois.phi_through_conjugation(sl3)
    assert jac == termops.pscale(phi, grouppois.AD_JACOBIATOR_FACTOR)
    assert grouppois.AD_JACOBIATOR_FACTOR == F(-1, 2)


def test_ad_bracket_phi_identity_rank1_degenerate(sl2):
    # conjugation orbits of the 2x2 group are too small to carry a
    # 3-vector: both sides of the identity vanish
    ad = grouppois.build_ad_bracket(sl2)
    assert not grouppois.jacobiator_on_generators(ad)
    assert not grouppois.phi_through_conjugation(sl2)


# ---------------------------------------------------------------------------
# laws of the entry fields on random entry polynomials

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

SL2 = liealg.algebra("A", 1)
SL3 = liealg.algebra("A", 2)
SIDES = ("left", "right", "conjugation")
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def entry_polys(L):
    exponents = st.tuples(*[st.integers(0, 2)] * (L.msize * L.msize))
    return st.dictionaries(exponents, coeffs, max_size=3)


def element_and_polys(count):
    """An algebra, one of its basis indices and ``count`` entry polynomials."""
    return st.sampled_from([SL2, SL3]).flatmap(
        lambda L: st.tuples(
            st.just(L), st.integers(0, L.dim - 1), *[entry_polys(L)] * count
        )
    )


def entry_triples():
    return st.sampled_from([SL2, SL3]).flatmap(
        lambda L: st.tuples(st.just(L), *[st.integers(0, L.msize ** 2 - 1)] * 3)
    )


@LAWS
@given(element_and_polys(1))
def test_conjugation_field_is_left_minus_right(case):
    L, x, p = case
    expected = termops.padd(applied(L, x, "left", p), applied(L, x, "right", p), F(-1))
    assert applied(L, x, "conjugation", p) == expected


@LAWS
@given(element_and_polys(1))
def test_entry_fields_act_as_the_matrix_products(case):
    L, x, p = case
    for side in SIDES:
        assert applied(L, x, side, p) == entry_field(L, x, side, p), side


@LAWS
@given(element_and_polys(2))
def test_entry_fields_obey_leibniz_rule(case):
    L, x, p, q = case
    for side in SIDES:
        expected = termops.padd(
            termops.pmul(applied(L, x, side, p), q),
            termops.pmul(p, applied(L, x, side, q)),
        )
        assert applied(L, x, side, termops.pmul(p, q)) == expected, side


@LAWS
@given(entry_triples())
def test_phi_through_conjugation_matches_field_products(case):
    # reference: apply the conjugation field to each generator entry and
    # multiply the three images over the terms of the invariant 3-tensor;
    # the table holds ascending triples, so an unsorted triple reads the
    # sorted entry times the sign of the sorting permutation, and a
    # repeated entry reads zero
    L, u, v, w = case
    expected = {}
    for (a, b, c), coef in liealg.canonical_tensors(L).phi.plain_items():
        fa = entry_field(L, a, "conjugation", gen(L.msize, u))
        fb = entry_field(L, b, "conjugation", gen(L.msize, v))
        fc = entry_field(L, c, "conjugation", gen(L.msize, w))
        termops.piadd(expected, termops.pmul(termops.pmul(fa, fb), fc), coef)
    if len({u, v, w}) < 3:
        assert expected == {}
    else:
        inversions = (u > v) + (u > w) + (v > w)
        pushed = by_derivations(grouppois.phi_through_conjugation(L))
        got = pushed.get(tuple(sorted((u, v, w))), {})
        assert termops.pscale(got, F(-1) ** inversions) == expected


@st.composite
def tensor_pairs(draw):
    """An algebra and two alternating 2-tensors with mixed denominators."""
    L = draw(st.sampled_from([SL2, SL3]))
    keys = st.sampled_from(list(itertools.combinations(range(L.dim), 2)))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=12).filter(bool)
    r1, r2 = (
        multivec.MultiTensor(L, 2, draw(st.dictionaries(keys, values, max_size=5)), "alternating")
        for _ in range(2)
    )
    return L, r1, r2


@LAWS
@given(tensor_pairs())
def test_two_sided_table_matches_pushed_oracle(case):
    L, r1, r2 = case
    legs = [(c, (a, "left"), (b, "left")) for (a, b), c in r1.plain_items()]
    legs += [(c, (a, "right"), (b, "right")) for (a, b), c in r2.plain_items()]
    B = grouppois.build_two_sided_bracket(L, r1, r2)
    assert bivector_table(B.terms) == pushed_table(L, legs)


# ---------------------------------------------------------------------------
# laws of the field-level identities on random bivectors


def bivector_cases():
    """An algebra, a basis index and a random bivector on the entry ring.

    Its values on entry pairs are entry polynomials of degree at most 2.
    """

    def cases(L):
        n2 = L.msize ** 2
        monomial = st.lists(st.integers(0, n2 - 1), max_size=2).map(
            lambda vs: tuple(vs.count(v) for v in range(n2))
        )
        value = st.dictionaries(monomial, coeffs, min_size=1, max_size=2)
        pair = st.tuples(st.integers(0, n2 - 1), st.integers(0, n2 - 1)).filter(
            lambda p: p[0] < p[1]
        )
        return st.tuples(
            st.just(L),
            st.integers(0, L.dim - 1),
            st.dictionaries(pair, value, max_size=6),
        )

    def bivector(case):
        L, x, upper = case
        terms = {(e, (u, v)): c for (u, v), val in upper.items() for e, c in val.items()}
        return L, x, grouppois.GroupBivector(termops.pack(terms, L.msize**2))

    return st.sampled_from([SL2, SL3]).flatmap(cases).map(bivector)


@LAWS
@given(bivector_cases())
def test_jacobiator_is_the_cyclic_sum_of_brackets(case):
    L, _, B = case
    n2 = L.msize ** 2
    gens = [gen(L.msize, v) for v in range(n2)]
    expected = {}
    for u in range(n2):
        for v in range(u + 1, n2):
            for w in range(v + 1, n2):
                acc = {}
                for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
                    inner = B.bracket(gens[b], gens[c])
                    termops.piadd(acc, B.bracket(gens[a], inner), F(1))
                if acc:
                    expected[(u, v, w)] = acc
    assert by_derivations(grouppois.jacobiator_on_generators(B)) == expected


@LAWS
@given(bivector_cases())
def test_invariance_defect_is_the_three_term_formula(case):
    L, x, B = case
    n2 = L.msize ** 2
    X = lambda p: entry_field(L, x, "conjugation", p)
    expected = {}
    for u in range(n2):
        for v in range(u + 1, n2):
            pu, pv = gen(L.msize, u), gen(L.msize, v)
            acc = X(B.bracket(pu, pv))
            termops.piadd(acc, B.bracket(X(pu), pv), F(-1))
            termops.piadd(acc, B.bracket(pu, X(pv)), F(-1))
            if acc:
                expected[(u, v)] = acc
    assert by_derivations(grouppois.ad_invariance_defect(L, B, x)) == expected
