import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bivector_table,
    coordinate,
    doubled_smallest_term,
    factorization_relations,
    hochschild_triples,
    monomials_upto,
    pairwise_hochschild_witness,
    pairwise_invariance_witness,
    pairwise_twist_witness,
    pentagon_total,
    primitive_coproduct,
    table_row,
    two_fold,
)
from qpverify import liealg, multivec, polyfield, quantize, termops

F = Fraction


@pytest.fixture(scope="module")
def sl2():
    return liealg.algebra("A", 1)


@pytest.fixture(scope="module")
def sl3():
    return liealg.algebra("A", 2)


@pytest.fixture(scope="module")
def sl3_product(sl3):
    ct = liealg.canonical_tensors(sl3)
    cal = polyfield.calibrate_scale(sl3)
    f = termops.pscale(cal.f0, cal.lam)
    return sl3, f, ct


# ---------------------------------------------------------------------------
# first-order invariance


def test_invariance_standard_product(sl3_product):
    L, f, ct = sl3_product
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    passed, witness = quantize.first_order_invariance_check(m1, ct.r_sd, 3)
    assert passed
    # pairs counts every pair up to the degree, those the scan skips too
    pairs = len(monomials_upto(L, 3)) ** 2
    assert witness == {"product": "(1/2)(f - r_M)", "degree": 3, "pairs": pairs}


def sign_flipped(f, ct):
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    half_sum = termops.pscale(termops.padd(f, rm), F(1, 2))
    return quantize.FirstOrderProduct(half_sum, "(1/2)(f + r_M)")


def doubled(f, ct):
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    return quantize.FirstOrderProduct(termops.pscale(m1.bivector, 2), "doubled")


def test_invariance_fault_sign_flip(sl3_product):
    _, f, ct = sl3_product
    bad = sign_flipped(f, ct)
    passed, witness = quantize.first_order_invariance_check(bad, ct.r_sd, 3)
    assert not passed
    # both sides, evaluated from the identity at the reported triple
    reference = pairwise_invariance_witness(bad, ct.r_sd, 3)
    assert witness == {k: reference[k] for k in ("x", "a", "b")}
    assert reference["lhs"] != reference["rhs"]
    # the triple the scan found has a nonzero two-sided difference
    diff = dict(reference["lhs"])
    termops.piadd(diff, reference["rhs"], F(-1))
    assert diff


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("fault", [sign_flipped, doubled], ids=["sign-flip", "doubled"])
def test_invariance_fault_witness_matches_pairwise_scan(sl3_product, fault, d):
    # reference: the identity itself on every pair of monomials up to the
    # degree, with no Hamiltonian row
    L, f, ct = sl3_product
    bad = fault(f, ct)
    passed, witness = quantize.first_order_invariance_check(bad, ct.r_sd, d)
    assert not passed
    reference = pairwise_invariance_witness(bad, ct.r_sd, d)
    assert witness == {k: reference[k] for k in ("x", "a", "b")}
    assert reference["lhs"] != reference["rhs"]


def test_invariance_scan_builds_one_row_per_left_monomial(sl3_product, monkeypatch):
    L, f, ct = sl3_product
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    tables = []
    rows = []
    applied = []
    row_table = termops.row_table
    hamiltonian_row = termops.hamiltonian_row
    apply_row = termops.apply_row

    def counted_table(field):
        table, den = row_table(field)
        tables.append(table)
        return table, den

    def counted_row(table, e, key):
        rows.append((table, e))
        return hamiltonian_row(table, e, key)

    def counted_apply(row, e, key, units):
        applied.append(e)
        return apply_row(row, e, key, units)

    monkeypatch.setattr(termops, "row_table", counted_table)
    monkeypatch.setattr(termops, "hamiltonian_row", counted_row)
    monkeypatch.setattr(termops, "apply_row", counted_apply)
    lefts = [a for k in (1, 2) for a in polyfield.monomials(L.dim, k)]
    passed, _ = quantize.first_order_invariance_check(m1, ct.r_sd, 3)
    assert passed
    # one table per x, one row per (x, a), and no row applied to a right
    # monomial
    assert len(tables) == L.dim
    assert [(id(t), e) for t, e in rows] == [(id(t), a) for t in tables for a in lefts]
    assert applied == []

    tables.clear()
    rows.clear()
    legs = {leg for (u, v), _ in ct.r_sd.plain_items() for leg in (u, v)}
    passed, _ = quantize.twist_correspondence_check(L, 3, ct.r_sd)
    assert passed
    # the field route builds one row per left monomial under the r-matrix
    # field, and the composed route one row of the coadjoint fields of the
    # legs per coordinate and per left monomial, never a value on a pair
    [field_table] = tables
    assert [e for t, e in rows if t is field_table] == lefts
    composed = [(t, e) for t, e in rows if t is not field_table]
    units = [termops.unit_exp(L.dim, j) for j in range(L.dim)]
    assert [e for _, e in composed] == units + lefts
    assert len({id(t) for t, _ in composed}) == 1
    assert {w for entries in composed[0][0].values() for w in entries} == legs
    assert applied == []


def test_invariance_plain_invariant_bivector(sl3):
    # with no twist the condition is ordinary invariance of the bivector
    zero_r = multivec.MultiTensor.zero(sl3, 2, "alternating")
    f0 = polyfield.calibrate_scale(sl3).f0
    m1 = quantize.FirstOrderProduct(termops.pscale(f0, F(1, 2)), "(1/2)f0")
    passed, _ = quantize.first_order_invariance_check(m1, zero_r, 2)
    assert passed


def test_first_order_products_need_quadratic_coefficients(sl3):
    # a linear bracket lowers degree, so no degree bound truncates it
    s = polyfield.kirillov_bracket(sl3)
    f0 = polyfield.calibrate_scale(sl3).f0
    for field_ in (s, termops.padd(s, f0)):
        with pytest.raises(ValueError):
            quantize.FirstOrderProduct(field_, "mixed")


# ---------------------------------------------------------------------------
# Hochschild cocycles


def test_hochschild_bivector_products_pass(sl3_product):
    L, f, ct = sl3_product
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    passed, _ = quantize.hochschild_cocycle_check(L, 3, m1)
    assert passed
    passed, _ = quantize.hochschild_cocycle_check(L, 3, lambda a, b: {})
    assert passed


def test_hochschild_euler_cup_product_is_a_cocycle(sl2):
    # the bilinear map (a, b) -> deg(a) deg(b) ab has vanishing coboundary
    def cup(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                mono = tuple(x + y for x, y in zip(ea, eb))
                termops.piadd(out, {mono: F(1)}, ca * cb * sum(ea) * sum(eb))
        return out

    passed, _ = quantize.hochschild_cocycle_check(sl2, 4, cup)
    assert passed


def test_hochschild_genuine_fault_fails(sl2):
    # projecting both slots to their linear parts is bilinear but has a
    # coboundary defect at mixed degrees
    def proj1(p):
        return {e: c for e, c in p.items() if sum(e) == 1}

    def fault(a, b):
        return termops.pmul(proj1(a), proj1(b))

    passed, witness = quantize.hochschild_cocycle_check(sl2, 5, fault)
    assert not passed
    assert witness["defect"]
    assert witness == pairwise_hochschild_witness(sl2, 5, fault)


def test_hochschild_evaluates_each_monomial_pair_once(sl3_product):
    L, f, ct = sl3_product
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    calls = []

    def counted(a, b):
        calls.append((tuple(a.items()), tuple(b.items())))
        return m1(a, b)

    def times(x, y):
        return tuple(i + j for i, j in zip(x, y))

    pairs = set()
    for ea, eb, ec in hochschild_triples(L, 4):
        pairs.update({(ea, eb), (eb, ec), (times(ea, eb), ec), (ea, times(eb, ec))})
    passed, witness = quantize.hochschild_cocycle_check(L, 4, counted)
    assert passed
    assert witness["monomial_triples"] == 7424
    assert len(calls) == len(set(calls)) == len(pairs)
    assert {(a[0][0], b[0][0]) for a, b in calls} == pairs
    assert all(a[0][1] == b[0][1] == 1 for a, b in calls)


def test_hochschild_packs_one_row_per_left_monomial(sl3_product, monkeypatch):
    L, f, ct = sl3_product
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    rows = []
    hamiltonian_row = termops.hamiltonian_row

    def counted_row(table, e, key):
        rows.append(e)
        return hamiltonian_row(table, e, key)

    pairs = []
    pair_values = quantize._pair_values

    def counted_values(m1, dim):
        value, den = pair_values(m1, dim)

        def counted(ea, kb):
            pairs.append((ea, kb))
            return value(ea, kb)

        return counted, den

    monkeypatch.setattr(termops, "hamiltonian_row", counted_row)
    monkeypatch.setattr(quantize, "_pair_values", counted_values)
    passed, witness = quantize.hochschild_cocycle_check(L, 4, m1)
    assert passed
    assert witness["monomial_triples"] == 7424
    # every monomial of degree 1 to 3 on the 8 coordinates leads a pair
    assert len(rows) == len(set(rows)) == 164
    assert len(pairs) == len(set(pairs)) == 3856
    assert {a for a, _ in pairs} == set(rows)


# ---------------------------------------------------------------------------
# laws of the packed Hochschild scan

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)


def coordinates(n):
    """A stand-in algebra: the packed scan reads only the number of coordinates."""
    return SimpleNamespace(dim=n)


def monomial(n, vs):
    return tuple(vs.count(v) for v in range(n))


def quadratic_cases(n):
    """A random quadratic bivector term dict over n coordinates and a monomial pair.

    Both monomials have positive degree and the pair has total degree at
    most 4, as in the Hochschild scan at ``d = 4``.
    """
    quadratic = st.lists(st.integers(0, n - 1), min_size=2, max_size=2).map(
        lambda vs: monomial(n, vs)
    )
    pairs = st.sampled_from(list(itertools.combinations(range(n), 2)))
    bivector = st.dictionaries(st.tuples(quadratic, pairs), rationals, min_size=3, max_size=8)
    monos = {k: polyfield.monomials(n, k) for k in (1, 2, 3)}
    mono_pair = st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.sampled_from(monos[k]),
            st.integers(1, 4 - k).flatmap(lambda j: st.sampled_from(monos[j])),
        )
    )
    return st.tuples(st.just(n), bivector, mono_pair)


@settings(LAWS, max_examples=100)
@given(st.sampled_from([3, 4]).flatmap(quadratic_cases))
def test_packed_pair_value_decodes_to_the_first_order_product(case):
    n, terms, (a, b) = case
    m1 = quantize.FirstOrderProduct(termops.pack(terms, n), "random")
    pack, unpack, _ = termops.monomial_codec(n)
    value, den = quantize._pair_values(m1, n)
    packed = value(a, pack(b))
    assert all(packed.values())
    assert {unpack(k): F(c, den) for k, c in packed.items()} == m1({a: F(1)}, {b: F(1)})


@settings(LAWS, max_examples=100)
@given(st.sampled_from([3, 4]).flatmap(quadratic_cases))
def test_packed_hamiltonian_row_decodes_to_the_fraction_row(case):
    n, terms, (a, _) = case
    field = termops.pack(terms, n)
    pack, unpack, _ = termops.monomial_codec(n)
    table, den = termops.row_table(field)
    row = termops.hamiltonian_row(table, a, pack(a))
    assert all(c for img in row.values() for c in img.values())
    decoded = [(v, {unpack(k): F(c, den) for k, c in img.items()}) for v, img in row.items()]
    # the same images in the same ascending order
    assert decoded == list(table_row(bivector_table(field), {a: F(1)}).items())


def projection(k):
    def proj(p):
        return {e: c for e, c in p.items() if sum(e) == k}

    return proj


# coefficients of proj_i(a) * proj_j(b) for i, j in {1, 2}, then of the product
bilinear_coefficients = st.lists(st.one_of(st.just(F(0)), rationals), min_size=5, max_size=5)


@LAWS
@given(st.sampled_from([3, 4]), st.sampled_from([4, 5]), bilinear_coefficients)
def test_packed_scan_witness_matches_pairwise_scan(n, d, coefficients):
    # degree-selected products are not biderivations; the plain product
    # is a cocycle, so it shifts the values but not the verdict
    *selected, plain = coefficients
    legs = [(projection(i), projection(j)) for i in (1, 2) for j in (1, 2)]

    def m1(p, q):
        out = termops.pscale(termops.pmul(p, q), plain)
        for c, (left, right) in zip(selected, legs):
            termops.piadd(out, termops.pmul(left(p), right(q)), c)
        return out

    L = coordinates(n)
    passed, witness = quantize.hochschild_cocycle_check(L, d, m1)
    assert (None if passed else witness) == pairwise_hochschild_witness(L, d, m1)


def test_hochschild_fault_map_fails_first_with_a_coordinate_left_monomial(sl3):
    # the suite's hochschild-fault-detected map on A2 at d = 5
    def proj1(p):
        return {e: c for e, c in p.items() if sum(e) == 1}

    def fault(a, b):
        return termops.pmul(proj1(a), proj1(b))

    passed, witness = quantize.hochschild_cocycle_check(sl3, 5, fault)
    assert not passed
    assert witness == pairwise_hochschild_witness(sl3, 5, fault, left_degree=1)


@settings(LAWS, max_examples=20)
@given(
    st.sampled_from([3, 4]).flatmap(quadratic_cases),
    st.sampled_from([4, 5]),
    bilinear_coefficients,
)
def test_the_scan_fails_exactly_where_a_coordinate_left_monomial_fails(case, d, coefficients):
    # d(dm) = 0 for every bilinear m, and its terms at (y_i, a, b, c) give
    # dm(y_i a, b, c) = y_i dm(a, b, c) once dm vanishes wherever |a| = 1;
    # so the scan fails exactly when a triple with |a| = 1 fails, and as
    # those triples come first, the witness is the first of them
    n, terms, _ = case
    product = quantize.FirstOrderProduct(termops.pack(terms, n), "random")
    *selected, plain = coefficients
    legs = [(projection(i), projection(j)) for i in (1, 2) for j in (1, 2)]

    def perturbed(p, q):
        out = termops.padd(product(p, q), termops.pmul(p, q), plain)
        for c, (left, right) in zip(selected, legs):
            termops.piadd(out, termops.pmul(left(p), right(q)), c)
        return out

    L = coordinates(n)
    for m1 in (product, perturbed):
        passed, witness = quantize.hochschild_cocycle_check(L, d, m1)
        reduced = pairwise_hochschild_witness(L, d, m1, left_degree=1)
        assert (None if passed else witness) == reduced


def test_hochschild_refuses_a_map_that_raises_degree(sl2):
    def raising(p, q):
        return termops.pmul(termops.pmul(p, q), coordinate(sl2, 0))

    with pytest.raises(ValueError):
        quantize.hochschild_cocycle_check(sl2, 4, raising)


def test_the_scans_refuse_a_degree_past_the_packed_top(sl3_product):
    # a sum of packed monomials past FIELD_TOP would carry into the next
    # coordinate, so no scan starts at such a bound
    L, f, ct = sl3_product
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    d = termops.FIELD_TOP + 1
    with pytest.raises(termops.ResourceLimitError):
        quantize.first_order_invariance_check(m1, ct.r_sd, d)
    with pytest.raises(termops.ResourceLimitError):
        quantize.hochschild_cocycle_check(L, d, m1)
    with pytest.raises(termops.ResourceLimitError):
        quantize.twist_correspondence_check(L, d, ct.r_sd)


# ---------------------------------------------------------------------------
# twist correspondence


def test_twist_correspondence(sl3_product):
    L, _, ct = sl3_product
    passed, _ = quantize.twist_correspondence_check(L, 3, ct.r_sd)
    assert passed


def doubled_field(rmatrix_bracket):
    """An r-matrix field builder whose fields are doubled: a row differs at several coordinates."""
    return lambda r: termops.pscale(rmatrix_bracket(r), 2)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "fault", [doubled_smallest_term, doubled_field], ids=["smallest-term", "doubled-field"]
)
def test_twist_fault_witness_matches_pairwise_scan(sl3_product, monkeypatch, fault, d):
    L, _, ct = sl3_product
    corrupted = fault(polyfield.rmatrix_bracket)
    monkeypatch.setattr(polyfield, "rmatrix_bracket", corrupted)
    passed, witness = quantize.twist_correspondence_check(L, d, ct.r_sd)
    assert not passed
    # reference: both routes evaluated from scratch on every pair of
    # monomials up to the degree
    assert witness == pairwise_twist_witness(L, d, ct.r_sd, corrupted(ct.r_sd))


# ---------------------------------------------------------------------------
# rewriting and flatness


def pbw(L, degree, seed=0, rules=quantize.straightening_rules):
    return quantize.pbw_flatness(rules(L), L.dim, degree, seed=seed)


def test_pbw_counts(sl2, sl3):
    passed, witness = pbw(sl2, 4, seed=3)
    assert passed
    assert witness["counts"] == [1, 3, 6, 10, 15]
    passed, witness = pbw(sl3, 3, seed=3)
    assert passed
    assert witness["counts"] == [1, 8, 36, 120]


def test_pbw_degree_cap(sl2):
    with pytest.raises(termops.ResourceLimitError):
        pbw(sl2, quantize.PBW_DEGREE_CAP + 1)


def test_pbw_counts_fail_when_descents_are_missed(sl2, monkeypatch):
    # a rule blind to descents by one letter leaves (1, 0) and (2, 1)
    # irreducible: 8 words of length 2 against the symmetric square's 6
    def descents(self, word):
        return [k for k in range(len(word) - 1) if word[k] > word[k + 1] + 1]

    monkeypatch.setattr(quantize.RewriteSystem, "descents", descents)
    passed, witness = pbw(sl2, 4, seed=3)
    assert not passed
    assert witness == {"k": 2, "count": 8}


def test_normal_form_matches_symmetrization(sl2):
    # degree-2 straightening: fe -> ef - h at the deformed parameter
    rules = quantize.straightening_rules(sl2)
    rw = quantize.RewriteSystem(rules, F(1))
    nf = rw.normal_form((2, 1))
    assert nf == {(1, 2): F(1), (0,): F(-1)}
    # undeformed parameter just sorts
    rw0 = quantize.RewriteSystem(rules, F(0))
    assert rw0.normal_form((2, 1)) == {(1, 2): F(1)}


def test_confluence_strategies_agree(sl3):
    rng = random.Random(17)
    rw = quantize.RewriteSystem(quantize.straightening_rules(sl3), F(1))
    for _ in range(50):
        word = tuple(rng.randrange(sl3.dim) for _ in range(4))
        assert rw.normal_form(word, "leftmost") == rw.normal_form(word, "rightmost")


def test_jacobi_fault_detected(sl2, sl3):
    for L in (sl2, sl3):
        passed, witness = pbw(L, 3, seed=3, rules=quantize.jacobi_fault_rules)
        assert not passed
        assert len(witness["word"]) == 3


def reversed_rules(L):
    """U(g)'s rules for the reversed order: ``ab -> ba + [a, b]`` for ``a < b``."""
    return {
        (a, b): {(b, a): F(1), **{(m,): c for m, c in L.bracket(a, b).items()}}
        for a in range(L.dim)
        for b in range(a + 1, L.dim)
    }


@pytest.mark.parametrize("spec", [("A", 1), ("A", 2), ("B", 2)])
def test_the_engine_runs_any_rule_table(spec):
    # U(g) straightened towards non-increasing words is flat too: its
    # normal words count the symmetric powers, and its C(dim, 3) overlaps resolve
    L = liealg.algebra(*spec)
    degree = 4 if L.dim <= 3 else 3
    passed, witness = pbw(L, degree, seed=3, rules=reversed_rules)
    assert passed
    assert witness == {
        "counts": [math.comb(L.dim + k - 1, k) for k in range(degree + 1)],
        "confluence_words": quantize.PBW_SPOT_CHECKS + math.comb(L.dim, 3),
    }


@pytest.mark.parametrize("spec", [("A", 2), ("B", 2)])
def test_dropping_any_bracket_term_breaks_confluence(spec):
    # each drop leaves a bracket that fails the Jacobi identity on A2 and
    # B2 (on A1 one drop still gives a Lie algebra, whose table is flat)
    L = liealg.algebra(*spec)
    rules = quantize.straightening_rules(L)
    drops = [(pair, w) for pair, rule in rules.items() for w in rule if len(w) == 1]
    assert drops
    for pair, w in drops:
        faulty = {p: dict(rule) for p, rule in rules.items()}
        del faulty[pair][w]
        passed, witness = quantize.pbw_flatness(faulty, L.dim, 3)
        assert not passed, (pair, w)
        assert len(witness["word"]) == 3


# ---------------------------------------------------------------------------
# pentagon shadow


def phi_words(L):
    return quantize.tensor_to_words(liealg.canonical_tensors(L).phi)


def test_pentagon_passes_sl2_sl3(sl2, sl3):
    passed, _ = quantize.pentagon_order2_check(sl2.matrices, sl2.msize, phi_words(sl2))
    assert passed
    passed, _ = quantize.pentagon_order2_check(sl3.matrices, sl3.msize, phi_words(sl3))
    assert passed


def test_pentagon_cross_representation(sl2):
    ad = [sl2.ad_matrix(i) for i in range(sl2.dim)]
    a, _ = quantize.pentagon_order2_check(sl2.matrices, sl2.msize, phi_words(sl2))
    b, _ = quantize.pentagon_order2_check(ad, sl2.dim, phi_words(sl2))
    assert quantize.faithfulness_guard(ad, sl2.dim)
    assert a and b


def test_pentagon_structural_for_primitive_legs(sl2):
    # any tensor with single-letter legs passes: primitives contribute no
    # coboundary; the report carries the note
    rng = random.Random(4)
    terms = [
        (F(rng.randint(1, 4)), ((rng.randrange(3),), (rng.randrange(3),), (rng.randrange(3),)))
        for _ in range(5)
    ]
    passed, witness = quantize.pentagon_order2_check(sl2.matrices, sl2.msize, terms)
    assert passed
    assert "primitive" in witness["note"]


def test_pentagon_word_leg_fault(sl2):
    # a squared-letter leg is not primitive and breaks the identity
    fault = [(F(1), ((1, 1), (0,), (2,)))]
    passed, witness = quantize.pentagon_order2_check(sl2.matrices, sl2.msize, fault)
    assert not passed
    assert witness == {"position": (1, 12), "value": "2", "nonzero_entries": 2}
    sl4 = liealg.algebra("A", 3)
    passed, witness = quantize.pentagon_order2_check(sl4.matrices, sl4.msize, fault)
    assert witness == {"position": (82, 82), "value": "2", "nonzero_entries": 16}


def test_faithfulness_guard(sl2):
    assert quantize.faithfulness_guard(sl2.matrices, sl2.msize)
    assert not quantize.faithfulness_guard([{}, {}], 1)


# ---------------------------------------------------------------------------
# first-order R-matrix data


def rho_words(L):
    """Word terms of the first-order twist datum ``t/2 - r``."""
    ct = liealg.canonical_tensors(L)
    return quantize.tensor_to_words(ct.t.scale(F(1, 2)).add(ct.r_sd.to_plain().scale(-1)))


def test_rmatrix_first_order(sl2):
    words = rho_words(sl2)
    passed, _ = quantize.order_h_factorization_check(sl2.matrices, sl2.msize, words)
    assert passed
    passed, witness = quantize.coproduct_conjugation_check(sl2, words)
    assert passed
    assert witness["symmetric_tensor_commutes"]


def test_rmatrix_first_order_sl3(sl3):
    words = rho_words(sl3)
    passed, _ = quantize.order_h_factorization_check(sl3.matrices, sl3.msize, words)
    assert passed
    passed, _ = quantize.coproduct_conjugation_check(sl3, words)
    assert passed


def test_factorization_primitive_vs_word_legs(sl2):
    # any tensor with letters in the algebra passes the order-one relations
    ok, _ = quantize.order_h_factorization_check(sl2.matrices, sl2.msize, [(F(1), ((1,), (1,)))])
    assert ok
    # a squared-letter leg fails them
    passed, witness = quantize.order_h_factorization_check(
        sl2.matrices, sl2.msize, [(F(1), ((1, 1), (1,)))]
    )
    assert not passed
    assert witness == {"first_relation": False, "second_relation": True}


def word_terms(dim, legs):
    """Random word terms: 1 to 3 of them, each leg a word of 1 or 2 letters."""
    word = st.lists(st.integers(0, dim - 1), min_size=1, max_size=2).map(tuple)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.lists(st.tuples(coeff, st.tuples(*[word] * legs)), min_size=1, max_size=3)


@pytest.mark.parametrize("rank", [1, 2])
@LAWS
@given(data=st.data())
def test_kron_terms_match_the_leg_by_leg_builders(rank, data):
    L = liealg.algebra("A", rank)
    mats, msize = L.matrices, L.msize
    terms = data.draw(word_terms(L.dim, 3))
    total = {}
    for sign, layout in quantize.PENTAGON_LAYOUTS:
        termops.piadd(total, quantize._kron_terms(mats, msize, terms, layout), sign)
    want = pentagon_total(mats, msize, terms)
    assert total == want
    passed, witness = quantize.pentagon_order2_check(mats, msize, terms)
    assert passed == (not want)
    if want:
        key = min(want)
        assert witness == {"position": key, "value": str(want[key]), "nonzero_entries": len(want)}

    terms = data.draw(word_terms(L.dim, 2))
    ok1, ok2 = factorization_relations(mats, msize, terms)
    passed, witness = quantize.order_h_factorization_check(mats, msize, terms)
    assert passed == (ok1 and ok2)
    assert witness == (None if ok1 and ok2 else {"first_relation": ok1, "second_relation": ok2})


@pytest.mark.parametrize("rank", [1, 2])
def test_kron_terms_two_fold_and_primitive_coproduct(rank):
    L = liealg.algebra("A", rank)
    mats, msize = L.matrices, L.msize
    ct = liealg.canonical_tensors(L)
    for tensor in (ct.t, ct.r_sd):
        got = quantize._kron_terms(mats, msize, quantize.tensor_to_words(tensor), (0, 1))
        assert got == two_fold(mats, msize, tensor)
    for x in range(L.dim):
        got = quantize._kron_terms(mats, msize, [(F(1), ((x,),))], (("D", 0),))
        assert got == primitive_coproduct(mats, msize, x)
