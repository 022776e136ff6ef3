import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import alternating_from_plain, tensor_of, wedge_of
from qpverify import liealg, multivec

F = Fraction


@pytest.fixture(scope="module")
def sl2():
    return liealg.algebra("A", 1)


@pytest.fixture(scope="module")
def sl3():
    return liealg.algebra("A", 2)


def oracle_ad(L, x, tensor):
    """Brute-force leg-by-leg adjoint action on the plain expansion."""
    out = {}
    for key, c in tensor.plain_items():
        for leg in range(len(key)):
            for m, cm in L.bracket(x, key[leg]).items():
                nk = key[:leg] + (m,) + key[leg + 1 :]
                s = out.get(nk, F(0)) + c * cm
                if s:
                    out[nk] = s
                elif nk in out:
                    del out[nk]
    return out


def rand_alternating(L, p, rng, nterms=3):
    keys = list(itertools.combinations(range(L.dim), p))
    d = {}
    for k in rng.sample(keys, min(nterms, len(keys))):
        c = F(rng.randint(-4, 4))
        if c:
            d[k] = c
    return multivec.MultiTensor(L, p, d, "alternating")


# ---------------------------------------------------------------------------
# construction and canonical forms


def test_wedge_embedding_has_no_prefactor(sl2):
    e, f = {1: F(1)}, {2: F(1)}
    w = wedge_of(sl2, e, f)
    assert w.plain_dict() == {(1, 2): F(1), (2, 1): F(-1)}


def test_from_plain_detects_bad_symmetry(sl2):
    # the canonicalizer behind wedge_of checks every orbit it is given
    with pytest.raises(ValueError):
        alternating_from_plain(sl2, 2, {(0, 1): F(1)})
    with pytest.raises(ValueError):
        alternating_from_plain(sl2, 2, {(0, 1): F(1), (1, 0): F(1)})
    with pytest.raises(ValueError):
        alternating_from_plain(sl2, 2, {(1, 1): F(1)})
    good = alternating_from_plain(sl2, 2, {(0, 1): F(1), (1, 0): F(-1), (2, 2): F(0)})
    assert good.terms == {(0, 1): F(1)}


def test_no_stored_zeros(sl2):
    t = multivec.MultiTensor(sl2, 2, {(0, 1): F(0), (1, 2): F(3)}, "alternating")
    assert t.terms == {(1, 2): F(3)}
    summed = t.add(t.scale(-1))
    assert summed.terms == {}


# ---------------------------------------------------------------------------
# adjoint action


def test_ad_examples_sl2(sl2):
    e, f, h = {1: F(1)}, {2: F(1)}, {0: F(1)}
    ef = tensor_of(sl2, e, f)
    assert multivec.ad_action(0, ef).is_zero()  # weight-zero tensor

    ct = liealg.canonical_tensors(sl2)
    assert multivec.ad_action(1, ct.t).is_zero()  # invariance of t

    wedge_ef = wedge_of(sl2, e, f)
    got = multivec.ad_action(1, wedge_ef)
    # [e,e]^f + e^[e,f] = e^h; value frozen from the leg-expansion oracle
    assert got == wedge_of(sl2, e, h)
    assert got.plain_dict() == oracle_ad(sl2, 1, wedge_ef)


def test_ad_action_matches_oracle_random(sl3):
    rng = random.Random(42)
    for p in (1, 2, 3):
        for _ in range(5):
            t = rand_alternating(sl3, p, rng)
            for x in range(sl3.dim):
                assert multivec.ad_action(x, t).plain_dict() == oracle_ad(sl3, x, t)


LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def ad_cases(draw):
    """A tensor on A2 or B2 and a basis index.

    The tensor is alternating of degree 1-3 or plain of degree 2, with
    denominators up to 12.  A multiple of ``phi`` (degree 3) or ``t``
    (plain) rides along: both are invariant, so their images, many of them
    re-sorted, cancel.
    """
    L = liealg.algebra(*draw(st.sampled_from([("A", 2), ("B", 2)])))
    ct = liealg.canonical_tensors(L)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    index = st.integers(0, L.dim - 1)
    if draw(st.booleans()):
        p = draw(st.integers(1, 3))
        keys = st.sampled_from(list(itertools.combinations(range(L.dim), p)))
        terms = draw(st.dictionaries(keys, coeffs, max_size=6))
        tensor = multivec.MultiTensor(L, p, terms, "alternating")
        if p == 3:
            tensor = tensor.add(ct.phi.scale(draw(coeffs)))
    else:
        terms = draw(st.dictionaries(st.tuples(index, index), coeffs, max_size=6))
        tensor = multivec.MultiTensor(L, 2, terms, "plain").add(ct.t.scale(draw(coeffs)))
    return tensor, draw(index)


@LAWS
@given(ad_cases())
def test_ad_action_on_stored_keys_matches_the_expansion(case):
    tensor, x = case
    got = multivec.ad_action(x, tensor)
    assert got.symmetry == tensor.symmetry
    assert got.plain_dict() == oracle_ad(tensor.algebra, x, tensor)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ad_action_kills_plain_t(rank):
    L = liealg.algebra("A", rank)
    t = liealg.canonical_tensors(L).t
    assert t.symmetry == "plain"
    assert all(t.terms[(j, i)] == c for (i, j), c in t.terms.items())
    for x in range(L.dim):
        assert multivec.ad_action(x, t).terms == {}


def test_is_invariant(sl2, sl3):
    assert multivec.is_invariant(liealg.canonical_tensors(sl2).t)
    ct3 = liealg.canonical_tensors(sl3)
    assert not multivec.is_invariant(ct3.r_sd)
    assert multivec.is_invariant(ct3.phi)


# ---------------------------------------------------------------------------
# the algebraic Schouten bracket


def test_schouten_base_case_is_bracket(sl3):
    for i in range(sl3.dim):
        for j in range(sl3.dim):
            a = multivec.MultiTensor(sl3, 1, {(i,): F(1)}, "alternating")
            b = multivec.MultiTensor(sl3, 1, {(j,): F(1)}, "alternating")
            got = multivec.algebraic_schouten(a, b)
            assert got.terms == {(k,): c for k, c in sl3.bracket(i, j).items()}


def test_schouten_square_sl2(sl2):
    ct = liealg.canonical_tensors(sl2)
    sq = multivec.algebraic_schouten(ct.r_sd, ct.r_sd)
    assert sq.terms == {(0, 1, 2): F(1, 8)}  # (1/8) h^e^f


def test_schouten_abelian_bivector_is_flat(sl3):
    cartan = multivec.MultiTensor(sl3, 2, {(0, 1): F(1)}, "alternating")
    assert multivec.algebraic_schouten(cartan, cartan).is_zero()


def test_schouten_degree_zero_gives_zero(sl2):
    scalar = multivec.MultiTensor(sl2, 0, {(): F(5)}, "alternating")
    vec = multivec.MultiTensor(sl2, 1, {(1,): F(1)}, "alternating")
    assert multivec.algebraic_schouten(scalar, vec).is_zero()


def test_schouten_graded_antisymmetry_and_jacobi(sl2, sl3):
    rng = random.Random(7)
    sch = multivec.algebraic_schouten
    for L in (sl2, sl3):
        for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (3, 3)]:
            a, b = rand_alternating(L, p, rng), rand_alternating(L, q, rng)
            lhs = sch(a, b)
            rhs = sch(b, a).scale(-((-1) ** ((p - 1) * (q - 1))))
            assert lhs == rhs
        for p, q, r in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3)]:
            a = rand_alternating(L, p, rng)
            b = rand_alternating(L, q, rng)
            c = rand_alternating(L, r, rng)
            lhs = sch(a, sch(b, c))
            rhs = sch(sch(a, b), c).add(
                sch(b, sch(a, c)).scale((-1) ** ((p - 1) * (q - 1)))
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the Yang-Baxter trinomial


def oracle_cyb(L, r_plain):
    out = {}

    def put(key, c):
        s = out.get(key, F(0)) + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]

    items = list(r_plain.items())
    for (u, v), c1 in items:
        for (x, y), c2 in items:
            c = c1 * c2
            for m, cm in L.bracket(u, x).items():
                put((m, v, y), c * cm)
            for m, cm in L.bracket(v, x).items():
                put((u, m, y), c * cm)
            for m, cm in L.bracket(v, y).items():
                put((u, x, m), c * cm)
    return out


def test_cyb_zero(sl2):
    zero = multivec.MultiTensor.zero(sl2, 2, "alternating")
    assert multivec.cyb(zero).is_zero()


@pytest.mark.parametrize("spec", [("A", 1), ("A", 2), ("B", 2), ("C", 2)])
def test_cyb_matches_oracle_and_schouten_ratio(spec):
    L = liealg.algebra(*spec)
    ct = liealg.canonical_tensors(L)
    got = multivec.cyb(ct.r_sd)
    assert got.plain_dict() == oracle_cyb(L, ct.r_sd.plain_dict())
    half_square = multivec.algebraic_schouten(ct.r_sd, ct.r_sd).to_plain().scale(
        multivec.CYB_FROM_SCHOUTEN
    )
    assert got == half_square
    assert multivec.CYB_FROM_SCHOUTEN == F(1, 2)


def test_cyb_of_standard_r_is_invariant(sl3):
    ct = liealg.canonical_tensors(sl3)
    assert multivec.is_invariant(multivec.cyb(ct.r_sd))


def test_cyb_ratio_on_random_r(sl3):
    rng = random.Random(3)
    for _ in range(5):
        r = rand_alternating(sl3, 2, rng)
        got = multivec.cyb(r)
        assert got.plain_dict() == oracle_cyb(sl3, r.plain_dict())
        square = multivec.algebraic_schouten(r, r).to_plain()
        assert got == square.scale(multivec.CYB_FROM_SCHOUTEN)


def test_cyb_rejects_wrong_shape(sl2):
    sym = liealg.canonical_tensors(sl2).t
    with pytest.raises(ValueError):
        multivec.cyb(sym)


# ---------------------------------------------------------------------------
# cocommutator and co-Jacobi


def oracle_cobracket(L, r_plain, x):
    out = {}
    for (u, v), c in r_plain.items():
        for k, ck in L.bracket(u, x).items():
            s = out.get((k, v), F(0)) + c * ck
            if s:
                out[(k, v)] = s
            elif (k, v) in out:
                del out[(k, v)]
        for k, ck in L.bracket(v, x).items():
            s = out.get((u, k), F(0)) + c * ck
            if s:
                out[(u, k)] = s
            elif (u, k) in out:
                del out[(u, k)]
    return out


def test_cobracket_examples(sl2):
    ct = liealg.canonical_tensors(sl2)
    # Cartan coproducts commute with the weight-zero r-matrix
    assert multivec.cobracket(ct.r_sd, 0).is_zero()
    # frozen from the expansion oracle: delta(e) = (1/4) h^e
    got = multivec.cobracket(ct.r_sd, 1)
    assert got.terms == {(0, 1): F(1, 4)}
    assert got.plain_dict() == oracle_cobracket(sl2, ct.r_sd.plain_dict(), 1)
    zero = multivec.MultiTensor.zero(sl2, 2, "alternating")
    assert multivec.cobracket(zero, 1).is_zero()


@st.composite
def cobracket_cases(draw):
    """An algebra, an alternating 2-tensor with mixed denominators and a basis index."""
    L = liealg.algebra("A", draw(st.sampled_from([1, 2])))
    keys = st.sampled_from(list(itertools.combinations(range(L.dim), 2)))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(keys, coeffs, max_size=6))
    return L, multivec.MultiTensor(L, 2, terms, "alternating"), draw(st.integers(0, L.dim - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cobracket_cases())
def test_cobracket_matches_oracle_on_random_r(case):
    L, r, x = case
    assert multivec.cobracket(r, x).plain_dict() == oracle_cobracket(L, r.plain_dict(), x)


def test_co_jacobi_standard(sl2, sl3):
    assert multivec.co_jacobi_check(liealg.canonical_tensors(sl2).r_sd)
    assert multivec.co_jacobi_check(liealg.canonical_tensors(sl3).r_sd)


def test_co_jacobi_fault_detected(sl3):
    # a single raising/lowering pair inside the rank-2 algebra has a
    # nonzero, non-invariant Schouten square, and co-Jacobi fails
    r = multivec.MultiTensor(
        sl3, 2, {(sl3.pos_index((1, 0)), sl3.neg_index((1, 0))): F(1)}, "alternating"
    )
    sq = multivec.algebraic_schouten(r, r)
    assert not sq.is_zero()
    assert not multivec.is_invariant(sq)
    assert not multivec.co_jacobi_check(r)


def test_co_jacobi_defect_is_half_ad_of_square(sl3):
    # recorded constant: defect(x) = -(1/2) ad_x [[r, r]]
    r = multivec.MultiTensor(
        sl3, 2, {(sl3.pos_index((1, 0)), sl3.neg_index((1, 0))): F(1)}, "alternating"
    )
    sq = multivec.algebraic_schouten(r, r)
    deltas = [multivec.cobracket(r, u) for u in range(sl3.dim)]
    for x in range(sl3.dim):
        defect = multivec.co_jacobi_defect(deltas, x)
        expected = multivec.ad_action(x, sq).to_plain().scale(F(-1, 2))
        assert defect == expected


def test_co_jacobi_check_builds_each_cocommutator_once(sl3, monkeypatch):
    calls = []
    cobracket = multivec.cobracket

    def counting(r, x):
        calls.append(x)
        return cobracket(r, x)

    monkeypatch.setattr(multivec, "cobracket", counting)
    assert multivec.co_jacobi_check(liealg.canonical_tensors(sl3).r_sd)
    assert len(calls) == sl3.dim


def test_co_jacobi_iff_invariant_square(sl2, sl3):
    rng = random.Random(12)
    battery = []
    for L in (sl2, sl3):
        ct = liealg.canonical_tensors(L)
        battery.append(ct.r_sd)
        battery.append(ct.r_sd.scale(3))
        for _ in range(4):
            battery.append(rand_alternating(L, 2, rng))
    for r in battery:
        sq = multivec.algebraic_schouten(r, r)
        assert multivec.co_jacobi_check(r) == multivec.is_invariant(sq)
