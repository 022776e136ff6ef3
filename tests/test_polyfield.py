import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coadjoint_field, coordinate, phibar_by_pmul, sn_bracket, solve_equivariant_by_schouten,
    transport_bracket,
)
from qpverify import liealg, linalg, multivec, polyfield, suites, termops

F = Fraction

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@pytest.fixture(scope="module")
def sl2():
    return liealg.algebra("A", 1)


@pytest.fixture(scope="module")
def sl3():
    return liealg.algebra("A", 2)


@pytest.fixture(scope="module")
def so5():
    return liealg.algebra("B", 2)


def rand_field(L, p, rng, nterms=3, maxdeg=2):
    out = {}
    ders = list(itertools.combinations(range(L.dim), p))
    for _ in range(nterms):
        dd = rng.choice(ders)
        e = [0] * L.dim
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randrange(L.dim)] += 1
        c = F(rng.randint(-3, 3))
        if c:
            termops.siadd(out, (tuple(e), dd), c)
    return termops.pack(out, L.dim)


# ---------------------------------------------------------------------------
# action fields


def test_coadjoint_field_of_cartan(sl2):
    X = termops.pack(coadjoint_field(sl2, 0), sl2.dim)
    ye, yf, yh = (coordinate(sl2, i) for i in (1, 2, 0))
    assert termops.kveval(X, [ye]) == termops.pscale(ye, F(2))
    assert termops.kveval(X, [yf]) == termops.pscale(yf, F(-2))
    assert termops.kveval(X, [yh]) == {}


def test_action_field_of_phi_sl2_vanishes(sl2):
    ct = liealg.canonical_tensors(sl2)
    assert not polyfield.action_field(ct.phi)


def test_action_field_of_phi_sl3_cubic(sl3):
    ct = liealg.canonical_tensors(sl3)
    f = polyfield.action_field(ct.phi)
    assert f
    assert {sum(e) for (e, _) in termops.unpack(f)} == {3}


def test_action_intertwines_brackets(sl2, sl3, so5):
    rng = random.Random(5)
    for L in (sl2, sl3, so5):
        for p, q in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            for _ in range(3):
                keysp = list(itertools.combinations(range(L.dim), p))
                keysq = list(itertools.combinations(range(L.dim), q))
                a = multivec.MultiTensor(
                    L, p, {rng.choice(keysp): F(rng.randint(1, 3))}, "alternating"
                )
                b = multivec.MultiTensor(
                    L, q, {rng.choice(keysq): F(rng.randint(1, 3))}, "alternating"
                )
                lhs = polyfield.schouten_nijenhuis(
                    polyfield.action_field(a), polyfield.action_field(b)
                )
                # the action-Schouten sign, locked at 1
                rhs = termops.pscale(polyfield.action_field(multivec.algebraic_schouten(a, b)), 1)
                assert lhs == rhs


def test_vector_fields_intertwine(sl3):
    for x in range(sl3.dim):
        for y in range(sl3.dim):
            lhs = polyfield.schouten_nijenhuis(
                termops.pack(coadjoint_field(sl3, x), sl3.dim),
                termops.pack(coadjoint_field(sl3, y), sl3.dim),
            )
            images = {}
            for k, c in sl3.bracket(x, y).items():
                termops.piadd(images, coadjoint_field(sl3, k), c)
            assert termops.unpack(lhs) == images


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis properties


def test_sn_square_is_twice_jacobiator(sl2):
    rng = random.Random(9)
    coords = [coordinate(sl2, i) for i in range(sl2.dim)]
    for _ in range(10):
        P = rand_field(sl2, 2, rng, nterms=4)
        sq = polyfield.schouten_nijenhuis(P, P)
        br = functools.partial(termops.bivector_eval, P)
        for f, g, h in itertools.combinations(coords, 3):
            jac = {}
            termops.piadd(jac, br(f, br(g, h)), F(1))
            termops.piadd(jac, br(g, br(h, f)), F(1))
            termops.piadd(jac, br(h, br(f, g)), F(1))
            assert termops.kveval(sq, [f, g, h]) == termops.pscale(jac, F(2))


def test_sn_graded_axioms(sl2):
    rng = random.Random(21)
    sn = polyfield.schouten_nijenhuis
    for p, q in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        for _ in range(4):
            A, B = rand_field(sl2, p, rng), rand_field(sl2, q, rng)
            assert sn(A, B) == termops.pscale(sn(B, A), -((-1) ** ((p - 1) * (q - 1))))
    for p, q, r in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
        for _ in range(4):
            A, B, C = (rand_field(sl2, d, rng) for d in (p, q, r))
            lhs = sn(A, sn(B, C))
            rhs = termops.padd(sn(sn(A, B), C), sn(B, sn(A, C)), (-1) ** ((p - 1) * (q - 1)))
            assert lhs == rhs
    # wedge Leibniz
    for p, q, r in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)]:
        for _ in range(4):
            A, B, C = (rand_field(sl2, d, rng) for d in (p, q, r))
            lhs = sn(A, termops.smul(B, C))
            rhs = termops.padd(
                termops.smul(sn(A, B), C),
                termops.smul(B, sn(A, C)),
                (-1) ** ((p - 1) * q),
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the linear and quadratic brackets


def test_kirillov_examples(sl2):
    s = polyfield.kirillov_bracket(sl2)
    yh, ye, yf = (coordinate(sl2, i) for i in (0, 1, 2))
    assert termops.bivector_eval(s, ye, yf) == yh
    assert termops.bivector_eval(s, yh, ye) == termops.pscale(ye, F(2))
    assert termops.bivector_eval(s, yh, yf) == termops.pscale(yf, F(-2))
    assert not polyfield.schouten_nijenhuis(s, s)
    assert polyfield.is_invariant_field(sl2, s)


def test_field_roundtrip_from_coordinate_values(sl3):
    s = polyfield.kirillov_bracket(sl3)
    rebuilt = {}
    for i in range(sl3.dim):
        for j in range(i + 1, sl3.dim):
            val = termops.bivector_eval(s, coordinate(sl3, i), coordinate(sl3, j))
            for e, c in val.items():
                rebuilt[(e, (i, j))] = c
    assert rebuilt == termops.unpack(s)


def test_rmatrix_bracket_poisson_on_rank1(sl2):
    ct = liealg.canonical_tensors(sl2)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    assert not polyfield.schouten_nijenhuis(rm, rm)


def test_rmatrix_bracket_square_is_phi_field(sl3):
    ct = liealg.canonical_tensors(sl3)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    sq = polyfield.schouten_nijenhuis(rm, rm)
    assert sq
    assert sq == polyfield.action_field(ct.phi)


def test_triangular_cartan_bivector_poisson(sl3):
    r = multivec.MultiTensor(sl3, 2, {(0, 1): F(1)}, "alternating")
    rm = polyfield.rmatrix_bracket(r)
    assert not polyfield.schouten_nijenhuis(rm, rm)


# ---------------------------------------------------------------------------
# equivariant solver


def test_equivariant_dimensions(sl2, sl3, so5):
    assert len(polyfield.invariant_field_space(sl2, 2, 2)) == 0
    assert len(polyfield.invariant_field_space(sl3, 2, 2)) == 1
    assert len(polyfield.invariant_field_space(so5, 2, 2)) == 0


def test_invariant_linear_fields_are_euler_multiples(sl2, sl3, so5):
    # Schur: equivariant linear maps of a simple module are scalars, so
    # the invariant linear vector fields are the multiples of the Euler
    # field; a strong independent sanity check of the solver
    for L in (sl2, sl3, so5):
        fields = polyfield.invariant_field_space(L, 1, 1)
        assert len(fields) == 1
        euler = termops.pack(
            {(tuple(1 if j == i else 0 for j in range(L.dim)), (i,)): F(1) for i in range(L.dim)},
            L.dim,
        )
        assert polyfield.fields_proportional(fields[0], euler) is not None


# spaces of dimension 0 or 1, and of dimension 3 at (2, 3) on A2, B2 and
# C2, which pins the order and the scale of a basis of several vectors
@pytest.mark.parametrize(
    "name, p, q",
    [
        (name, p, q)
        for name in ["A1", "A2", "A3", "B2", "C2"]
        for p, q in [(0, 2), (0, 3), (1, 1), (2, 1), (2, 2), (3, 0), (3, 1)]
    ]
    + [(name, 2, 3) for name in ["A2", "B2", "C2"]],
)
def test_solve_equivariant_matches_schouten_rows(name, p, q):
    L = liealg.algebra(name[0], int(name[1:]))
    solved = tuple(termops.unpack(f) for f in polyfield.solve_equivariant(L, p, q))
    assert solved == solve_equivariant_by_schouten(L, p, q)


@st.composite
def single_terms(draw):
    """An algebra and one term ``c * y^e d/dy_D`` with ``|D| <= 3``, ``|e| <= 3``."""
    name = draw(st.sampled_from(["A1", "A2", "A3", "B2"]))
    L = liealg.algebra(name[0], int(name[1:]))
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    ders = draw(st.sampled_from(list(itertools.combinations(range(L.dim), p))))
    exps = draw(st.sampled_from(polyfield.monomials(L.dim, q)))
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool))
    return L, exps, ders, c


@LAWS
@given(single_terms())
def test_derivation_part_is_the_schouten_bracket_of_a_constant_term(term):
    # [X, c d/dy_D] from the numbers d X_k / dy_m of the coadjoint field,
    # read here from the oracle's field, against the oracle's bracket
    L, _, ders, c = term
    zero = (0,) * L.dim
    for x in range(L.dim):
        X = coadjoint_field(L, x)
        jac = {}
        for (e, (k,)), v in X.items():
            jac.setdefault(e.index(1), {})[k] = v
        part = polyfield._derivation_part(jac, ders)
        assert {(zero, d): c * v for d, v in part.items()} == sn_bracket(X, 1, {(zero, ders): c})


def test_the_solver_reads_the_action_only_through_its_fields(sl3, monkeypatch):
    # with the coadjoint fields packed, the solve and its re-verification
    # read no structure constant
    monkeypatch.setattr(liealg, "_ALGEBRA_CACHE", {})
    L = liealg.algebra("A", 2)
    for i in range(L.dim):
        polyfield.coadjoint_field(L, i)

    class Refuse(dict):
        def refuse(self, *args):
            raise AssertionError("the structure constants were read")

        __getitem__ = __contains__ = __iter__ = __len__ = get = items = keys = values = refuse

    monkeypatch.setattr(L, "struct", Refuse())
    assert polyfield.solve_equivariant(L, 2, 2) == polyfield.solve_equivariant(sl3, 2, 2)


def test_rows_without_the_derivation_part_are_caught(sl3, monkeypatch):
    # the coefficient part alone admits non-invariant fields, such as the
    # Casimir times a weight-zero wedge; the re-verification must refuse them
    monkeypatch.setattr(polyfield, "_derivation_part", lambda jac, ders: {})
    with pytest.raises(AssertionError, match="solver produced a non-invariant field"):
        polyfield.solve_equivariant(sl3, 2, 2)
    # and the suite does not pass over them once the cached basis is gone
    monkeypatch.delitem(sl3.memo, ("invariant fields", 2, 2), raising=False)
    with pytest.raises(AssertionError, match="solver produced a non-invariant field"):
        suites.run_suite(suites.SuiteConfig(algebra="A2", suite="phi-bracket"))


def test_elimination_without_normalisation_is_caught(sl3, monkeypatch):
    # pivot rows left over their int pivots give wrong kernel vectors; the
    # re-verification must refuse the fields they make
    monkeypatch.setattr(
        linalg,
        "_eliminate",
        lambda rows: {
            c0: {c: F(v) for c, v in row.items()} for c0, row in linalg._pivot_rows(rows).items()
        },
    )
    with pytest.raises(AssertionError, match="solver produced a non-invariant field"):
        polyfield.solve_equivariant(sl3, 2, 2)


def test_equivariant_resource_guard(sl3, monkeypatch):
    monkeypatch.setattr(polyfield, "EQUIVARIANT_ENTRY_CAP", 10)
    with pytest.raises(termops.ResourceLimitError):
        polyfield.invariant_field_space(sl3, 2, 2)


def test_resource_guard_holds_after_caching(sl3, monkeypatch):
    assert len(polyfield.invariant_field_space(sl3, 2, 2)) == 1
    monkeypatch.setattr(polyfield, "EQUIVARIANT_ENTRY_CAP", 10)
    with pytest.raises(termops.ResourceLimitError):
        polyfield.invariant_field_space(sl3, 2, 2)


def test_cached_basis_cannot_be_changed_through_the_result(sl3):
    space = polyfield.invariant_field_space(sl3, 2, 2)
    assert isinstance(space, tuple)
    with pytest.raises(TypeError):
        space[0] = {}
    taken = list(space)
    taken.clear()
    again = polyfield.invariant_field_space(sl3, 2, 2)
    assert again is space
    assert again == polyfield.solve_equivariant(sl3, 2, 2)


def test_quadratic_bracket_requires_type_a_rank2(sl2, so5):
    with pytest.raises(polyfield.NoSolutionError):
        polyfield.quadratic_bracket(sl2)
    with pytest.raises(polyfield.NoSolutionError):
        polyfield.quadratic_bracket(so5)


def test_calibration_sl3(sl3):
    cal = polyfield.calibrate_scale(sl3)
    assert cal.lam_squared == F(1, 36)
    assert cal.lam == F(1, 6)
    assert cal.obstruction == ""
    f = termops.pscale(cal.f0, cal.lam)
    s = polyfield.kirillov_bracket(sl3)
    assert not polyfield.schouten_nijenhuis(s, f)
    ff = polyfield.schouten_nijenhuis(f, f)
    assert ff == termops.pscale(polyfield.phibar(sl3), -1)
    # the opposite scale works as well (both signs calibrate)
    fneg = termops.pscale(cal.f0, -cal.lam)
    assert polyfield.schouten_nijenhuis(fneg, fneg) == ff


def test_phibar(sl2, sl3):
    assert not polyfield.phibar(sl2)
    pb = polyfield.phibar(sl3)
    ct = liealg.canonical_tensors(sl3)
    assert pb == termops.pscale(polyfield.action_field(ct.phi), polyfield.PHIBAR_SIGN)
    assert polyfield.PHIBAR_SIGN == 1
    # invariance: the Lie derivative along every coadjoint field vanishes
    assert polyfield.is_invariant_field(sl3, pb)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_phibar_matches_pmul_oracle(name):
    L = liealg.algebra(name[0], int(name[1:]))
    assert termops.unpack(polyfield.phibar(L)) == phibar_by_pmul(L)


def test_gl_transport_matches_solver_generator(sl3):
    transported = polyfield.gl_transport_quadratic_bracket(sl3)
    f0 = polyfield.quadratic_bracket(sl3)
    ratio = polyfield.fields_proportional(transported, f0)
    assert ratio is not None and ratio != 0


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_gl_transport_matches_its_product_oracle(name):
    L = liealg.algebra(name[0], int(name[1:]))
    assert polyfield.gl_transport_quadratic_bracket(L) == termops.pack(transport_bracket(L), L.dim)


@pytest.mark.parametrize("name", ["A1", "A2", "A3"])
def test_fields_store_no_zero_value(name):
    # a field is a zero-free term dict: equality of fields and
    # fields_proportional compare stored terms and rely on it
    L = liealg.algebra(name[0], int(name[1:]))
    ct = liealg.canonical_tensors(L)
    fields = {
        "kirillov_bracket": polyfield.kirillov_bracket(L),
        "rmatrix_bracket": polyfield.rmatrix_bracket(ct.r_sd),
        "action_field(phi)": polyfield.action_field(ct.phi),
        "phibar": polyfield.phibar(L),
        "gl_transport_quadratic_bracket": polyfield.gl_transport_quadratic_bracket(L),
        **{
            f"invariant_field_space[{i}]": f
            for i, f in enumerate(polyfield.invariant_field_space(L, 2, 2))
        },
    }
    if L.rank >= 2:
        fields["calibrate_scale.ff"] = polyfield.calibrate_scale(L).ff
    assert [label for label, f in fields.items() if not all(termops.unpack(f).values())] == []


# ---------------------------------------------------------------------------
# pencils and the scan


def test_pencil_s_with_quadratic(sl3):
    cal = polyfield.calibrate_scale(sl3)
    f = termops.pscale(cal.f0, cal.lam)
    ct = liealg.canonical_tensors(sl3)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    p = termops.padd(f, rm, -1)
    s = polyfield.kirillov_bracket(sl3)
    sn = polyfield.schouten_nijenhuis
    assert not sn(s, s) and not sn(p, p) and not sn(s, p)
    # the difference is Poisson although neither summand is
    assert polyfield.schouten_nijenhuis(f, f)
    assert polyfield.schouten_nijenhuis(rm, rm)


def test_pencil_trivial_and_failing(sl3):
    s = polyfield.kirillov_bracket(sl3)
    assert not polyfield.schouten_nijenhuis(s, s)
    rm = polyfield.rmatrix_bracket(liealg.canonical_tensors(sl3).r_sd)
    assert polyfield.schouten_nijenhuis(rm, rm)


def test_scan_sl2(sl2):
    entries = polyfield.invariant_bivector_scan(sl2, 3)
    dims = [(e.degree, e.dimension, e.invariant_poly_dim) for e in entries]
    assert dims == [(1, 1, 1), (2, 0, 0), (3, 1, 1)]
    assert all(not e.extras for e in entries)
    # degree 3 is spanned by Casimir times the linear bivector
    casimir = polyfield.invariant_field_space(sl2, 0, 2)[0]
    s = polyfield.kirillov_bracket(sl2)
    cs = termops.smul(casimir, s)
    assert polyfield.fields_proportional(polyfield.invariant_field_space(sl2, 2, 3)[0], cs) is not None


def test_scan_sl3_flags_quadratic_exception(sl3):
    entries = polyfield.invariant_bivector_scan(sl3, 2)
    assert entries[0].dimension == 1 and not entries[0].extras
    deg2 = entries[1]
    assert deg2.dimension == 1
    assert len(deg2.extras) == 1
    f0 = polyfield.quadratic_bracket(sl3)
    assert polyfield.fields_proportional(deg2.extras[0], f0) is not None


def test_scan_so5_no_quadratic_invariant(so5):
    entries = polyfield.invariant_bivector_scan(so5, 2)
    assert [e.dimension for e in entries] == [1, 0]


def test_invariant_polynomial_dims(sl2, sl3, so5):
    assert [len(polyfield.invariant_field_space(sl2, 0, k)) for k in range(4)] == [1, 0, 1, 0]
    assert [len(polyfield.invariant_field_space(sl3, 0, k)) for k in range(4)] == [1, 0, 1, 1]
    # degree 0 is the unit, which the scan multiplies the linear bracket by
    for L in (sl2, sl3, so5):
        unit = termops.pack({((0,) * L.dim, ()): F(1)}, L.dim)
        assert polyfield.invariant_field_space(L, 0, 0) == (unit,)
