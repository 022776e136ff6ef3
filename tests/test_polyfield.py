import itertools
import random
from fractions import Fraction

import pytest

from qpverify import liealg, multivec, polyfield, termops

F = Fraction


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
    return polyfield.PolyVectorField(L, p, out)


# ---------------------------------------------------------------------------
# action fields


def test_coadjoint_field_of_cartan(sl2):
    X = polyfield.coadjoint_field(sl2, 0)
    ye, yf, yh = (polyfield.coordinate(sl2, i) for i in (1, 2, 0))
    assert X.evaluate(ye) == termops.pscale(ye, F(2))
    assert X.evaluate(yf) == termops.pscale(yf, F(-2))
    assert X.evaluate(yh) == {}


def test_action_field_of_phi_sl2_vanishes(sl2):
    ct = liealg.canonical_tensors(sl2)
    assert polyfield.action_field(ct.phi).is_zero()


def test_action_field_of_phi_sl3_cubic(sl3):
    ct = liealg.canonical_tensors(sl3)
    f = polyfield.action_field(ct.phi)
    assert not f.is_zero()
    assert {sum(e) for (e, _) in f.terms} == {3}


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
                rhs = polyfield.action_field(multivec.algebraic_schouten(a, b)).scale(
                    polyfield.ACTION_SCHOUTEN_SIGN
                )
                assert lhs == rhs
    assert polyfield.ACTION_SCHOUTEN_SIGN == 1


def test_vector_fields_intertwine(sl3):
    for x in range(sl3.dim):
        for y in range(sl3.dim):
            lhs = polyfield.schouten_nijenhuis(
                polyfield.coadjoint_field(sl3, x), polyfield.coadjoint_field(sl3, y)
            )
            rhs = polyfield.coadjoint_field(sl3, dict(sl3.bracket(x, y)))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis properties


def test_sn_square_is_twice_jacobiator(sl2):
    rng = random.Random(9)
    coords = [polyfield.coordinate(sl2, i) for i in range(sl2.dim)]
    for _ in range(10):
        P = rand_field(sl2, 2, rng, nterms=4)
        sq = polyfield.schouten_nijenhuis(P, P)
        for f, g, h in itertools.combinations(coords, 3):
            jac = {}
            termops.piadd(jac, P.bracket(f, P.bracket(g, h)), F(1))
            termops.piadd(jac, P.bracket(g, P.bracket(h, f)), F(1))
            termops.piadd(jac, P.bracket(h, P.bracket(f, g)), F(1))
            assert sq.evaluate(f, g, h) == termops.pscale(jac, F(2))


def test_sn_graded_axioms(sl2):
    rng = random.Random(21)
    sn = polyfield.schouten_nijenhuis
    for p, q in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        for _ in range(4):
            A, B = rand_field(sl2, p, rng), rand_field(sl2, q, rng)
            assert sn(A, B) == sn(B, A).scale(-((-1) ** ((p - 1) * (q - 1))))
    for p, q, r in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
        for _ in range(4):
            A, B, C = (rand_field(sl2, d, rng) for d in (p, q, r))
            lhs = sn(A, sn(B, C))
            rhs = sn(sn(A, B), C).add(sn(B, sn(A, C)).scale((-1) ** ((p - 1) * (q - 1))))
            assert lhs == rhs
    # wedge Leibniz
    for p, q, r in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)]:
        for _ in range(4):
            A, B, C = (rand_field(sl2, d, rng) for d in (p, q, r))
            lhs = sn(A, B.wedge(C))
            rhs = sn(A, B).wedge(C).add(B.wedge(sn(A, C)).scale((-1) ** ((p - 1) * q)))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the linear and quadratic brackets


def test_kirillov_examples(sl2):
    s = polyfield.kirillov_bracket(sl2)
    yh, ye, yf = (polyfield.coordinate(sl2, i) for i in (0, 1, 2))
    assert s.bracket(ye, yf) == yh
    assert s.bracket(yh, ye) == termops.pscale(ye, F(2))
    assert s.bracket(yh, yf) == termops.pscale(yf, F(-2))
    assert polyfield.schouten_nijenhuis(s, s).is_zero()
    assert polyfield.is_invariant_field(s)


def test_field_roundtrip_from_coordinate_values(sl3):
    s = polyfield.kirillov_bracket(sl3)
    rebuilt = {}
    for i in range(sl3.dim):
        for j in range(i + 1, sl3.dim):
            val = s.bracket(polyfield.coordinate(sl3, i), polyfield.coordinate(sl3, j))
            for e, c in val.items():
                rebuilt[(e, (i, j))] = c
    assert polyfield.PolyVectorField(sl3, 2, rebuilt) == s


def test_rmatrix_bracket_poisson_on_rank1(sl2):
    ct = liealg.canonical_tensors(sl2)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    assert polyfield.schouten_nijenhuis(rm, rm).is_zero()


def test_rmatrix_bracket_square_is_phi_field(sl3):
    ct = liealg.canonical_tensors(sl3)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    sq = polyfield.schouten_nijenhuis(rm, rm)
    assert not sq.is_zero()
    assert sq == polyfield.action_field(ct.phi)


def test_triangular_cartan_bivector_poisson(sl3):
    r = multivec.MultiTensor(sl3, 2, {(0, 1): F(1)}, "alternating")
    rm = polyfield.rmatrix_bracket(r)
    assert polyfield.schouten_nijenhuis(rm, rm).is_zero()


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
        euler = polyfield.PolyVectorField(
            L,
            1,
            {
                (tuple(1 if j == i else 0 for j in range(L.dim)), (i,)): F(1)
                for i in range(L.dim)
            },
        )
        assert polyfield.fields_proportional(fields[0], euler) is not None


def test_equivariant_resource_guard(sl3):
    with pytest.raises(polyfield.ResourceLimitError):
        polyfield.invariant_field_space(sl3, 2, 2, cap=10)


def test_resource_guard_holds_after_caching(sl3):
    assert len(polyfield.invariant_field_space(sl3, 2, 2)) == 1
    with pytest.raises(polyfield.ResourceLimitError):
        polyfield.invariant_field_space(sl3, 2, 2, cap=10)


def test_cached_basis_cannot_be_changed_through_the_result(sl3):
    space = polyfield.invariant_field_space(sl3, 2, 2)
    assert isinstance(space, tuple)
    with pytest.raises(TypeError):
        space[0] = polyfield.PolyVectorField.zero(sl3, 2)
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
    f = cal.f0.scale(cal.lam)
    s = polyfield.kirillov_bracket(sl3)
    assert polyfield.schouten_nijenhuis(s, f).is_zero()
    ff = polyfield.schouten_nijenhuis(f, f)
    assert ff == polyfield.phibar(sl3).scale(-1)
    # the opposite scale works as well (both signs calibrate)
    fneg = cal.f0.scale(-cal.lam)
    assert polyfield.schouten_nijenhuis(fneg, fneg) == ff


def test_phibar(sl2, sl3):
    assert polyfield.phibar(sl2).is_zero()
    pb = polyfield.phibar(sl3)
    ct = liealg.canonical_tensors(sl3)
    assert pb == polyfield.action_field(ct.phi).scale(polyfield.PHIBAR_SIGN)
    assert polyfield.PHIBAR_SIGN == 1
    # invariance: the Lie derivative along every coadjoint field vanishes
    assert polyfield.is_invariant_field(pb)


def test_gl_transport_matches_solver_generator(sl3):
    transported = polyfield.gl_transport_quadratic_bracket(sl3)
    f0 = polyfield.quadratic_bracket(sl3)
    ratio = polyfield.fields_proportional(transported, f0)
    assert ratio is not None and ratio != 0


# ---------------------------------------------------------------------------
# pencils and the scan


def test_pencil_s_with_quadratic(sl3):
    cal = polyfield.calibrate_scale(sl3)
    f = cal.f0.scale(cal.lam)
    ct = liealg.canonical_tensors(sl3)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    p = f.sub(rm)
    s = polyfield.kirillov_bracket(sl3)
    rep = polyfield.poisson_pencil_check(s, p)
    assert rep.pp.is_zero() and rep.qq.is_zero() and rep.pq.is_zero()
    assert rep.pencil_poisson
    # the difference is Poisson although neither summand is
    assert not polyfield.schouten_nijenhuis(f, f).is_zero()
    assert not polyfield.schouten_nijenhuis(rm, rm).is_zero()


def test_pencil_trivial_and_failing(sl3):
    s = polyfield.kirillov_bracket(sl3)
    assert polyfield.poisson_pencil_check(s, s).pencil_poisson
    rm = polyfield.rmatrix_bracket(liealg.canonical_tensors(sl3).r_sd)
    rep = polyfield.poisson_pencil_check(s, rm)
    assert not rep.qq.is_zero()
    assert not rep.pencil_poisson


def test_scan_sl2(sl2):
    entries = polyfield.invariant_bivector_scan(sl2, 3)
    dims = [(e.degree, e.dimension, e.invariant_poly_dim) for e in entries]
    assert dims == [(1, 1, 1), (2, 0, 0), (3, 1, 1)]
    assert all(e.all_kirillov_multiples for e in entries)
    # degree 3 is spanned by Casimir times the linear bivector
    casimir = polyfield.invariant_polynomials(sl2, 2)[0]
    s = polyfield.kirillov_bracket(sl2)
    cs = polyfield.PolyVectorField(
        sl2, 2, termops.smul({(e, ()): c for e, c in casimir.items()}, s.terms)
    )
    assert polyfield.fields_proportional(entries[2].basis[0], cs) is not None


def test_scan_sl3_flags_quadratic_exception(sl3):
    entries = polyfield.invariant_bivector_scan(sl3, 2)
    assert entries[0].dimension == 1 and entries[0].all_kirillov_multiples
    deg2 = entries[1]
    assert deg2.dimension == 1
    assert not deg2.all_kirillov_multiples
    assert len(deg2.extras) == 1
    f0 = polyfield.quadratic_bracket(sl3)
    assert polyfield.fields_proportional(deg2.extras[0], f0) is not None


def test_scan_so5_no_quadratic_invariant(so5):
    entries = polyfield.invariant_bivector_scan(so5, 2)
    assert [e.dimension for e in entries] == [1, 0]


def test_invariant_polynomial_dims(sl2, sl3):
    assert [len(polyfield.invariant_polynomials(sl2, k)) for k in range(4)] == [1, 0, 1, 0]
    assert [len(polyfield.invariant_polynomials(sl3, k)) for k in range(4)] == [1, 0, 1, 1]
