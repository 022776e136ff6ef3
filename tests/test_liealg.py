from fractions import Fraction

import pytest

from qpverify import liealg, multivec, rootsys

F = Fraction

CLASSICAL = [("A", 1), ("A", 2), ("B", 2), ("C", 2)]


@pytest.fixture(scope="module")
def algebras():
    return {spec: liealg.algebra(*spec) for spec in CLASSICAL + [("D", 4)]}


def test_dimensions(algebras):
    dims = {("A", 1): 3, ("A", 2): 8, ("B", 2): 10, ("C", 2): 10, ("D", 4): 28}
    for spec, d in dims.items():
        assert algebras[spec].dim == d


def test_unsupported_types():
    for series, rank in (("G", 2), ("F", 4), ("E", 6)):
        rs = rootsys.build_root_system(series, rank)
        with pytest.raises(liealg.UnsupportedTypeError):
            liealg.realize_classical(rs)


def test_basis_order_cartan_then_roots(algebras):
    L = algebras[("A", 2)]
    assert L.names[:2] == ["h1", "h2"]
    n_pos = len(L.positive_roots)
    assert all(n.startswith("x") for n in L.names[2 : 2 + n_pos])
    assert all(n.startswith("y") for n in L.names[2 + n_pos :])


@pytest.mark.parametrize("spec", CLASSICAL + [("D", 4)])
def test_antisymmetry_and_jacobi(spec, algebras):
    L = algebras[spec]
    for (i, j), row in L.struct.items():
        neg = {k: -c for k, c in row.items()}
        assert L.struct.get((j, i), {}) == neg
    # Jacobi: [[x,[y,z]] + cyclic = 0 on all basis triples
    for i in range(L.dim):
        bi = {i: F(1)}
        for j in range(i + 1, L.dim):
            bj = {j: F(1)}
            for k in range(j + 1, L.dim):
                bk = {k: F(1)}
                total = {}
                for u, v, w in ((bi, bj, bk), (bj, bk, bi), (bk, bi, bj)):
                    inner = L.bracket_elems(v, w)
                    for m, c in L.bracket_elems(u, inner).items():
                        s = total.get(m, F(0)) + c
                        if s:
                            total[m] = s
                        elif m in total:
                            del total[m]
                assert not total, (spec, i, j, k)


@pytest.mark.parametrize("spec", CLASSICAL)
def test_killing_symmetric_invariant_nondegenerate(spec, algebras):
    L = algebras[spec]
    K = L.killing
    for i in range(L.dim):
        for j in range(L.dim):
            assert K[i][j] == K[j][i]
    assert L.killing_inv is not None
    # invariance K([x,y],z) + K(y,[x,z]) = 0 on basis triples
    for x in range(L.dim):
        for y in range(L.dim):
            for z in range(L.dim):
                lhs = sum(c * K[k][z] for k, c in L.bracket(x, y).items())
                rhs = sum(c * K[y][k] for k, c in L.bracket(x, z).items())
                assert lhs + rhs == 0


@pytest.mark.parametrize("spec", CLASSICAL)
def test_matrix_commutators_reproduce_struct(spec, algebras):
    from qpverify import linalg, termops

    L = algebras[spec]
    for i in range(L.dim):
        for j in range(L.dim):
            comm = linalg.mat_commutator(L.matrices[i], L.matrices[j])
            rebuilt = {}
            for k, c in L.bracket(i, j).items():
                rebuilt = termops.padd(rebuilt, L.matrices[k], c)
            assert comm == rebuilt


def test_sl2_killing_values(algebras):
    L = algebras[("A", 1)]
    h, e, f = 0, 1, 2
    assert L.bracket(e, f) == {h: F(1)}
    assert L.bracket(h, e) == {e: F(2)}
    assert L.killing[e][f] == 4
    assert L.killing[h][h] == 8
    assert L.killing[e][e] == 0
    assert liealg.killing_form(L) == L.killing


def test_sl3_cartan_killing_is_six_times_cartan_matrix(algebras):
    L = algebras[("A", 2)]
    a = L.root_system.cartan_matrix
    for i in range(2):
        for j in range(2):
            assert L.killing[i][j] == 6 * a[i][j]


def test_coroot_action_matches_pairing(algebras):
    L = algebras[("B", 2)]
    rs = L.root_system
    for i in range(rs.rank):
        for beta in rs.positive_roots:
            idx = L.pos_index(beta)
            assert L.bracket(i, idx) == (
                {idx: F(rs.pairing(beta, i))} if rs.pairing(beta, i) else {}
            )


def test_canonical_tensors_sl2(algebras):
    L = algebras[("A", 1)]
    ct = liealg.canonical_tensors(L)
    # r = (1/4)(e (x) f - f (x) e) once the lowering vector is normalized
    assert ct.r_sd.terms == {(1, 2): F(1, 4)}
    assert ct.r_sd.plain_dict() == {(1, 2): F(1, 4), (2, 1): F(-1, 4)}
    # phi = (1/8) h^e^f, i.e. -(1/8) times the alternation of e(x)h(x)f
    assert ct.phi.terms == {(0, 1, 2): F(1, 8)}
    alt_ehf = multivec.wedge_of(L, {1: F(1)}, {0: F(1)}, {2: F(1)})
    assert ct.phi == alt_ehf.scale(F(-1, 8))


@pytest.mark.parametrize("spec", CLASSICAL)
def test_r_normalization_killing_one(spec, algebras):
    L = algebras[spec]
    ct = liealg.canonical_tensors(L)
    # each canonical term pairs a raising index with a lowering index and
    # the rescaled pair has Killing pairing exactly 1
    for beta in L.positive_roots:
        ip, ineg = L.pos_index(beta), L.neg_index(beta)
        key = (ip, ineg) if ip < ineg else (ineg, ip)
        coeff = ct.r_sd.terms[key]
        assert coeff * L.killing[ip][ineg] in (F(1), F(-1))


@pytest.mark.parametrize("spec", CLASSICAL)
def test_t_and_phi_invariant(spec, algebras):
    L = algebras[spec]
    ct = liealg.canonical_tensors(L)
    assert multivec.is_invariant(ct.t)
    assert multivec.is_invariant(ct.phi)
    if L.rank >= 2:
        assert not ct.phi.is_zero()


def test_t_invariance_identity_from_struct(algebras):
    # sum_k (c_{ik}^a t^{kb} + c_{ik}^b t^{ak}) = 0
    L = algebras[("A", 2)]
    tinv = L.killing_inv
    for i in range(L.dim):
        for a in range(L.dim):
            for b in range(L.dim):
                total = F(0)
                for k in range(L.dim):
                    row = L.bracket(i, k)
                    # [b_i, b_k] coefficient on a and on b
                    total += row.get(a, F(0)) * tinv[k][b] + row.get(b, F(0)) * tinv[a][k]
                assert total == 0


def test_r_sd_weight_zero(algebras):
    for spec in CLASSICAL:
        L = algebras[spec]
        ct = liealg.canonical_tensors(L)
        for key in ct.r_sd.terms:
            assert L.weight_of_key(key) == tuple([0] * L.rank)


@pytest.mark.parametrize("spec", CLASSICAL)
def test_phi_proportional_to_raised_structure_trivector(spec, algebras):
    L = algebras[spec]
    ct = liealg.canonical_tensors(L)
    K, Ki = L.killing, L.killing_inv
    lowered = {}
    for (i, j), row in L.struct.items():
        for k, c in row.items():
            for m in range(L.dim):
                if K[k][m]:
                    key = (i, j, m)
                    s = lowered.get(key, F(0)) + c * K[k][m]
                    if s:
                        lowered[key] = s
                    elif key in lowered:
                        del lowered[key]
    raised = {}
    for (i, j, m), c in lowered.items():
        for a in range(L.dim):
            ka = Ki[i][a]
            if not ka:
                continue
            for b in range(L.dim):
                kb = Ki[j][b]
                if not kb:
                    continue
                for d in range(L.dim):
                    kd = Ki[m][d]
                    if not kd:
                        continue
                    key = (a, b, d)
                    s = raised.get(key, F(0)) + c * ka * kb * kd
                    if s:
                        raised[key] = s
                    elif key in raised:
                        del raised[key]
    phi_plain = ct.phi.plain_dict()
    key0 = next(iter(phi_plain))
    ratio = phi_plain[key0] / raised[key0]
    assert all(phi_plain.get(k, F(0)) == ratio * v for k, v in raised.items())
    assert set(phi_plain) == {k for k, v in raised.items() if v}
    # recorded constant: the ratio comes out to -2 for every classical type
    assert ratio == F(-2)


def test_weight_zero_r_unique_up_to_scalar_sl2_sl3(algebras):
    # the root-pair ansatz r(c) = sum c_b X_b ^ X_-b solves the
    # Yang-Baxter condition with invariant right-hand side iff c is a
    # scalar multiple of the standard choice
    L2 = algebras[("A", 1)]
    ct2 = liealg.canonical_tensors(L2)
    for c in (F(0), F(1), F(-3), F(7, 2)):
        sq = multivec.algebraic_schouten(ct2.r_sd.scale(c), ct2.r_sd.scale(c))
        assert multivec.is_invariant(sq)

    L3 = algebras[("A", 2)]
    pairs = []
    for beta in L3.positive_roots:
        ip, ineg = L3.pos_index(beta), L3.neg_index(beta)
        norm = L3.killing[ip][ineg]
        pairs.append(
            multivec.MultiTensor(L3, 2, {(ip, ineg): F(1) / norm}, "alternating")
        )

    def invariant_square(c):
        r = multivec.MultiTensor.zero(L3, 2, "alternating")
        for ci, P in zip(c, pairs):
            r = r.add(P.scale(ci))
        return multivec.is_invariant(multivec.algebraic_schouten(r, r))

    # solutions on the grid are exactly the scalar multiples of the
    # standard ray and of its two images under relabeling the positive
    # system (simple-reflection sign patterns)
    rays = {(1, 1, 1), (1, -1, 1), (1, -1, -1)}

    def on_solution_ray(vec):
        if not any(vec):
            return True
        for ray in rays:
            for lead, r0 in zip(vec, ray):
                if lead:
                    lam = F(lead, r0)
                    break
            if all(v == lam * r for v, r in zip(vec, ray)):
                return True
        return False

    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                vec = (a, b, c)
                assert invariant_square([F(x) for x in vec]) == on_solution_ray(vec), vec


@pytest.mark.parametrize(
    "spec,coeff",
    [
        (("A", 1), 4), (("A", 2), 6), (("A", 3), 8),   # 2n for sl(n)
        (("B", 2), 3), (("B", 3), 5),                   # m-2 for so(m)
        (("C", 2), 6), (("C", 3), 8),                   # 2n+2 for sp(2n)
        (("D", 4), 6),
    ],
)
def test_killing_is_classical_multiple_of_trace_form(spec, coeff):
    from qpverify import linalg

    L = liealg.algebra(*spec)
    for i in range(L.dim):
        for j in range(L.dim):
            tr = linalg.mat_trace_product(L.matrices[i], L.matrices[j])
            assert L.killing[i][j] == coeff * tr


def test_deterministic_construction():
    rs = rootsys.build_root_system("A", 2)
    L1 = liealg.realize_classical(rs)
    L2 = liealg.realize_classical(rs)
    assert L1.names == L2.names
    assert L1.struct == L2.struct
    assert L1.killing == L2.killing
