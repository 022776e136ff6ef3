import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    apply_derivation,
    bivector_table,
    doubled_smallest_term,
    pairwise_hochschild_witness,
    pentagon_total,
    table_row,
)
from qpverify import (
    cli, grouppois, liealg, linalg, multivec, orbits, polyfield, quantize, rootsys, suites, termops,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _expected_verdicts():
    """The benchmark's hand-written verdict table, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.EXPECTED


EXPECTED = _expected_verdicts()


def _invocation_id(invocation):
    return "-".join(arg for arg in invocation if not arg.startswith("--"))


@pytest.mark.parametrize("invocation", list(EXPECTED), ids=_invocation_id)
def test_benchmark_invocation_gives_the_expected_verdicts(invocation):
    args = cli.build_parser().parse_args(list(invocation))
    report = suites.run_suite(
        suites.SuiteConfig(algebra=args.algebra, suite=args.suite, degree=args.degree, seed=0)
    )
    assert {c.id: c.status for c in report.checks} == EXPECTED[invocation]


def test_parse_algebra_aliases_and_errors():
    assert suites.parse_algebra("sl2") == ("A", 1)
    assert suites.parse_algebra("SL9") == ("A", 8)
    assert suites.parse_algebra("so5") == ("B", 2)
    assert suites.parse_algebra("sp4") == ("C", 2)
    assert suites.parse_algebra("so8") == ("D", 4)
    assert suites.parse_algebra("e6") == ("E", 6)
    with pytest.raises(suites.UsageError):
        suites.parse_algebra("so6")
    with pytest.raises(suites.UsageError):
        suites.parse_algebra("sl1")


def test_jsonable_exact_values():
    assert suites.jsonable(Fraction(3, 7)) == "3/7"
    assert suites.jsonable(Fraction(-4)) == "-4"
    assert suites.jsonable({(1, 0): Fraction(1, 2)}) == {"[1, 0]": "1/2"}
    assert suites.jsonable([Fraction(1), (2, 3)]) == ["1", [2, 3]]
    assert suites.jsonable(frozenset({2, 1})) == [1, 2]


def test_aggregate_pass_with_skipped_checks():
    # the pentagon suite on a rank-2 algebra skips the adjoint
    # cross-check but still aggregates to pass
    report = suites.run_suite(suites.SuiteConfig(algebra="A2", suite="pentagon"))
    statuses = {c.id: c.status for c in report.checks}
    assert statuses["pentagon-adjoint"] == "skip"
    assert report.aggregate == "pass"


def test_report_config_records_all_degree_knobs():
    report = suites.run_suite(
        suites.SuiteConfig(algebra="A1", suite="pbw", degree=3, seed=5)
    )
    payload = json.loads(report.to_json())
    assert payload["config"] == {"degree": 3, "seed": 5}


def test_pbw_degree_knob_controls_counts():
    report = suites.run_suite(
        suites.SuiteConfig(algebra="A1", suite="pbw", degree=2)
    )
    counts = next(
        c for c in report.checks if c.id == "normal-form-counts"
    ).witness["counts"]
    assert counts == [1, 3, 6]


def _witnesses(suite, algebra):
    report = suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite))
    return {c.id: c.witness for c in report.checks}


def test_entry_ring_witnesses_a2():
    ad = _witnesses("ad-bracket", "A2")
    assert ad["phi-bracket-identity-on-generators"] == {"jacobiator_entries": 77}
    sk = _witnesses("group-sklyanin", "A2")
    assert sk["square-mismatch-jacobiator-witness"] == {"witness_triple": [0, 1, 3]}


def test_pbw_witnesses_a1():
    # the Jacobi fault is one corrupted rule of the table: the word it
    # fails on and both of its normal forms are pinned
    pbw = _witnesses("pbw", "A1")
    assert pbw["jacobi-fault-detected"] == {
        "word": [2, 1, 0],
        "t": "1",
        "leftmost": {"(0, 0)": "-1", "(0, 1, 2)": "1", "(0, 2)": "-1"},
        "rightmost": {"(0, 0)": "-1", "(0, 1, 2)": "1", "(0, 2)": "-1", "(2,)": "-2"},
    }
    assert pbw["normal-form-counts"] == {"counts": [1, 3, 6, 10, 15], "confluence_words": 101}


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cold_phi_bracket_builds_each_object_once(monkeypatch):
    monkeypatch.setattr(liealg, "_ALGEBRA_CACHE", {})
    solves = _count_calls(monkeypatch, polyfield, "solve_equivariant")
    nullspaces = _count_calls(monkeypatch, linalg, "nullspace_sparse")
    phibars = _count_calls(monkeypatch, polyfield, "phibar")
    pushes = _count_calls(monkeypatch, polyfield, "action_field")
    brackets = _count_calls(monkeypatch, polyfield, "schouten_nijenhuis")
    report = suites.run_suite(suites.SuiteConfig(algebra="A2", suite="phi-bracket"))
    assert report.aggregate == "pass"
    L = liealg.algebra("A", 2)
    phi = liealg.canonical_tensors(L).phi
    f0 = polyfield.quadratic_bracket(L)
    assert [args[1:] for args in solves] == [(2, 2)]
    assert len(nullspaces) == 1
    assert len(phibars) == 1
    assert sum(psi is phi for (psi,) in pushes) == 1
    assert sum(P is f0 and Q is f0 for P, Q in brackets) == 1


def test_cold_conjecture_scan_solves_the_quadratic_space_once(monkeypatch):
    monkeypatch.setattr(liealg, "_ALGEBRA_CACHE", {})
    solves = _count_calls(monkeypatch, polyfield, "solve_equivariant")
    nullspaces = _count_calls(monkeypatch, linalg, "nullspace_sparse")
    report = suites.run_suite(
        suites.SuiteConfig(algebra="A2", suite="conjecture-scan", degree=2)
    )
    assert report.aggregate == "pass"
    spaces = [args[1:] for args in solves]
    assert spaces.count((2, 2)) == 1
    # every space is solved once, and every nullspace belongs to a solve
    assert len(nullspaces) == len(spaces) == len(set(spaces))


@pytest.mark.parametrize("algebra", ["A2", "A3"])
def test_cold_phi_bracket_multiplies_no_polynomials(monkeypatch, algebra):
    # every field of the suite is a push or a bracket of packed fields,
    # the transport bracket included
    monkeypatch.setattr(liealg, "_ALGEBRA_CACHE", {})
    products = _count_calls(monkeypatch, termops, "pmul")
    report = suites.run_suite(suites.SuiteConfig(algebra=algebra, suite="phi-bracket"))
    assert report.aggregate == "pass"
    assert products == []


def test_phibar_sign_fault_fails_with_a_witness(monkeypatch, capsys):
    monkeypatch.setattr(polyfield, "PHIBAR_SIGN", -1)
    code = cli.main(["phi-bracket", "--algebra", "A2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["id"]: c for c in payload["checks"] if c["status"] == "fail"}
    assert set(failed) == {"phibar-matches-action-field"}
    L = liealg.algebra("A", 2)
    pb = polyfield.phibar(L)
    flipped = termops.pscale(polyfield.action_field(liealg.canonical_tensors(L).phi), -1)
    pb, flipped = termops.unpack(pb), termops.unpack(flipped)
    first = min(k for k in pb.keys() | flipped.keys() if pb.get(k) != flipped.get(k))
    assert failed["phibar-matches-action-field"]["witness"] == {"term": suites.jsonable(first)}


def test_calibration_fails_when_the_fitted_scale_leaves_the_closed_form(monkeypatch):
    # a doubled phibar doubles the fitted lam^2 away from 1/(4 n^2)
    phibar = polyfield.phibar
    monkeypatch.setattr(polyfield, "phibar", lambda L: termops.pscale(phibar(L), 2))
    report = suites.run_suite(suites.SuiteConfig(algebra="A2", suite="phi-bracket"))
    check = next(c for c in report.checks if c.id == "calibration")
    assert check.status == "fail"
    assert check.witness["lam_squared"] == "1/18"
    assert check.witness["expected"] == "1/36"


def test_deformed_invariance_failure_reports_the_failing_triple(monkeypatch):
    standard = quantize.standard_first_order_product
    built = []

    def doubled(f_field, r_tensor):
        m1 = standard(f_field, r_tensor)
        built.append(quantize.FirstOrderProduct(termops.pscale(m1.bivector, 2), "doubled"))
        return built[-1]

    monkeypatch.setattr(quantize, "standard_first_order_product", doubled)
    report = suites.run_suite(
        suites.SuiteConfig(algebra="A2", suite="star-first-order", degree=2)
    )
    check = next(c for c in report.checks if c.id == "deformed-invariance")
    assert check.status == "fail"
    L = liealg.algebra("A", 2)
    passed, witness = quantize.first_order_invariance_check(
        built[0], liealg.canonical_tensors(L).r_sd, 2
    )
    assert not passed
    assert check.witness == suites.jsonable(witness)


def _non_invariant_t(monkeypatch):
    canonical = liealg.canonical_tensors

    def non_invariant_t(L):
        # h1 (x) h1 commutes with the Cartan coproducts and with nothing else
        ct = canonical(L)
        t = multivec.MultiTensor(L, 2, termops.padd(ct.t.terms, {(0, 0): Fraction(1)}), "plain")
        return liealg.CanonicalTensors(t=t, r_sd=ct.r_sd, phi=ct.phi)

    monkeypatch.setattr(liealg, "canonical_tensors", non_invariant_t)


def test_coproduct_conjugation_failure_names_the_first_failing_element(monkeypatch):
    _non_invariant_t(monkeypatch)
    report = suites.run_suite(suites.SuiteConfig(algebra="A1", suite="rmatrix-first-order"))
    check = next(c for c in report.checks if c.id == "coproduct-conjugation")
    assert check.status == "fail"
    L = liealg.algebra("A", 1)
    first = next(L.names[x] for x in range(L.dim) if L.bracket(0, x))
    assert check.witness == {"x": first}


def _star_a2_record(check_id):
    report = suites.run_suite(suites.SuiteConfig(algebra="A2", suite="star-first-order"))
    return {c.id: c for c in report.checks}[check_id]


def _star_a2_product():
    L = liealg.algebra("A", 2)
    cal = polyfield.calibrate_scale(L)
    ct = liealg.canonical_tensors(L)
    return L, ct, quantize.standard_first_order_product(termops.pscale(cal.f0, cal.lam), ct.r_sd)


def test_hochschild_cocycle_failure_carries_its_witness(monkeypatch):
    # dropping one Hamiltonian image of y_0 leaves a bilinear map that is
    # no longer a biderivation
    hamiltonian_row = termops.hamiltonian_row
    y0 = termops.unit_exp(8, 0)

    def dropped(table, e, key):
        row = hamiltonian_row(table, e, key)
        if e == y0 and row:
            del row[min(row)]
        return row

    monkeypatch.setattr(termops, "hamiltonian_row", dropped)
    record = _star_a2_record("hochschild-cocycle")
    assert record.status == "fail"
    L, _, m1 = _star_a2_product()

    def dropped_reference(p, q):
        # the same fault on the Fraction row of the generator table
        row = table_row(bivector_table(m1.bivector), p)
        if p == {y0: 1} and row:
            del row[min(row)]
        return apply_derivation(row, q)

    reference = pairwise_hochschild_witness(L, 4, dropped_reference)
    assert reference is not None
    assert record.witness == suites.jsonable(reference)


def test_twist_correspondence_failure_carries_its_witness(monkeypatch):
    corrupted = doubled_smallest_term(polyfield.rmatrix_bracket)
    monkeypatch.setattr(polyfield, "rmatrix_bracket", corrupted)
    record = _star_a2_record("twist-correspondence")
    assert record.status == "fail"
    L, ct, _ = _star_a2_product()
    passed, witness = quantize.twist_correspondence_check(L, 3, ct.r_sd)
    assert not passed
    assert record.witness == suites.jsonable(witness)


def _quantize_calls():
    """The ``quantize`` call behind each pass-through check, at its suite's defaults."""
    L, ct, m1 = _star_a2_product()
    sl2 = liealg.algebra("A", 1)
    ct2 = liealg.canonical_tensors(sl2)
    rho = quantize.tensor_to_words(ct2.t.scale(Fraction(1, 2)).add(ct2.r_sd.to_plain().scale(-1)))
    return {
        "deformed-invariance": lambda: quantize.first_order_invariance_check(m1, ct.r_sd, 3),
        "hochschild-cocycle": lambda: quantize.hochschild_cocycle_check(L, 4, m1),
        "twist-correspondence": lambda: quantize.twist_correspondence_check(L, 3, ct.r_sd),
        "normal-form-counts": lambda: quantize.pbw_flatness(
            quantize.straightening_rules(sl2), sl2.dim, 4, seed=0
        ),
        "factorized-coproduct": lambda: quantize.order_h_factorization_check(
            sl2.matrices, sl2.msize, rho
        ),
        "coproduct-conjugation": lambda: quantize.coproduct_conjugation_check(sl2, rho),
    }


PASS_THROUGH = [
    ("star-first-order", "A2", "deformed-invariance"),
    ("star-first-order", "A2", "hochschild-cocycle"),
    ("star-first-order", "A2", "twist-correspondence"),
    ("pbw", "A1", "normal-form-counts"),
    ("rmatrix-first-order", "A1", "factorized-coproduct"),
    ("rmatrix-first-order", "A1", "coproduct-conjugation"),
]


@pytest.mark.parametrize("suite, algebra, check_id", PASS_THROUGH, ids=[c for *_, c in PASS_THROUGH])
def test_report_records_the_pair_its_check_returns(suite, algebra, check_id):
    report = suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite))
    record = next(c for c in report.checks if c.id == check_id)
    passed, witness = _quantize_calls()[check_id]()
    assert record.status == ("pass" if passed else "fail")
    assert record.witness == suites.jsonable(witness)


# ---------------------------------------------------------------------------
# the representation-evaluated suites: one guard per representation, and
# a fault for every check that can fail


@pytest.mark.parametrize(
    "suite, algebra, guards",
    [("pentagon", "A3", 1), ("pentagon", "A1", 2), ("rmatrix-first-order", "A1", 1)],
)
def test_each_representation_is_guarded_once(monkeypatch, suite, algebra, guards):
    # A1 guards its defining and its adjoint matrices; A3 skips the adjoint
    calls = _count_calls(monkeypatch, quantize, "faithfulness_guard")
    report = suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite))
    assert report.aggregate == "pass"
    assert len(calls) == guards


# a squared-letter leg is not primitive and breaks the pentagon shadow
PENTAGON_FAULT = [(Fraction(1), ((1, 1), (0,), (2,)))]


def test_failing_pentagon_defining_keeps_its_witness(monkeypatch):
    passing = _witnesses("pentagon", "A1")["pentagon-defining"]
    assert passing["representation"] == "defining" and "primitive" in passing["note"]
    monkeypatch.setattr(quantize, "tensor_to_words", lambda tensor: PENTAGON_FAULT)
    report = suites.run_suite(suites.SuiteConfig(algebra="A1", suite="pentagon"))
    check = next(c for c in report.checks if c.id == "pentagon-defining")
    assert check.status == "fail"
    L = liealg.algebra("A", 1)
    total = pentagon_total(L.matrices, L.msize, PENTAGON_FAULT)
    key = min(total)
    assert check.witness == suites.jsonable(
        {"position": key, "value": str(total[key]), "nonzero_entries": len(total)}
    )


def _unfaithful_defining(monkeypatch):
    # every basis element acts as 0
    L = liealg.algebra("A", 1)
    monkeypatch.setattr(L, "matrices", [{} for _ in range(L.dim)])


def _unfaithful_adjoint(monkeypatch):
    monkeypatch.setattr(liealg.LieAlgebra, "ad_matrix", lambda self, i: {})


def _word_leg_phi(monkeypatch):
    monkeypatch.setattr(quantize, "tensor_to_words", lambda tensor: PENTAGON_FAULT)


def _word_leg_rho(monkeypatch):
    # every 2-tensor gains a term with a squared-letter leg
    words = quantize.tensor_to_words
    extra = (Fraction(1), ((1, 1), (1,)))
    monkeypatch.setattr(quantize, "tensor_to_words", lambda tensor: [*words(tensor), extra])


def _no_kron_products(monkeypatch):
    # every Kronecker product evaluates to 0, so no identity can fail
    monkeypatch.setattr(linalg, "mat_kron_many", lambda mats, dims: {})


def _symmetric_table(monkeypatch):
    # every (j, i) entry, j > i, written with the sign of its (i, j) entry,
    # as a symmetric form has
    row_table = termops.row_table

    def symmetric_table(field):
        table, den = row_table(field)
        for u, row in table.items():
            for v, terms in row.items():
                if u > v:
                    row[v] = [(k, -c) for k, c in terms]
        return table, den

    monkeypatch.setattr(termops, "row_table", symmetric_table)


def _conjugation_as_sum(monkeypatch):
    # the conjugation field built as left plus right instead of left minus right
    entry_field = grouppois._entry_field

    def summed(L, x, side):
        if side != "conjugation":
            return entry_field(L, x, side)
        return termops.padd(entry_field(L, x, "left"), entry_field(L, x, "right"), 1)

    monkeypatch.setattr(grouppois, "_entry_field", summed)


def _halved_jacobiator_factor(monkeypatch):
    monkeypatch.setattr(grouppois, "AD_JACOBIATOR_FACTOR", Fraction(1, 2))


def _doubled_sklyanin_right(monkeypatch):
    # left fields of r plus right fields of -2r: the squares differ
    def doubled(L):
        r = liealg.canonical_tensors(L).r_sd
        return grouppois.build_two_sided_bracket(L, r, r.scale(-2))

    monkeypatch.setattr(grouppois, "build_sklyanin_bracket", doubled)


def _two_sided_ignores_r2(monkeypatch):
    # r1 on both sides unless r2 is -r1, so the mismatched squares agree
    build = grouppois.build_two_sided_bracket

    def ignoring(L, r1, r2):
        return build(L, r1, r2 if r2 == r1.scale(-1) else r1)

    monkeypatch.setattr(grouppois, "build_two_sided_bracket", ignoring)


def _permanent(monkeypatch):
    # the permanent does not generate an ideal that the bracket preserves
    determinant = grouppois.determinant
    monkeypatch.setattr(
        grouppois, "determinant", lambda n: {e: abs(c) for e, c in determinant(n).items()}
    )


def _same_r_doubled_right(monkeypatch):
    # the same-r bracket gets 2r on the right, so the squares differ
    build = grouppois.build_two_sided_bracket

    def doubled(L, r1, r2):
        return build(L, r1, r1.scale(2) if r2 == r1 else r2)

    monkeypatch.setattr(grouppois, "build_two_sided_bracket", doubled)


def _kirillov_plus_quadratic(monkeypatch):
    # s + f0 does not commute with f0, and its square is [[f0, f0]] != 0
    kirillov = polyfield.kirillov_bracket
    monkeypatch.setattr(
        polyfield,
        "kirillov_bracket",
        lambda L: termops.padd(kirillov(L), polyfield.quadratic_bracket(L)),
    )


def _doubled_rmatrix_bracket(monkeypatch):
    # [[2 r_M, 2 r_M]] is four times phibar, which lam^2 [[f0, f0]] = -phibar
    # no longer cancels
    rmatrix = polyfield.rmatrix_bracket
    monkeypatch.setattr(polyfield, "rmatrix_bracket", lambda r: termops.pscale(rmatrix(r), 2))


def _flipped_phibar_sign(monkeypatch):
    monkeypatch.setattr(polyfield, "PHIBAR_SIGN", -1)


def _doubled_phibar(monkeypatch):
    # the fitted lam^2 doubles, and phibar leaves the action field and the
    # square of r_M behind
    phibar = polyfield.phibar
    monkeypatch.setattr(polyfield, "phibar", lambda L: termops.pscale(phibar(L), 2))


def _transport_plus_linear(monkeypatch):
    # the transported bracket plus the Kirillov bracket is no multiple of f0
    transport = polyfield.gl_transport_quadratic_bracket
    monkeypatch.setattr(
        polyfield,
        "gl_transport_quadratic_bracket",
        lambda L: termops.padd(transport(L), polyfield.kirillov_bracket(L)),
    )


def _plus_sign_product(monkeypatch):
    # the standard product built as (1/2)(f + r_M), the product that
    # sign-fault-detected plants, is not invariant under the twisted coproduct
    def plus(f_field, r_tensor):
        sum_ = termops.padd(f_field, polyfield.rmatrix_bracket(r_tensor))
        return quantize.FirstOrderProduct(termops.pscale(sum_, Fraction(1, 2)), "(1/2)(f + r_M)")

    monkeypatch.setattr(quantize, "standard_first_order_product", plus)


def _non_derivation_product(monkeypatch):
    # a first-order product's value on two coordinates gains their product,
    # which is no biderivation: the coboundary at (y_u, y_v, y_w^2) is nonzero
    pair_values = quantize._pair_values

    def with_cup(m1, dim):
        value, den = pair_values(m1, dim)
        if not isinstance(m1, quantize.FirstOrderProduct):
            return value, den
        pack, unpack, _ = termops.monomial_codec(dim)

        def cupped(ea, kb):
            out = dict(value(ea, kb))
            eb = unpack(kb)
            if sum(ea) == sum(eb) == 1:
                k = pack(tuple(x + y for x, y in zip(ea, eb)))
                out[k] = out.get(k, 0) + den
            return {k: c for k, c in out.items() if c}

        return cupped, den

    monkeypatch.setattr(quantize, "_pair_values", with_cup)


def _zero_fault_map(monkeypatch):
    # every bilinear map but a first-order product evaluates to zero, so the
    # planted non-biderivation map passes the Hochschild scan
    pair_values = quantize._pair_values

    def zero(m1, dim):
        value, den = pair_values(m1, dim)
        if isinstance(m1, quantize.FirstOrderProduct):
            return value, den
        return (lambda ea, kb: {}), den

    monkeypatch.setattr(quantize, "_pair_values", zero)


def _doubled_derivation_table(monkeypatch):
    # the composed twist route is quadratic in the coadjoint fields, so a
    # negated table cancels out of it; doubled fields scale it by four
    derivation_table = termops.derivation_table

    def doubled(fields, nvars):
        return derivation_table({w: termops.pscale(f, 2) for w, f in fields.items()}, nvars)

    monkeypatch.setattr(termops, "derivation_table", doubled)


def _zero_hamiltonian_rows(monkeypatch):
    # every packed Hamiltonian row reads zero, so no order-one scan can
    # fail, and only the planted sign fault notices
    monkeypatch.setattr(termops, "hamiltonian_row", lambda table, e, key: {})


def _cyb_equals_schouten(monkeypatch):
    monkeypatch.setattr(multivec, "CYB_FROM_SCHOUTEN", 1)


def _shifted_weights(monkeypatch):
    # every key weighs one more in its first simple-root coordinate
    weight_of_key = liealg.LieAlgebra.weight_of_key

    def shifted(self, key):
        w = weight_of_key(self, key)
        return (w[0] + 1,) + w[1:]

    monkeypatch.setattr(liealg.LieAlgebra, "weight_of_key", shifted)


def _every_tensor_zero(monkeypatch):
    monkeypatch.setattr(multivec.MultiTensor, "is_zero", lambda self: True)


def _no_two_tensor_zero(monkeypatch):
    # a 2-tensor never reads zero; the co-Jacobi defects and the squares
    # are 3-tensors and keep their test
    is_zero = multivec.MultiTensor.is_zero
    monkeypatch.setattr(
        multivec.MultiTensor, "is_zero", lambda self: self.degree != 2 and is_zero(self)
    )


def _ad_action_gains_a_term(monkeypatch):
    # the action on 3-tensors gains the term b_0 b_1 b_2
    ad_action = multivec.ad_action

    def gained(x, tensor):
        out = ad_action(x, tensor)
        if tensor.degree != 3:
            return out
        extra = multivec.MultiTensor(tensor.algebra, 3, {(0, 1, 2): Fraction(1)}, tensor.symmetry)
        return out.add(extra)

    monkeypatch.setattr(multivec, "ad_action", gained)


def _nonzero_co_jacobi_defect(monkeypatch):
    monkeypatch.setattr(
        multivec,
        "co_jacobi_defect",
        lambda deltas, x: multivec.MultiTensor(deltas[x].algebra, 3, {(x, x, x): Fraction(1)}),
    )


def _jacobi_fault_not_planted(monkeypatch):
    # the fault table is U(g)'s own, whose rewriting is confluent
    monkeypatch.setattr(quantize, "jacobi_fault_rules", quantize.straightening_rules)


def _descents_blind_to_the_last_letter(monkeypatch):
    # every word of two letters reads irreducible, too many for S^2; the
    # fault table already fails its counts, so its detection holds
    descents = quantize.RewriteSystem.descents
    monkeypatch.setattr(
        quantize.RewriteSystem, "descents", lambda self, word: descents(self, word[:-1])
    )


def _edit_bivector_space(monkeypatch, q, edit):
    # the invariant bivectors with degree-q coefficients pass through edit
    space = polyfield.invariant_field_space

    def edited(L, p, k):
        fields = space(L, p, k)
        return edit(L, fields) if (p, k) == (2, q) else fields

    monkeypatch.setattr(polyfield, "invariant_field_space", edited)


def _no_linear_bivector(monkeypatch):
    _edit_bivector_space(monkeypatch, 1, lambda L, fields: fields[:-1])


def _no_cubic_bivector(monkeypatch):
    _edit_bivector_space(monkeypatch, 3, lambda L, fields: fields[:-1])


def _spurious_quadratic_bivector(monkeypatch):
    # y_0^2 d/dy_0 ^ d/dy_1 joins the space, outside every invariant
    # multiple of the linear bracket
    def spurious(L, fields):
        return (*fields, termops.pack({((2,) + (0,) * (L.dim - 1), (0, 1)): Fraction(1)}, L.dim))

    _edit_bivector_space(monkeypatch, 2, spurious)


def _lost_rank_two_orbit(monkeypatch):
    # the table stays consistent and keeps every maximal parabolic, but
    # the count falls one short of the derivation
    enumerate_good_orbits = orbits.enumerate_good_orbits

    def dropped(rs):
        data = enumerate_good_orbits(rs)
        i = next(i for i, d in enumerate(data) if d.orbit_rank == 2)
        return data[:i] + data[i + 1 :]

    monkeypatch.setattr(orbits, "enumerate_good_orbits", dropped)


def _lost_coefficient_one_node(monkeypatch):
    # D4 without node 4 keeps a consistent table and count, but the
    # maximal parabolic S = {1, 2, 3} drops out of it
    ones = rootsys.coefficient_one_nodes
    monkeypatch.setattr(rootsys, "coefficient_one_nodes", lambda rs: ones(rs) - {4})


# (suite, algebras, fault, checks whose status the fault changes)
FLIPS = [
    ("cybe", ("A2",), _cyb_equals_schouten, {"cyb-proportional"}),
    ("cybe", ("A2",), _shifted_weights, {"r-weight-zero"}),
    ("cybe", ("A2",), _every_tensor_zero, {"phi-alternating"}),
    ("cybe", ("A2",), _ad_action_gains_a_term, {"phi-invariant"}),
    ("cobracket", ("A1",), _every_tensor_zero, {"non-invariant-square-detected"}),
    ("cobracket", ("A1",), _nonzero_co_jacobi_defect, {"co-jacobi"}),
    ("cobracket", ("A1",), _no_two_tensor_zero, {"cartan-cobracket-zero"}),
    # an unfaithful representation no longer lets the word-leg fault pass
    ("pentagon", ("A1",), _unfaithful_defining, {"faithfulness-guard", "word-leg-fault-detected"}),
    ("pentagon", ("A1",), _unfaithful_adjoint, {"pentagon-adjoint"}),
    ("pentagon", ("A1",), _word_leg_phi, {"pentagon-defining", "pentagon-adjoint"}),
    ("pentagon", ("A1",), _no_kron_products, {"word-leg-fault-detected"}),
    # the extra term is x1 x1 (x) x1, which is 0 on the defining
    # representation, so the conjugation sees no change; its coproduct
    # 2 x1 (x) x1 is not, so the factorization fails
    ("rmatrix-first-order", ("A1",), _word_leg_rho, {"factorized-coproduct"}),
    ("rmatrix-first-order", ("A1",), _non_invariant_t, {"coproduct-conjugation"}),
    ("rmatrix-first-order", ("A1",), _no_kron_products, {"word-leg-fault-detected"}),
    ("ad-bracket", ("A1",), _symmetric_table, {"table-antisymmetric"}),
    (
        "ad-bracket",
        ("A2",),
        _conjugation_as_sum,
        {"conjugation-invariant", "phi-bracket-identity-on-generators"},
    ),
    # phi pushes to zero on A1, so the factor shows from A2
    ("ad-bracket", ("A2",), _halved_jacobiator_factor, {"phi-bracket-identity-on-generators"}),
    ("group-sklyanin", ("A1", "A2"), _doubled_sklyanin_right, {"sklyanin-poisson"}),
    (
        "group-sklyanin",
        ("A1", "A2"),
        _two_sided_ignores_r2,
        {"square-mismatch-jacobiator-witness"},
    ),
    ("phi-bracket", ("A2",), _kirillov_plus_quadratic, {"linear-compatibility", "pencil-poisson"}),
    ("phi-bracket", ("A2",), _doubled_rmatrix_bracket, {"pencil-poisson"}),
    ("phi-bracket", ("A2",), _flipped_phibar_sign, {"phibar-matches-action-field"}),
    (
        "phi-bracket",
        ("A2",),
        _doubled_phibar,
        {"calibration", "phibar-matches-action-field", "pencil-poisson"},
    ),
    ("phi-bracket", ("A2",), _transport_plus_linear, {"matrix-trace-bracket-proportional"}),
    ("group-sklyanin", ("A1",), _permanent, {"determinant-ideal"}),
    ("star-first-order", ("A2",), _plus_sign_product, {"deformed-invariance"}),
    ("star-first-order", ("A2",), _non_derivation_product, {"hochschild-cocycle"}),
    ("star-first-order", ("A2",), _zero_fault_map, {"hochschild-fault-detected"}),
    ("star-first-order", ("A2",), _doubled_derivation_table, {"twist-correspondence"}),
    ("star-first-order", ("A2",), _zero_hamiltonian_rows, {"sign-fault-detected"}),
    # this check fails by design, and passes under the fault
    (
        "group-sklyanin",
        ("A2",),
        _same_r_doubled_right,
        {"two-sided-same-r-nonzero-jacobiator"},
    ),
    ("pbw", ("A1",), _jacobi_fault_not_planted, {"jacobi-fault-detected"}),
    ("pbw", ("A1",), _descents_blind_to_the_last_letter, {"normal-form-counts"}),
    ("conjecture-scan", ("A1",), _no_linear_bivector, {"degree-1-multiples-of-linear"}),
    ("conjecture-scan", ("A1",), _spurious_quadratic_bivector, {"degree-2-multiples-of-linear"}),
    ("conjecture-scan", ("A1",), _no_cubic_bivector, {"degree-3-multiples-of-linear"}),
    ("good-orbits", ("D4",), _lost_rank_two_orbit, {"count-matches-derivation"}),
    ("good-orbits", ("D4",), _lost_coefficient_one_node, {"classification-table"}),
]

# (suite, check id) of EXPECTED that no FLIPS row flips, and why
UNFLIPPABLE = {
    ("rmatrix-first-order", "counit-legs"): (
        "every leg that quantize.tensor_to_words builds is a single letter, so "
        "no fault of the evaluation chain reaches it (ROADMAP item 9)"
    ),
    ("phi-bracket", "phi-bracket-identity"): (
        "it cannot fail once calibrate_scale returns, as the calibration has "
        "already found phibar == c * [[f0, f0]] (ROADMAP item 9)"
    ),
    ("phi-bracket", "equivariant-dimension-one"): (
        "a failure ends the suite, so no fault keeps the check list that a flip "
        "compares; test_a_wrong_equivariant_dimension_fails_and_ends_the_suite fails it"
    ),
}


def _statuses(suite, algebra):
    report = suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite))
    return {c.id: c.status for c in report.checks}


@pytest.mark.parametrize(
    "suite, algebras, fault, flipped",
    FLIPS,
    ids=[f"{s}-{f.__name__[1:]}" for s, _, f, _ in FLIPS],
)
def test_a_fault_flips_exactly_its_checks(monkeypatch, suite, algebras, fault, flipped):
    # a flip is a change of status, so a check that fails by design flips
    # when its fault makes it pass
    before = {algebra: _statuses(suite, algebra) for algebra in algebras}
    for statuses in before.values():
        failing = {i for i, status in statuses.items() if status == "fail"}
        assert failing <= {"two-sided-same-r-nonzero-jacobiator"}
    fault(monkeypatch)
    for algebra in algebras:
        after = _statuses(suite, algebra)
        assert after.keys() == before[algebra].keys()
        assert {i for i, status in after.items() if status != before[algebra][i]} == flipped


def _uncovered(suites_to_cover, algebra="A1"):
    ids = {
        (suite, c.id)
        for suite in suites_to_cover
        for c in suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite)).checks
    }
    return ids - {(suite, check) for suite, _, _, flipped in FLIPS for check in flipped}


def test_every_expected_check_has_a_fault_or_a_reason_it_has_none():
    # reads the benchmark's verdict table and changes nothing in it
    expected = {(inv[0], check) for inv, checks in EXPECTED.items() for check in checks}
    flipped = {(suite, check) for suite, _, _, checks in FLIPS for check in checks}
    assert flipped <= expected
    assert expected - flipped == UNFLIPPABLE.keys()


def test_every_representation_check_but_counit_legs_has_a_fault():
    # counit-legs cannot flip (UNFLIPPABLE)
    assert _uncovered(("pentagon", "rmatrix-first-order")) == {
        ("rmatrix-first-order", "counit-legs")
    }


def test_every_entry_ring_check_has_a_fault():
    # A1 runs every check of both suites; determinant-ideal skips above 2x2
    assert _uncovered(("ad-bracket", "group-sklyanin")) == set()


def test_every_phi_bracket_check_but_two_has_a_fault():
    # the suite needs rank >= 2, and A2 runs every check; the two left
    # uncovered are in UNFLIPPABLE
    assert _uncovered(("phi-bracket",), "A2") == {
        ("phi-bracket", "phi-bracket-identity"),
        ("phi-bracket", "equivariant-dimension-one"),
    }


def test_every_cybe_and_cobracket_check_has_a_fault():
    # A2 and A1 run every check of the two suites
    assert _uncovered(("cybe",), "A2") == set()
    assert _uncovered(("cobracket",)) == set()


def test_every_star_check_has_a_fault():
    # the suite needs rank >= 2, and A2 runs every check
    assert _uncovered(("star-first-order",), "A2") == set()


def test_every_pbw_scan_and_orbit_check_has_a_fault():
    # A1 runs both pbw checks and scans degrees 1..3; D4 runs both orbit checks
    assert _uncovered(("pbw", "conjecture-scan")) == set()
    assert _uncovered(("good-orbits",), "D4") == set()


# (suite, algebra) pairs that run every check with no witness to decode
NO_DECODE = [
    ("ad-bracket", "A3"),
    ("group-sklyanin", "A3"),
    ("star-first-order", "A2"),
    ("phi-bracket", "A3"),
    # the degree-3 entry multiplies the Casimir, a packed 0-field
    ("conjecture-scan", "A1"),
]


@pytest.mark.parametrize("suite, algebra", NO_DECODE, ids=[f"{s}-{a}" for s, a in NO_DECODE])
def test_only_a_witness_decodes_a_field(monkeypatch, suite, algebra):
    # every check compares and tests packed fields, and none of these
    # suites evaluates a single bracket; a cold algebra cache makes the
    # set-up run under the patch too
    config = suites.SuiteConfig(algebra=algebra, suite=suite)
    monkeypatch.setattr(liealg, "_ALGEBRA_CACHE", {})

    def refuse(*args):
        raise AssertionError("a field was decoded")

    monkeypatch.setattr(termops, "unpack", refuse)
    monkeypatch.setattr(termops, "table_bracket", refuse)
    packed = suites.run_suite(config).to_json()
    monkeypatch.undo()
    assert packed == suites.run_suite(config).to_json()


def test_a_single_bracket_decodes_no_field(monkeypatch):
    # determinant-ideal brackets four polynomial pairs on A1 through the
    # packed Hamiltonian rows of the Sklyanin field, which it never decodes
    config = suites.SuiteConfig(algebra="A1", suite="group-sklyanin")
    monkeypatch.setattr(liealg, "_ALGEBRA_CACHE", {})
    calls = _count_calls(monkeypatch, termops, "table_bracket")

    def refuse(*args):
        raise AssertionError("a field was decoded")

    monkeypatch.setattr(termops, "unpack", refuse)
    packed = suites.run_suite(config).to_json()
    assert len(calls) == 4
    monkeypatch.undo()
    assert packed == suites.run_suite(config).to_json()


def test_an_action_packs_its_fields_once_per_algebra(monkeypatch):
    # the coadjoint and entry fields, the Kirillov and transport brackets
    # and the invariant polynomials, the unit among them, are packed on the
    # first run and read from the algebra's memo on the second
    calls = _count_calls(monkeypatch, termops, "pack")
    for suite, algebra, degree in [
        ("ad-bracket", "A2", None),
        ("group-sklyanin", "A2", None),
        ("star-first-order", "A2", None),
        ("phi-bracket", "A2", None),
        ("phi-bracket", "A3", None),
        ("conjecture-scan", "A1", 3),
        ("conjecture-scan", "A2", 3),
    ]:
        config = suites.SuiteConfig(algebra=algebra, suite=suite, degree=degree)
        suites.run_suite(config)
        calls.clear()
        suites.run_suite(config)
        assert calls == [], (suite, algebra)


def test_conjecture_scan_fails_at_degree_three_on_a2():
    # two invariant cubic-coefficient bivectors on sl(3) lie outside the
    # span of the invariant multiples of the linear bracket (ROADMAP item 15)
    report = suites.run_suite(suites.SuiteConfig(algebra="A2", suite="conjecture-scan", degree=3))
    checks = {c.id: c for c in report.checks}
    assert report.aggregate == "fail"
    assert checks["degree-1-multiples-of-linear"].status == "pass"
    assert checks["degree-2-multiples-of-linear"].status == "pass"
    assert checks["degree-3-multiples-of-linear"].status == "fail"
    assert checks["degree-3-multiples-of-linear"].witness == {
        "dimension": 3,
        "exception": "quadratic invariant bracket",
        "extras": 2,
    }


def test_a_wrong_equivariant_dimension_fails_and_ends_the_suite(monkeypatch):
    monkeypatch.setattr(polyfield, "invariant_field_space", lambda L, p, q: ())
    report = suites.run_suite(suites.SuiteConfig(algebra="A2", suite="phi-bracket"))
    assert [(c.id, c.status, c.witness) for c in report.checks] == [
        ("equivariant-dimension-one", "fail", {"dimension": 0})
    ]


def test_rmatrix_suite_refuses_an_unfaithful_representation(monkeypatch):
    _unfaithful_defining(monkeypatch)
    with pytest.raises(AssertionError, match="faithfulness guard"):
        suites.run_suite(suites.SuiteConfig(algebra="A1", suite="rmatrix-first-order"))


# ---------------------------------------------------------------------------
# the good-orbit classification against the classical Hermitian symmetric list


@pytest.mark.parametrize("flip, computed", [({2, 3, 4}, False), ({1, 2}, True)])
def test_a_flipped_orbit_class_fails_only_the_classification_table(monkeypatch, flip, computed):
    # on D4, S = {2, 3, 4} leaves T = {1}, a Hermitian symmetric node; S =
    # {1, 2} leaves two nodes, which never are
    def run():
        report = suites.run_suite(suites.SuiteConfig(algebra="D4", suite="good-orbits"))
        return {c.id: c for c in report.checks}

    assert all(c.status == "pass" for c in run().values())
    classify = orbits.classify_levi

    def flipped(rs, S):
        datum = classify(rs, S)
        if set(S) == flip:
            return datum._replace(hermitian_symmetric=not datum.hermitian_symmetric)
        return datum

    monkeypatch.setattr(orbits, "classify_levi", flipped)
    checks = run()
    assert {i for i, c in checks.items() if c.status == "fail"} == {"classification-table"}
    assert checks["classification-table"].witness["mismatch"] == {
        "S": sorted(flip),
        "hermitian_symmetric": computed,
        "expected": not computed,
    }


def test_a_lost_coefficient_one_node_fails_only_the_classification_table(monkeypatch):
    _lost_coefficient_one_node(monkeypatch)
    report = suites.run_suite(suites.SuiteConfig(algebra="D4", suite="good-orbits"))
    checks = {c.id: c for c in report.checks}
    assert {i for i, c in checks.items() if c.status == "fail"} == {"classification-table"}
    assert checks["classification-table"].witness["mismatch"] == {
        "S": [1, 2, 3],
        "hermitian_symmetric": None,
        "expected": True,
    }


def test_the_hermitian_symmetric_list_is_the_coefficient_one_maximal_parabolics():
    # the classical list agrees with the highest roots that rootsys builds
    for series, rank in [
        ("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 4), ("D", 6),
        ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
    ]:
        rs = rootsys.build_root_system(series, rank)
        want = suites.HERMITIAN_SYMMETRIC_NODES[series](rank)
        assert rootsys.coefficient_one_nodes(rs) == want
