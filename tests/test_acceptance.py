"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every check is zero-tolerance; the stated wall-clock budgets are asserted
as hard bounds.  One pass/fail line per criterion is printed (visible
with ``pytest -s`` or on failure).

Criterion 7 is split: the stated expectation that equal tensors on both
sides of the two-sided bracket produce a nonzero jacobiator contradicts
the invariance of the 3-tensor (equal left and right extensions), so
test 7b asserts the stated expectation and fails honestly; the analysis
lives in the suite report and the repository notes.
"""

import functools
import json
import time
from fractions import Fraction

import pytest

from oracles import bivector_table, pairwise_invariance_witness, table_bracket
from qpverify import (
    grouppois,
    liealg,
    multivec,
    orbits,
    polyfield,
    quantize,
    rootsys,
    suites,
    termops,
)

F = Fraction


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.1f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} over budget"
        return False


def run(suite, algebra, **kw):
    return suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite, **kw))


def test_criterion_01_cybe_suite():
    with Budget("01 cybe", 5):
        for algebra in ("A1", "A2", "B2", "C2"):
            report = run("cybe", algebra)
            assert report.aggregate == "pass", report.to_text()
            L = liealg.algebra(*suites.parse_algebra(algebra))
            ct = liealg.canonical_tensors(L)
            assert ct.phi.symmetry == "alternating"
            assert multivec.is_invariant(ct.phi)
            assert multivec.cyb(ct.r_sd) == ct.phi.to_plain().scale(F(1, 2))


def test_criterion_02_cobracket_suite():
    with Budget("02 cobracket", 5):
        for algebra in ("A1", "A2"):
            report = run("cobracket", algebra)
            assert report.aggregate == "pass", report.to_text()
            L = liealg.algebra(*suites.parse_algebra(algebra))
            assert multivec.co_jacobi_check(liealg.canonical_tensors(L).r_sd)
        # fault injection: non-invariant Schouten square is detected
        L3 = liealg.algebra("A", 2)
        fault = multivec.MultiTensor(
            L3, 2, {(L3.pos_index((1, 0)), L3.neg_index((1, 0))): F(1)}, "alternating"
        )
        assert not multivec.is_invariant(multivec.algebraic_schouten(fault, fault))
        assert not multivec.co_jacobi_check(fault)


def test_criterion_03_phi_bracket_suite():
    with Budget("03 phi-bracket", 60):
        L = liealg.algebra("A", 2)
        space = polyfield.invariant_field_space(L, 2, 2)
        assert len(space) == 1
        cal = polyfield.calibrate_scale(L)
        assert cal.lam is not None
        f = termops.pscale(cal.f0, cal.lam)
        s = polyfield.kirillov_bracket(L)
        assert not polyfield.schouten_nijenhuis(s, f)
        pb = polyfield.phibar(L)
        assert polyfield.schouten_nijenhuis(f, f) == termops.pscale(pb, -1)
        ct = liealg.canonical_tensors(L)
        assert pb == termops.pscale(polyfield.action_field(ct.phi), polyfield.PHIBAR_SIGN)
        p = termops.padd(f, polyfield.rmatrix_bracket(ct.r_sd), -1)
        sn = polyfield.schouten_nijenhuis
        assert not sn(s, s) and not sn(p, p) and not sn(s, p)
        assert run("phi-bracket", "A2").aggregate == "pass"


def test_criterion_04_negative_spaces():
    with Budget("04 negative spaces", 120):
        assert len(polyfield.invariant_field_space(liealg.algebra("A", 1), 2, 2)) == 0
        so5 = liealg.algebra("B", 2)
        assert len(polyfield.invariant_field_space(so5, 2, 2)) == 0
        entries = polyfield.invariant_bivector_scan(so5, 2)
        assert entries[1].degree == 2 and entries[1].dimension == 0


def test_criterion_05_rank1_degeneracy():
    with Budget("05 rank-1 degeneracy", 5):
        L = liealg.algebra("A", 1)
        ct = liealg.canonical_tensors(L)
        assert not polyfield.action_field(ct.phi)
        rm = polyfield.rmatrix_bracket(ct.r_sd)
        assert not polyfield.schouten_nijenhuis(rm, rm)


def test_criterion_06_conjecture_scan():
    with Budget("06 conjecture scan", 120):
        L2 = liealg.algebra("A", 1)
        for entry in polyfield.invariant_bivector_scan(L2, 3):
            assert not entry.extras
            assert entry.dimension == entry.invariant_poly_dim
        L3 = liealg.algebra("A", 2)
        entries = polyfield.invariant_bivector_scan(L3, 2)
        deg2 = entries[1]
        assert deg2.dimension == 1 and len(deg2.extras) == 1
        f0 = polyfield.quadratic_bracket(L3)
        assert polyfield.fields_proportional(deg2.extras[0], f0) is not None
        assert run("conjecture-scan", "A1", degree=3).aggregate == "pass"
        assert run("conjecture-scan", "A2", degree=2).aggregate == "pass"


def test_criterion_07_group_suite_attainable_clauses():
    with Budget("07 group suite", 120):
        for algebra in ("A1", "A2"):
            L = liealg.algebra(*suites.parse_algebra(algebra))
            sk = grouppois.build_sklyanin_bracket(L)
            assert not grouppois.jacobiator_on_generators(sk)
            ad = grouppois.build_ad_bracket(L)
            jac = grouppois.jacobiator_on_generators(ad)
            phi = grouppois.phi_through_conjugation(L)
            assert jac == termops.pscale(phi, grouppois.AD_JACOBIATOR_FACTOR)


def test_criterion_07b_same_r_nonzero_jacobiator_as_stated():
    # Stated expectation: the two-sided bracket with the same standard
    # tensor on both sides yields a nonzero jacobiator witness.  The
    # bracket is in fact Poisson whenever the two Schouten squares agree
    # (the invariant 3-tensor extends identically from the left and the
    # right), so this assertion cannot hold; it is kept as stated and
    # fails honestly.  A real witness appears when the squares differ,
    # which the suite demonstrates separately.
    with Budget("07b same-tensor witness (stated)", 120):
        L = liealg.algebra("A", 2)
        r = liealg.canonical_tensors(L).r_sd
        two = grouppois.build_two_sided_bracket(L, r, r)
        jac = grouppois.jacobiator_on_generators(two)
        assert jac, (
            "stated expectation unattainable: the same-tensor two-sided "
            "bracket is Poisson (equal left/right extensions of the "
            "invariant 3-tensor)"
        )


def test_criterion_07c_square_mismatch_witness():
    # the genuine failure mode of the two-sided construction
    with Budget("07c mismatch witness", 120):
        L = liealg.algebra("A", 2)
        r = liealg.canonical_tensors(L).r_sd
        bad = grouppois.build_two_sided_bracket(L, r, r.scale(2))
        assert grouppois.jacobiator_on_generators(bad)


def test_criterion_08_good_orbit_classification():
    with Budget("08 good orbits", 5):
        expected = {
            ("A", 1): 1, ("A", 2): 3, ("A", 3): 7, ("A", 4): 15,
            ("A", 5): 31, ("A", 6): 63,
            ("B", 2): 1, ("B", 3): 1, ("C", 2): 1, ("C", 3): 1,
            ("D", 4): 6, ("E", 6): 3, ("E", 7): 1,
            ("E", 8): 0, ("F", 4): 0, ("G", 2): 0,
        }
        for (series, rank), want in expected.items():
            rs = rootsys.build_root_system(series, rank)
            data = orbits.enumerate_good_orbits(rs)
            # re-derive the count from root data
            if series == "A":
                derived = 2 ** rank - 1
            else:
                k = len(rootsys.coefficient_one_nodes(rs))
                derived = k + k * (k - 1) // 2
            assert len(data) == want == derived, (series, rank)


def test_criterion_09_quantization_order_suite():
    with Budget("09 quantization orders", 300):
        for rank in (1, 2):
            sl = liealg.algebra("A", rank)
            words = quantize.tensor_to_words(liealg.canonical_tensors(sl).phi)
            passed, _ = quantize.pentagon_order2_check(sl.matrices, sl.msize, words)
            assert passed
        report = run("rmatrix-first-order", "A1")
        assert {c.id: c.status for c in report.checks} == {
            "coproduct-conjugation": "pass",
            "counit-legs": "pass",
            "factorized-coproduct": "pass",
            "word-leg-fault-detected": "pass",
        }

        L = liealg.algebra("A", 2)
        ct = liealg.canonical_tensors(L)
        cal = polyfield.calibrate_scale(L)
        f = termops.pscale(cal.f0, cal.lam)
        m1 = quantize.standard_first_order_product(f, ct.r_sd)
        passed, _ = quantize.first_order_invariance_check(m1, ct.r_sd, 3)
        assert passed
        rm = polyfield.rmatrix_bracket(ct.r_sd)
        bad = quantize.FirstOrderProduct(
            termops.pscale(termops.padd(f, rm), F(1, 2)), "(1/2)(f + r_M)"
        )
        passed, witness = quantize.first_order_invariance_check(bad, ct.r_sd, 3)
        # both sides, evaluated from the identity at the reported triple
        reference = pairwise_invariance_witness(bad, ct.r_sd, 3)
        assert not passed and reference["lhs"] != reference["rhs"]
        assert witness == {k: reference[k] for k in ("x", "a", "b")}

        # every bivector-induced product is a Hochschild cocycle; the
        # degree-4 window includes mixed-degree triples
        for field_, label in (
            (m1.bivector, "standard"),
            (termops.pscale(polyfield.kirillov_bracket(L), F(1, 2)), "linear"),
            (rm, "r-field"),
            (f, "quadratic"),
        ):
            bracket = functools.partial(table_bracket, bivector_table(field_))
            passed, _ = quantize.hochschild_cocycle_check(L, 4, bracket)
            assert passed, label


def test_criterion_10_pbw_suite():
    with Budget("10 pbw", 60):
        sl2, sl3 = liealg.algebra("A", 1), liealg.algebra("A", 2)
        passed2, witness2 = quantize.pbw_flatness(quantize.straightening_rules(sl2), sl2.dim, 4)
        assert passed2 and witness2["counts"] == [1, 3, 6, 10, 15]
        passed3, witness3 = quantize.pbw_flatness(quantize.straightening_rules(sl3), sl3.dim, 3)
        assert passed3 and witness3["counts"] == [1, 8, 36, 120]
        for L in (sl2, sl3):
            passed, _ = quantize.pbw_flatness(quantize.jacobi_fault_rules(L), L.dim, 3, seed=0)
            assert not passed


def test_criterion_11_deterministic_reports():
    with Budget("11 determinism", 60):
        jobs = [
            ("cybe", "A2"), ("cobracket", "A1"), ("good-orbits", "D4"),
            ("pbw", "A1"), ("conjecture-scan", "A1"), ("group-sklyanin", "A1"),
            ("rmatrix-first-order", "A1"), ("pentagon", "A1"),
            ("ad-bracket", "A1"), ("phi-bracket", "A2"), ("star-first-order", "A2"),
        ]
        assert {s for s, _ in jobs} == set(suites.SUITES)
        for suite, algebra in jobs:
            a = run(suite, algebra, seed=13).to_json()
            b = run(suite, algebra, seed=13).to_json()
            assert a == b, (suite, algebra)
            json.loads(a)  # schema round-trip
