"""Named verification suites and their machine-readable reports.

Each suite is a list of checks run against one algebra; a report records
per-check status with exact rational witnesses on failure.  Reports are
byte-stable for a fixed configuration and seed: wall-clock times are
collected but only reported when explicitly requested.
"""

import json
import math
import time
from collections import namedtuple
from fractions import Fraction

from . import grouppois, liealg, multivec, orbits, polyfield, quantize, rootsys, termops

SCHEMA_VERSION = 2

ALGEBRA_ALIASES = {
    "sl2": "A1", "sl3": "A2", "sl4": "A3", "sl5": "A4", "sl6": "A5",
    "sl7": "A6", "sl8": "A7", "sl9": "A8",
    "so5": "B2", "sp4": "C2", "so8": "D4",
}


class UsageError(ValueError):
    """Configuration the CLI refuses: unknown suite, bad algebra, degree out of range."""


def parse_algebra(text):
    key = text.strip().lower()
    if key in ALGEBRA_ALIASES:
        text = ALGEBRA_ALIASES[key]
    try:
        return rootsys.parse_type_string(text)
    except rootsys.InvalidTypeError as exc:
        raise UsageError(str(exc)) from exc


# degree is the CLI-facing override for the suite's main degree
SuiteConfig = namedtuple("SuiteConfig", "algebra suite degree seed", defaults=(None, 0))

# status is pass | fail | skip
CheckRecord = namedtuple("CheckRecord", "id paper_ref status witness millis")


class Report(namedtuple("Report", "suite algebra config checks aggregate")):
    __slots__ = ()

    def to_json(self, timings=False):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "algebra": self.algebra,
            "config": self.config,
            "checks": [
                {
                    "id": c.id,
                    "paper_ref": c.paper_ref,
                    "status": c.status,
                    **({"witness": c.witness} if c.witness else {}),
                    **({"millis": c.millis} if timings else {}),
                }
                for c in sorted(self.checks, key=lambda c: c.id)
            ],
            "aggregate": self.aggregate,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self, timings=False):
        lines = [f"suite {self.suite} on {self.algebra}"]
        for c in sorted(self.checks, key=lambda c: c.id):
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[c.status]
            millis = f" ({c.millis} ms)" if timings else ""
            lines.append(f"  [{mark}] {c.id}{millis}  -- {c.paper_ref}")
            if c.witness:
                lines.append(f"         witness: {json.dumps(c.witness, sort_keys=True)}")
        lines.append(f"aggregate: {self.aggregate}")
        return "\n".join(lines)


def jsonable(value):
    """Exact JSON encoding: rationals as 'p/q' strings, tuples as strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, dict):
        return {str(jsonable(k)) if not isinstance(k, str) else k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _record(check_id, anchor, runner):
    start = time.perf_counter()
    passed, witness = runner()
    millis = int((time.perf_counter() - start) * 1000)
    return CheckRecord(
        id=check_id,
        paper_ref=anchor,
        status="pass" if passed else "fail",
        witness=jsonable(witness) if witness else None,
        millis=millis,
    )


def _detected(result):
    """A fault check's pair from its check's ``(passed, witness)``.

    The fault is detected when the check fails, and then the check's
    witness is recorded; an undetected fault records none.
    """
    passed, witness = result
    return not passed, None if passed else witness


def _skip(check_id, anchor, reason):
    return CheckRecord(
        id=check_id, paper_ref=anchor, status="skip", witness={"reason": reason}, millis=0
    )


def _degree(config, default, minimum):
    """The degree bound of a suite's scans: ``config.degree`` when set, else ``default``."""
    if config.degree is None:
        return default
    if config.degree < minimum:
        raise UsageError(f"--degree {config.degree} is below this suite's minimum {minimum}")
    return config.degree


def _classical(series, rank):
    try:
        return liealg.algebra(series, rank)
    except liealg.UnsupportedTypeError as exc:
        raise UsageError(str(exc)) from exc


def _entry_ring_algebra(series, rank):
    if series != "A":
        raise UsageError(
            "the entry polynomial ring is the coordinate ring of the general "
            "or special linear group; other series would need the isotropy ideal"
        )
    return _classical(series, rank)


def _equal_terms(got, want, name):
    """Check that two term dicts, or two packed fields, are equal.

    On failure the witness ``{name: key}`` gives the first differing key
    in sorted order; packed fields are decoded for it, and only then.
    """
    if got == want:
        return True, None
    if isinstance(got, termops.PackedField):
        got, want = termops.unpack(got), termops.unpack(want)
    differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    return False, {name: differ[0]}


def _derivations(field):
    """The derivation tuples of a packed field's terms, ascending."""
    return sorted({d for _, d in termops.shapes(field)})


# ---------------------------------------------------------------------------
# suite runners


def _suite_cybe(series, rank, config):
    L = _classical(series, rank)
    ct = liealg.canonical_tensors(L)
    checks = [
        _record(
            "r-weight-zero",
            "standard r-matrix pairs opposite root vectors",
            lambda: (
                all(not any(L.weight_of_key(k)) for k in ct.r_sd.terms),
                None,
            ),
        ),
        _record(
            "phi-alternating",
            "Schouten square lands in the third exterior power",
            lambda: (ct.phi.symmetry == "alternating" and not ct.phi.is_zero(), None),
        ),
        _record(
            "phi-invariant",
            "classical Yang-Baxter: the Schouten square is invariant",
            lambda: (multivec.is_invariant(ct.phi), None),
        ),
        _record(
            "cyb-proportional",
            "Yang-Baxter trinomial is half the Schouten square (recorded constant)",
            lambda: _equal_terms(
                multivec.cyb(ct.r_sd).terms,
                ct.phi.to_plain().scale(multivec.CYB_FROM_SCHOUTEN).terms,
                "key",
            ),
        ),
    ]
    return checks


def _suite_cobracket(series, rank, config):
    L = _classical(series, rank)
    ct = liealg.canonical_tensors(L)
    checks = [
        _record(
            "co-jacobi",
            "cocommutator of the standard r-matrix is a Lie coalgebra structure",
            lambda: (multivec.co_jacobi_check(ct.r_sd), None),
        ),
        _record(
            "cartan-cobracket-zero",
            "weight-zero r-matrix commutes with Cartan coproducts",
            lambda: (
                all(multivec.cobracket(ct.r_sd, i).is_zero() for i in range(L.rank)),
                None,
            ),
        ),
    ]
    # the fault needs a rank >= 2 algebra: in rank 1 the full third
    # exterior power is invariant, so every square passes
    Lf = L if L.rank >= 2 else liealg.algebra("A", 2)
    fault = multivec.MultiTensor(
        Lf,
        2,
        {(Lf.pos_index(tuple([1] + [0] * (Lf.rank - 1))), Lf.neg_index(tuple([1] + [0] * (Lf.rank - 1)))): Fraction(1)},
        "alternating",
    )
    checks.append(
        _record(
            "non-invariant-square-detected",
            "a single root-pair tensor in rank >= 2 fails co-Jacobi",
            lambda: (
                not multivec.co_jacobi_check(fault)
                and not multivec.is_invariant(multivec.algebraic_schouten(fault, fault)),
                None,
            ),
        )
    )
    return checks


def _suite_phi_bracket(series, rank, config):
    if series != "A" or rank < 2:
        raise UsageError("the quadratic-bracket suite needs type A of rank >= 2")
    L = _classical(series, rank)
    ct = liealg.canonical_tensors(L)
    checks = []
    space = polyfield.invariant_field_space(L, 2, 2)
    checks.append(
        _record(
            "equivariant-dimension-one",
            "one invariant map from wedge squares to quadratics",
            lambda: (len(space) == 1, {"dimension": len(space)}),
        )
    )
    if len(space) != 1:
        return checks
    cal = polyfield.calibrate_scale(L)

    def calibration():
        # f0 is, up to sign, the trace-form bracket that
        # matrix-trace-bracket-proportional builds, while phibar comes from
        # the Killing form, which is 2n tr on sl(n): so lam = 1/(2n)
        expected = Fraction(1, 4 * L.msize**2)
        witness = {
            "lam_squared": cal.lam_squared,
            "lam": cal.lam,
            **({"obstruction": cal.obstruction} if cal.obstruction else {}),
        }
        if cal.lam_squared == expected:
            return True, witness
        return False, {**witness, "expected": expected}

    checks.append(
        _record(
            "calibration",
            "scale fixed by the square of the quadratic bracket",
            calibration,
        )
    )
    s = polyfield.kirillov_bracket(L)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    f0 = cal.f0
    checks.append(
        _record(
            "linear-compatibility",
            "the quadratic bracket commutes with the linear one",
            lambda: (not polyfield.schouten_nijenhuis(s, f0), None),
        )
    )
    checks.append(
        _record(
            "phi-bracket-identity",
            "square of the calibrated bracket is minus the cubic trivector",
            lambda: (
                termops.pscale(cal.ff, cal.lam_squared) == termops.pscale(cal.phibar, -1),
                None,
            ),
        )
    )

    checks.append(
        _record(
            "phibar-matches-action-field",
            "bracket-coefficient trivector equals the action field (recorded sign)",
            lambda: _equal_terms(
                cal.phibar,
                termops.pscale(polyfield.action_field(ct.phi), polyfield.PHIBAR_SIGN),
                "term",
            ),
        )
    )

    def pencil():
        # [[f0, rm]] has the largest transient terms: build it while little else is held
        cross = polyfield.schouten_nijenhuis(f0, rm)
        sn = polyfield.schouten_nijenhuis
        return (
            not sn(s, s)
            and not sn(s, rm)
            and not termops.padd(sn(rm, rm), cal.ff, cal.lam_squared)
            and not cross,
            None,
        )

    checks.append(
        _record(
            "pencil-poisson",
            "all brackets of the two-parameter family vanish",
            pencil,
        )
    )
    transported = polyfield.gl_transport_quadratic_bracket(L)

    def proportional():
        ratio = polyfield.fields_proportional(transported, f0)
        return ratio is not None, {"ratio": ratio}

    checks.append(
        _record(
            "matrix-trace-bracket-proportional",
            "left/right-multiplication bracket restricts to a multiple",
            proportional,
        )
    )
    return checks


def _suite_conjecture_scan(series, rank, config):
    L = _classical(series, rank)
    d = _degree(config, 3 if L.dim <= 3 else 2, 1)
    entries = polyfield.invariant_bivector_scan(L, d)
    f0 = None
    if series == "A" and rank >= 2:
        f0 = polyfield.quadratic_bracket(L)
    checks = []
    for entry in entries:
        if not entry.extras:
            ok = entry.dimension == entry.invariant_poly_dim
            witness = {
                "dimension": entry.dimension,
                "invariant_polynomial_dim": entry.invariant_poly_dim,
            }
        else:
            # the only allowed exception is the quadratic bracket of sl(n)
            ok = (
                series == "A"
                and rank >= 2
                and entry.degree == 2
                and len(entry.extras) == 1
                and polyfield.fields_proportional(entry.extras[0], f0) is not None
            )
            witness = {
                "dimension": entry.dimension,
                "extras": len(entry.extras),
                "exception": "quadratic invariant bracket",
            }
        checks.append(
            _record(
                f"degree-{entry.degree}-multiples-of-linear",
                "invariant bivectors are invariant multiples of the linear one",
                lambda ok=ok, witness=witness: (ok, witness),
            )
        )
    return checks


def _suite_group_sklyanin(series, rank, config):
    L = _entry_ring_algebra(series, rank)
    n = L.msize
    ct = liealg.canonical_tensors(L)
    sk = grouppois.build_sklyanin_bracket(L)
    checks = [
        _record(
            "sklyanin-poisson",
            "left-minus-right bracket has identically zero jacobiator",
            lambda: (not grouppois.jacobiator_on_generators(sk), None),
        )
    ]

    def same_r_runner():
        two = grouppois.build_two_sided_bracket(L, ct.r_sd, ct.r_sd)
        jac = grouppois.jacobiator_on_generators(two)
        witness = {
            "jacobiator_entries": len(_derivations(jac)),
            "note": (
                "the left-plus-right bracket of one tensor is Poisson: the "
                "invariant 3-tensor has equal left and right extensions, so "
                "a nonzero jacobiator cannot occur here"
            ),
        }
        return bool(jac), witness

    checks.append(
        _record(
            "two-sided-same-r-nonzero-jacobiator",
            "stated expectation: equal tensors on both sides break Jacobi",
            same_r_runner,
        )
    )

    def mismatch_runner():
        bad = grouppois.build_two_sided_bracket(L, ct.r_sd, ct.r_sd.scale(2))
        triples = _derivations(grouppois.jacobiator_on_generators(bad))
        return bool(triples), {"witness_triple": triples[0] if triples else None}

    checks.append(
        _record(
            "square-mismatch-jacobiator-witness",
            "unequal Schouten squares produce a jacobiator witness",
            mismatch_runner,
        )
    )
    if n == 2:
        det = grouppois.determinant(2)
        checks.append(
            _record(
                "determinant-ideal",
                "the bracket preserves the determinant ideal",
                lambda: (
                    all(
                        grouppois.in_principal_ideal(
                            sk.bracket(det, grouppois.entry(2, i, j)), det
                        )
                        for i in range(2)
                        for j in range(2)
                    ),
                    None,
                ),
            )
        )
    else:
        checks.append(
            _skip("determinant-ideal", "checked for 2x2 matrices", f"matrix size is {n}")
        )
    return checks


def _suite_ad_bracket(series, rank, config):
    L = _entry_ring_algebra(series, rank)
    ad = grouppois.build_ad_bracket(L)

    def antisymmetric():
        # guards termops.row_table, the table of every scan, which must write
        # each (j, i) as minus its (i, j); the row of y_u holds the quadratic {y_u, y_v}
        nvars = L.msize * L.msize
        table, _ = termops.row_table(ad.terms)
        units = enumerate(termops.monomial_codec(nvars)[2])
        rows = [termops.hamiltonian_row(table, termops.unit_exp(nvars, u), k) for u, k in units]
        return all(
            rows[v].get(u) == {k: -c for k, c in img.items()}
            for u, row in enumerate(rows)
            for v, img in row.items()
        )

    checks = [
        _record(
            "table-antisymmetric",
            "generator table of the conjugation-invariant bracket",
            lambda: (antisymmetric(), None),
        ),
        _record(
            "conjugation-invariant",
            "left-minus-right fields annihilate the bracket",
            lambda: (
                not any(grouppois.ad_invariance_defect(L, ad, x) for x in range(L.dim)),
                None,
            ),
        ),
    ]

    def phi_identity():
        jac = grouppois.jacobiator_on_generators(ad)
        phi = grouppois.phi_through_conjugation(L)
        expected = termops.pscale(phi, grouppois.AD_JACOBIATOR_FACTOR)
        if jac == expected:
            return True, {"jacobiator_entries": len(_derivations(jac))}
        return False, {"triple": _derivations(termops.padd(jac, expected, -1))[0]}

    checks.append(
        _record(
            "phi-bracket-identity-on-generators",
            "jacobiator equals the recorded multiple of the pushed 3-tensor",
            phi_identity,
        )
    )
    return checks


# the nodes k whose maximal parabolic (T = {k}) gives a Hermitian symmetric
# orbit, in Bourbaki numbering, written from the classical list rather
# than from the highest root
HERMITIAN_SYMMETRIC_NODES = {
    "A": lambda n: set(range(1, n + 1)),
    "B": lambda n: {1},
    "C": lambda n: {n},
    "D": lambda n: {1, n - 1, n},
    "E": lambda n: {6: {1, 6}, 7: {7}, 8: set()}[n],
    "F": lambda n: set(),
    "G": lambda n: set(),
}


def _suite_good_orbits(series, rank, config):
    rs = rootsys.build_root_system(series, rank)
    data = orbits.enumerate_good_orbits(rs)
    ones = rootsys.coefficient_one_nodes(rs)
    if series == "A":
        derived = 2 ** rank - 1
    else:
        k = len(ones)
        derived = k + k * (k - 1) // 2
    table = [
        {
            "S": sorted(d.S),
            "T": sorted(d.T),
            "rank": d.orbit_rank,
            "good": d.good,
            "hermitian_symmetric": d.hermitian_symmetric,
        }
        for d in data
    ]
    hermitian_nodes = HERMITIAN_SYMMETRIC_NODES[series](rank)

    def classification():
        # every row, then the maximal parabolic of each Hermitian symmetric
        # node, which a lost coefficient-1 node would drop from the table;
        # hermitian_symmetric is None where the table has no row for S
        nodes = set(range(1, rank + 1))
        marked = {tuple(row["S"]): row["hermitian_symmetric"] for row in table}
        maximal = [sorted(nodes - {k}) for k in sorted(hermitian_nodes)]
        for S in [row["S"] for row in table] + maximal:
            T = nodes - set(S)
            expected = len(T) == 1 and T <= hermitian_nodes
            if marked.get(tuple(S)) != expected:
                mismatch = {
                    "S": S,
                    "hermitian_symmetric": marked.get(tuple(S)),
                    "expected": expected,
                }
                return False, {"orbits": table, "mismatch": mismatch}
        return True, {"orbits": table}

    return [
        _record(
            "count-matches-derivation",
            "good orbits from coefficient-1 nodes of the highest root",
            lambda: (len(data) == derived, {"count": len(data), "derived": derived}),
        ),
        _record(
            "classification-table",
            "orbit classes indexed by Levi node subsets",
            classification,
        ),
    ]


def _suite_pentagon(series, rank, config):
    L = _classical(series, rank)
    words = quantize.tensor_to_words(liealg.canonical_tensors(L).phi)

    def defining():
        passed, witness = quantize.pentagon_order2_check(L.matrices, L.msize, words)
        return passed, {"representation": "defining", **witness} if passed else witness

    def adjoint():
        mats = [L.ad_matrix(i) for i in range(L.dim)]
        return (
            quantize.faithfulness_guard(mats, L.dim)
            and quantize.pentagon_order2_check(mats, L.dim, words)[0],
            None,
        )

    checks = [
        _record(
            "faithfulness-guard",
            "identity and basis images are linearly independent",
            lambda: (quantize.faithfulness_guard(L.matrices, L.msize), None),
        ),
        _record(
            "pentagon-defining",
            "order-two pentagon shadow in the 4-fold defining power",
            defining,
        ),
    ]
    if L.dim <= 3:
        checks.append(_record("pentagon-adjoint", "cross-representation consistency", adjoint))
    else:
        checks.append(
            _skip("pentagon-adjoint", "cross-representation consistency", "large adjoint power")
        )
    fault = [(Fraction(1), ((1, 1), (0,), (min(2, L.dim - 1),)))]
    checks.append(
        _record(
            "word-leg-fault-detected",
            "a non-primitive leg breaks the shadow identity",
            lambda: (not quantize.pentagon_order2_check(L.matrices, L.msize, fault)[0], None),
        )
    )
    return checks


def _suite_rmatrix(series, rank, config):
    L = _classical(series, rank)
    if not quantize.faithfulness_guard(L.matrices, L.msize):
        raise AssertionError("representation fails the faithfulness guard")
    ct = liealg.canonical_tensors(L)
    # the first-order twist datum t/2 - r
    rho_words = quantize.tensor_to_words(
        ct.t.scale(Fraction(1, 2)).add(ct.r_sd.to_plain().scale(-1))
    )
    fault = [(Fraction(1), ((1, 1), (1,)))]
    return [
        _record(
            "factorized-coproduct",
            "order-one factorization of the doubled R-matrix",
            lambda: quantize.order_h_factorization_check(L.matrices, L.msize, rho_words),
        ),
        _record(
            "coproduct-conjugation",
            "commutator with primitive coproducts reduces to the r-matrix part",
            lambda: quantize.coproduct_conjugation_check(L, rho_words),
        ),
        _record(
            "counit-legs",
            "counit kills each leg of the first-order twist datum",
            # contracting either slot with the counit kills the datum when
            # every leg is a positive-length word
            lambda: (all(wa and wb for _, (wa, wb) in quantize.tensor_to_words(ct.r_sd)), None),
        ),
        _record(
            "word-leg-fault-detected",
            "a non-primitive leg fails the factorization",
            lambda: (
                not quantize.order_h_factorization_check(L.matrices, L.msize, fault)[0],
                None,
            ),
        ),
    ]


def _suite_pbw(series, rank, config):
    L = _classical(series, rank)
    d = _degree(config, 4 if L.dim <= 3 else 3, 1)
    rules, bad = quantize.straightening_rules(L), quantize.jacobi_fault_rules(L)
    return [
        _record(
            "normal-form-counts",
            "irreducible words count the symmetric powers",
            lambda: quantize.pbw_flatness(rules, L.dim, d, seed=config.seed),
        ),
        _record(
            "jacobi-fault-detected",
            "corrupted structure constants break confluence",
            lambda: _detected(quantize.pbw_flatness(bad, L.dim, min(d, 3), seed=config.seed)),
        ),
    ]


def _suite_star_first_order(series, rank, config):
    if series != "A" or rank < 2:
        raise UsageError("the star-product suite needs type A of rank >= 2")
    L = _classical(series, rank)
    d = _degree(config, 3, 2)
    rows = L.dim * (math.comb(L.dim + d - 1, d - 1) - 1)
    if rows > quantize.STAR_ROW_CAP:
        raise termops.ResourceLimitError(
            f"star scans at degree {d} build {rows} rows, above cap {quantize.STAR_ROW_CAP}"
        )
    ct = liealg.canonical_tensors(L)
    cal = polyfield.calibrate_scale(L)
    if cal.lam is None:
        raise UsageError("calibration scale is not rational; graded checks only")
    f = termops.pscale(cal.f0, cal.lam)
    m1 = quantize.standard_first_order_product(f, ct.r_sd)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    bad = quantize.FirstOrderProduct(
        termops.pscale(termops.padd(f, rm), Fraction(1, 2)), "(1/2)(f + r_M)"
    )

    def proj1(p):
        return {e: c for e, c in p.items() if sum(e) == 1}

    return [
        _record(
            "deformed-invariance",
            "order-one invariance under the twisted coproduct",
            lambda: quantize.first_order_invariance_check(m1, ct.r_sd, d),
        ),
        _record(
            "sign-fault-detected",
            "flipping the twist sign fails with a witness",
            lambda: _detected(quantize.first_order_invariance_check(bad, ct.r_sd, d)),
        ),
        _record(
            "hochschild-cocycle",
            "biderivation products are order-one associative",
            # a degree-4 window exercises mixed-degree triples
            lambda: quantize.hochschild_cocycle_check(L, 4, m1),
        ),
        _record(
            "hochschild-fault-detected",
            "a non-biderivation bilinear map fails",
            lambda: (
                not quantize.hochschild_cocycle_check(
                    L, 5, lambda a, b: termops.pmul(proj1(a), proj1(b))
                )[0],
                None,
            ),
        ),
        _record(
            "twist-correspondence",
            "composed twist map agrees with the r-matrix field route",
            lambda: quantize.twist_correspondence_check(L, d, ct.r_sd),
        ),
    ]


SUITES = {
    "cybe": ("Yang-Baxter data of the standard r-matrix", _suite_cybe),
    "cobracket": ("cocommutator and co-Jacobi checks", _suite_cobracket),
    "phi-bracket": ("quadratic bracket, calibration and the Poisson pencil", _suite_phi_bracket),
    "conjecture-scan": ("invariant bivector fields by coefficient degree", _suite_conjecture_scan),
    "group-sklyanin": ("two-sided brackets on matrix entries", _suite_group_sklyanin),
    "ad-bracket": ("conjugation-invariant bracket on matrix entries", _suite_ad_bracket),
    "good-orbits": ("classification of good semisimple orbits", _suite_good_orbits),
    "pentagon": ("order-two pentagon shadow through Kronecker powers", _suite_pentagon),
    "rmatrix-first-order": ("order-one quasitriangularity data", _suite_rmatrix),
    "pbw": ("normal-form counts and confluence of the straightening rules", _suite_pbw),
    "star-first-order": ("first-order star product checks", _suite_star_first_order),
}

# the suites whose runners read a degree bound (``_degree``); the others refuse one
DEGREE_SUITES = frozenset({"conjecture-scan", "pbw", "star-first-order"})


def list_suites():
    return [
        {"name": name, "description": desc} for name, (desc, _) in sorted(SUITES.items())
    ]


def run_suite(config):
    if config.suite not in SUITES:
        raise UsageError(f"unknown suite {config.suite!r}")
    if config.degree is not None and config.suite not in DEGREE_SUITES:
        raise UsageError(f"suite {config.suite!r} takes no --degree")
    series, rank = parse_algebra(config.algebra)
    _, runner = SUITES[config.suite]
    checks = runner(series, rank, config)
    aggregate = "pass" if all(c.status != "fail" for c in checks) else "fail"
    return Report(
        suite=config.suite,
        algebra=f"{series}{rank}",
        config={"degree": config.degree, "seed": config.seed},
        checks=checks,
        aggregate=aggregate,
    )
