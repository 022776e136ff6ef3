"""Named verification suites and their machine-readable reports.

Each suite is a list of checks run against one algebra; a report records
per-check status with exact rational witnesses on failure.  Reports are
byte-stable for a fixed configuration and seed: wall-clock times are
collected but only embedded in the JSON when explicitly requested.
"""

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import grouppois, liealg, multivec, orbits, polyfield, quantize, rootsys, termops

SCHEMA_VERSION = 1

ALGEBRA_ALIASES = {
    "sl2": "A1", "sl3": "A2", "sl4": "A3", "sl5": "A4", "sl6": "A5",
    "sl7": "A6", "sl8": "A7", "sl9": "A8",
    "so5": "B2", "sp4": "C2", "so8": "D4",
}


class UsageError(ValueError):
    """Configuration the driver refuses: unknown suite, bad algebra."""


def parse_algebra(text):
    key = text.strip().lower()
    if key in ALGEBRA_ALIASES:
        text = ALGEBRA_ALIASES[key]
    try:
        return rootsys.parse_type_string(text)
    except rootsys.InvalidTypeError as exc:
        raise UsageError(str(exc)) from exc


@dataclass
class SuiteConfig:
    algebra: str
    suite: str
    degree: int = None  # CLI-facing override for the suite's main degree
    invariance_degree: int = None
    pbw_degree: int = None
    group_degree_cap: int = grouppois.DEFAULT_DEGREE_CAP
    seed: int = 0

    def star_degree(self):
        if self.invariance_degree is not None:
            return self.invariance_degree
        return self.degree if self.degree else 3

    def rewriting_degree(self, default):
        if self.pbw_degree is not None:
            return self.pbw_degree
        return self.degree if self.degree else default


@dataclass
class CheckRecord:
    id: str
    paper_ref: str
    status: str  # pass | fail | skip
    witness: dict = None
    millis: int = 0


@dataclass
class Report:
    suite: str
    algebra: str
    config: dict
    checks: list
    aggregate: str

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

    def to_text(self):
        lines = [f"suite {self.suite} on {self.algebra}"]
        for c in sorted(self.checks, key=lambda c: c.id):
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[c.status]
            lines.append(f"  [{mark}] {c.id} ({c.millis} ms)  -- {c.paper_ref}")
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


def _skip(check_id, anchor, reason):
    return CheckRecord(
        id=check_id, paper_ref=anchor, status="skip", witness={"reason": reason}, millis=0
    )


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
    """Check that two term dicts are equal.

    On failure the witness ``{name: key}`` gives the first differing key
    in sorted order.
    """
    differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    return not differ, {name: differ[0]} if differ else None


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
    checks.append(
        _record(
            "calibration",
            "scale fixed by the square of the quadratic bracket",
            lambda: (
                True,
                {
                    "lam_squared": cal.lam_squared,
                    "lam": cal.lam,
                    **({"obstruction": cal.obstruction} if cal.obstruction else {}),
                },
            ),
        )
    )
    s = polyfield.kirillov_bracket(L)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    f0 = cal.f0
    checks.append(
        _record(
            "linear-compatibility",
            "the quadratic bracket commutes with the linear one",
            lambda: (polyfield.schouten_nijenhuis(s, f0).is_zero(), None),
        )
    )
    checks.append(
        _record(
            "phi-bracket-identity",
            "square of the calibrated bracket is minus the cubic trivector",
            lambda: (cal.ff.scale(cal.lam_squared) == cal.phibar.scale(-1), None),
        )
    )

    checks.append(
        _record(
            "phibar-matches-action-field",
            "bracket-coefficient trivector equals the action field (recorded sign)",
            lambda: _equal_terms(
                cal.phibar.terms,
                polyfield.action_field(ct.phi).scale(polyfield.PHIBAR_SIGN).terms,
                "term",
            ),
        )
    )

    def pencil():
        # [[f0, rm]] has the largest transient terms: build it while little else is held
        cross = polyfield.schouten_nijenhuis(f0, rm)
        rep = polyfield.poisson_pencil_check(s, rm)
        return (
            rep.pp.is_zero()
            and rep.pq.is_zero()
            and rep.qq.add(cal.ff.scale(cal.lam_squared)).is_zero()
            and cross.is_zero(),
            None,
        )

    checks.append(
        _record(
            "pencil-poisson",
            "all brackets of the two-parameter family vanish",
            pencil,
        )
    )
    if L.matrices is not None:
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
    d = config.degree if config.degree else (3 if L.dim <= 3 else 2)
    entries = polyfield.invariant_bivector_scan(L, d)
    f0 = None
    if series == "A" and rank >= 2:
        f0 = polyfield.quadratic_bracket(L)
    checks = []
    for entry in entries:
        if entry.all_kirillov_multiples:
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
    sk = grouppois.build_sklyanin_bracket(L, config.group_degree_cap)
    checks = [
        _record(
            "sklyanin-poisson",
            "left-minus-right bracket has identically zero jacobiator",
            lambda: (grouppois.jacobiator_on_generators(sk) == {}, None),
        )
    ]

    def same_r_runner():
        two = grouppois.build_two_sided_bracket(L, ct.r_sd, ct.r_sd, config.group_degree_cap)
        jac = grouppois.jacobiator_on_generators(two)
        witness = {
            "jacobiator_entries": len(jac),
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
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bad = grouppois.build_two_sided_bracket(
                L, ct.r_sd, ct.r_sd.scale(2), config.group_degree_cap
            )
        jac = grouppois.jacobiator_on_generators(bad)
        first = sorted(jac)[0] if jac else None
        return bool(jac), {"witness_triple": first}

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
    ad = grouppois.build_ad_bracket(L, config.group_degree_cap)
    checks = [
        _record(
            "table-antisymmetric",
            "generator table of the conjugation-invariant bracket",
            lambda: (
                all(
                    ad.table.get((v, u), {})
                    == {k: -c for k, c in val.items()}
                    for (u, v), val in ad.table.items()
                ),
                None,
            ),
        ),
        _record(
            "conjugation-invariant",
            "left-minus-right fields annihilate the bracket",
            lambda: (
                all(
                    grouppois.ad_invariance_defect(L, ad, x) == {}
                    for x in range(L.dim)
                ),
                None,
            ),
        ),
    ]

    def phi_identity():
        jac = grouppois.jacobiator_on_generators(ad)
        expected = {
            triple: termops.pscale(p, grouppois.AD_JACOBIATOR_FACTOR)
            for triple, p in grouppois.phi_through_conjugation(L).items()
        }
        ok, witness = _equal_terms(jac, expected, "triple")
        return ok, witness or {"jacobiator_entries": len(jac)}

    checks.append(
        _record(
            "phi-bracket-identity-on-generators",
            "jacobiator equals the recorded multiple of the pushed 3-tensor",
            phi_identity,
        )
    )
    return checks


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
    return [
        _record(
            "count-matches-derivation",
            "good orbits from coefficient-1 nodes of the highest root",
            lambda: (len(data) == derived, {"count": len(data), "derived": derived}),
        ),
        _record(
            "classification-table",
            "orbit classes indexed by Levi node subsets",
            lambda: (True, {"orbits": table}),
        ),
    ]


def _suite_pentagon(series, rank, config):
    L = _classical(series, rank)
    checks = [
        _record(
            "faithfulness-guard",
            "identity and basis images are linearly independent",
            lambda: (
                quantize.faithfulness_guard(*quantize.representation(L, "defining")),
                None,
            ),
        ),
        _record(
            "pentagon-defining",
            "order-two pentagon shadow in the 4-fold defining power",
            lambda: (lambda res: (res.passed, res.details))(
                quantize.pentagon_order2_check(L)
            ),
        ),
    ]
    if L.dim <= 3:
        checks.append(
            _record(
                "pentagon-adjoint",
                "cross-representation consistency",
                lambda: (quantize.pentagon_order2_check(L, rep="adjoint").passed, None),
            )
        )
    else:
        checks.append(
            _skip("pentagon-adjoint", "cross-representation consistency", "large adjoint power")
        )
    fault = [(Fraction(1), ((1, 1), (0,), (min(2, L.dim - 1),)))]
    checks.append(
        _record(
            "word-leg-fault-detected",
            "a non-primitive leg breaks the shadow identity",
            lambda: (not quantize.pentagon_order2_check(L, word_terms=fault).passed, None),
        )
    )
    return checks


def _suite_rmatrix(series, rank, config):
    L = _classical(series, rank)
    state = {}

    def parts():
        if not state:
            state["parts"] = quantize.rmatrix_first_order_checks(L)
        return state["parts"]

    fault = [(Fraction(1), ((1, 1), (1,)))]
    return [
        _record(
            "factorized-coproduct",
            "order-one factorization of the doubled R-matrix",
            lambda: (parts()[0].passed, parts()[0].witness or None),
        ),
        _record(
            "coproduct-conjugation",
            "commutator with primitive coproducts reduces to the r-matrix part",
            lambda: (parts()[1].passed, parts()[1].details),
        ),
        _record(
            "counit-legs",
            "counit kills each leg of the first-order twist datum",
            lambda: (parts()[2].passed, None),
        ),
        _record(
            "word-leg-fault-detected",
            "a non-primitive leg fails the factorization",
            lambda: (not quantize.order_h_factorization_check(L, fault).passed, None),
        ),
    ]


def _suite_pbw(series, rank, config):
    L = _classical(series, rank)
    d = config.rewriting_degree(4 if L.dim <= 3 else 3)
    res = quantize.pbw_flatness(L, d, seed=config.seed)
    bad = quantize.jacobi_fault_algebra(L)
    fault_res = quantize.pbw_flatness(bad, min(d, 3), seed=config.seed)
    return [
        _record(
            "normal-form-counts",
            "irreducible words count the symmetric powers",
            lambda: (res.passed, res.details if res.passed else res.witness),
        ),
        _record(
            "jacobi-fault-detected",
            "corrupted structure constants break confluence",
            lambda: (not fault_res.passed, fault_res.witness),
        ),
    ]


def _suite_star_first_order(series, rank, config):
    if series != "A" or rank < 2:
        raise UsageError("the star-product suite needs type A of rank >= 2")
    L = _classical(series, rank)
    d = config.star_degree()
    ct = liealg.canonical_tensors(L)
    cal = polyfield.calibrate_scale(L)
    if cal.lam is None:
        raise UsageError("calibration scale is not rational; graded checks only")
    f = cal.f0.scale(cal.lam)
    trunc = quantize.TruncatedPolynomialAlgebra(L, d)
    m1 = quantize.standard_first_order_product(trunc, f, ct.r_sd)
    rm = polyfield.rmatrix_bracket(ct.r_sd)
    bad = quantize.FirstOrderProduct(trunc, f.add(rm).scale(Fraction(1, 2)), "(1/2)(f + r_M)")
    trunc5 = quantize.TruncatedPolynomialAlgebra(L, 5)

    def proj1(p):
        return {e: c for e, c in p.items() if sum(e) == 1}

    def run_invariance():
        res = quantize.first_order_invariance_check(m1, ct.r_sd)
        return res.passed, res.details

    def run_fault():
        res = quantize.first_order_invariance_check(bad, ct.r_sd)
        witness = (
            {k: res.witness[k] for k in ("x", "a", "b")} if res.witness else None
        )
        return not res.passed, witness

    def run_hoch():
        # a degree-4 window exercises mixed-degree triples
        trunc4 = quantize.TruncatedPolynomialAlgebra(L, 4)
        m1_4 = quantize.standard_first_order_product(trunc4, f, ct.r_sd)
        res = quantize.hochschild_cocycle_check(trunc4, m1_4)
        return res.passed, res.details

    def run_hoch_fault():
        res = quantize.hochschild_cocycle_check(
            trunc5, lambda a, b: trunc5.multiply(proj1(a), proj1(b))
        )
        return not res.passed, None

    def run_twist():
        return quantize.twist_correspondence_check(trunc, ct.r_sd).passed, None

    return [
        _record(
            "deformed-invariance",
            "order-one invariance under the twisted coproduct",
            run_invariance,
        ),
        _record(
            "sign-fault-detected",
            "flipping the twist sign fails with a witness",
            run_fault,
        ),
        _record(
            "hochschild-cocycle",
            "biderivation products are order-one associative",
            run_hoch,
        ),
        _record(
            "hochschild-fault-detected",
            "a non-biderivation bilinear map fails",
            run_hoch_fault,
        ),
        _record(
            "twist-correspondence",
            "composed twist map agrees with the r-matrix field route",
            run_twist,
        ),
    ]


SUITES = {
    "cybe": (
        "Yang-Baxter data of the standard r-matrix",
        "classical Yang-Baxter equation",
        _suite_cybe,
    ),
    "cobracket": (
        "cocommutator and co-Jacobi checks",
        "Lie coalgebra structure of a coboundary bialgebra",
        _suite_cobracket,
    ),
    "phi-bracket": (
        "quadratic bracket, calibration and the Poisson pencil",
        "invariant bracket with prescribed Schouten square",
        _suite_phi_bracket,
    ),
    "conjecture-scan": (
        "invariant bivector fields by coefficient degree",
        "invariant Poisson brackets on the symmetric algebra",
        _suite_conjecture_scan,
    ),
    "group-sklyanin": (
        "two-sided brackets on matrix entries",
        "left/right-invariant bivector fields on the group",
        _suite_group_sklyanin,
    ),
    "ad-bracket": (
        "conjugation-invariant bracket on matrix entries",
        "invariant symmetric 2-tensor through conjugation fields",
        _suite_ad_bracket,
    ),
    "good-orbits": (
        "classification of good semisimple orbits",
        "highest-root coefficient-1 nodes of Levi complements",
        _suite_good_orbits,
    ),
    "pentagon": (
        "order-two pentagon shadow through Kronecker powers",
        "pentagon identity for the associator, leading order",
        _suite_pentagon,
    ),
    "rmatrix-first-order": (
        "order-one quasitriangularity data",
        "factorized coproduct relations of the universal R-matrix",
        _suite_rmatrix,
    ),
    "pbw": (
        "normal-form counts and confluence of the straightening rules",
        "flatness of the symmetric-algebra family",
        _suite_pbw,
    ),
    "star-first-order": (
        "first-order star product checks",
        "invariance of the deformed multiplication at order one",
        _suite_star_first_order,
    ),
}


def list_suites():
    return [
        {"name": name, "description": desc, "anchor": anchor}
        for name, (desc, anchor, _) in sorted(SUITES.items())
    ]


def run_suite(config):
    if config.suite not in SUITES:
        raise UsageError(f"unknown suite {config.suite!r}")
    series, rank = parse_algebra(config.algebra)
    _, _, runner = SUITES[config.suite]
    checks = runner(series, rank, config)
    aggregate = "pass" if all(c.status != "fail" for c in checks) else "fail"
    return Report(
        suite=config.suite,
        algebra=f"{series}{rank}",
        config={
            "degree": config.degree,
            "invariance_degree": config.invariance_degree,
            "pbw_degree": config.pbw_degree,
            "group_degree_cap": config.group_degree_cap,
            "seed": config.seed,
        },
        checks=checks,
        aggregate=aggregate,
    )
