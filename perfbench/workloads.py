"""Workloads of the verdict benchmark and the hand-written expected verdicts.

A workload is a fixed list of ``qpverify`` invocations.  Each one runs as
its own process with ``--format json --seed <seed>`` appended; only the
``pbw`` suite consumes the seed.

``EXPECTED`` is written by hand from the suite definitions and the
paper's claims, one status per invocation and check.  It is never
generated by running the program under test.  Every check passes except:

* ``group-sklyanin``'s ``two-sided-same-r-nonzero-jacobiator``, which
  records a refuted claim of the paper and fails by design (exit 1);
* ``group-sklyanin``'s ``determinant-ideal``, skipped above 2x2 matrices;
* ``pentagon``'s ``pentagon-adjoint``, skipped above dimension 3 (the
  adjoint Kronecker power is too large).
"""

PASS, FAIL, SKIP = "pass", "fail", "skip"

_CYBE = {
    "cyb-proportional": PASS,
    "phi-alternating": PASS,
    "phi-invariant": PASS,
    "r-weight-zero": PASS,
}
_COBRACKET = {
    "cartan-cobracket-zero": PASS,
    "co-jacobi": PASS,
    "non-invariant-square-detected": PASS,
}
_GOOD_ORBITS = {"classification-table": PASS, "count-matches-derivation": PASS}
_PBW = {"jacobi-fault-detected": PASS, "normal-form-counts": PASS}
_RMATRIX = {
    "coproduct-conjugation": PASS,
    "counit-legs": PASS,
    "factorized-coproduct": PASS,
    "word-leg-fault-detected": PASS,
}
_PENTAGON_SMALL = {
    "faithfulness-guard": PASS,
    "pentagon-adjoint": PASS,
    "pentagon-defining": PASS,
    "word-leg-fault-detected": PASS,
}
_PENTAGON_LARGE = {**_PENTAGON_SMALL, "pentagon-adjoint": SKIP}
_AD_BRACKET = {
    "conjugation-invariant": PASS,
    "phi-bracket-identity-on-generators": PASS,
    "table-antisymmetric": PASS,
}
_SKLYANIN_2X2 = {
    "determinant-ideal": PASS,
    "sklyanin-poisson": PASS,
    "square-mismatch-jacobiator-witness": PASS,
    "two-sided-same-r-nonzero-jacobiator": FAIL,
}
_SKLYANIN_LARGE = {**_SKLYANIN_2X2, "determinant-ideal": SKIP}
_PHI_BRACKET = {
    "calibration": PASS,
    "equivariant-dimension-one": PASS,
    "linear-compatibility": PASS,
    "matrix-trace-bracket-proportional": PASS,
    "pencil-poisson": PASS,
    "phi-bracket-identity": PASS,
    "phibar-matches-action-field": PASS,
}
_STAR = {
    "deformed-invariance": PASS,
    "hochschild-cocycle": PASS,
    "hochschild-fault-detected": PASS,
    "sign-fault-detected": PASS,
    "twist-correspondence": PASS,
}
# A1 scans coefficient degrees 1..3; every invariant bivector is a multiple
# of the linear one.
_CONJECTURE_A1 = {f"degree-{k}-multiples-of-linear": PASS for k in (1, 2, 3)}

# invocation (without --format/--seed) -> {check id: expected status}
EXPECTED = {
    ("star-first-order", "--algebra", "A2"): _STAR,
    ("ad-bracket", "--algebra", "A3"): _AD_BRACKET,
    ("group-sklyanin", "--algebra", "A3"): _SKLYANIN_LARGE,
    ("phi-bracket", "--algebra", "A3"): _PHI_BRACKET,
    ("cybe", "--algebra", "A2"): _CYBE,
    ("cobracket", "--algebra", "A1"): _COBRACKET,
    ("good-orbits", "--algebra", "D4"): _GOOD_ORBITS,
    ("pbw", "--algebra", "A1"): _PBW,
    ("conjecture-scan", "--algebra", "A1"): _CONJECTURE_A1,
    ("group-sklyanin", "--algebra", "A1"): _SKLYANIN_2X2,
    ("rmatrix-first-order", "--algebra", "A1"): _RMATRIX,
    ("pentagon", "--algebra", "A1"): _PENTAGON_SMALL,
    ("ad-bracket", "--algebra", "A1"): _AD_BRACKET,
    ("phi-bracket", "--algebra", "A2"): _PHI_BRACKET,
    ("cybe", "--algebra", "D4"): _CYBE,
    ("cobracket", "--algebra", "D4"): _COBRACKET,
    ("pentagon", "--algebra", "A3"): _PENTAGON_LARGE,
    ("rmatrix-first-order", "--algebra", "A3"): _RMATRIX,
    ("pbw", "--algebra", "A2", "--degree", "4"): _PBW,
    ("good-orbits", "--algebra", "E8"): _GOOD_ORBITS,
}

WORKLOADS = {
    # heavy tier: the Hochschild and twist scans over termops.bivector_eval
    "star-a2": [("star-first-order", "--algebra", "A2")],
    # entry-ring brackets: termops as a write-heavy accumulator
    "entry-ring-a3": [
        ("ad-bracket", "--algebra", "A3"),
        ("group-sklyanin", "--algebra", "A3"),
    ],
    # set-up heavy: equivariant solver, calibration, Schouten brackets
    "pencil-a3": [("phi-bracket", "--algebra", "A3")],
    # the determinism job list without star A2, plus larger algebras for
    # the layers no other workload reaches; half of it is process start
    "sweep": [
        ("cybe", "--algebra", "A2"),
        ("cobracket", "--algebra", "A1"),
        ("good-orbits", "--algebra", "D4"),
        ("pbw", "--algebra", "A1"),
        ("conjecture-scan", "--algebra", "A1"),
        ("group-sklyanin", "--algebra", "A1"),
        ("rmatrix-first-order", "--algebra", "A1"),
        ("pentagon", "--algebra", "A1"),
        ("ad-bracket", "--algebra", "A1"),
        ("phi-bracket", "--algebra", "A2"),
        ("cybe", "--algebra", "D4"),
        ("cobracket", "--algebra", "D4"),
        ("pentagon", "--algebra", "A3"),
        ("rmatrix-first-order", "--algebra", "A3"),
        ("pbw", "--algebra", "A2", "--degree", "4"),
        ("good-orbits", "--algebra", "E8"),
    ],
}


def expected_exit(invocation):
    """Exit code the CLI should give: 1 if any check is expected to fail."""
    return 1 if FAIL in EXPECTED[invocation].values() else 0


def argv(invocation, seed):
    return list(invocation) + ["--format", "json", "--seed", str(seed)]


def verdict_mismatches(invocation, report):
    """Checks of a parsed JSON report whose status differs from EXPECTED.

    A check missing from the report or absent from the table counts too.
    """
    want = EXPECTED[invocation]
    got = {c["id"]: c["status"] for c in report.get("checks", [])}
    return sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
