import json
from fractions import Fraction

import pytest

from qpverify import suites


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
        suites.SuiteConfig(algebra="A1", suite="pbw", pbw_degree=3, seed=5)
    )
    payload = json.loads(report.to_json())
    assert payload["config"]["pbw_degree"] == 3
    assert payload["config"]["seed"] == 5
    assert "invariance_degree" in payload["config"]
    assert "group_degree_cap" in payload["config"]


def test_pbw_degree_knob_controls_counts():
    report = suites.run_suite(
        suites.SuiteConfig(algebra="A1", suite="pbw", pbw_degree=2)
    )
    counts = next(
        c for c in report.checks if c.id == "normal-form-counts"
    ).witness["counts"]
    assert counts == [1, 3, 6]


def test_every_suite_has_anchor():
    for entry in suites.list_suites():
        assert entry["anchor"]
        assert entry["description"]


def _witnesses(suite, algebra):
    report = suites.run_suite(suites.SuiteConfig(algebra=algebra, suite=suite))
    return {c.id: c.witness for c in report.checks}


def test_entry_ring_witnesses_a2():
    ad = _witnesses("ad-bracket", "A2")
    assert ad["phi-bracket-identity-on-generators"] == {"jacobiator_entries": 77}
    sk = _witnesses("group-sklyanin", "A2")
    assert sk["square-mismatch-jacobiator-witness"] == {"witness_triple": [0, 1, 3]}
