import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpverify import cli, liealg, multivec, polyfield, suites, termops


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_suites(capsys):
    code, out, _ = run(capsys, "--list")
    assert code == 0
    for name in (
        "cybe", "cobracket", "phi-bracket", "conjecture-scan", "group-sklyanin",
        "ad-bracket", "good-orbits", "pentagon", "rmatrix-first-order", "pbw",
        "star-first-order",
    ):
        assert name in out


def test_closed_stdout_exits_without_traceback():
    # the reader closes its end of the pipe before the report is written,
    # as ``qpverify ... | head`` does; the verdict exit code still comes back
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpverify.cli", "cybe", "--algebra", "A1", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in err


def test_cyb_constant_fault_fails_with_a_witness(monkeypatch, capsys):
    # a wrong recorded constant fails the comparison check; cyb itself
    # only builds the trinomial, so nothing raises
    monkeypatch.setattr(multivec, "CYB_FROM_SCHOUTEN", 1)
    code, out, err = run(capsys, "cybe", "--algebra", "A1", "--format", "json")
    assert code == 1
    assert "Traceback" not in err
    failed = {c["id"]: c for c in json.loads(out)["checks"] if c["status"] == "fail"}
    assert set(failed) == {"cyb-proportional"}
    ct = liealg.canonical_tensors(liealg.algebra("A", 1))
    got = multivec.cyb(ct.r_sd).plain_dict()
    want = ct.phi.plain_dict()
    first = min(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert failed["cyb-proportional"]["witness"] == {"key": list(first)}


def test_list_suites_api():
    names = [e["name"] for e in suites.list_suites()]
    assert names == sorted(names)
    assert all(e["description"] for e in suites.list_suites())


def test_cybe_passes(capsys):
    code, out, _ = run(capsys, "cybe", "--algebra", "A1")
    assert code == 0
    assert "aggregate: pass" in out


def test_good_orbits_g2(capsys):
    code, out, _ = run(capsys, "good-orbits", "--algebra", "G2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregate"] == "pass"
    table = next(
        c for c in payload["checks"] if c["id"] == "classification-table"
    )
    assert table["witness"]["orbits"] == []


def test_phi_bracket_sl3(capsys):
    code, out, _ = run(capsys, "phi-bracket", "--algebra", "A2")
    assert code == 0
    assert "aggregate: pass" in out


def test_algebra_aliases(capsys):
    code, out, _ = run(capsys, "cybe", "--algebra", "sl2")
    assert code == 0
    assert "suite cybe on A1" in out


def test_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "no-such-suite", "--algebra", "A1")
    assert code == 2
    assert "unknown suite" in err


def test_bad_algebra_exit_2(capsys):
    code, _, err = run(capsys, "cybe", "--algebra", "Z9")
    assert code == 2


def test_unsupported_algebra_for_suite_exit_2(capsys):
    code, _, err = run(capsys, "cybe", "--algebra", "G2")
    assert code == 2
    code, _, err = run(capsys, "phi-bracket", "--algebra", "B2")
    assert code == 2
    # entry-ring suites live on the (general/special) linear coordinate
    # ring; the Poisson identities hold elsewhere only modulo the group
    # ideal, so other series are rejected
    for suite in ("group-sklyanin", "ad-bracket"):
        code, _, err = run(capsys, suite, "--algebra", "B2")
        assert code == 2


def test_missing_suite_exit_2(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_resource_cap_exit_3(capsys):
    code, _, err = run(capsys, "pbw", "--algebra", "A1", "--degree", "7")
    assert code == 3
    assert "resource cap" in err
    code, _, err = run(capsys, "conjecture-scan", "--algebra", "A2", "--degree", "40")
    assert code == 3
    code, _, err = run(capsys, "star-first-order", "--algebra", "A2", "--degree", "40")
    assert code == 3
    assert "resource cap" in err


def test_a_degree_past_the_packed_top_is_refused_before_any_solve(capsys, monkeypatch):
    # A1 at degree 300 is within the entry cap, but its monomials pass
    # termops.FIELD_TOP, so no degree of the scan may be solved first
    def solve(L, p, q):
        raise AssertionError(f"solved ({p}, {q}) before refusing the degree")

    monkeypatch.setattr(polyfield, "solve_equivariant", solve)
    code, _, err = run(capsys, "conjecture-scan", "--algebra", "A1", "--degree", "300")
    assert code == 3
    assert "resource cap" in err
    top = termops.FIELD_TOP
    with pytest.raises(termops.ResourceLimitError):
        polyfield.invariant_field_space(liealg.algebra("A", 1), 2, top + 1)


def test_the_scan_cap_bounds_the_sum_of_its_systems(capsys, monkeypatch):
    # A1 at degree 200 is within the entry cap of its largest system, but
    # not of the 200 degrees it would solve in all
    def solve(L, p, q):
        raise AssertionError(f"solved ({p}, {q}) before refusing the degree")

    monkeypatch.setattr(polyfield, "solve_equivariant", solve)
    code, _, err = run(capsys, "conjecture-scan", "--algebra", "A1", "--degree", "200")
    assert code == 3
    assert "resource cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        # a degree of 0 once counted as unset, so the suite ran at its default
        ("star-first-order", "--algebra", "A2", "--degree", "0"),
        # no pair of non-constant monomials has a quadratic bracket of degree 1
        ("star-first-order", "--algebra", "A2", "--degree", "1"),
        ("pbw", "--algebra", "A1", "--degree", "0"),
        ("pbw", "--algebra", "A1", "--degree", "-1"),
        ("conjecture-scan", "--algebra", "A1", "--degree", "0"),
        ("conjecture-scan", "--algebra", "A1", "--degree", "-1"),
    ],
)
def test_degree_below_the_suite_minimum_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "below this suite's minimum" in err


@pytest.mark.parametrize("suite", sorted(set(suites.SUITES) - suites.DEGREE_SUITES))
def test_a_suite_without_a_degree_bound_refuses_one(capsys, suite):
    # no runner of these reads the degree, so a report must not echo it
    code, out, err = run(capsys, suite, "--algebra", "A2", "--degree", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert f"suite {suite!r} takes no --degree" in err


def test_the_degree_suites_are_the_runners_that_read_a_degree():
    reads = {
        name for name, (_, runner) in suites.SUITES.items() if "_degree" in runner.__code__.co_names
    }
    assert reads == suites.DEGREE_SUITES
    assert len(set(suites.SUITES) - reads) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ("star-first-order", "--algebra", "A2", "--degree", "2"),
        ("pbw", "--algebra", "A1", "--degree", "1"),
        ("conjecture-scan", "--algebra", "A1", "--degree", "1"),
    ],
)
def test_degree_at_the_suite_minimum_runs(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["degree"] == int(argv[-1])
    assert payload["aggregate"] == "pass"


def test_conjecture_scan_past_exponent_fifteen(capsys):
    # on sl2 the invariant bivectors of degree k are the Casimir powers
    # times the linear bracket, so the space has dimension 1 for odd k
    argv = ("conjecture-scan", "--algebra", "A1", "--degree", "16", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert len(checks) == 16
    for k in range(1, 17):
        check = checks[f"degree-{k}-multiples-of-linear"]
        assert check["status"] == "pass"
        assert check["witness"] == {"dimension": k % 2, "invariant_polynomial_dim": k % 2}


def test_check_failure_exit_1(capsys):
    # the stated same-tensor expectation cannot hold (the two one-sided
    # extensions of an invariant 3-tensor agree), so the suite reports a
    # failing check and the driver exits 1
    code, out, _ = run(capsys, "group-sklyanin", "--algebra", "A1")
    assert code == 1
    assert "aggregate: fail" in out
    assert "two-sided-same-r-nonzero-jacobiator" in out


def test_json_round_trip_and_schema(capsys):
    code, out, _ = run(capsys, "cybe", "--algebra", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    assert payload["suite"] == "cybe"
    assert payload["algebra"] == "A2"
    assert set(payload) == {
        "schema_version", "suite", "algebra", "config", "checks", "aggregate",
    }
    for check in payload["checks"]:
        assert {"id", "paper_ref", "status"} <= set(check)
        assert "millis" not in check  # stable by default
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)


def test_json_byte_identical_reruns(capsys):
    # the text report is byte-stable too: its millis need --timings
    for fmt in ("json", "text"):
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, "pbw", "--algebra", "A1", "--seed", "7", "--format", fmt)
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
        assert " ms)" not in runs[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("cybe", "--algebra", "D4"),
        ("rmatrix-first-order", "--algebra", "A1"),
        ("pentagon", "--algebra", "A1"),
        ("phi-bracket", "--algebra", "A2"),
        ("group-sklyanin", "--algebra", "A1"),
        ("group-sklyanin", "--algebra", "A2"),
        ("good-orbits", "--algebra", "D4"),
        ("ad-bracket", "--algebra", "A2"),
        ("star-first-order", "--algebra", "A2"),
        ("ad-bracket", "--algebra", "A3"),
        ("pbw", "--algebra", "A2", "--degree", "4"),
    ],
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    # the iteration order of a set of str changes with the hash seed
    runs = []
    for seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
            PYTHONHASHSEED=seed,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qpverify.cli", *argv, "--format", "json", "--seed", "0"],
            capture_output=True,
            env=env,
            timeout=120,
        )
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][1]


def test_timings_flag_adds_millis(capsys):
    code, out, _ = run(capsys, "cybe", "--algebra", "A1", "--format", "json", "--timings")
    assert code == 0
    payload = json.loads(out)
    assert all("millis" in c for c in payload["checks"])
    code, out, _ = run(capsys, "cybe", "--algebra", "A1", "--timings")
    assert code == 0
    checks = [line for line in out.splitlines() if line.startswith("  [")]
    assert checks and all(" ms)  -- " in line for line in checks)


def test_run_suite_api_matches_cli():
    config = suites.SuiteConfig(algebra="A1", suite="cybe")
    report = suites.run_suite(config)
    assert report.aggregate == "pass"
    assert report.algebra == "A1"
    payload = json.loads(report.to_json())
    assert payload["aggregate"] == "pass"


def test_report_config_echoes_exactly_the_settable_fields():
    # every config field other than the suite and algebra is a CLI option,
    # and the report's config block echoes exactly those fields
    fields = set(suites.SuiteConfig._fields) - {"algebra", "suite"}
    destinations = {action.dest for action in cli.build_parser()._actions}
    assert fields <= destinations
    report = suites.run_suite(suites.SuiteConfig(algebra="A1", suite="cybe"))
    assert set(json.loads(report.to_json())["config"]) == fields


def test_exact_witnesses_are_strings():
    config = suites.SuiteConfig(algebra="A2", suite="phi-bracket")
    report = suites.run_suite(config)
    cal = next(c for c in report.checks if c.id == "calibration")
    assert cal.witness["lam_squared"] == "1/36"
    assert cal.witness["lam"] == "1/6"
