import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpverify import cli, liealg, multivec, suites


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
    assert payload["schema_version"] == 1
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
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "pbw", "--algebra", "A1", "--seed", "7", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_timings_flag_adds_millis(capsys):
    code, out, _ = run(capsys, "cybe", "--algebra", "A1", "--format", "json", "--timings")
    assert code == 0
    payload = json.loads(out)
    assert all("millis" in c for c in payload["checks"])


def test_run_suite_api_matches_cli():
    config = suites.SuiteConfig(algebra="A1", suite="cybe")
    report = suites.run_suite(config)
    assert report.aggregate == "pass"
    assert report.algebra == "A1"
    payload = json.loads(report.to_json())
    assert payload["aggregate"] == "pass"


def test_exact_witnesses_are_strings():
    config = suites.SuiteConfig(algebra="A2", suite="phi-bracket")
    report = suites.run_suite(config)
    cal = next(c for c in report.checks if c.id == "calibration")
    assert cal.witness["lam_squared"] == "1/36"
    assert cal.witness["lam"] == "1/6"
