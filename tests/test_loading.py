"""Fresh-process tests of what a ``qpverify`` process loads.

The in-process tests have already imported every module, so each test
here starts its own interpreter.  The package registers its modules
lazily: a module is loaded once the type of its entry in
``sys.modules`` is no longer ``_LazyModule``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpverify import suites

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

# runs ``qpverify.cli.main`` on its arguments and prints, as JSON, the
# report, the exit code, the loaded package modules, the modules first
# loaded while a check ran, and whether ``dataclasses`` was imported
PROBE = """
import contextlib, io, json, sys
import qpverify.cli
from qpverify import suites


def loaded():
    return {
        name.removeprefix("qpverify.")
        for name, module in list(sys.modules.items())
        if name.startswith("qpverify.") and type(module).__name__ != "_LazyModule"
    }


in_checks = set()
record = suites._record


def watched(check_id, anchor, runner):
    before = loaded()
    try:
        return record(check_id, anchor, runner)
    finally:
        in_checks.update(loaded() - before)


suites._record = watched
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = qpverify.cli.main(sys.argv[1:])
print(json.dumps({
    "exit": code,
    "report": out.getvalue(),
    "loaded": sorted(loaded()),
    "in_checks": sorted(in_checks),
    "dataclasses": "dataclasses" in sys.modules,
}))
"""


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def _probe(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, env=_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


ENTRY_RING = {"grouppois", "liealg", "linalg", "multivec", "rootsys", "termops"}
TENSORS = {"liealg", "linalg", "multivec", "rootsys", "termops"}
REPRESENTATIONS = TENSORS | {"quantize"}

# package modules besides cli and suites that each invocation loads
LOADS = [
    (("--list",), set()),
    (("cybe", "--algebra", "A2"), TENSORS),
    (("cobracket", "--algebra", "A1"), TENSORS),
    (("good-orbits", "--algebra", "D4"), {"orbits", "rootsys"}),
    (("pbw", "--algebra", "A1"), {"liealg", "linalg", "quantize", "rootsys", "termops"}),
    (("conjecture-scan", "--algebra", "A1"), {"liealg", "linalg", "polyfield", "rootsys", "termops"}),
    (("group-sklyanin", "--algebra", "A1"), ENTRY_RING),
    (("ad-bracket", "--algebra", "A1"), ENTRY_RING),
    (("rmatrix-first-order", "--algebra", "A1"), REPRESENTATIONS),
    (("pentagon", "--algebra", "A1"), REPRESENTATIONS),
    (("phi-bracket", "--algebra", "A2"), TENSORS | {"polyfield"}),
    (("star-first-order", "--algebra", "A2"), REPRESENTATIONS | {"polyfield"}),
]


@pytest.mark.parametrize("argv, modules", LOADS, ids=[argv[0].lstrip("-") for argv, _ in LOADS])
def test_a_process_loads_only_the_modules_its_suite_reaches(argv, modules):
    probe = _probe(*argv, "--format", "json")
    # group-sklyanin records a refuted claim of the paper and fails by design
    assert probe["exit"] == (1 if argv[0] == "group-sklyanin" else 0)
    assert set(probe["loaded"]) == {"cli", "suites"} | modules
    # set-up loads every module, so no check's millis include an import
    assert probe["in_checks"] == []
    assert not probe["dataclasses"]


def test_the_table_runs_every_suite():
    assert {argv[0] for argv, _ in LOADS[1:]} == set(suites.SUITES)


def _load_tracer():
    """``perfbench/tracer.py``, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _checks(report):
    return [
        {k: v for k, v in check.items() if k != "millis"}
        for check in json.loads(report)["checks"]
    ]


def test_the_tracer_installs_on_a_lazily_loaded_package():
    # the tracer reads sys.modules right after ``import qpverify.cli``
    # and rebinds every traced name before the suite runs
    argv = ["cybe", "--algebra", "A1", "--format", "json"]
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(SRC), *argv],
        capture_output=True, env=_env(), timeout=120,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    result = json.loads(traced.stdout)
    prefixes = {prefix for _, _, prefix, _ in _load_tracer().TRACED}
    assert prefixes <= set(result["stats"])
    assert result["stats"]["liealg.canonical_tensors"]["calls"] > 0
    plain = _probe(*argv)
    assert result["exit"] == plain["exit"] == 0
    assert _checks(result["report"]) == _checks(plain["report"])


ERRORS = [
    (("no-such-suite", "--algebra", "A1"), 2, "qpverify: error: unknown suite"),
    (("cybe", "--algebra", "Z9"), 2, "qpverify: error: 'Z9' is not a simple type"),
    (("pbw", "--algebra", "A1", "--degree", "0"), 2, "qpverify: error: --degree 0 is below"),
    (("star-first-order", "--algebra", "A3", "--degree", "9"), 3, "qpverify: resource cap: star scans"),
]


@pytest.mark.parametrize("argv, code, line", ERRORS, ids=["suite", "algebra", "degree", "cap"])
def test_error_exits_in_a_fresh_process(argv, code, line):
    proc = subprocess.run(
        [sys.executable, "-m", "qpverify.cli", *argv], capture_output=True, env=_env(), timeout=120
    )
    err = proc.stderr.decode()
    assert proc.returncode == code
    assert proc.stdout == b""
    assert err.startswith(line) and err.count("\n") == 1
    assert "Traceback" not in err
