"""Verdict benchmark for qpverify: end-to-end time per workload, and a
traced run that attributes it to the package's layers.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` every sample runs the workload's invocations one at a
time, each as a fresh ``python3 -m qpverify.cli ... --format json``
process (a closed loop with one client), until ``--seconds`` have
passed.  It reports the medians over samples of ``verdict_s``,
``cpu_s`` and ``peak_rss_mb``, and ``setup_s``, the median wall time of
fresh ``qpverify --list`` processes.

With ``--trace 1`` it runs one untraced sample, then the workload twice
under ``tracer.py`` and reports the per-layer metrics: exact call
counts, which must repeat between the two traced passes, and the mean
of their times.

Every report is checked against the hand-written table in
``workloads.py``; JSON bytes must repeat between samples.  The last
line of standard output is the result object; the line before it holds
the run metadata.  The package is imported from ``src/`` of the
checkout with the pure-Python kernels forced, so results taken on
different kernel backends are never mixed.
"""

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_REPS = 11
MIN_SAMPLES = 2
TRACED_PASSES = 2
TIME_LIMIT_S = 170.0

PROBE = """
import json, os, platform, qpverify, qpverify.termops as t
print(json.dumps({"file": os.path.abspath(qpverify.__file__), "backend": t.BACKEND,
                  "backends": sorted(t.backends()), "python": platform.python_version()}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Child:
    """Outcome of one child process, with its rusage from ``os.wait4``."""

    def __init__(self, code, out, err, usage, wall):
        self.code, self.out, self.err, self.usage, self.wall = code, out, err, usage, wall

    @property
    def cpu_s(self):
        return self.usage.ru_utime + self.usage.ru_stime

    @property
    def maxrss_mb(self):
        return self.usage.ru_maxrss / 1024.0  # Linux reports KiB


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), QPVERIFY_PURE="1")

    def spawn(self, cmd):
        """Run ``cmd`` to exit, draining both pipes, and reap it with wait4."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        chunks = {proc.stdout: [], proc.stderr: []}
        try:
            with selectors.DefaultSelector() as sel:
                for pipe in chunks:
                    sel.register(pipe, selectors.EVENT_READ)
                while sel.get_map():
                    remaining = self.deadline - time.monotonic()
                    if remaining <= 0:
                        raise BenchError(f"time limit reached while running {cmd[1:]}")
                    for key, _ in sel.select(remaining):
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            sel.unregister(key.fileobj)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            for pipe in chunks:
                pipe.close()
        wall = time.perf_counter() - start
        return Child(
            proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
            usage, wall,
        )

    def cli(self, args):
        return self.spawn([sys.executable, "-m", "qpverify.cli", *args])


class Verdicts:
    """Compares reports with the expected table and with earlier samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_bytes = {}
        self.first_reports = {}
        self.problems = []

    def check(self, invocation, code, out, compare_bytes=True):
        """Count the checks of one report; return the parsed report or None."""
        self.attempted += len(workloads.EXPECTED[invocation])
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            self.fail(invocation, "no JSON report", len(workloads.EXPECTED[invocation]) + 1)
            return None
        bad = workloads.verdict_mismatches(invocation, report)
        if bad:
            self.fail(invocation, f"unexpected status of {bad}", len(bad))
        if code != workloads.expected_exit(invocation):
            self.fail(invocation, f"exit code {code}", 1)
        if compare_bytes:
            self.first_reports.setdefault(invocation, report)
            first = self.first_bytes.setdefault(invocation, out)
            if out != first:
                self.fail(invocation, "JSON bytes differ from the first sample", 1)
        return report

    def fail(self, invocation, what, count):
        self.failed += count
        self.problems.append(f"{' '.join(invocation)}: {what}")


def probe(runner):
    """Check that the package comes from this checkout; return its metadata."""
    if not (SRC / "qpverify" / "cli.py").is_file():
        raise BenchError(f"no qpverify sources under {SRC}")
    child = runner.spawn([sys.executable, "-c", PROBE])
    if child.code != 0:
        raise BenchError("cannot import qpverify: " + child.err.decode(errors="replace"))
    info = json.loads(child.out)
    if not info["file"].startswith(str(SRC) + os.sep):
        raise BenchError(f"qpverify imported from {info['file']}, not from {SRC}")
    return info


def source_digest():
    """SHA-256 of the files under src/; names the code when there is no .git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure_setup(runner):
    """Median wall time of fresh ``qpverify --list`` processes."""
    runner.cli(["--list"])  # fills the bytecode cache of a fresh checkout
    walls = []
    for _ in range(SETUP_REPS):
        child = runner.cli(["--list"])
        if child.code != 0 or not child.out:
            raise BenchError("qpverify --list failed: " + child.err.decode(errors="replace"))
        walls.append(child.wall)
    return statistics.median(walls)


def run_sample(runner, invocations, seed, verdicts):
    """Run every invocation once, one process at a time."""
    children = []
    start = time.perf_counter()
    for invocation in invocations:
        children.append(runner.cli(workloads.argv(invocation, seed)))
    wall = time.perf_counter() - start
    for invocation, child in zip(invocations, children):
        verdicts.check(invocation, child.code, child.out)
    return {
        "verdict_s": wall,
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.maxrss_mb for c in children),
    }


def end_to_end(runner, invocations, seed, seconds, verdicts):
    setup_s = measure_setup(runner)
    samples = []
    start = time.monotonic()
    while len(samples) < MIN_SAMPLES or time.monotonic() - start < seconds:
        samples.append(run_sample(runner, invocations, seed, verdicts))
    metrics = {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in (("verdict_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
    }
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    return metrics, [s["verdict_s"] for s in samples]


def traced_pass(runner, invocations, seed, verdicts):
    """Run the workload once under the tracer; return per-invocation results."""
    results = []
    for invocation in invocations:
        child = runner.spawn(
            [sys.executable, str(TRACER), str(SRC), *workloads.argv(invocation, seed)]
        )
        if child.code != 0:
            raise BenchError("traced run failed: " + child.err.decode(errors="replace"))
        traced = json.loads(child.out)
        report = verdicts.check(invocation, traced["exit"], traced["report"], compare_bytes=False)
        check_s = 0.0
        if report is not None:
            for check in report["checks"]:
                check_s += check.pop("millis", 0) / 1000
            if report != verdicts.first_reports.get(invocation):
                verdicts.fail(invocation, "traced report differs from the untraced one", 1)
        results.append({"wall": child.wall, "check_s": check_s, "stats": traced["stats"]})
    return results


def per_layer(runner, invocations, seed, verdicts):
    untraced = run_sample(runner, invocations, seed, verdicts)
    passes = [traced_pass(runner, invocations, seed, verdicts) for _ in range(TRACED_PASSES)]
    counts = [
        [{p: (s["calls"], s.get("distinct")) for p, s in r["stats"].items()} for r in results]
        for results in passes
    ]
    for invocation, *per_pass in zip(invocations, *counts):
        if any(c != per_pass[0] for c in per_pass):
            verdicts.fail(invocation, "call counts differ between traced passes", 1)

    def total(results, prefix, stat):
        return sum(r["stats"][prefix].get(stat, 0) for r in results)

    metrics = {}
    for _, _, prefix, published in tracer.TRACED:
        for stat in published:
            if stat == "calls":
                value, unit = total(passes[0], prefix, "calls"), "count"
            elif stat == "distinct_ratio":
                calls = total(passes[0], prefix, "calls")
                distinct = total(passes[0], prefix, "distinct")
                value, unit = (distinct / calls if calls else 0.0), "ratio"
            else:
                value = statistics.fmean(total(results, prefix, stat) for results in passes)
                unit = "s"
            metrics[f"{prefix}.{stat}"] = {"value": value, "unit": unit}
    traced_wall = statistics.fmean(sum(r["wall"] for r in results) for results in passes)
    check_s = statistics.fmean(sum(r["check_s"] for r in results) for results in passes)
    metrics["suites.check_s"] = {"value": check_s, "unit": "s"}
    metrics["suites.unattributed_s"] = {"value": traced_wall - check_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced["verdict_s"], "unit": "s"}
    return metrics, {"traced_wall_s": traced_wall, "untraced_verdict_s": untraced["verdict_s"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(time.monotonic() + TIME_LIMIT_S)
    invocations = workloads.WORKLOADS[args.workload]
    verdicts = Verdicts()
    try:
        info = probe(runner)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "backend": info["backend"],
            "compiled_backend": (
                "built" if "compiled" in info["backends"]
                else "not built; the README's compiled-core speedup is unverified here"
            ),
            "python": info["python"],
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "src_sha256": source_digest(),
        }
        if args.trace:
            metrics, extra = per_layer(runner, invocations, args.seed, verdicts)
            meta.update(extra)
        else:
            metrics, meta["sample_verdict_s"] = end_to_end(
                runner, invocations, args.seed, args.seconds, verdicts
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta["verdict_error_rate"] = verdicts.failed / verdicts.attempted
    meta["problems"] = verdicts.problems
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
