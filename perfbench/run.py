#!/usr/bin/env python3
"""
arccalc benchmark.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's ``arccalc`` CLI invocations run back to
back, each in a fresh interpreter (one closed-loop client), for about
``--seconds`` seconds; every run's output is checked against
``perfbench/expected.json`` and the end-to-end metrics are printed.  With
``--trace 1`` the workload runs once untraced and once in this process with a
span around each traced arccalc function, and the per-layer metrics are
printed; the spans are written under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record`` rewrites
``expected.json`` from the current code instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"

# Each workload is a list of CLI invocations run back to back.  Why each one
# exists, and which layer it loads, is written down in perfbench/README.md.
WORKLOADS: dict[str, list[list[str]]] = {
    "homology": [
        ["homology", "--genus", "7", "--side", "2"],
        ["homology", "--genus", "4", "--side", "1", "--max-degree", "8"],
    ],
    "oracle": [["oracle-diff", "--max-degree", "8", "--threads", "2"]],
    "homotopy": [
        ["homotopy", "--max-degree", "8", "--genus", "5", "--side", "2",
         "--samples", "10000", "--sample-degree", "8", "--seed", "{seed}"],
    ],
    "bookkeeping": [
        ["e1", "--ambient", "4,2", "--side", "2", "--max-p", "8", "--with-d1"],
        ["ledger", "--g-max", "50", "--k-max", "20"],
        ["exceptions", "--case", "surj-s01"],
        ["exceptions", "--case", "surj-s11"],
        ["exceptions", "--case", "inj-s11"],
    ],
}
SETUP_ARGV = ["--describe"]

# (metric, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150


def workload_argvs(workload: str, seed: int, traced: bool = False) -> list[list[str]]:
    argvs = []
    for template in WORKLOADS[workload]:
        argv = [a.replace("{seed}", str(seed)) for a in template] + ["--format", "json"]
        if traced and "--threads" in argv:
            # pool workers are out of the tracer's reach; the output is the same
            argv[argv.index("--threads") + 1] = "1"
        argvs.append(argv)
    return argvs


def expected_keys(workload: str) -> list[str]:
    return [f"{workload}[{i}]" for i in range(len(WORKLOADS[workload]))]


@dataclass
class Invocation:
    code: int
    sha256: str
    nbytes: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: bytes


def invoke(argv: list[str]) -> Invocation:
    """Run ``python -m arccalc.cli argv`` in a fresh interpreter; rusage from its own ``wait4``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ARCCALC_FORMAT", None)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "arccalc.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - t0
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Invocation(
        proc.returncode, hashlib.sha256(out).hexdigest(), len(out), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, err[0] if err else b"",
    )


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool


def check(key: str, code: int, sha256: str, expected: dict) -> bool:
    want = expected[key]
    if code == 0 and sha256 == want["sha256"]:
        return True
    print(f"FAILED {key} ({want['argv']}): exit {code}, output sha256 {sha256}", file=sys.stderr)
    return False


def run_workload(argvs: list[list[str]], keys: list[str], expected: dict) -> Run:
    t0 = perf_counter()
    results = [invoke(argv) for argv in argvs]
    wall = perf_counter() - t0
    ok = True
    for key, r in zip(keys, results):
        if not check(key, r.code, r.sha256, expected):
            sys.stderr.write(r.stderr.decode(errors="replace")[-2000:])
            ok = False
    return Run(wall, sum(r.cpu_s for r in results), max(r.rss_mb for r in results), ok)


def measure(workload: str, seed: int, seconds: int, expected: dict) -> dict:
    start = perf_counter()
    argvs = workload_argvs(workload, seed)
    keys = expected_keys(workload)
    setup = []
    setup_ok = 0
    for _ in range(SETUP_PROBES):
        r = invoke(SETUP_ARGV)
        setup.append(r.wall_s)
        setup_ok += check("setup", r.code, r.sha256, expected)
    runs: list[Run] = []
    while True:
        runs.append(run_workload(argvs, keys, expected))
        # start another run only if it should end within the time budget
        if perf_counter() - start + median(r.wall_s for r in runs) > seconds:
            break
    series = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup,
    }
    for name, values in series.items():
        print(f"{name}: median {median(values):.4f} over n={len(values)} (min {min(values):.4f}, max {max(values):.4f})")
    attempted = len(runs) + SETUP_PROBES
    failed = sum(not r.ok for r in runs) + SETUP_PROBES - setup_ok
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    metrics = {name: median(series[name]) for name, *_ in END_TO_END}
    return result(failed == 0, attempted, failed, metrics, {name: unit for name, unit, *_ in END_TO_END})


def trace(workload: str, seed: int, expected: dict) -> dict:
    argvs = workload_argvs(workload, seed, traced=True)
    keys = expected_keys(workload)
    sys.path.insert(0, str(SRC))
    import arccalc
    import layers

    if not Path(arccalc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"arccalc imported from {arccalc.__file__}, not from {SRC}")
    # the untraced reference runs in process too: a fresh-process wall time
    # would also count interpreter start-up, which the traced run never pays
    runs = [layers.run_in_process(argvs, traced=False), layers.run_in_process(argvs)]
    failed = sum(
        not all([check(k, code, sha, expected) for k, (code, sha) in zip(keys, r.outputs)])
        for r in runs
    )
    reference, traced = runs
    metrics = layers.layer_metrics(traced, reference.total_s)
    stem = OUT / f"trace-{workload}-seed{seed}"
    traced.recorder.write(stem)
    print(f"spans: {len(traced.recorder)} written to {stem.relative_to(ROOT)}.*")
    print(f"in process: traced {traced.total_s:.4f} s, untraced {reference.total_s:.4f} s")
    for name, unit, _ in layers.PER_LAYER:
        print(f"{name}: {metrics[name]} {unit}")
    return result(failed == 0, len(runs), failed, metrics, {name: unit for name, unit, _ in layers.PER_LAYER})


def result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def record(seed: int) -> None:
    """Write expected.json: the output digest of every invocation, from the current code."""
    entries = {}
    jobs = [("setup", SETUP_ARGV, SETUP_ARGV)] + [
        (key, template, argv)
        for w in WORKLOADS
        for key, template, argv in zip(expected_keys(w), WORKLOADS[w], workload_argvs(w, seed))
    ]
    for key, template, argv in jobs:
        r = invoke(argv)
        if r.code != 0:
            raise SystemExit(f"{key}: exit {r.code}\n{r.stderr.decode(errors='replace')}")
        entries[key] = {"argv": " ".join(template), "sha256": r.sha256, "bytes": r.nbytes}
        print(f"{key}: {r.nbytes} bytes, {r.wall_s:.2f} s")
    EXPECTED.write_text(json.dumps(entries, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args()
    if not (SRC / "arccalc" / "cli.py").is_file():
        print(f"error: no arccalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} is missing; run with --record", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}")
    if args.trace:
        out = trace(args.workload, args.seed, expected)
    else:
        out = measure(args.workload, args.seed, args.seconds, expected)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
