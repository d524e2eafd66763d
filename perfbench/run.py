#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (the octo_perfbench
executable and the library it links, from this checkout's sources) with
CMake into .bench_build/perfbench, then runs one workload process and relays
its report; the last line of standard output is the result JSON object.
Workloads: star_l3, sedov_dist, dwd_dist (see BENCHMARK.json); --workload
all runs each in turn and ends with one table of every metric.  With
--trace 1 the spans are written to .bench_build/perfbench/traces/.

Exits nonzero without a result line when the sources are missing or the
build fails, and with the workload process's own status otherwise (nonzero
when a correctness check failed).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "octo_perfbench")
# A workload run takes 25-50 s; one that hangs is killed after this.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once and build the benchmark target; serialized by a lock
    so concurrent first runs do not build over each other."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"cannot build: {needed} is missing from {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "octo_perfbench",
                      "-j", "4"])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True, env=env)
            if res.returncode != 0:
                sys.stderr.write(res.stdout)
                fail(f"build step failed: {' '.join(cmd)}")


def run_workload(workload, a, capture):
    """Run one workload process; returns (exit status, its stdout or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                             stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"workload process exceeded {RUN_TIMEOUT_S} s and was killed")
    return res.returncode, res.stdout


def run_all(a):
    """Every workload of BENCHMARK.json in turn, then one table of all
    metrics; nonzero when any workload failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    results, status = {}, 0
    for w in names:
        rc, out = run_workload(w, a, capture=True)
        sys.stdout.write(out)
        status = status or rc
        lines = out.strip().splitlines()
        results[w] = json.loads(lines[-1]) if lines else None
    print("summary (%s)" % ("per-layer" if a.trace == "1" else "end-to-end"))
    metrics = []
    for r in results.values():
        for m in (r or {}).get("metrics", {}):
            if m not in metrics:
                metrics.append(m)
    print("  %-28s" % "metric" + "".join("%16s" % w for w in names))
    for m in metrics:
        unit = next(r["metrics"][m]["unit"] for r in results.values()
                    if r and m in r["metrics"])
        cells = ["%16.6g" % results[w]["metrics"][m]["value"]
                 if results[w] and m in results[w]["metrics"] else
                 "%16s" % "-" for w in names]
        print("  %-28s" % f"{m} [{unit}]" + "".join(cells))
    print("  %-28s" % "fail_frac" + "".join(
        "%16.6g" % (r["failed"] / r["attempted"]) if r else "%16s" % "-"
        for r in results.values()))
    sys.exit(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for every workload")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be >= 0")

    build()
    if a.workload == "all":
        run_all(a)
    rc, _ = run_workload(a.workload, a, capture=False)
    sys.exit(rc)


if __name__ == "__main__":
    main()
