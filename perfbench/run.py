#!/usr/bin/env python3
"""Builds the socs libraries and the benchmark in Release, then runs one run.

    python3 perfbench/run.py --workload sky_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own unit tests

Run from the root of a checkout. The build tree is .bench_build/ and the
run's scratch files (data directories, span files) go to .bench_tmp/, both
at the root. The last line of standard output is the run's JSON result;
build output and progress go to standard error. Exits non-zero, without a
result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TMP = os.path.join(ROOT, ".bench_tmp")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("no socs sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not a.workload:
        ap.error("--workload is required")
    if not build("socs_perfbench"):
        return 1
    os.makedirs(TMP, exist_ok=True)
    cmd = [os.path.join(BUILD, "socs_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace,
           "--tmp-dir", TMP]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("run failed (exit %d)" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
