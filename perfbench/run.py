#!/usr/bin/env python3
"""Build the fixed-work benchmark harness and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library from src/) as a
Release tree under .bench_build/perfbench, then runs the harness from the
repository root. Build output goes to stderr; the harness prints the host
facts, its checks and, as the last line of stdout, one JSON object with the
metrics. Exits non-zero without a result when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("suite_oracle", "explore_orders", "fuzz_models")
# The harness itself takes well under this; the limit only stops a hang.
HARNESS_TIMEOUT_S = 170


def build():
    """Configure (once) and build the harness; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def source_identity():
    """The git sha when the checkout is a git repository, else a digest of
    the sources the harness is built from."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            return out[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "none(src-sha256:" + digest.hexdigest()[:16] + ")"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds < 1 or a.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--git-sha", source_identity()]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
