#!/usr/bin/env python3
"""Builds perfbench from the source tree and runs one benchmark run.

    python3 perfbench/run.py --workload large_query --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The build (the mpqopt library,
mpqopt_worker, and the perfbench binary) goes to $CARGO_TARGET_DIR when
set, otherwise .bench_build/, and is incremental after the first run.
Build output goes to stderr; the binary's stdout is passed through, so
its JSON result is the last line. The binary runs in its own process
group, which is killed and drained when it exits, so no rpc worker
outlives a run even if the binary crashes.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            sys.exit(2)
    return os.path.join(out, target)


def source_revision():
    """The git revision, or a hash of the sources outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_in_group(argv):
    """Runs argv in a new process group; kills and drains the group after."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    # A TERM (e.g. a timeout) still runs run_in_group's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.selftest:
        return run_in_group([build("perfbench_selftest")])
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    sys.stdout.flush()
    return run_in_group([binary, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--scratch-dir", build_dir(),
                         "--source", source_revision()])


if __name__ == "__main__":
    sys.exit(main())
