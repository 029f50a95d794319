#!/usr/bin/env python3
"""Benchmark of record: build the library and the harness, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lk23 --seed 1 --seconds 25 --trace 0

Workloads: lk23, video, serve, dist (see perfbench/README.md). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which also writes a Chrome trace-event file under
the build directory). Everything is built from source into .bench_build/
(or $CARGO_TARGET_DIR when set) inside the checkout. While the workload
runs, perfbench_keep_awake keeps every CPU from going idle (see
src/keep_awake.cpp); it is stopped and waited for on every way out.

Exit codes: 0 on a correct run; 1 when any result disagreed with its
reference; 2 when the run could not complete (missing sources, build
failure, timeout, bad arguments).
"""

import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175
WORKLOADS = ("lk23", "video", "serve", "dist")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configure once, then (re)build; output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")
    out = build_dir(root)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return out


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one result before it is checked")
    args = ap.parse_args()

    root = os.getcwd()
    out = build(root)
    cmd = [os.path.join(out, "orwl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit_of(root)]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt:
        cmd.append("--corrupt")

    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    # A SIGTERM takes the same way out as an error, so the finally below
    # stops both child processes.
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated"))
    awake = subprocess.Popen(
        [os.path.join(out, "perfbench_keep_awake"), str(RUN_TIMEOUT_S + 5)],
        stdout=subprocess.PIPE, text=True)
    proc = None
    try:
        if awake.stdout.readline().strip() != "ready":
            fail("perfbench_keep_awake did not start")
        proc = subprocess.Popen(cmd, env=env)
        try:
            rc = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for p in (proc, awake):
            if p is not None:
                if p.poll() is None:
                    p.kill()
                p.wait()
        awake.stdout.close()
    sys.exit(rc if rc in (0, 1) else 2)


if __name__ == "__main__":
    main()
