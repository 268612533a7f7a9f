#!/usr/bin/env python3
"""Builds the doppio CLI and the benchmark client, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root). The client starts the serve tier
itself; this wrapper runs it in its own process group and, when it ends,
kills and waits for anything left in that group, so no shard outlives the
run. The last line of standard output is the client's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set-up, warm-up, checks and probes on top of the measured seconds.
OVERHEAD_S = 120


def build(target, *cargo_args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    # Build output goes to stderr: stdout is reserved for the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def reap_group(proc):
    """SIGKILLs the process group `proc` leads, reaps `proc`, and waits
    until no other member of the group is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(root_manifest):
        sys.exit("perfbench: no doppio workspace at " + ROOT)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, "--manifest-path", root_manifest, "--bin", "doppio")
    build(target, "--manifest-path", bench_manifest)

    # The tier's scratch files (port files, its own temp dir) stay inside
    # the checkout.
    work_dir = os.path.join(target, "perfbench-run", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=work_dir)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--doppio", os.path.join(target, "release", "doppio"),
        "--work-dir", work_dir,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + OVERHEAD_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        code = 1
    finally:
        reap_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
