#!/usr/bin/env python3
"""Build and run one workload of the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 20 --trace 0

Workloads: stationary, converge_pile, serve_closed.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics.  --quick shrinks every
size for a smoke test.

The program (perfbench/main.ml) is built from source with dune into
.bench_build and runs in its own process group, with a deadline; its state
directories live under .bench_state in the checkout and are removed
afterwards.  The last line of stdout is the result object; the line before
it is the run record with the run's inputs and the box it ran on.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("stationary", "converge_pile", "serve_closed")
DEADLINE_S = 170.0
BUILD_DIR = ".bench_build"
STATE_ROOT = ".bench_state"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def probe(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail("dune not found")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def run(args, state_dir, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir] + (["--quick"] if args.quick else [])
    # A process group of its own, so a deadline kill also reaches the
    # daemons the program forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if out is None:
        fail("run exceeded its deadline")
    if proc.returncode != 0:
        fail(f"program exited with code {proc.returncode}")
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    build()
    state_dir = os.path.join(STATE_ROOT, f"run-{os.getpid()}")
    try:
        lines = run(args, state_dir, deadline)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            os.rmdir(STATE_ROOT)
        except OSError:
            pass
    if len(lines) < 2:
        fail("program printed no result")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    record.update(
        git_rev=probe(["git", "rev-parse", "HEAD"]),
        nproc=os.cpu_count(),
        ocaml=probe(["ocamlfind", "ocamlopt", "-version"]),
    )
    for line in lines[:-2]:
        print(line)
    print(json.dumps(record))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
