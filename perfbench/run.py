#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload svc-mem --seed 1 --seconds 20 --trace 0

builds perfbench/main.exe with dune from the source tree this file sits in,
runs it once and passes its standard output through: the counts line, then
the result line (the last line).  svc-wal journals on a tmpfs mounted over
.perfbench/tmpfs in a private mount namespace, so the shared disk's fsync
latency stays out of its timings and nothing is written outside the tree;
where such a mount is refused, it journals in .perfbench/ and says so.

    python3 perfbench/run.py --check-repeat --workload svc-wal --seed 1

runs the benchmark twice on one seed, untraced and traced, and fails unless
both print the same exact counts and outcome digests.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("svc-mem", "svc-wal", "tune-history")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: run from a checkout of the repository" % (need, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with code %d" % done.returncode)


MOUNT = 'mount -t tmpfs -o size=256m perfbench "$0" && exec "$@"'


def private_tmpfs(mnt):
    """True when a tmpfs can be mounted over mnt in a private namespace."""
    try:
        probe = subprocess.run(["unshare", "--mount", "sh", "-c", MOUNT, mnt, "true"],
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                               timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0


def command(args, seconds, trace):
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-file", os.path.join(work, "trace-%s.jsonl" % args.workload)]
    if args.workload == "svc-wal":
        mnt = os.path.join(work, "tmpfs")
        os.makedirs(mnt, exist_ok=True)
        if private_tmpfs(mnt):
            return ["unshare", "--mount", "sh", "-c", MOUNT, mnt] + cmd + ["--work", mnt]
        print("perfbench: no private tmpfs here; svc-wal journals on disk",
              file=sys.stderr)
    return cmd + ["--work", work]


def run_once(args, seconds, trace):
    cmd = command(args, seconds, trace)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in 170 s")
    if done.returncode != 0:
        fail("the benchmark exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("the benchmark printed no result")
    counts, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line: %s" % lines[-1])
    return done.stdout, counts, result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-repeat", action="store_true",
                   help="run twice on one seed; exact counts and digest must match")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0")
    build()
    if not args.check_repeat:
        out, _, _ = run_once(args, args.seconds, args.trace)
        sys.stdout.write(out)
        return
    # The counts come from the run's first timed round, which a traced run
    # plays untraced too, so short runs suffice.  A traced run must repeat
    # every count but the runtime's (its span recorder changes the heap).
    runs = [run_once(args, 1, trace) for trace in (0, 0, 1)]
    first = runs[0][1]
    def work(counts):
        return dict(counts, counts={k: v for k, v in counts["counts"].items()
                                    if not k.startswith("gc.")})
    print(json.dumps(first))
    same = runs[1][1] == first and work(runs[2][1]) == work(first)
    if not same or not all(r[2]["correct"] for r in runs):
        for r in runs[1:]:
            print(json.dumps(r[1]))
        fail("runs of seed %d differ or failed" % args.seed)
    print("perfbench: %s seed %d repeats its counts and digests %s"
          % (args.workload, args.seed, " ".join(first["digests"])))


if __name__ == "__main__":
    main()
