#!/usr/bin/env python3
"""Build the program from source and run one perfbench workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sensor_randpc --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result of the run. With
--steady K the workload runs K times (seeds seed .. seed+K-1), each in a
fresh process, and the median, quartiles and spread of every metric are
printed instead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

PROGRAM = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    for path in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("run from the root of a checkout of the repository (no %s here)" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "./perfbench/main.exe", "./bin/pcda.exe"]
    # build output goes to stderr: stdout ends with the result line
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def run_program(workload, seed, seconds, trace, capture):
    """Run the benchmark program in its own process group, so that a run cut off by
    the timeout takes the server it spawned down with it."""
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run with seed %d did not finish in %d s" % (seed, RUN_TIMEOUT_S))
    return proc.returncode, out


def steady(args):
    values = {}
    units = {}
    failed = []
    for k in range(args.steady):
        seed = args.seed + k
        code, out = run_program(args.workload, seed, args.seconds, args.trace, capture=True)
        if code != 0:
            fail("run with seed %d exited with %d" % (seed, code))
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            fail("run with seed %d was not correct:\n%s" % (seed, out))
        failed.append((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())),
              flush=True)
    print("workload %s, %d runs of %gs, trace %d" % (args.workload, args.steady, args.seconds, args.trace))
    print("failed/attempted per run: %s" % " ".join("%d/%d" % fa for fa in failed))
    print("%-32s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-32s %14.6g %14.6g %14.6g %8.4f %s" % (name, q1, med, q3, spread, units[name]))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="run K seeds and print each metric's quartiles and spread")
    args = p.parse_args()
    build()
    if args.steady:
        steady(args)
        return
    code, _ = run_program(args.workload, args.seed, args.seconds, args.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
