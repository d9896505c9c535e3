#!/usr/bin/env python3
r"""Order-level benchmark of the odcfp fingerprinting library.

    python3 perfbench/run.py --workload order_c3540 --seed 1 \
        --seconds 35 --trace 0

Run from the root of a checkout. Builds perfbench/ (and the library from
src/) into .bench_build/perfbench, writes the workload's inputs from
--seed into a fresh directory under .bench_build/runs, runs the measuring
program on them, and prints its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the artifact digest of the run ("digest <crc32>"),
identical on every run of one seed. See perfbench/README.md.
"""
import argparse
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUNS = os.path.join(".bench_build", "runs")

# Order workloads: one circuit as BLIF text per order, `buyers` editions
# each; a nonzero `max_delay` is the reactive_reduce constraint, and 0
# skips the reduction.
ORDERS = {
    "order_c3540": {"circuit": "c3540", "buyers": 32, "max_delay": 0.0},
    "reduce_des": {"circuit": "des", "buyers": 2, "max_delay": 0.01},
}
# The service mix: (circuit, buyers) request kinds. Each is large enough
# for CEC to dominate it; small requests slowed the most under host
# contention (see perfbench/README.md).
SERVICE = {"service_mix": {"kinds": [("c432", 16), ("c499", 16), ("c880", 16),
                                     ("c1908", 4), ("c1908", 8),
                                     ("c1908", 12), ("c1908", 16)],
                           "tenants": ["acme", "globex", "initech"],
                           "blocks": 512}}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def write_spec(workload, seed, seconds, trace, work, binary):
    """Generates the run's inputs; the program receives only these."""
    rng = random.Random("%s:%d" % (workload, seed))
    lines = ["mode %s" % ("order" if workload in ORDERS else "service"),
             "work " + work, "seconds %g" % seconds, "trace %d" % trace]
    if workload in ORDERS:
        w = ORDERS[workload]
        library = os.path.join(work, "cells.lib")
        blif = os.path.join(work, w["circuit"] + ".blif")
        if (subprocess.run([binary, "library", library]).returncode or
                subprocess.run([binary, "gen", w["circuit"], blif]).returncode):
            fail("cannot write the inputs of " + workload)
        lines += ["library " + library, "circuit " + w["circuit"],
                  "blif " + blif,
                  "buyers %d" % w["buyers"], "max_delay %g" % w["max_delay"]]
        lines += ["order %d" % rng.getrandbits(63) for _ in range(64)]
    else:
        w = SERVICE[workload]
        # Every block holds each request kind once, in a seeded order, and
        # every request verifies; a run measures whole blocks, so every
        # seed sends the same mix and differs only in order, tenants and
        # codebooks.
        kinds = list(w["kinds"])
        lines.append("block %d" % len(kinds))
        for _ in range(w["blocks"]):
            rng.shuffle(kinds)
            for circuit, buyers in kinds:
                lines.append("request %s %s %d 1 %d" % (
                    rng.choice(w["tenants"]), circuit, buyers,
                    rng.getrandbits(63)))
    path = os.path.join(work, "spec")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys " + ",".join(sorted(result)))
    if not isinstance(result["correct"], bool) or result["attempted"] < 1:
        raise ValueError("bad correct/attempted")
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"]:
            raise ValueError("metric %s: keys %s" % (name, sorted(m)))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=sorted(list(ORDERS) + list(SERVICE)))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    binary = build()
    work = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                            os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec = write_spec(args.workload, args.seed, args.seconds, args.trace,
                          work, binary)
        # The file system may discard freed blocks when its journal
        # commits; syncing before and after a run keeps that work (from
        # the build or an earlier run's clean-up) out of the measured time.
        os.sync()
        before = cpu_ticks()
        try:
            proc = subprocess.run([binary, "run", spec], stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        after = cpu_ticks()
        if before and after and after[1] > before[1]:
            # Time the hypervisor ran something else on this VM's CPUs; a
            # run with much of it is slow for reasons outside the program.
            print("perfbench: host steal %.1f%% of CPU time during the run"
                  % (100.0 * (after[0] - before[0]) / (after[1] - before[1])),
                  file=sys.stderr)
        if proc.returncode != 0:
            fail("run exited %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        try:
            result = check_result(lines[-1])
        except (ValueError, IndexError, KeyError, TypeError) as e:
            fail("malformed result: %s" % e)
        for line in lines[:-1]:
            print(line)
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()


if __name__ == "__main__":
    main()
