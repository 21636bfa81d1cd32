#!/usr/bin/env python3
"""Run one perfbench workload from the root of a topocon checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program and the topocon CLI (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
it. Its last stdout line is the result object; build
output goes to perfbench-build.log in the build directory. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("n4-cert", "n4-limit", "n5-table", "serve-mix")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    configured = os.path.join(build_dir, "perfbench.configured")
    steps = []
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(os.cpu_count() or 1, 4)),
                  "--target", "perfbench", "topocon"])
    with open(log_path, "ab") as log:
        for i, step in enumerate(steps):
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path, "rb") as failed:
                    tail = failed.read()[-4000:]
                sys.stderr.write(tail.decode(errors="replace"))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
            if i == 0 and len(steps) == 2:
                open(configured, "w").close()
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.relpath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    if not build(source_dir, build_dir):
        return 2

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--topocon", os.path.join(build_dir, "topocon", "tools",
                                         "topocon"),
               "--out-dir", build_dir]
    # Temporary files (the engine's spill tier) stay inside the checkout.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # Own process group, so a timed-out or interrupted run takes its
    # serve daemon along.
    bench = subprocess.Popen(command, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
