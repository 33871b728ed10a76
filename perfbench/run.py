#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <live-suite|trace-replay> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error; the last line of standard output is the result.
The exit code is the benchmark's, or 1 when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark bounds itself well below this; the limit only guards
# against a hung child.
TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "vp-perfbench")
    # A session of its own, so that a timeout stops the benchmark's
    # children (the measuring process and the daemon) as well.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
