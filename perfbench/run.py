#!/usr/bin/env python3
"""Build refnet and its benchmark from source, then run one workload.

Run from the root of a refnet checkout:

    python3 perfbench/run.py --workload forest-tree-1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Every argument is passed to the OCaml benchmark (perfbench/refbench.ml),
which prints its metrics and, as the last line, one JSON object.  Outside
a refnet checkout nothing can be built, so this exits 2 without a result.
"""

import os
import subprocess
import sys

NEEDED = ["dune-project", "lib", "bin/refnet.ml", "perfbench/refbench.ml"]
REFNET = os.path.join("_build", "default", "bin", "refnet.exe")
REFBENCH = os.path.join("_build", "default", "perfbench", "refbench.exe")
# The benchmark itself stays well under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("run.py: not a refnet checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/refnet.exe", "./perfbench/refbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([REFBENCH, *sys.argv[1:], "--refnet", REFNET])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the benchmark stop its daemon before exiting
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
