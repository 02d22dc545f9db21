#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a treetrav checkout:

    python3 perfbench/run.py --workload cluster-hot --seed 1 --seconds 10 --trace 0

The arguments are passed to the OCaml benchmark (perfbench/bench.ml),
whose last line of standard output is the JSON result. The build goes to
the directory named by CARGO_TARGET_DIR (default .bench_build) inside the
checkout, with dune's shared cache disabled and TMPDIR inside the build
directory, so nothing is written outside the checkout. Outside a treetrav checkout the script exits 2 without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    for needed in ("dune-project", "lib", "perfbench/dune-project"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the root of a treetrav checkout",
                  file=sys.stderr)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.join(root, build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
             "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
