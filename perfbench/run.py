#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload conv-walk --seed 1 --seconds 20 --trace 0

Every build and output file stays under .bench_build/ in the checkout:
the Go build cache, temporary files, the benchmark binary, CPU profiles,
span files and scratch result caches. Arguments are passed through to the
benchmark (see main.go); its last line of output is the JSON result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = shutil.which("go", path=os.path.join(os.environ["GOROOT"], "bin"))
    if go is None:
        print("perfbench: no go command on PATH", file=sys.stderr)
        return 1

    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build offline with the installed toolchain only.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")

    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = sys.argv[1:] + ["--outdir", os.path.join(build, "out"), "--go", go]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
