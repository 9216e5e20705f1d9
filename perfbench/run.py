#!/usr/bin/env python3
"""Build the perfbench Go package from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mixed-zipf --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory: the Go build cache, the binary, the run's snapshot file
and the span dump of a traced run. The benchmark's result is the last line
of standard output.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
PKG = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(OUT, "perfbench")


def build():
    """Compile the package; go's own cache makes a rebuild of unchanged
    sources cheap."""
    for sub in ("gocache", "tmp", "home"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "HOME": os.path.join(OUT, "home"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "home"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    env["GOPATH"] = os.path.join(OUT, "gopath")
    subprocess.run(["go", "build", "-trimpath", "-o", BIN, "."], cwd=PKG, env=env,
                   stdout=sys.stderr, check=True, timeout=840)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: run from the repository root (no go.mod here)")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    proc = subprocess.run([BIN, "-dir", OUT] + sys.argv[1:], timeout=175)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
