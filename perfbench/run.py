#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's packages through a replace directive. This wrapper
builds it from source with every Go cache, config and temporary directory
under .bench_build/perfbench, then replaces itself with the built program, which
prints the result as the last line of standard output. Outside a checkout of
the repository the build fails and the wrapper exits non-zero.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    work = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        # The go command keeps its env file and telemetry counters under
        # the user config directory; point it into the checkout too.
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=src,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
