#!/usr/bin/env python3
"""Build trserve and the benchmark driver from this checkout, then run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload http_mlp --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes under .bench_build/ in the
checkout: the Go build cache, the binaries, the tile autotuner's cache and
the run directories (traced runs keep their spans and result there).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build", "perfbench")
    bindir = os.path.join(build, "bin")
    gotmp = os.path.join(build, "gotmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(gotmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": gotmp,
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    trserve = os.path.join(bindir, "trserve")
    driver = os.path.join(bindir, "perfbench")
    builds = [
        (["go", "build", "-o", trserve, "./cmd/trserve"], root),
        (["go", "build", "-o", driver, "."], os.path.join(root, "perfbench")),
    ]
    for cmd, cwd in builds:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: build failed: %s" % err, file=sys.stderr)
            return 2
        if done.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2
    sys.stdout.flush()
    # Replace this process, so whoever started the benchmark waits on
    # (and can signal) the driver itself.
    os.execve(driver, [driver, "-root", root, "-trserve", trserve] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
