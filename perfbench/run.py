#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's source into
the build directory (CARGO_TARGET_DIR when set, else .bench_build), with
every Go cache and temporary directory kept inside it, and then run with
the given arguments. Its standard output passes through unchanged; the
last line is the JSON result. If the build fails (for instance when the
module the benchmark measures is not there) this exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOSUMDB="off", GOTOOLCHAIN="local",
               GOWORK="off", GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=840)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=175)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
